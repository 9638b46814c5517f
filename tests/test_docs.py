"""Documentation suite stays truthful: links resolve, smoke blocks exist."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_suite_exists():
    for name in ("architecture.md", "engine.md", "observability.md",
                 "renaming-policies.md", "reproducing-the-paper.md",
                 "resilience.md", "service.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), name


def test_intra_repo_links_resolve():
    checker = load_checker()
    files = checker.doc_files()
    assert len(files) >= 4  # README + the three docs
    failures = checker.check_links(files)
    assert not failures, [
        f"{path.name}: {target} ({reason})"
        for path, target, reason in failures
    ]


def test_quickstart_smoke_blocks_are_marked():
    """The CI docs job runs `<!-- smoke -->` blocks; the convention must
    not silently disappear from the quickstart docs."""
    checker = load_checker()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    engine = (REPO_ROOT / "docs" / "engine.md").read_text(encoding="utf-8")
    policies = (REPO_ROOT / "docs"
                / "renaming-policies.md").read_text(encoding="utf-8")
    service = (REPO_ROOT / "docs"
               / "service.md").read_text(encoding="utf-8")
    resilience = (REPO_ROOT / "docs"
                  / "resilience.md").read_text(encoding="utf-8")
    observability = (REPO_ROOT / "docs"
                     / "observability.md").read_text(encoding="utf-8")
    readme_blocks = list(checker.iter_smoke_blocks(readme))
    engine_blocks = list(checker.iter_smoke_blocks(engine))
    policy_blocks = list(checker.iter_smoke_blocks(policies))
    service_blocks = list(checker.iter_smoke_blocks(service))
    resilience_blocks = list(checker.iter_smoke_blocks(resilience))
    observability_blocks = list(checker.iter_smoke_blocks(observability))
    assert len(readme_blocks) >= 2  # CLI quickstart + library quickstart
    assert len(engine_blocks) >= 2  # cluster walkthrough + engine-tier A/B
    assert len(policy_blocks) >= 2  # registry walk + port sweep
    assert len(service_blocks) >= 1  # the gateway curl walkthrough
    assert len(resilience_blocks) >= 1  # the corrupt-and-repair loop
    assert len(observability_blocks) >= 1  # the trace/top/profile tour
    languages = {lang for lang, _ in
                 readme_blocks + engine_blocks + policy_blocks
                 + service_blocks + resilience_blocks
                 + observability_blocks}
    assert languages <= {"bash", "python"}
    # The cluster walkthrough really exercises the remote backend.
    assert any("--workers" in source for _, source in engine_blocks)
    # The engine-tier A/B really runs both tiers and compares them.
    assert any("for tier in interp native" in source
               and '--engine "$tier"' in source
               and "engine_fallbacks" in source
               for _, source in engine_blocks)
    # The policy walkthrough really exercises the registry + port model.
    assert any("policy_names" in source for _, source in policy_blocks)
    assert any("port-sweep" in source for _, source in policy_blocks)
    # The gateway walkthrough really serves HTTP with auth enforced.
    assert any("repro serve" in source for _, source in service_blocks)
    assert any("REPRO_TOKEN" in source for _, source in service_blocks)
    assert any("401" in source for _, source in service_blocks)
    # The resilience walkthrough really injects a fault and repairs it.
    assert any("REPRO_FAULTS" in source for _, source in resilience_blocks)
    assert any("verify --repair" in source
               for _, source in resilience_blocks)
    # The observability tour really traces a sweep and inspects it.
    assert any("--trace" in source for _, source in observability_blocks)
    assert any("repro trace" in source
               for _, source in observability_blocks)
    assert any("--profile" in source
               for _, source in observability_blocks)


def test_readme_links_docs_suite():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for target in ("docs/architecture.md", "docs/engine.md",
                   "docs/reproducing-the-paper.md"):
        assert target in readme, f"README must link {target}"
