"""Tests for the deterministic fault-injection framework."""

import pytest

from repro.engine.faults import (
    ENV_VAR,
    FAULT_SITES,
    FaultPlan,
    FaultSite,
    active_plan,
    clear,
    fault,
    fault_delay,
    install,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends with no active plan."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear()
    yield
    clear()


class TestParsing:
    def test_bare_site_always_fires(self):
        plan = FaultPlan.from_string("remote.connect")
        assert plan.sites["remote.connect"].probability == 1.0
        assert all(plan.should_fire("remote.connect") for _ in range(10))

    def test_full_syntax_roundtrips(self):
        text = ("seed=42;remote.connect:p=0.25,n=3;"
                "worker.slow_reply:delay=0.5;exec.hang:after=2")
        plan = FaultPlan.from_string(text)
        assert plan.seed == 42
        site = plan.sites["remote.connect"]
        assert (site.probability, site.count) == (0.25, 3)
        assert plan.sites["worker.slow_reply"].delay == 0.5
        assert plan.sites["exec.hang"].after == 2
        # to_string parses back to an equivalent plan
        again = FaultPlan.from_string(plan.to_string())
        assert again.sites == plan.sites
        assert again.seed == plan.seed

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_string("remote.tpyo")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.from_string("remote.connect:q=1")

    def test_every_documented_site_parses(self):
        for name in FAULT_SITES:
            assert FaultPlan.from_string(name).sites[name].name == name


class TestTriggers:
    def test_count_caps_fires(self):
        plan = FaultPlan.from_string("remote.connect:n=2")
        fires = [plan.should_fire("remote.connect") for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_after_skips_first_hits(self):
        plan = FaultPlan.from_string("remote.connect:after=3")
        fires = [plan.should_fire("remote.connect") for _ in range(5)]
        assert fires == [False, False, False, True, True]

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan.from_string("remote.connect")
        assert not plan.should_fire("remote.heartbeat")

    def test_probability_is_deterministic_per_seed(self):
        def decide():
            plan = FaultPlan.from_string("seed=7;remote.connect:p=0.5")
            return [plan.should_fire("remote.connect") for _ in range(50)]

        first, second = decide(), decide()
        assert first == second
        assert True in first and False in first

    def test_sites_draw_independent_streams(self):
        # Interleaving another site's hits must not change decisions.
        solo = FaultPlan.from_string("seed=3;remote.connect:p=0.5")
        solo_fires = [solo.should_fire("remote.connect") for _ in range(20)]
        mixed = FaultPlan.from_string(
            "seed=3;remote.connect:p=0.5;remote.heartbeat:p=0.5")
        mixed_fires = []
        for _ in range(20):
            mixed.should_fire("remote.heartbeat")
            mixed_fires.append(mixed.should_fire("remote.connect"))
        assert solo_fires == mixed_fires

    def test_delay_for(self):
        plan = FaultPlan.from_string("worker.slow_reply:delay=0.25")
        assert plan.delay_for("worker.slow_reply", 1.0) == 0.25
        assert plan.delay_for("exec.hang", 60.0) == 60.0

    def test_report_records_fires(self):
        plan = FaultPlan.from_string("seed=9;remote.connect:n=1")
        plan.should_fire("remote.connect")
        plan.should_fire("remote.connect")
        report = plan.report()
        assert report["seed"] == 9
        assert report["hits"] == {"remote.connect": 2}
        assert report["fired"] == {"remote.connect": 1}
        assert report["log"] == ["remote.connect fired on hit 1"]


class TestActivation:
    def test_no_plan_is_a_noop(self):
        assert active_plan() is None
        assert fault("remote.connect") is False
        assert fault_delay("exec.hang", 60.0) == 60.0

    def test_install_and_clear(self):
        install(FaultPlan.from_string("remote.connect:n=1"))
        assert fault("remote.connect") is True
        assert fault("remote.connect") is False  # count exhausted
        clear()
        assert fault("remote.connect") is False

    def test_env_var_activates(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "remote.connect:n=1")
        assert fault("remote.connect") is True
        assert fault("remote.connect") is False

    def test_env_cache_invalidates_on_change(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "remote.connect:n=1")
        assert fault("remote.connect") is True
        monkeypatch.setenv(ENV_VAR, "remote.connect:n=1;seed=5")
        # changed raw string -> fresh plan with fresh counters
        assert fault("remote.connect") is True

    def test_installed_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "remote.connect")
        install(FaultPlan.from_string("remote.heartbeat"))
        assert fault("remote.connect") is False
        assert fault("remote.heartbeat") is True
