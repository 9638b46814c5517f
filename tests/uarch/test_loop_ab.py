"""Smoke tests of ``tools/loop_ab.py``, the paired C-loop A/B."""

import importlib.util
import pathlib

import pytest

from repro.uarch import native

ROOT = pathlib.Path(__file__).resolve().parents[2]
TEMPLATE = ROOT / "src" / "repro" / "uarch" / "native" / "engine_template.c"

pytestmark = pytest.mark.skipif(
    native.toolchain() is None,
    reason="the A/B compiles its templates (cc/gcc/clang or $REPRO_CC)")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "loop_ab", ROOT / "tools" / "loop_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_grid_is_the_figure_4_and_5_points(tool):
    grid = tool.points()
    assert len(grid) == 117
    assert len({(config.key(), workload)
                for _, config, workload in grid}) == 117
    assert {group for group, _, _ in grid} == {
        "conventional", "vp-writeback", "vp-issue"}


def test_a_template_against_itself_reports_ratios(tool, capsys):
    assert tool.main([str(TEMPLATE), str(TEMPLATE), "--points", "2",
                      "--rounds", "1", "--instructions", "2000",
                      "--skip", "300"]) == 0
    out = capsys.readouterr().out
    assert "conventional" in out and "total" in out
    assert "B/A" in out


def test_a_loop_that_moves_a_counter_is_refused(tool, tmp_path):
    text = TEMPLATE.read_text(encoding="utf-8")
    assert text.count("    c_loads++;\n") == 1
    moved = tmp_path / "moved.c"
    moved.write_text(text.replace("    c_loads++;\n",
                                  "    c_loads += 2;\n"), encoding="utf-8")
    with pytest.raises(SystemExit, match="differs between A and B"):
        tool.main([str(TEMPLATE), str(moved), "--points", "2",
                   "--rounds", "1", "--instructions", "2000",
                   "--skip", "300"])
