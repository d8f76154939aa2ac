"""Smoke tests of the census script `tools/census.py`."""

import importlib.util
from pathlib import Path

from synalg.report import ReportLine

TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"
ARGS = ["--seeds", "2", "--shapes", "2,3", "--trials", "2", "--workers", "1"]


def _census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_census_smoke(capsys):
    assert _census().main(ARGS) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("# census runs=2 failed=0 trials=2 workers=1 ")


def test_census_prints_fail_lines_and_exits_1(capsys, monkeypatch):
    census = _census()
    lines = [ReportLine("lattice.ok", 0.0, 1e-8), ReportLine("lattice.bad", 1.0, 1e-8)]
    monkeypatch.setattr(census.suites, "run_suites", lambda cfg: lines)
    assert census.main(ARGS) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"FAIL shape=2,3 seed={s} CHECK lattice.bad 1.000e+00 1.0e-08 FAIL" for s in (1, 2)]
    assert out[2].startswith("# census runs=2 failed=2 ")


def test_census_reports_a_crash_as_a_fail(capsys, monkeypatch):
    census = _census()

    def crash(cfg):
        raise ValueError("boom")

    monkeypatch.setattr(census.suites, "run_suites", crash)
    assert census.main(["--seeds", "1", "--shapes", "2,3", "--workers", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "FAIL shape=2,3 seed=1 ERROR ValueError boom"
