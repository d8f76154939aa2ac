"""Golden `verify` reports: the same checks, in the same order, with the same verdicts.

The files under ``tests/golden`` hold the output of ``synalg verify --seed S
--shape X`` (default 30 trials, all suites) for seeds 42 and 7 on shapes
``2,3``, ``4`` and ``1,1,1,1``.  A run must reproduce the header, every
CHECK name in order, every PASS/FAIL verdict and the RESULT line.  Residuals
may move under refactors that reorder floating-point work, so each one may
differ from its golden value by at most a factor of 10; two residuals that
are both below 1e-12 count as equal.
"""

from pathlib import Path

import pytest

from synalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [(seed, shape) for seed in (42, 7) for shape in ("2,3", "4", "1,1,1,1")]
FACTOR = 10.0
FLOOR = 1e-12


def _checks(lines):
    return [(name, float(res), verdict)
            for tag, name, res, _tol, verdict in (l.split() for l in lines if l.startswith("CHECK "))]


def _close(got: float, want: float) -> bool:
    if got < FLOOR and want < FLOOR:
        return True
    lo, hi = sorted((got, want))
    return lo > 0.0 and hi <= FACTOR * lo


@pytest.mark.parametrize("seed,shape", CASES, ids=[f"{s}_{x}" for s, x in CASES])
def test_verify_matches_golden(seed, shape, capsys):
    want = (GOLDEN / f"verify_{seed}_{shape}.txt").read_text(encoding="ascii").splitlines()
    code = main(["verify", "--seed", str(seed), "--shape", shape])
    got = capsys.readouterr().out.splitlines()
    assert got[0] == want[0]
    assert got[-1] == want[-1]
    assert code == (0 if want[-1] == "RESULT PASS" else 1)
    got_checks, want_checks = _checks(got), _checks(want)
    assert [c[0] for c in got_checks] == [c[0] for c in want_checks]
    assert [c[2] for c in got_checks] == [c[2] for c in want_checks]
    far = [(name, res, ref) for (name, res, _), (_, ref, _) in zip(got_checks, want_checks)
           if not _close(res, ref)]
    assert not far, f"residuals beyond {FACTOR}x of the golden report: {far}"

