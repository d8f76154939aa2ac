"""Golden reports: the same lines, in the same order, with the same verdicts.

The files under ``tests/golden`` hold the output of ``synalg verify --seed S
--shape X`` (default 30 trials, all suites) for seeds 42 and 7 on shapes
``2,3``, ``4`` and ``1,1,1,1``.  The files under ``tests/golden/files`` hold
the exit code (first line, ``# exit N``) and the output of each ``witness``
construction and of ``compare``, ``equiv``, ``lattice`` and ``spectra`` on
matrix files that `write_inputs` builds.

A run must reproduce every line.  Residuals may move under refactors that
reorder floating-point work, so each CHECK residual may differ from its
golden value by at most a factor of 10, and two residuals that are both
below 1e-12 count as equal.  Matrix rows may differ entry by entry by at
most 1e-12.  Every other line, the CHECK names, tolerances and verdicts
included, must be equal.

Running this file as a script rewrites every golden file from the
``synalg`` package it imports.
"""

import io
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from synalg import Element, ModelShape, Projection, Symmetry
from synalg.cli import main
from synalg.matio import write_matrix

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [(seed, shape) for seed in (42, 7) for shape in ("2,3", "4", "1,1,1,1")]
FACTOR = 10.0
FLOOR = 1e-12
ENTRY_TOL = 1e-12

# Golden name -> CLI arguments; bare words name files that `write_inputs` writes.
FILE_CASES = {
    "thm5.8": ["witness", "thm5.8", "e", "f"],
    "thm5.9i": ["witness", "thm5.9i", "e", "f"],
    "thm5.9ii": ["witness", "thm5.9ii", "e", "f"],
    "thm5.9iii": ["witness", "thm5.9iii", "e", "f"],
    "thm5.11": ["witness", "thm5.11", "e", "s"],
    "thm5.12": ["witness", "thm5.12", "e", "d2", "w"],
    "thm5.12_bad_complement": ["witness", "thm5.12", "e", "d2", "one"],
    "lem5.6": ["witness", "lem5.6", "e1", "f1", "s1", "e2", "f2", "s2"],
    "thm5.15": ["witness", "thm5.15", "e1", "f1", "s1", "e2", "f2", "s2"],
    "thm8.3": ["witness", "thm8.3", "e", "f"],
    "thm8.5": ["witness", "thm8.5", "e", "f"],
    "thm8.6": ["witness", "thm8.6", "p22", "d22"],
    "compare": ["compare", "e", "f"],
    "equiv": ["equiv", "e", "f"],
    "equiv_unequal_ranks": ["equiv", "e", "one"],
    "lattice": ["lattice", "e", "f"],
    "spectra": ["spectra", "a"],
    "thm5.8_23": ["witness", "thm5.8", "e23", "f23"],
    "thm5.9i_23": ["witness", "thm5.9i", "e23", "f23"],
    "thm5.9ii_23": ["witness", "thm5.9ii", "e23", "f23"],
    "thm5.11_23": ["witness", "thm5.11", "e23", "s23"],
    "thm8.3_23": ["witness", "thm8.3", "e23", "f23"],
    "thm8.5_23": ["witness", "thm8.5", "e23", "f23"],
    "compare_23": ["compare", "e23", "f23"],
    "equiv_23": ["equiv", "e23", "g23"],
    "equiv_23_unequal_ranks": ["equiv", "e23", "f23"],
    "lattice_23": ["lattice", "e23", "f23", "g23"],
    "spectra_23": ["spectra", "a23"],
}


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _blocks(*blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


def write_inputs(d: Path) -> None:
    """Write the matrix files that FILE_CASES names into directory d."""
    sh2, sh6, sh22, sh23 = (ModelShape(b) for b in ((2,), (6,), (2, 2), (2, 3)))
    h = math.sqrt(0.5)
    inputs = {
        "e": Projection(sh2, [[1.0, 0.0], [0.0, 0.0]]),
        "f": Projection(sh2, [[0.5, 0.5], [0.5, 0.5]]),
        "d2": Projection(sh2, [[0.0, 0.0], [0.0, 1.0]]),
        "s": Symmetry(sh2, [[h, h], [h, -h]]),
        "a": Element(sh2, [[2.0, 0.0], [0.0, -1.0]]),
        "w": Projection(sh2, [[0.5, 0.5], [0.5, 0.5]]),
        "one": Projection(sh2, np.eye(2)),
        "p22": Projection(sh22, np.diag([1.0, 1.0, 1.0, 0.0])),
        "d22": Projection(sh22, np.diag([1.0, 1.0, 0.0, 0.0])),
    }
    for name, i in (("e1", 0), ("f1", 1), ("e2", 2), ("f2", 3)):
        inputs[name] = Projection(sh6, np.diag(np.eye(6)[i]))
    for name, (i, j) in (("s1", (0, 1)), ("s2", (2, 3))):
        inputs[name] = Symmetry(sh6, np.eye(6)[[*range(i), j, i, *range(j + 1, 6)]])

    def line(theta):
        u = np.array([math.cos(theta), math.sin(theta)])
        return np.outer(u, u)

    def ray(v):
        u = _unit(v)
        return np.outer(u, u)

    inputs["e23"] = Projection(sh23, _blocks(line(0.3), ray([1, 2, 2])))
    inputs["f23"] = Projection(sh23, _blocks(line(1.1), np.eye(3) - ray([2, -1, 2])))
    inputs["g23"] = Projection(sh23, _blocks(line(2.0), ray([1, -2, 3])))
    inputs["s23"] = Symmetry(sh23, _blocks(np.eye(2) - 2.0 * line(0.7), np.eye(3) - 2.0 * ray([3, 1, -1])))
    q2, q3 = np.eye(2) - 2.0 * line(0.4), np.eye(3) - 2.0 * ray([1, 1, 2])
    inputs["a23"] = Element(sh23, _blocks(q2 @ np.diag([1.0, -0.5]) @ q2,
                                          q3 @ np.diag([2.0, 2.0, -1.0]) @ q3))
    for name, value in inputs.items():
        write_matrix(d / f"{name}.mat", value)


def run_case(d: Path, args) -> list[str]:
    """`# exit N` followed by the stdout lines of one CLI call."""
    k = 2 if args[0] == "witness" else 1
    argv = args[:k] + [str(d / f"{a}.mat") for a in args[k:]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return [f"# exit {code}"] + out.getvalue().splitlines()


def _numbers(line: str):
    try:
        return [float(t) for t in line.split()]
    except ValueError:
        return None


def _close(got: float, want: float) -> bool:
    if got < FLOOR and want < FLOOR:
        return True
    lo, hi = sorted((got, want))
    return lo > 0.0 and hi <= FACTOR * lo


def assert_matches(got: list[str], want: list[str]) -> None:
    assert len(got) == len(want), (len(got), len(want))
    far = []
    for g, w in zip(got, want):
        if w.startswith("CHECK "):
            gt, wt = g.split(), w.split()
            assert gt[:2] + gt[3:] == wt[:2] + wt[3:], (g, w)
            if not _close(float(gt[2]), float(wt[2])):
                far.append((wt[1], float(gt[2]), float(wt[2])))
        elif (want_row := _numbers(w)) is not None:
            got_row = _numbers(g)
            assert got_row is not None and len(got_row) == len(want_row), (g, w)
            assert max(abs(x - y) for x, y in zip(got_row, want_row)) <= ENTRY_TOL, (g, w)
        else:
            assert g == w
    assert not far, f"residuals beyond {FACTOR}x of the golden report: {far}"


@pytest.mark.parametrize("seed,shape", CASES, ids=[f"{s}_{x}" for s, x in CASES])
def test_verify_matches_golden(seed, shape, capsys):
    want = (GOLDEN / f"verify_{seed}_{shape}.txt").read_text(encoding="ascii").splitlines()
    code = main(["verify", "--seed", str(seed), "--shape", shape])
    got = capsys.readouterr().out.splitlines()
    assert code == (0 if want[-1] == "RESULT PASS" else 1)
    assert_matches(got, want)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(d)
    return d


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_file_command_matches_golden(case, inputs):
    want = (GOLDEN / "files" / f"{case}.txt").read_text(encoding="ascii").splitlines()
    assert_matches(run_case(inputs, FILE_CASES[case]), want)


def _write_goldens() -> None:
    for seed, shape in CASES:
        out = io.StringIO()
        with redirect_stdout(out):
            main(["verify", "--seed", str(seed), "--shape", shape])
        (GOLDEN / f"verify_{seed}_{shape}.txt").write_text(out.getvalue(), encoding="ascii")
    (GOLDEN / "files").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for case, args in FILE_CASES.items():
            text = "\n".join(run_case(Path(tmp), args)) + "\n"
            (GOLDEN / "files" / f"{case}.txt").write_text(text, encoding="ascii")


if __name__ == "__main__":
    _write_goldens()
