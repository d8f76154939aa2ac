"""Regression fixtures for misranked joins, meets and Sasaki projections.

Each suite and witness case here printed a FAIL while the lattice decided
ranks on the eigenvalues of p + q and p q p, which square the principal
angle between the ranges: pairs within about 1.4e-5 of coincidence or
orthogonality lost a direction.  The span kernel (`core.span`) decides on
singular values linear in the angle, and these cases pass with the default
tolerances.  The angle sweep holds ranks and lattice identities from
10^-1 to 10^-12 on both sides of that band.
"""

import io
import itertools
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from synalg import ModelShape, Projection, dist
from synalg.cli import main
from synalg.core import DEFAULT_TOL
from synalg.lattice import join, meet, orthogonal, ortho, sasaki
from synalg.suites import SuiteConfig, run_suites

FILES = Path(__file__).resolve().parent / "golden" / "files"

# (suite, shape, seed, trials): `verify --suites all --trials 30` cases that
# failed; run_suites seeds each suite's stream on its own, so running the
# failing suite alone replays them.  trials is the smallest count whose run
# still reached the failing draw, so each fixture stays fast.
SUITE_CASES = [
    ("symmetry", "2,3", 4208, 6),
    ("symmetry", "4", 19, 9),
    ("comparability", "2,3", 4240, 3),
    ("comparability", "2,3", 5073, 10),
    ("comparability", "2,3", 6410, 30),
    ("comparability", "2,3", 6609, 29),
    ("comparability", "2,3", 9207, 8),
    ("comparability", "8,8", 2, 7),
    ("comparability", "8,8", 28, 10),
    ("symmetry", "8,8", 38, 21),
    ("comparability", "5,7,3", 19, 18),
    ("symmetry", "5,7,3", 34, 30),
    ("lattice", "5,7,3", 36, 3),
    ("lattice", "5,7,3", 39, 23),
]


@pytest.mark.parametrize("suite,shape,seed,trials", SUITE_CASES,
                         ids=[f"{s}_{x}_{n}" for s, x, n, _ in SUITE_CASES])
def test_suite_case_passes(suite, shape, seed, trials):
    cfg = SuiteConfig(seed=seed, trials=trials, shape=ModelShape(tuple(map(int, shape.split(",")))),
                      suites=(suite,))
    failed = [line.format() for line in run_suites(cfg) if not line.passed]
    assert not failed


# Pairs of the benchmark's witness-files inputs (`bench/prepare.py --workload
# witness-files --seed S`, files pairNN_*), shape 8,8.  Pair 29 of seed 309
# gave thm5.11 join_e 5.4e-7; pair 16 of seed 502 gave thm5.8
# sasaki_conjugation 5.4e-7, thm5.9i 5.4e-7 and thm8.3 e_split 5.9e-6.
WITNESS_CASES = {
    "seed309_pair29_thm5.11": ["witness", "thm5.11", "seed309_pair29_e", "seed309_pair29_s"],
    "seed502_pair16_thm5.8": ["witness", "thm5.8", "seed502_pair16_e", "seed502_pair16_f"],
    "seed502_pair16_thm5.9i": ["witness", "thm5.9i", "seed502_pair16_e", "seed502_pair16_f"],
    "seed502_pair16_thm8.3": ["witness", "thm8.3", "seed502_pair16_e", "seed502_pair16_f"],
}


def _run(args) -> tuple[int, list[str]]:
    argv = [str(FILES / f"{a}.mat") if a.startswith("seed") else a for a in args]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_witness_file_case_passes(case):
    code, lines = _run(WITNESS_CASES[case])
    assert [l for l in lines if l.endswith("FAIL")] == []
    assert code == 0 and lines[-1] == "RESULT PASS"


# -- angle sweep --------------------------------------------------------------
#
# In each block one plane holds a line of p and a line of q at principal
# angle t = 10^-k from 0 or from pi/2; the rest of the block is chosen so
# that every lattice value is well conditioned, since a value fixed by a
# small angle (the meet of two planes of R^3 at dihedral angle t, say) moves
# by rounding / t whatever the algorithm:
# - block 2: the plane alone;
# - block 3: a third direction in p only (near 0) or in both (near pi/2);
# - block 8: four planes, the swept one and three at angles 0.7, 1.2, 0.3.
# A direction counts when the singular value that decides it is above
# tol.rank: sqrt(2) sin(t/2) for the join and meet of the swept plane, and
# the cosine for the Sasaki projection.
#
# Two bands are not covered, and are recorded here (ROADMAP item 5):
# - `orthogonal` tests |pq| <= tol.proj (1e-8) while the Sasaki rank keeps a
#   cosine above tol.rank (1e-10), so for 1e-10 < cos <= 1e-8 two lines count
#   as orthogonal and still have a Sasaki projection of rank 1 (k = 9 below).
# - the lattice formula p meet (ortho(p) join q) drops the swept direction
#   when sqrt(2) sin(t/2) <= tol.rank, while the Sasaki span keeps it while
#   cos > tol.rank, so they differ for tol.rank < cos <= sqrt(2) tol.rank.
#   k = 10 from pi/2 puts the cosine at tol.rank itself, where neither
#   decision is fixed, so its Sasaki rank and lattice formula are skipped.

CUT = DEFAULT_TOL.rank
SWEEP_BLOCKS = [(2,), (3,), (8,), (2, 3, 8)]


def _kept(sv: float) -> bool | None:
    """Whether a direction with this deciding singular value counts; None at the cut."""
    if math.isclose(sv, CUT, rel_tol=1e-6):
        return None
    return sv > CUT


def _block_pair(b: int, near: str, c: float, s: float):
    """Range bases of p and q inside one block of size b, before rotation."""
    e = np.eye(b)
    bp, bq = [e[0]], [c * e[0] + s * e[1]]
    if b == 3:
        bp.append(e[2])
        if near == "pi/2":
            bq.append(e[2])
    if b == 8:
        for i, angle in ((2, 0.7), (4, 1.2), (6, 0.3)):
            bp.append(e[i])
            bq.append(math.cos(angle) * e[i] + math.sin(angle) * e[i + 1])
    return np.array(bp).T, np.array(bq).T


def _sweep_pair(blocks, near: str, k: int):
    t = 10.0 ** -k
    c, s = (math.cos(t), math.sin(t)) if near == "0" else (math.sin(t), math.cos(t))
    shape = ModelShape(blocks)
    n = shape.dim
    p, q = np.zeros((n, n)), np.zeros((n, n))
    rng = np.random.default_rng(100 * k + len(blocks))
    for b, sl in zip(blocks, shape.slices()):
        rot, _ = np.linalg.qr(rng.standard_normal((b, b)))
        up, uq = (rot @ x for x in _block_pair(b, near, c, s))
        p[sl, sl] = up @ up.T
        q[sl, sl] = uq @ uq.T
    return Projection(shape, p), Projection(shape, q)


def _expected_ranks(blocks, near: str, k: int):
    """Join, meet and Sasaki ranks; the Sasaki rank is None when undecided."""
    t = 10.0 ** -k
    swept = _kept(math.sqrt(2.0) * math.sin(t / 2.0)) if near == "0" else True
    cosine = True if near == "0" else _kept(math.sin(t))
    j = m = r = 0
    for b in blocks:
        j += b - (not swept)
        m += int(not swept) + (b == 3 and near == "pi/2")
        r += int(bool(cosine)) + (b == 3 and near == "pi/2") + 3 * (b == 8)
    return j, m, (r if cosine is not None else None)


SWEEP = list(itertools.product(range(len(SWEEP_BLOCKS)), ("0", "pi/2"), range(1, 13)))


@pytest.mark.parametrize("b,near,k", SWEEP,
                         ids=[f"{','.join(map(str, SWEEP_BLOCKS[b]))}-{n}-1e-{k}" for b, n, k in SWEEP])
def test_angle_sweep(b, near, k):
    blocks = SWEEP_BLOCKS[b]
    p, q = _sweep_pair(blocks, near, k)
    want_join, want_meet, want_sasaki = _expected_ranks(blocks, near, k)
    j, m = join(p, q), meet(p, q)
    assert (j.rank(), m.rank()) == (want_join, want_meet)
    assert dist(join(q, p), j) <= 1e-8 and dist(meet(q, p), m) <= 1e-8
    # orthomodular law, both ways round: a <= c gives c = a join (c meet ortho(a))
    assert dist(join(p, meet(j, ortho(p))), j) <= 1e-8
    assert dist(join(m, meet(p, ortho(m))), p) <= 1e-8
    assert dist(ortho(j), meet(ortho(p), ortho(q))) <= 1e-8
    assert dist(ortho(m), join(ortho(p), ortho(q))) <= 1e-8
    for x, y in ((p, q), (q, p)):
        sx = sasaki(x, y)
        assert dist(sasaki(x, sx), sx) <= 1e-8
        if want_sasaki is not None:
            assert sx.rank() == want_sasaki
            assert dist(sx, meet(x, join(ortho(x), y))) <= 1e-8
    if blocks == (2,) and near == "pi/2" and 8 <= k <= 10:
        if k == 9:  # the recorded band: orthogonal, with a Sasaki projection of rank 1
            assert orthogonal(p, q) and sasaki(p, q).rank() == 1
    else:
        assert orthogonal(p, q) == (sasaki(p, q).rank() == 0)
