"""Projection lattice: meets, joins, Sasaki maps, center, covers, intervals.

The independent oracle for joins is projection onto the union of ranges
via singular vectors; meets are cross-checked through De Morgan on the
oracle.
"""

import numpy as np
import pytest
from conftest import oracle_join

from synalg import (
    ModelShape,
    PreconditionError,
    Projection,
    as_projection,
    dist,
    leq,
    quad,
    unit,
    zero,
)
from synalg.core import DEFAULT_TOL
from synalg.lattice import (
    CentralProjection,
    IntervalModel,
    center_basis,
    center_elements,
    central_cover,
    centrally_orthogonal,
    co_join,
    compatible,
    is_central,
    join,
    meet,
    orthogonal,
    ortho,
    sasaki,
)
from synalg.report import Accumulator
from synalg.rng import XorShift64Star
from synalg.suites import gamma_checks

SH2 = ModelShape((2,))
E = Projection(SH2, [[1.0, 0.0], [0.0, 0.0]])
F = Projection(SH2, [[0.5, 0.5], [0.5, 0.5]])


def oracle_meet(p, q):
    n = p.shape.dim
    return np.eye(n) - oracle_join(ortho(p), ortho(q))


def test_basic_examples():
    assert dist(join(E, zero_proj()), E) < 1e-12
    assert dist(meet(E, one_proj()), E) < 1e-12
    d1 = Projection(SH2, np.diag([1.0, 0.0]))
    d2 = Projection(SH2, np.diag([0.0, 1.0]))
    assert join(d1, d2).rank() == 2
    assert join(E, F).rank() == 2
    assert meet(E, F).rank() == 0
    assert dist(ortho(E), Projection(SH2, np.diag([0.0, 1.0]))) < 1e-12


def zero_proj():
    return Projection(SH2, np.zeros((2, 2)))


def one_proj():
    return Projection(SH2, np.eye(2))


def test_join_meet_against_oracle():
    rng = XorShift64Star(20)
    for shape in (ModelShape((2,)), ModelShape((3,)), ModelShape((4,)), ModelShape((2, 2))):
        for _ in range(25):
            p = rng.projection(shape)
            q = rng.projection(shape)
            assert np.abs(join(p, q).data - oracle_join(p, q)).max() < 1e-8
            assert np.abs(meet(p, q).data - oracle_meet(p, q)).max() < 1e-8


def test_join_is_least_upper_bound():
    rng = XorShift64Star(21)
    sh = ModelShape((3,))
    for _ in range(20):
        p = rng.projection(sh)
        q = rng.projection(sh)
        j = join(p, q)
        assert leq(p, j) and leq(q, j)
        r = rng.projection(sh)
        if leq(p, r) and leq(q, r):
            assert leq(j, r)


def test_orthomodular_law():
    rng = XorShift64Star(22)
    sh = ModelShape((2, 3))
    for _ in range(50):
        p = rng.projection(sh)
        q = rng.subprojection(p)
        assert dist(join(q, meet(p, ortho(q))), p) < 1e-8


def test_compatibility():
    assert compatible(E, ortho(E))
    for c in center_elements(ModelShape((2, 2))):
        p = XorShift64Star(23).projection(ModelShape((2, 2)))
        assert compatible(p, c)
    assert not compatible(E, F)
    rng = XorShift64Star(24)
    for _ in range(30):
        p = rng.projection(ModelShape((3,)))
        q = rng.projection(ModelShape((3,)))
        if compatible(p, q):
            assert np.abs(p.data @ q.data - meet(p, q).data).max() < 1e-8


def test_sasaki_examples_and_properties():
    assert dist(sasaki(E, E), E) < 1e-12
    d2 = Projection(SH2, np.diag([0.0, 1.0]))
    assert sasaki(E, d2).rank() == 0  # orthogonal pair
    assert dist(sasaki(E, F), E) < 1e-12  # carrier of [[1/2,0],[0,0]]
    rng = XorShift64Star(25)
    sh = ModelShape((4,))
    for _ in range(40):
        p, q, r = (rng.projection(sh) for _ in range(3))
        assert dist(sasaki(p, q), carrier_route(p, q)) < 1e-10
        assert dist(sasaki(p, q), meet(p, join(ortho(p), q))) < 1e-8
        assert orthogonal(sasaki(p, q), r) == orthogonal(q, sasaki(p, r))
        assert dist(sasaki(p, sasaki(p, q)), sasaki(p, q)) < 1e-8
        assert compatible(p, q) == (dist(sasaki(p, q), meet(p, q)) < 1e-8)
        assert orthogonal(p, q) == (sasaki(p, q).rank() == 0)


def carrier_route(p, q):
    from synalg import carrier
    return carrier(quad(p, q))


def test_center_detection():
    sh = ModelShape((2, 3))
    assert is_central(Projection(sh, np.eye(5)))
    assert is_central(Projection(sh, np.zeros((5, 5))))
    basis = center_basis(sh)
    assert [c.block_mask for c in basis] == [(True, False), (False, True)]
    assert len(center_elements(sh)) == 4
    assert not is_central(Projection(ModelShape((2,)), np.diag([1.0, 0.0])))
    with pytest.raises(PreconditionError):
        CentralProjection(ModelShape((2,)), np.diag([1.0, 0.0]))


def test_from_mask_rejects_wrong_length():
    sh = ModelShape((2, 3))
    c = CentralProjection.from_mask(sh, np.array([1, 0]))
    assert c.block_mask == (True, False)
    assert all(type(m) is bool for m in c.block_mask)
    for mask in ([True], [True, True, True], []):
        with pytest.raises(ValueError, match="mask has"):
            CentralProjection.from_mask(sh, mask)


def test_central_cover():
    sh = ModelShape((2, 2))
    assert central_cover(unit(sh)).block_mask == (True, True)
    assert central_cover(zero(sh)).block_mask == (False, False)
    one_block = ModelShape((3,))
    p = XorShift64Star(26).projection(one_block, rank=1)
    assert central_cover(p).block_mask == (True,)
    data = np.zeros((4, 4))
    data[0, 0] = 1.0
    assert central_cover(Projection(sh, data)).block_mask == (True, False)


def test_gamma_props_suite_passes():
    acc = Accumulator()
    gamma_checks(acc, XorShift64Star(3), ModelShape((2, 2)), 25, DEFAULT_TOL)
    assert acc.passed
    tiny = Accumulator()
    gamma_checks(tiny, XorShift64Star(4), ModelShape((1, 1)), 10, DEFAULT_TOL)
    assert tiny.passed


def test_centrally_orthogonal():
    sh = ModelShape((2, 2))
    single = XorShift64Star(27).projection(sh)
    assert centrally_orthogonal([single]) is not None
    d1 = np.zeros((4, 4)); d1[0, 0] = 1.0
    d2 = np.zeros((4, 4)); d2[2, 2] = 1.0
    p1, p2 = Projection(sh, d1), Projection(sh, d2)
    witness = centrally_orthogonal([p1, p2])
    assert witness is not None
    assert [w.block_mask for w in witness] == [(True, False), (False, True)]
    total = co_join([p1, p2])
    assert dist(total, as_projection(p1 + p2)) < 1e-12
    e = Projection(ModelShape((2,)), [[1.0, 0.0], [0.0, 0.0]])
    f = Projection(ModelShape((2,)), [[0.5, 0.5], [0.5, 0.5]])
    assert centrally_orthogonal([e, f]) is None
    with pytest.raises(PreconditionError):
        co_join([e, f])


def test_interval_model():
    sh = ModelShape((3,))
    rng = XorShift64Star(28)
    p = rng.projection(sh, rank=2)
    m = IntervalModel(p)
    q = meet(rng.projection(sh), p)
    r = meet(rng.projection(sh), p)
    assert dist(m.ortho(q), as_projection(p - q)) < 1e-10
    assert m.ortho(p).rank() == 0
    assert dist(m.sasaki(q, r), sasaki(q, r)) < 1e-7
    with pytest.raises(PreconditionError):
        m.ortho(unit_projection_3())
    full = IntervalModel(Projection(sh, np.eye(3)))
    q3 = rng.projection(sh)
    r3 = rng.projection(sh)
    assert dist(full.sasaki(q3, r3), sasaki(q3, r3)) < 1e-7


def unit_projection_3():
    return Projection(ModelShape((3,)), np.eye(3))
