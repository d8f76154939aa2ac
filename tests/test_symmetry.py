"""Witness constructions: exchanges, perspectivities, additivity.

The worked 2x2 pair e = diag(1,0), f = [[1,1],[1,1]]/2 has closed-form
witnesses (a = e + f - 1 squares to 1/2, so the sign of a is sqrt(2) a),
used here as frozen expected values.
"""

import math

import numpy as np
import pytest

from synalg import (
    Element,
    ModelShape,
    PreconditionError,
    Projection,
    Symmetry,
    as_projection,
    dist,
    leq,
    order_unit_norm,
    quad,
    unit,
    zero,
)
from synalg.lattice import join, meet, orthogonal, ortho, sasaki
from synalg.rng import XorShift64Star
from synalg.symmetry import (
    ExchangeWitness,
    PerspectivityWitness,
    canonical_extension,
    common_complement_from_exchange,
    complement_exchange,
    exchange_efe_fef,
    family_additivity,
    finite_additivity,
    householder_factors,
    lift_to_full,
    orthogonal_chain_to_symmetry,
    orthogonal_exchange_symmetry,
    parallelogram_exchange,
    perspective_to_chain,
    proj_from_sym,
    related_witness,
    sasaki_exchange,
    strong_perspectivity,
    sym_from_proj,
)

SH2 = ModelShape((2,))
SH4 = ModelShape((4,))
ISQ2 = math.sqrt(0.5)
E = Projection(SH2, [[1.0, 0.0], [0.0, 0.0]])
F = Projection(SH2, [[0.5, 0.5], [0.5, 0.5]])
S_EXPECT = np.array([[ISQ2, ISQ2], [ISQ2, -ISQ2]])


def test_proj_sym_correspondence():
    one = Projection(SH2, np.eye(2))
    assert dist(sym_from_proj(one), unit(SH2)) < 1e-12
    nil = Projection(SH2, np.zeros((2, 2)))
    assert dist(sym_from_proj(nil), -1.0 * unit(SH2)) < 1e-12
    assert np.allclose(sym_from_proj(E).data, np.diag([1.0, -1.0]), atol=1e-12)
    rng = XorShift64Star(30)
    for _ in range(20):
        p = rng.projection(SH4)
        assert dist(proj_from_sym(sym_from_proj(p)), p) < 1e-12


def test_abs_operator():
    a = Element(SH2, [[2.0, 0.0], [0.0, -3.0]])
    assert np.allclose(abs(a).data, np.diag([2.0, 3.0]), atol=1e-12)


def test_canonical_extension():
    s = XorShift64Star(31).symmetry(SH4)
    assert dist(canonical_extension(s), s) < 1e-12
    assert dist(canonical_extension(zero(SH4)), unit(SH4)) < 1e-12
    sh3 = ModelShape((3,))
    t = Element(sh3, np.diag([1.0, -1.0, 0.0]))
    assert np.allclose(canonical_extension(t).data, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    with pytest.raises(PreconditionError):
        canonical_extension(Element(sh3, np.diag([0.5, 0.0, 0.0])))


def test_difference_of_orthogonal_projections_is_partial_symmetry():
    sh = ModelShape((3,))
    p = Projection(sh, np.diag([1.0, 0.0, 0.0]))
    q = Projection(sh, np.diag([0.0, 1.0, 0.0]))
    rng = XorShift64Star(32)
    for _ in range(10):
        u = rng.symmetry(sh)
        pc = as_projection(quad(u, p))
        qc = as_projection(quad(u, q))
        t = pc - qc
        sq = Element(sh, t.data @ t.data)
        assert dist(sq, as_projection(pc + qc)) < 1e-10  # t^2 = p + q
        ext = canonical_extension(t)
        # the extension is 1 - 2q and therefore fixes both parts
        assert dist(ext, unit(sh) - 2.0 * qc) < 1e-10
        assert dist(quad(ext, pc), pc) < 1e-10


def test_extension_of_exchanging_partial_symmetry():
    # the cross-term partial symmetry between matched orthogonal lines
    # exchanges them, and so does its canonical extension
    sh = ModelShape((3,))
    rng = XorShift64Star(52)
    for _ in range(10):
        from synalg import eig_sym
        _, v = eig_sym(rng.element(sh))
        a, b = v[:, 0], v[:, 1]
        pc = as_projection(Element(sh, np.outer(a, a)))
        qc = as_projection(Element(sh, np.outer(b, b)))
        t = Element(sh, np.outer(a, b) + np.outer(b, a))
        assert dist(Element(sh, t.data @ pc.data @ t.data), qc) < 1e-10
        assert dist(Element(sh, t.data @ qc.data @ t.data), pc) < 1e-10
        s = canonical_extension(t)
        assert dist(quad(s, pc), qc) < 1e-10


def test_exchange_efe_fef_worked_example():
    s = exchange_efe_fef(E, F)
    assert np.allclose(s.data, S_EXPECT, atol=1e-12)
    assert dist(quad(s, E), F) < 1e-12  # this pair is exchanged outright


def test_exchange_efe_fef_properties():
    rng = XorShift64Star(33)
    for shape in (SH2, SH4, ModelShape((2, 3))):
        for _ in range(30):
            e = rng.projection(shape)
            f = rng.projection(shape)
            s = exchange_efe_fef(e, f)
            assert dist(quad(s, quad(e, f)), quad(f, e)) < 1e-8
            assert np.abs(s.data @ s.data - np.eye(shape.dim)).max() < 1e-8
            assert dist(quad(s, sasaki(e, f)), sasaki(f, e)) < 1e-8
            assert abs(order_unit_norm(s) - 1.0) < 1e-10
    e = XorShift64Star(34).projection(SH4)
    s = exchange_efe_fef(e, e)
    assert dist(quad(s, quad(e, e)), quad(e, e)) < 1e-8


def test_exchange_orthogonal_pair():
    sh = ModelShape((2,))
    p = Projection(sh, np.diag([1.0, 0.0]))
    q = Projection(sh, np.diag([0.0, 1.0]))
    # a = p + q - 1 = 0, so the construction collapses to the identity,
    # which does exchange pqp = 0 and qpq = 0
    s = exchange_efe_fef(p, q)
    assert dist(quad(s, quad(p, q)), quad(q, p)) < 1e-12


def test_sasaki_exchange():
    w = sasaki_exchange(E, F)
    assert dist(w.e, E) < 1e-12 and dist(w.f, F) < 1e-12
    assert w.residual() < 1e-12
    d2 = Projection(SH2, np.diag([0.0, 1.0]))
    w = sasaki_exchange(E, d2)
    assert w.e.rank() == 0 and w.f.rank() == 0
    rng = XorShift64Star(35)
    for _ in range(20):
        e = rng.projection(SH4, rank=1)
        f = rng.projection(SH4, rank=3)
        if leq(e, f):
            w = sasaki_exchange(e, f)
            assert dist(w.e, meet(e, f)) < 1e-8
            assert w.verify()


def test_parallelogram_exchange():
    rng = XorShift64Star(36)
    e = rng.projection(ModelShape((3,)), rank=1)
    w = parallelogram_exchange(e, e)
    assert w.e.rank() == 0 and w.f.rank() == 0 and w.verify()
    nil = Projection(ModelShape((3,)), np.zeros((3, 3)))
    w = parallelogram_exchange(e, nil)
    assert dist(w.e, e) < 1e-10 and dist(w.f, e) < 1e-10 and w.verify()
    for _ in range(30):
        a = rng.projection(ModelShape((3,)), rank=1)
        b = rng.projection(ModelShape((3,)), rank=1)
        w = parallelogram_exchange(a, b)
        assert dist(w.e, as_projection(a - meet(a, b))) < 1e-8
        assert dist(w.f, as_projection(join(a, b) - b)) < 1e-8
        assert w.residual() < 1e-8


def test_complement_exchange():
    s = complement_exchange(E, F)
    assert dist(quad(s, E), ortho(F)) < 1e-12
    # against its own orthocomplement the construction fixes e
    s = complement_exchange(E, ortho(E))
    assert dist(quad(s, E), E) < 1e-12
    with pytest.raises(PreconditionError):
        complement_exchange(E, Projection(SH2, np.diag([1.0, 0.0])))
    rng = XorShift64Star(37)
    made = 0
    for _ in range(40):
        e = rng.projection(SH2, rank=1)
        f = rng.projection(SH2, rank=1)
        if meet(e, f).rank() == 0 and join(e, f).rank() == 2:
            s = complement_exchange(e, f)
            assert dist(quad(s, e), ortho(f)) < 1e-8
            made += 1
    assert made > 10


def test_related_witness():
    d2 = Projection(SH2, np.diag([0.0, 1.0]))
    assert related_witness(E, d2) is None
    w = related_witness(E, E)
    assert dist(w.e, E) < 1e-10 and dist(w.f, E) < 1e-10
    rng = XorShift64Star(38)
    for _ in range(30):
        e = rng.projection(SH4, rank=1)
        f = rng.projection(SH4, rank=2)
        if not orthogonal(e, f):
            w = related_witness(e, f)
            assert w.e.rank() > 0 and w.f.rank() > 0
            assert leq(w.e, e) and leq(w.f, f)
            assert w.residual() < 1e-8


def test_common_complement_from_exchange():
    swap = Symmetry(SH2, [[0.0, 1.0], [1.0, 0.0]])
    d1 = Projection(SH2, np.diag([1.0, 0.0]))
    d2 = Projection(SH2, np.diag([0.0, 1.0]))
    pw = common_complement_from_exchange(ExchangeWitness(swap, d1, d2))
    assert np.allclose(pw.common_complement.data, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert pw.verify()
    one = Projection(SH2, np.eye(2))
    with pytest.raises(PreconditionError):
        common_complement_from_exchange(ExchangeWitness(unit(SH2), one, one))
    rng = XorShift64Star(39)
    made = 0
    for _ in range(60):
        e = rng.projection(SH2, rank=1)
        s = rng.symmetry(SH2)
        f = as_projection(quad(s, e))
        if meet(e, f).rank() == 0 and join(e, f).rank() == 2:
            pw = common_complement_from_exchange(ExchangeWitness(s, e, f))
            assert pw.verify()
            made += 1
    assert made > 20


def test_strong_perspectivity_degenerate_and_worked():
    e = Projection(SH4, np.diag([1.0, 1.0, 0.0, 0.0]))
    pw = strong_perspectivity(ExchangeWitness(unit(SH4), e, e))
    assert pw.common_complement.rank() == 0
    assert pw.verify()
    s = Symmetry(SH2, S_EXPECT)
    pw = strong_perspectivity(ExchangeWitness(s, E, F))
    # here p = 1, r = 1, so the complement is (1+s)/2
    assert dist(pw.common_complement, proj_from_sym(s)) < 1e-10
    assert pw.verify()


def test_strong_perspectivity_randomized_with_overlap():
    rng = XorShift64Star(40)
    for rank in (1, 2, 3):
        for _ in range(25):
            e = rng.projection(SH4, rank=rank)
            s = rng.symmetry(SH4)
            f = as_projection(quad(s, e))
            pw = strong_perspectivity(ExchangeWitness(s, e, f))
            assert max(pw.residuals().values()) < 1e-8
            assert leq(pw.common_complement, join(e, f))


def test_perspective_to_chain():
    rng = XorShift64Star(41)
    for _ in range(25):
        e = rng.projection(SH4, rank=2)
        s = rng.symmetry(SH4)
        f = as_projection(quad(s, e))
        pw = lift_to_full(strong_perspectivity(ExchangeWitness(s, e, f)))
        assert pw.verify()
        s1, s2 = perspective_to_chain(pw)
        assert dist(quad(s2, quad(s1, e)), f) < 1e-8
    with pytest.raises(PreconditionError):
        perspective_to_chain(PerspectivityWitness(E, F, E, ambient=None))


def test_orthogonal_chain_to_symmetry():
    sh3 = ModelShape((3,))
    e = Projection(sh3, np.diag([1.0, 0.0, 0.0]))
    f = Projection(sh3, np.diag([0.0, 1.0, 0.0]))
    h = Symmetry(sh3, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    s = orthogonal_chain_to_symmetry(e, f, h, unit(sh3))
    assert dist(s, h) < 1e-12  # collapses to the swap itself here
    assert dist(quad(s, e), f) < 1e-12
    nil = Projection(sh3, np.zeros((3, 3)))
    s = orthogonal_chain_to_symmetry(nil, nil, h, h)
    assert dist(s, unit(sh3)) < 1e-12
    with pytest.raises(PreconditionError):
        orthogonal_chain_to_symmetry(e, Projection(sh3, np.diag([1.0, 0.0, 0.0])), h, h)


def test_finite_additivity():
    sh6 = ModelShape((6,))

    def basisproj(idx):
        d = np.zeros((6, 6))
        for i in idx:
            d[i, i] = 1.0
        return Projection(sh6, d)

    e1, f1 = basisproj([0]), basisproj([1])
    e2, f2 = basisproj([2, 3]), basisproj([4, 5])
    w1 = ExchangeWitness(orthogonal_exchange_symmetry(e1, f1), e1, f1)
    w2 = ExchangeWitness(orthogonal_exchange_symmetry(e2, f2), e2, f2)
    s = finite_additivity(w1, w2)
    assert dist(quad(s, as_projection(e1 + e2)), as_projection(f1 + f2)) < 1e-10
    # trivial second witness keeps the first exchange
    wtriv = ExchangeWitness(unit(sh6), basisproj([]), basisproj([]))
    s = finite_additivity(w1, wtriv)
    assert dist(quad(s, e1), f1) < 1e-10
    bad = ExchangeWitness(orthogonal_exchange_symmetry(e1, f1), e1, f1)
    with pytest.raises(PreconditionError):
        finite_additivity(w1, bad)  # e1 not orthogonal to itself


def test_family_additivity():
    sh6 = ModelShape((6,))
    rng = XorShift64Star(43)
    from synalg.suites import orthogonal_family_witnesses
    for _ in range(15):
        fam = orthogonal_family_witnesses(rng, sh6, parts=3)
        s = family_additivity(fam)
        esum = as_projection(sum((w.e for w in fam), zero(sh6)))
        fsum = as_projection(sum((w.f for w in fam), zero(sh6)))
        assert dist(quad(s, esum), fsum) < 1e-8
    assert dist(family_additivity([], shape=sh6), -1.0 * unit(sh6)) < 1e-12
    with pytest.raises(ValueError):
        family_additivity([])


def test_perspective_and_orthogonal_compose():
    # orthogonal equal-rank pairs are perspective; turning the shared
    # complement into a chain and collapsing the chain yields a single
    # exchanging symmetry
    rng = XorShift64Star(45)
    sh6 = ModelShape((6,))
    from synalg.suites import orthogonal_family_witnesses
    for _ in range(10):
        fam = orthogonal_family_witnesses(rng, sh6, parts=2)
        e = as_projection(fam[0].e + fam[1].e)
        f = as_projection(fam[0].f + fam[1].f)
        s0 = orthogonal_exchange_symmetry(e, f)
        pw = lift_to_full(strong_perspectivity(ExchangeWitness(s0, e, f)))
        s1, s2 = perspective_to_chain(pw)
        s = orthogonal_chain_to_symmetry(e, f, s1, s2)
        assert dist(quad(s, e), f) < 1e-8


def test_householder_factors_reconstruct():
    from synalg.core import block_frame

    rng = XorShift64Star(44)
    for shape in (ModelShape((5,)), ModelShape((2, 3))):
        for _ in range(10):
            _, v = block_frame(rng.element(shape))
            factors = householder_factors(v, shape)
            acc = np.eye(shape.dim)
            for h in factors:
                acc = acc @ h.data
            assert np.abs(acc - v).max() < 1e-10
            assert len(factors) <= shape.dim + 1


def test_orthogonal_exchange_symmetry_validates():
    sh = ModelShape((2, 2))
    d1 = np.zeros((4, 4)); d1[0, 0] = 1.0
    d2 = np.zeros((4, 4)); d2[2, 2] = 1.0
    with pytest.raises(PreconditionError):
        orthogonal_exchange_symmetry(Projection(sh, d1), Projection(sh, d2))
