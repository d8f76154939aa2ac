"""Equivalence relation, decompositions, comparability, relative center."""

import math
from dataclasses import replace

import numpy as np
import pytest

from synalg import (
    ModelShape,
    PreconditionError,
    Projection,
    as_projection,
    dist,
    leq,
    quad,
)
from synalg.core import DEFAULT_TOL
from synalg.equivalence import (
    EquivalenceWitness,
    SymmetryChain,
    apply_chain,
    equal_rank_chain,
    equivalent_check,
    generalized_comparability,
    key_subprojection_exchange,
    orthogonal_decomposition,
    related,
    relative_center_witness,
)
from synalg.lattice import (
    center_elements,
    central_cover,
    is_central,
    meet,
    orthogonal,
)
from synalg.report import Accumulator
from synalg.rng import XorShift64Star
from synalg.suites import cover_sup_checks, invariant_checks

SH22 = ModelShape((2, 2))
SH23 = ModelShape((2, 3))
ISQ2 = math.sqrt(0.5)


def test_apply_chain_basics():
    rng = XorShift64Star(50)
    a = rng.element(SH23)
    assert dist(apply_chain(SymmetryChain(()), a), a) == 0.0
    s = rng.symmetry(SH23)
    assert dist(apply_chain(SymmetryChain((s,)), a), quad(s, a)) < 1e-12
    s2 = rng.symmetry(SH23)
    two = apply_chain(SymmetryChain((s, s2)), a)
    assert dist(two, quad(s2, quad(s, a))) < 1e-12


def test_equivalent_check_and_zero_rule():
    rng = XorShift64Star(51)
    p = rng.projection(SH23)
    chain = SymmetryChain((rng.symmetry(SH23),))
    q = as_projection(apply_chain(chain, p))
    assert equivalent_check(EquivalenceWitness(p, q, chain))
    nil = Projection(SH23, np.zeros((5, 5)))
    if p.rank() > 0:
        assert not equivalent_check(EquivalenceWitness(p, nil, chain))


def test_related_blockwise():
    nil = Projection(SH22, np.zeros((4, 4)))
    p = XorShift64Star(52).projection(SH22)
    assert not related(p, nil)
    one_block = ModelShape((3,))
    rng = XorShift64Star(53)
    a = rng.projection(one_block, rank=1)
    b = rng.projection(one_block, rank=2)
    assert related(a, b)  # irreducible model: nonzero pairs related
    d1 = np.zeros((4, 4)); d1[0, 0] = 1.0
    d2 = np.zeros((4, 4)); d2[2, 2] = 1.0
    assert not related(Projection(SH22, d1), Projection(SH22, d2))


def test_equal_rank_chain_examples():
    e = Projection(ModelShape((2,)), [[1.0, 0.0], [0.0, 0.0]])
    assert len(equal_rank_chain(e, e).chain) == 0
    f = Projection(ModelShape((2,)), [[0.5, 0.5], [0.5, 0.5]])
    w = equal_rank_chain(e, f)
    assert len(w.chain) == 1
    expected = np.array([[ISQ2, ISQ2], [ISQ2, -ISQ2]])
    assert np.abs(w.chain.syms[0].data - expected).max() < 1e-10
    with pytest.raises(PreconditionError):
        equal_rank_chain(e, Projection(ModelShape((2,)), np.eye(2)))


def test_equal_rank_chain_randomized():
    rng = XorShift64Star(54)
    for shape in (SH23, ModelShape((4,))):
        for _ in range(25):
            p = rng.projection(shape)
            q = rng.projection(shape)
            if p.block_ranks() != q.block_ranks():
                with pytest.raises(PreconditionError):
                    equal_rank_chain(p, q)
                continue
            w = equal_rank_chain(p, q)
            assert equivalent_check(w)
            assert len(w.chain) <= 2 * shape.dim


def test_key_subprojection_exchange_base_cases():
    rng = XorShift64Star(55)
    p = rng.projection(SH23, rank=2)
    w = EquivalenceWitness(p, p, SymmetryChain(()))
    ew = key_subprojection_exchange(w)
    assert dist(ew.e, p) < 1e-10 and dist(ew.f, p) < 1e-10
    s = rng.symmetry(SH23)
    q = as_projection(quad(s, p))
    ew = key_subprojection_exchange(EquivalenceWitness(p, q, SymmetryChain((s,))))
    assert dist(ew.e, p) < 1e-10 and dist(ew.f, q) < 1e-10
    nil = Projection(SH23, np.zeros((5, 5)))
    with pytest.raises(PreconditionError):
        key_subprojection_exchange(EquivalenceWitness(nil, nil, SymmetryChain(())))


def test_key_subprojection_exchange_long_chains():
    rng = XorShift64Star(56)
    for length in (2, 3, 4):
        for _ in range(10):
            p = rng.projection(ModelShape((5,)), rank=2)
            chain = SymmetryChain(tuple(rng.symmetry(ModelShape((5,))) for _ in range(length)))
            q = as_projection(apply_chain(chain, p))
            ew = key_subprojection_exchange(EquivalenceWitness(p, q, chain))
            assert ew.e.rank() > 0 and ew.f.rank() > 0
            assert leq(ew.e, p) and leq(ew.f, q)
            assert ew.verify()


@pytest.mark.parametrize("blocks", [(2, 3), (8, 8), (5, 7, 3)], ids=["2,3", "8,8", "5,7,3"])
def test_key_subprojection_exchange_does_not_drift_with_chain_length(blocks):
    """Each recursion level conjugates and snaps again; over chains of 1..8
    symmetries the key parts must stay below p and q to tol.psd and stay
    exchanged to 1e-8."""
    shape = ModelShape(blocks)
    rng = XorShift64Star(2024)
    psd = DEFAULT_TOL.psd
    for length in range(1, 9):
        for _ in range(20):
            p = rng.projection(shape, rank=1 + rng.randint(shape.dim - 1))
            chain = SymmetryChain(tuple(rng.symmetry(shape) for _ in range(length)))
            q = as_projection(apply_chain(chain, p))
            ew = key_subprojection_exchange(EquivalenceWitness(p, q, chain))
            assert float(np.min((p - ew.e).eigenvalues())) >= -psd, length
            assert float(np.min((q - ew.f).eigenvalues())) >= -psd, length
            assert ew.residual() <= 1e-8, length


def test_orthogonal_decomposition_cases():
    # disjoint blocks: nothing exchangeable
    d1 = np.zeros((4, 4)); d1[0, 0] = 1.0
    d2 = np.zeros((4, 4)); d2[2, 2] = 1.0
    e, f = Projection(SH22, d1), Projection(SH22, d2)
    d = orthogonal_decomposition(e, f)
    assert d.e1.rank() == 0 and d.f1.rank() == 0
    assert dist(d.e2, e) < 1e-10 and dist(d.f2, f) < 1e-10
    # equal rank orthogonal in one block: full exchange
    sh = ModelShape((4,))
    e = Projection(sh, np.diag([1.0, 1.0, 0.0, 0.0]))
    f = Projection(sh, np.diag([0.0, 0.0, 1.0, 1.0]))
    d = orthogonal_decomposition(e, f)
    assert d.e2.rank() == 0 and d.f2.rank() == 0
    assert dist(quad(d.s, e), f) < 1e-8
    # zero e
    nil = Projection(sh, np.zeros((4, 4)))
    d = orthogonal_decomposition(nil, f)
    assert d.e1.rank() == 0 and d.e2.rank() == 0 and d.f1.rank() == 0
    assert dist(d.f2, f) < 1e-10


def test_orthogonal_decomposition_randomized():
    rng = XorShift64Star(57)
    for shape in (SH23, ModelShape((4,)), SH22):
        for _ in range(20):
            e = rng.projection(shape)
            f = rng.projection(shape)
            d = orthogonal_decomposition(e, f)
            r = d.residuals()
            assert r["exchange"] < 1e-8
            assert r["covers_orthogonal"] < 1e-8
            assert r["e_split"] < 1e-8 and r["f_split"] < 1e-8
            assert dist(as_projection(d.e1 + d.e2), e) < 1e-8
            assert dist(as_projection(d.f1 + d.f2), f) < 1e-8
            assert orthogonal(d.e1, d.e2) and orthogonal(d.f1, d.f2)
            assert not related(d.e2, d.f2)


def test_decomposition_split_residuals_detect_corruption():
    d1 = np.zeros((4, 4)); d1[0, 0] = 1.0
    d2 = np.zeros((4, 4)); d2[2, 2] = 1.0
    d = orthogonal_decomposition(Projection(SH22, d1), Projection(SH22, d2))
    r = d.residuals()
    assert r["e_split"] < 1e-8 and r["f_split"] < 1e-8
    # here e2 = e, so a corrupted e2 no longer recombines to e
    bad = replace(d, e2=d.f2)
    assert bad.residuals()["e_split"] > 1e-8
    assert bad.residuals()["f_split"] == r["f_split"]


def test_generalized_comparability():
    rng = XorShift64Star(58)
    one = Projection(SH23, np.eye(5))
    e = rng.projection(SH23)
    res = generalized_comparability(e, one)
    assert res.verify()
    for shape in (SH23, ModelShape((4,))):
        for _ in range(25):
            a = rng.projection(shape)
            b = rng.projection(shape)
            res = generalized_comparability(a, b)
            assert res.verify(), res.residuals()
            assert is_central(res.h)
            if shape.nblocks == 1:
                assert res.h.block_mask in ((True,), (False,))
    # rank-1 non-orthogonal pair in one 2x2 block: either trivial h works
    # and the symmetry carries e exactly onto f
    sh2 = ModelShape((2,))
    e = Projection(sh2, [[1.0, 0.0], [0.0, 0.0]])
    f = Projection(sh2, [[0.5, 0.5], [0.5, 0.5]])
    res = generalized_comparability(e, f)
    assert res.h.block_mask in ((True,), (False,))
    assert dist(quad(res.s, e), f) < 1e-8
    assert res.verify()


def test_relative_center_witness():
    rng = XorShift64Star(59)
    # one-block model: d = p gives c = 1, d = 0 gives c = 0
    sh = ModelShape((3,))
    p = rng.projection(sh, rank=2)
    c = relative_center_witness(p, p)
    assert c.block_mask == (True,)
    nil = Projection(sh, np.zeros((3, 3)))
    c = relative_center_witness(p, nil)
    assert c.block_mask == (False,)
    # block-structured worked example
    pdata = np.zeros((4, 4)); pdata[0, 0] = pdata[1, 1] = pdata[2, 2] = 1.0
    p = Projection(SH22, pdata)
    ddata = np.zeros((4, 4)); ddata[0, 0] = ddata[1, 1] = 1.0
    d = Projection(SH22, ddata)
    c = relative_center_witness(p, d)
    assert c.block_mask == (True, False)
    assert dist(meet(c, p), d) < 1e-8
    # randomized: cuts of p by central projections are interval central
    for _ in range(15):
        p = rng.projection(SH22)
        cen = center_elements(SH22)
        cpick = cen[rng.randint(len(cen))]
        d = meet(p, cpick)
        c = relative_center_witness(p, d)
        assert dist(meet(c, p), d) < 1e-8
    # non-central d is rejected
    sh2 = ModelShape((2,))
    one2 = Projection(sh2, np.eye(2))
    tilt = Projection(sh2, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(PreconditionError):
        relative_center_witness(one2, tilt)


def test_invariant_suite_and_cover_sup():
    acc = Accumulator()
    invariant_checks(acc, XorShift64Star(7), SH22, 10, DEFAULT_TOL)
    assert acc.passed
    rng = XorShift64Star(60)
    for _ in range(5):
        p = rng.projection(SH22)
        acc = Accumulator()
        cover_sup_checks(acc, p, XorShift64Star(rng.next_u64()), DEFAULT_TOL)
        assert acc.passed


def test_unrelated_iff_cover_orthogonal():
    rng = XorShift64Star(61)
    for _ in range(30):
        e = rng.projection(SH22)
        f = rng.projection(SH22)
        lhs = not related(e, f)
        ge, gf = central_cover(e), central_cover(f)
        assert lhs == orthogonal(ge, gf)
        assert lhs == orthogonal(e, gf)
        if not orthogonal(e, f):
            assert related(e, f)
    for c in center_elements(SH22):
        for _ in range(10):
            p = rng.projection(SH22)
            assert related(p, c) == (not orthogonal(p, c))
