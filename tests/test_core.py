"""Core model and spectral calculus tests.

Expected values for the worked examples are computed by independent
means: direct 2x2 matrix arithmetic, characteristic polynomials, and
closed-form spectra of diagonal matrices.
"""

import math

import numpy as np
import pytest

from synalg import (
    DriftError,
    Element,
    EnvelopingElement,
    ModelShape,
    NotInvertibleError,
    PreconditionError,
    Projection,
    ShapeMismatchError,
    Symmetry,
    absolute,
    as_projection,
    as_symmetry,
    carrier,
    commutes,
    dist,
    eig_sym,
    inverse,
    jordan,
    leq,
    neg_part,
    order_unit_norm,
    pos_part,
    quad,
    scalar,
    signum,
    spectral_resolution,
    sqrt_pos,
    symmetrize_sum,
    unit,
    zero,
)
from synalg.rng import XorShift64Star

SH2 = ModelShape((2,))
SH3 = ModelShape((3,))
ISQ2 = math.sqrt(0.5)

E = Projection(SH2, [[1.0, 0.0], [0.0, 0.0]])
F = Projection(SH2, [[0.5, 0.5], [0.5, 0.5]])
HADAMARD_HALF = Element(SH2, [[0.5, 0.5], [0.5, -0.5]])


def test_shape_invariants():
    assert ModelShape((2, 3)).dim == 5
    with pytest.raises(ValueError):
        ModelShape(())
    with pytest.raises(ValueError):
        ModelShape((2, 0))


def test_element_rejects_asymmetry_and_offblock():
    with pytest.raises(ValueError):
        Element(SH2, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Element(ModelShape((1, 1)), [[0.0, 0.5], [0.5, 0.0]])
    # enveloping members may be asymmetric but must stay block diagonal
    EnvelopingElement(SH2, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        EnvelopingElement(ModelShape((1, 1)), [[0.0, 1.0], [0.0, 0.0]])


def test_projection_and_symmetry_validation():
    with pytest.raises(DriftError):
        Projection(SH2, [[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(DriftError):
        Symmetry(SH2, [[1.0, 0.0], [0.0, 0.5]])
    assert Projection(SH2, np.eye(2)).rank() == 2
    assert Symmetry(SH2, np.diag([1.0, -1.0])) is not None


def test_jordan_unit_and_orthogonal_cases():
    a = XorShift64Star(1).element(SH3)
    assert dist(jordan(unit(SH3), a), a) < 1e-12
    p = Projection(SH2, np.diag([1.0, 0.0]))
    q = Projection(SH2, np.diag([0.0, 1.0]))
    assert order_unit_norm(jordan(p, q)) < 1e-12


def test_jordan_worked_example():
    # direct arithmetic: ef + fe = [[1, .5], [.5, 0]], halved
    expected = np.array([[0.5, 0.25], [0.25, 0.0]])
    assert np.allclose(jordan(E, F).data, expected, atol=1e-12)


def test_quad_worked_example_and_involution():
    expected = np.array([[0.5, 0.0], [0.0, 0.0]])  # e f e by hand
    assert np.allclose(quad(E, F).data, expected, atol=1e-12)
    b = XorShift64Star(2).element(SH3)
    assert dist(quad(unit(SH3), b), b) < 1e-12
    s = XorShift64Star(3).symmetry(SH3)
    assert dist(quad(s, quad(s, b)), b) < 1e-10


def test_quad_order_preserving():
    rng = XorShift64Star(4)
    a = rng.element(SH3)
    b = absolute(rng.element(SH3))
    assert leq(zero(SH3), quad(a, b))


def test_leq_examples():
    assert leq(zero(SH2), E)
    assert leq(F, unit(SH2))
    # difference F - E has determinant -1/2, hence a negative eigenvalue
    assert not leq(E, F)
    with pytest.raises(ShapeMismatchError):
        jordan(E, Projection(SH3, np.eye(3)))


def test_eig_sym_trivial_cases():
    w, _ = eig_sym(unit(SH3))
    assert np.allclose(w, np.ones(3), atol=0)
    w, v = eig_sym(Element(SH2, np.diag([3.0, -1.0])))
    assert np.allclose(w, [-1.0, 3.0], atol=0)
    assert np.allclose(np.abs(v), np.eye(2)[:, ::-1], atol=1e-15)


def test_eig_sym_worked_example():
    w, v = eig_sym(HADAMARD_HALF)
    # characteristic polynomial: lambda^2 = 1/2
    assert np.allclose(w, [-ISQ2, ISQ2], atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)
    assert np.allclose((v * w) @ v.T, HADAMARD_HALF.data, atol=1e-12)


def test_eig_blockwise_no_cross_block_mixing():
    sh = ModelShape((2, 2))
    a = Element(sh, np.eye(4))  # degenerate spectrum across blocks
    _, v = eig_sym(a)
    assert np.all(v[2:, :2] == 0.0) and np.all(v[:2, 2:] == 0.0)


def test_sqrt_pos():
    assert dist(sqrt_pos(unit(SH2)), unit(SH2)) < 1e-12
    assert dist(sqrt_pos(E), E) < 1e-12
    d = Element(SH2, np.diag([4.0, 9.0]))
    assert np.allclose(sqrt_pos(d).data, np.diag([2.0, 3.0]), atol=1e-12)
    with pytest.raises(PreconditionError):
        sqrt_pos(Element(SH2, np.diag([-1.0, 1.0])))
    rng = XorShift64Star(5)
    for _ in range(20):
        a = rng.element(SH3)
        pos = absolute(a)
        root = sqrt_pos(pos)
        assert leq(zero(SH3), root)
        assert dist(Element(SH3, root.data @ root.data), pos) < 1e-10
        assert commutes(root, a)


def test_abs_and_parts():
    assert dist(absolute(scalar(SH2, -1.0)), unit(SH2)) < 1e-12
    d = Element(SH2, np.diag([2.0, -3.0]))
    assert np.allclose(pos_part(d).data, np.diag([2.0, 0.0]), atol=1e-12)
    assert np.allclose(neg_part(d).data, np.diag([0.0, 3.0]), atol=1e-12)
    # a^2 = 1/2 so |a| = sqrt(1/2) times the identity
    assert dist(absolute(HADAMARD_HALF), scalar(SH2, ISQ2)) < 1e-12


def test_parts_identities_randomized():
    rng = XorShift64Star(6)
    for _ in range(50):
        a = rng.element(SH3)
        assert dist(pos_part(a) - neg_part(a), a) < 1e-10
        assert dist(pos_part(a) + neg_part(a), absolute(a)) < 1e-10
        assert np.abs(pos_part(a).data @ neg_part(a).data).max() < 1e-10
        for part in (pos_part(a), neg_part(a), absolute(a)):
            assert commutes(part, a)


def test_carrier():
    assert carrier(zero(SH2)).rank() == 0
    assert dist(carrier(F), F) < 1e-12
    d = Element(SH3, np.diag([0.5, 0.0, -2.0]))
    assert np.allclose(carrier(d).data, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_carrier_minimality_bruteforce():
    rng = XorShift64Star(7)
    for _ in range(10):
        a = rng.element(SH3)
        w, v = eig_sym(a)
        car = carrier(a)
        for bits in range(8):
            qm = sum(np.outer(v[:, i], v[:, i]) for i in range(3) if bits >> i & 1)
            qm = qm if isinstance(qm, np.ndarray) else np.zeros((3, 3))
            q = as_projection(Element(SH3, qm))
            if np.abs(a.data @ q.data - a.data).max() < 1e-10:
                assert leq(car, q)


def test_signum_and_polar():
    assert order_unit_norm(signum(zero(SH2))) == 0.0
    d = Element(SH3, np.diag([5.0, -2.0, 0.0]))
    assert np.allclose(signum(d).data, np.diag([1.0, -1.0, 0.0]), atol=1e-12)
    # |a| = isq2 * 1, so sgn(a) = a / isq2
    assert dist(signum(HADAMARD_HALF), (1.0 / ISQ2) * HADAMARD_HALF) < 1e-12
    rng = XorShift64Star(8)
    for _ in range(50):
        a = rng.element(SH3)
        sg = signum(a)
        assert dist(Element(SH3, sg.data @ sg.data), carrier(a)) < 1e-10
        assert dist(Element(SH3, sg.data @ absolute(a).data), a) < 1e-10


def test_spectral_resolution_examples():
    sr = spectral_resolution(unit(SH2))
    assert len(sr) == 1 and sr.lower == sr.upper == 1.0
    d = Element(SH2, np.diag([2.0, -1.0]))
    sr = spectral_resolution(d)
    assert [round(l, 12) for l, _ in sr.jumps] == [-1.0, 2.0]
    assert np.allclose(sr.jumps[0][1].data, np.diag([0.0, 1.0]), atol=1e-12)
    assert sr.lower == -1.0 and sr.upper == 2.0
    sr = spectral_resolution(HADAMARD_HALF)
    assert len(sr) == 2
    assert all(q.rank() == 1 for _, q in sr.jumps)
    assert np.allclose([l for l, _ in sr.jumps], [-ISQ2, ISQ2], atol=1e-12)


def test_spectral_resolution_properties():
    rng = XorShift64Star(9)
    for _ in range(30):
        a = rng.element(ModelShape((2, 2)))
        sr = spectral_resolution(a)
        assert dist(sr.reconstruct(), a) < 1e-8
        total = sum(q.data for _, q in sr.jumps)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for i, (_, qi) in enumerate(sr.jumps):
            for _, qj in sr.jumps[i + 1:]:
                assert np.abs(qi.data @ qj.data).max() < 1e-10
        lam = sr.lower - 1.0
        assert sr.at(lam).rank() == 0
        assert sr.at(sr.upper).rank() == 4
        # step function formula against the direct route
        for lam in np.linspace(sr.lower - 0.2, sr.upper + 0.2, 7):
            direct = unit(a.shape) - carrier(pos_part(a - scalar(a.shape, lam)))
            assert dist(sr.at(lam), Element(a.shape, direct.data)) < 1e-8


def test_inverse():
    assert dist(inverse(unit(SH2)), unit(SH2)) < 1e-12
    d = Element(SH2, np.diag([2.0, 4.0]))
    assert np.allclose(inverse(d).data, np.diag([0.5, 0.25]), atol=1e-12)
    with pytest.raises(NotInvertibleError):
        inverse(Element(SH2, np.diag([1.0, 0.0])))
    rng = XorShift64Star(10)
    for _ in range(20):
        a = absolute(rng.element(SH3)) + scalar(SH3, 0.3)
        inv = inverse(a)
        assert dist(Element(SH3, a.data @ inv.data), unit(SH3)) < 1e-10
        assert commutes(a, inv)


def test_order_unit_norm():
    assert order_unit_norm(unit(SH2)) == 1.0
    assert abs(order_unit_norm(Element(SH2, np.diag([3.0, -5.0]))) - 5.0) < 1e-12
    s = XorShift64Star(11).symmetry(SH3)
    assert abs(order_unit_norm(s) - 1.0) < 1e-12


def test_commutes_and_envelope():
    a = XorShift64Star(12).element(SH2)
    assert commutes(a, unit(SH2))
    assert not commutes(E, F)
    x = E @ F
    assert isinstance(x, EnvelopingElement)
    back = symmetrize_sum(x, x.T)
    assert dist(back, Element(SH2, x.data + x.data.T)) < 1e-12
    with pytest.raises(PreconditionError):
        symmetrize_sum(x, x)  # ef + ef is not symmetric here


def test_snap_helpers():
    drifted = Element(SH2, [[1.0 - 1e-9, 0.0], [0.0, 1e-9]])
    p = as_projection(drifted)
    assert np.allclose(p.data, np.diag([1.0, 0.0]), atol=0)
    s = as_symmetry(Element(SH2, [[1.0 - 1e-9, 0.0], [0.0, -1.0 + 1e-9]]))
    assert np.allclose(s.data, np.diag([1.0, -1.0]), atol=0)
    # Both always snap; a positional or named `snap` argument is an error.
    with pytest.raises(TypeError):
        as_projection(drifted, False)
    with pytest.raises(TypeError):
        as_symmetry(drifted, snap=False)


def test_sa_axioms_randomized():
    rng = XorShift64Star(13)
    sh = ModelShape((2, 2))
    for _ in range(40):
        a = rng.element(sh)
        b = rng.element(sh)
        assert leq(zero(sh), jordan(a, a))  # squares positive
        assert leq(zero(sh), quad(absolute(a), absolute(b)))
        p = rng.projection(sh)
        supported = quad(p, a)
        outside = quad(as_projection(unit(sh) - p), absolute(b))
        # support-disjoint elements annihilate on both sides
        assert np.abs(supported.data @ outside.data).max() < 1e-10
        assert np.abs(outside.data @ supported.data).max() < 1e-10


def test_immutability():
    a = unit(SH2)
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0
    with pytest.raises(AttributeError):
        a.data = np.zeros((2, 2))


def test_block_layout_helpers():
    from synalg.core import block_diag, block_frame, span

    sh = ModelShape((2, 3))
    d = block_diag(sh, [np.full((2, 2), 1.0), np.full((3, 3), 2.0)])
    assert d.shape == (5, 5)
    assert (d[:2, :2] == 1.0).all() and (d[2:, 2:] == 2.0).all()
    assert (d[:2, 2:] == 0.0).all() and (d[2:, :2] == 0.0).all()
    a = XorShift64Star(11).element(sh)
    w, v = block_frame(a)
    # eigenvalues ascend within each block, in block order; the frame is block-diagonal
    assert np.all(np.diff(w[:2]) >= 0) and np.all(np.diff(w[2:]) >= 0)
    assert (v[:2, 2:] == 0.0).all() and (v[2:, :2] == 0.0).all()
    assert np.abs(v @ np.diag(w) @ v.T - a.data).max() < 1e-12
    ws, vs = eig_sym(a)
    order = np.argsort(w, kind="stable")
    assert (ws == w[order]).all() and (vs == v[:, order]).all()
    p = span(sh, v[:, [0, 3]])
    assert p.block_ranks() == (1, 1)
    want = np.outer(v[:, 0], v[:, 0]) + np.outer(v[:, 3], v[:, 3])
    assert np.abs(p.data - want).max() < 1e-12
    assert span(sh, v[:, []]).rank() == 0
