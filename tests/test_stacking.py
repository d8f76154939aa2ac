"""Stacked values: one call over a batch axis equals the calls per member, bit for bit.

The suites run straight-line trial loops once per statement over all
trials, so they rely on two premises.  First, LAPACK and BLAS give the same
bits for a stack as for each matrix alone (`test_stacked_lapack_and_blas_*`);
if a numpy or OpenBLAS upgrade breaks this, these tests fail by name before
any golden report does.  Second, every operation the stacked loops call
returns, as member i of a stacked result, exactly what it returns for
member i alone (`test_member_of_stacked_result_*`).
"""

import numpy as np
import pytest

from synalg.core import (
    ModelShape,
    absolute,
    as_projection,
    carrier,
    dist,
    jordan,
    leq,
    opnorm,
    quad,
    range_basis,
    signum,
    spectral_map,
    stack,
    unit_projection,
    zero_projection,
)
from synalg import suites
from synalg.lattice import central_cover, join, meet, ortho, sasaki
from synalg.report import Batch
from synalg.rng import XorShift64Star, snap
from synalg.symmetry import exchange_efe_fef

SIZES = range(1, 17)
SHAPES = ["2,3", "4", "1,1,1,1", "8,8", "20,20"]  # 20,20: layouts longer than 64 columns
MEMBERS = 14


def _column_major(x):
    return np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_lapack_and_blas_match_per_matrix_calls(order):
    rng = np.random.default_rng(11)
    for n in SIZES:
        x = rng.standard_normal((20, n, n))
        x = x + x.swapaxes(-1, -2)
        y = rng.standard_normal((20, n, max(1, n - 1)))
        if order == "F":
            x, y = _column_major(x), _column_major(y)
        w, v = np.linalg.eigh(x)
        u, sv, _ = np.linalg.svd(y, full_matrices=False)
        norms = np.linalg.svd(x, compute_uv=False)
        prod, gram = x @ v, v.swapaxes(-1, -2) @ v
        for i in range(len(x)):
            wi, vi = np.linalg.eigh(x[i])
            ui, svi, _ = np.linalg.svd(y[i], full_matrices=False)
            assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi), ("eigh", n, i)
            assert np.array_equal(u[i], ui) and np.array_equal(sv[i], svi), ("svd", n, i)
            assert np.array_equal(norms[i], np.linalg.svd(x[i], compute_uv=False)), ("svdvals", n, i)
            assert np.array_equal(prod[i], x[i] @ vi), ("matmul", n, i)
            assert np.array_equal(gram[i], vi.T @ vi), ("gram", n, i)


def test_stacked_lapack_and_blas_projector_of_selected_columns():
    """u[:, :r] u[:, :r]^T over a stack (grouped by r, as `core.span` does)
    equals the product of the selected columns of each member alone."""
    rng = np.random.default_rng(12)
    for n in SIZES:
        u = np.linalg.svd(rng.standard_normal((30, n, n)))[0]
        for r in range(n + 1):
            keep = np.arange(n) < r
            sel = u[..., keep]
            blk = sel @ sel.swapaxes(-1, -2)
            for i in range(0, len(u), 7):
                one = u[i][:, keep]
                assert np.array_equal(blk[i], one @ one.T), (n, r, i)


def _inputs(shape_text, seed=5):
    """Stacked projections p, q (ranks from zero to full, with repeats) and elements a, b."""
    shape = ModelShape(tuple(int(b) for b in shape_text.split(",")))
    rng = XorShift64Star(seed)
    ps = [snap(rng.element(shape)) for _ in range(MEMBERS - 3)]
    qs = [snap(rng.element(shape)) for _ in range(MEMBERS - 3)]
    ps += [zero_projection(shape), unit_projection(shape), ps[0]]
    qs += [qs[1], zero_projection(shape), ps[0]]
    a = stack([rng.element(shape) for _ in range(MEMBERS)])
    b = stack([rng.element(shape) for _ in range(MEMBERS)])
    return stack(ps), stack(qs), a, b


def _same(stacked, i, single):
    if hasattr(single, "data"):
        assert type(stacked) is type(single)
        assert np.array_equal(stacked[i].data, single.data)
        if hasattr(single, "block_mask"):
            assert stacked[i].block_mask == single.block_mask
    else:
        assert stacked[i] == single


OPS = {
    "join": lambda p, q, a, b: join(p, q),
    "meet": lambda p, q, a, b: meet(p, q),
    "sasaki": lambda p, q, a, b: sasaki(p, q),
    "ortho": lambda p, q, a, b: ortho(p),
    "as_projection": lambda p, q, a, b: as_projection(jordan(a, a) * 0.5 + p),
    "carrier": lambda p, q, a, b: carrier(a),
    "absolute": lambda p, q, a, b: absolute(a),
    "signum": lambda p, q, a, b: signum(a),
    "quad": lambda p, q, a, b: quad(a, b),
    "jordan": lambda p, q, a, b: jordan(a, b),
    "opnorm": lambda p, q, a, b: opnorm(a.data @ b.data),
    "dist": lambda p, q, a, b: dist(a, b),
    "leq": lambda p, q, a, b: leq(meet(p, q), p),
    "central_cover": lambda p, q, a, b: central_cover(p),
    "exchange_efe_fef": lambda p, q, a, b: exchange_efe_fef(p, q),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("op", sorted(OPS))
def test_member_of_stacked_result_equals_op_on_member(op, shape):
    p, q, a, b = _inputs(shape)
    stacked = OPS[op](p, q, a, b)
    for i in range(MEMBERS):
        _same(stacked, i, OPS[op](p[i], q[i], a[i], b[i]))


def test_range_basis_rejects_a_stack_of_different_block_ranks():
    """Members whose kept columns differ must not share the first member's
    columns; `lattice` groups them first, and a wrong grouping raises."""
    shape = ModelShape((2, 3))
    one, none = unit_projection(shape), zero_projection(shape)
    assert range_basis(stack([one, one])).shape == (2, 5, 5)
    with pytest.raises(ValueError, match="different block ranks"):
        range_basis(stack([one, none]))


def test_spectral_map_calls_an_outside_function_on_each_eigenvalue():
    """Only numpy ufuncs and this package's functions get the eigenvalue array."""
    p, q, a, b = _inputs("2,3")
    seen = []
    out = spectral_map(a, lambda x: seen.append(np.ndim(x)) or abs(x))
    assert seen == [0] * (MEMBERS * 5)
    assert np.array_equal(out.data, spectral_map(a, np.abs).data)


@pytest.mark.parametrize("shape", ["2,3", "4", "1,1,1,1"])
def test_default_verify_runs_its_stacked_loops_stacked(shape, monkeypatch):
    """A stacked trial body that raises is run again one trial at a time; at
    the default tolerances none may need to, or the speed-up is silently lost."""
    sizes = []

    class Recording(Batch):
        def __init__(self, body, tol, *draws):
            sizes.append(len(draws[0].data))
            super().__init__(body, tol, *draws)

    monkeypatch.setattr(suites, "Batch", Recording)
    suites.run_suites(suites.SuiteConfig(shape=ModelShape(tuple(int(b) for b in shape.split(",")))))
    assert sizes and min(sizes) > 1
