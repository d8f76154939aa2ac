"""Stacked values: one call over a batch axis equals the calls per member, bit for bit.

The suites run straight-line trial loops once per statement over all
trials, so they rely on two premises.  First, LAPACK and BLAS give the same
bits for a stack as for each matrix alone (`test_stacked_lapack_and_blas_*`);
if a numpy or OpenBLAS upgrade breaks this, these tests fail by name before
any golden report does.  Second, every operation the stacked loops call
returns, as member i of a stacked result, exactly what it returns for
member i alone (`test_member_of_stacked_result_*`).  `join`, `meet` and
`sasaki` map over the members of a stack, so for them the second premise
rests on the stacked eigendecomposition their members share.
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
    order_gap,
    quad,
    range_basis,
    signum,
    span,
    stack,
    unit_projection,
    zero_projection,
)
from synalg import suites
from synalg.lattice import central_cover, join, meet, ortho, sasaki
from synalg.report import Batch
from synalg.rng import XorShift64Star
from synalg.symmetry import exchange_efe_fef

SIZES = range(1, 17)
SHAPES = ["2,3", "4", "1,1,1,1", "8,8", "20,20"]  # 20,20: blocks past the n <= 16 the model targets
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


def _inputs(shape_text, seed=5):
    """Stacked projections p, q (ranks from zero to full, with repeats), stacked
    elements a, b and one unstacked projection r."""
    shape = ModelShape(tuple(int(b) for b in shape_text.split(",")))
    rng = XorShift64Star(seed)
    ps = [rng.projection(shape) for _ in range(MEMBERS - 3)]
    qs = [rng.projection(shape) for _ in range(MEMBERS - 3)]
    ps += [zero_projection(shape), unit_projection(shape), ps[0]]
    qs += [qs[1], zero_projection(shape), ps[0]]
    a = stack([rng.element(shape) for _ in range(MEMBERS)])
    b = stack([rng.element(shape) for _ in range(MEMBERS)])
    return stack(ps), stack(qs), a, b, rng.projection(shape)


def _same(stacked, i, single):
    if hasattr(single, "data"):
        assert type(stacked) is type(single)
        assert np.array_equal(stacked[i].data, single.data)
        if hasattr(single, "block_mask"):
            assert stacked[i].block_mask == single.block_mask
    else:
        assert stacked[i] == single


OPS = {
    "join": lambda p, q, a, b, r: join(p, q),
    "meet": lambda p, q, a, b, r: meet(p, q),
    "sasaki": lambda p, q, a, b, r: sasaki(p, q),
    "join_r": lambda p, q, a, b, r: join(p, r),
    "r_join": lambda p, q, a, b, r: join(r, q),
    "meet_r": lambda p, q, a, b, r: meet(p, r),
    "r_meet": lambda p, q, a, b, r: meet(r, q),
    "sasaki_r": lambda p, q, a, b, r: sasaki(p, r),
    "r_sasaki": lambda p, q, a, b, r: sasaki(r, q),
    "ortho": lambda p, q, a, b, r: ortho(p),
    "as_projection": lambda p, q, a, b, r: as_projection(jordan(a, a) * 0.5 + p),
    "carrier": lambda p, q, a, b, r: carrier(a),
    "absolute": lambda p, q, a, b, r: absolute(a),
    "signum": lambda p, q, a, b, r: signum(a),
    "quad": lambda p, q, a, b, r: quad(a, b),
    "jordan": lambda p, q, a, b, r: jordan(a, b),
    "opnorm": lambda p, q, a, b, r: opnorm(a.data @ b.data),
    "dist": lambda p, q, a, b, r: dist(a, b),
    "leq": lambda p, q, a, b, r: leq(meet(p, q), p),
    "order_gap": lambda p, q, a, b, r: order_gap(a),
    "exchange_efe_fef": lambda p, q, a, b, r: exchange_efe_fef(p, q),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("op", sorted(OPS))
def test_member_of_stacked_result_equals_op_on_member(op, shape):
    p, q, a, b, r = _inputs(shape)
    stacked = OPS[op](p, q, a, b, r)
    for i in range(MEMBERS):
        _same(stacked, i, OPS[op](p[i], q[i], a[i], b[i], r))


def test_range_basis_span_and_central_cover_reject_a_stack():
    """They take one matrix; on a stack, indexing a block would slice the member axis."""
    p = _inputs("2,3")[0]
    with pytest.raises(ValueError, match="not a stack"):
        range_basis(p)
    with pytest.raises(ValueError, match="not a stack"):
        span(p.shape, p.data)
    with pytest.raises(ValueError, match="mask has shape"):
        central_cover(p)


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
