"""Results that the package builds itself skip re-validation but lose nothing by it.

Every path that wraps its result through the trusted constructor must give
a value that the validating constructor accepts unchanged, bit for bit:
exactly symmetric, exactly zero off the blocks, and for central
projections the same block mask a rescan finds.  `opnorm` must stay
bit-equal to `np.linalg.norm(x, 2)`, and a counting guard keeps the
trusted paths from drifting back to full validation.
"""

import numpy as np
import pytest

import synalg.core as core
from synalg import (
    DriftError,
    Element,
    EnvelopingElement,
    ModelShape,
    Projection,
    Symmetry,
    absolute,
    as_projection,
    as_symmetry,
    carrier,
    inverse,
    jordan,
    neg_part,
    opnorm,
    pos_part,
    scalar,
    signum,
    spectral_resolution,
    sqrt_pos,
    unit,
    unit_projection,
    zero,
    zero_projection,
)
from synalg.core import proj_from_sym, spectral_map, sym_from_proj
from synalg.lattice import CentralProjection, _central_mask, center_elements, ortho
from synalg.rng import XorShift64Star
from synalg.suites import SuiteConfig, run_suites

SHAPES = [ModelShape(b) for b in ((1,), (2, 3), (4,), (1, 1, 1, 1), (8, 8), (5, 7, 3))]


def offblock(shape: ModelShape) -> np.ndarray:
    mask = np.ones((shape.dim, shape.dim), dtype=bool)
    for i in range(shape.nblocks):
        c = shape.columns(i)
        mask[c.start:c.stop, c.start:c.stop] = False
    return mask


def trusted_results(shape: ModelShape, seed: int):
    """(name, result) for every operation that builds through the trusted path."""
    rng = XorShift64Star(seed)
    a, b = rng.element(shape), rng.element(shape)
    p, q = rng.projection(shape), rng.projection(shape)
    s = rng.symmetry(shape)
    pos = absolute(a)
    yield "rng.element", a
    yield "rng.projection", p
    yield "rng.projection_rank", rng.projection(shape, rank=1)
    yield "rng.positive_element", rng.positive_element(shape)
    yield "rng.symmetry", s
    yield "rng.subprojection", rng.subprojection(p)
    yield "spectral_map", spectral_map(a, np.tanh)
    yield "spectral_map_projection", spectral_map(a, lambda x: np.where(x > 0.0, 1.0, 0.0), cls=Projection)
    yield "carrier", carrier(a)
    yield "as_projection", as_projection(a)
    yield "as_symmetry", as_symmetry(a)
    yield "sqrt_pos", sqrt_pos(pos)
    yield "absolute", pos
    yield "signum", signum(a)
    yield "inverse", inverse(pos + scalar(shape, 1.0))
    yield "pos_part", pos_part(a)
    yield "neg_part", neg_part(a)
    yield "add", a + b
    yield "sub", p - q
    yield "neg", -s
    yield "mul", 2.5 * a
    yield "rmul", a * -0.75
    yield "matmul", a @ b
    yield "matmul_symmetry", s @ p
    yield "enveloping_add", (a @ b) + (b @ a)
    yield "enveloping_sub", (a @ b) - a
    yield "enveloping_neg", -(p @ q)
    yield "enveloping_mul", 3.0 * (p @ s)
    yield "ortho", ortho(p)
    yield "zero", zero(shape)
    yield "unit", unit(shape)
    yield "scalar", scalar(shape, -1.5)
    yield "unit_projection", unit_projection(shape)
    yield "zero_projection", zero_projection(shape)
    yield "jordan", jordan(a, b)
    yield "transpose", (a @ b).T
    yield "sym_from_proj", sym_from_proj(p)
    yield "proj_from_sym", proj_from_sym(s)
    sr = spectral_resolution(a)
    yield "resolution_jump", sr.jumps[-1][1]
    yield "resolution_at", sr.at(0.0)
    yield "reconstruct", sr.reconstruct()
    for c in center_elements(shape):
        yield "from_mask", c


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_trusted_results_match_full_validation(shape):
    mask = offblock(shape)
    seen = set()
    for seed in (1, 2, 3):
        for name, r in trusted_results(shape, seed):
            seen.add(name)
            again = type(r)(r.shape, r.data)
            assert np.array_equal(again.data, r.data), name
            assert not r.data.flags.writeable, name
            assert np.all(r.data[mask] == 0.0), name
            if isinstance(r, Element):
                assert np.array_equal(r.data, r.data.T), name
            if isinstance(r, CentralProjection):
                assert r.block_mask == again.block_mask == _central_mask(r, core.DEFAULT_TOL), name
    assert "from_mask" in seen and "enveloping_mul" in seen


def test_trusted_results_keep_their_types():
    sh = ModelShape((2, 3))
    results = dict(trusted_results(sh, 5))
    for name in ("carrier", "as_projection", "ortho", "spectral_map_projection", "unit_projection",
                 "zero_projection", "proj_from_sym", "resolution_jump", "resolution_at"):
        assert type(results[name]) is Projection, name
    for name in ("as_symmetry", "unit", "sym_from_proj"):
        assert type(results[name]) is Symmetry, name
    for name in ("neg", "zero", "scalar", "jordan", "reconstruct"):
        assert type(results[name]) is Element, name
    for name in ("matmul", "enveloping_add", "enveloping_mul", "transpose"):
        assert type(results[name]) is EnvelopingElement, name


def test_trusted_path_still_checks_finiteness_and_drift():
    a = XorShift64Star(9).element(ModelShape((2, 3)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            spectral_map(a, lambda x: np.full_like(x, np.inf))
        with pytest.raises(ValueError, match="finite"):
            1e308 * (a @ a) * 1e308
    with pytest.raises(DriftError, match="not a projection"):
        spectral_map(a, lambda x: np.full_like(x, 0.5), cls=Projection)
    with pytest.raises(DriftError, match="not a symmetry"):
        spectral_map(a, lambda x: np.full_like(x, 0.5), cls=Symmetry)


def test_opnorm_bit_equal_to_norm2():
    gen = np.random.default_rng(20261018)
    for n in range(1, 17):
        for scale in (1e-300, 1e-150, 1e-16, 1e-8, 1.0, 10.0, 1e3):
            x = scale * gen.standard_normal((n, n))
            sym = 0.5 * (x + x.T)
            for m in (x, sym, sym @ x, x @ x.T, x[::-1].T):
                assert opnorm(m).hex() == float(np.linalg.norm(m, 2)).hex(), (n, scale)
    assert opnorm(np.zeros((0, 0))) == 0.0


def test_no_revalidation_on_trusted_paths(monkeypatch):
    sh = ModelShape((2, 3))
    rng = XorShift64Star(42)
    a, b = rng.element(sh), rng.element(sh)
    p = rng.projection(sh)
    counts = {"block_zeros": 0, "norm2": 0}
    check_block_zeros, norm = core._check_block_zeros, np.linalg.norm

    def counted_block_zeros(*args):
        counts["block_zeros"] += 1
        return check_block_zeros(*args)

    def counted_norm(x, ord=None, *args, **kwargs):
        counts["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(core, "_check_block_zeros", counted_block_zeros)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    spectral_map(a, abs)
    carrier(a)
    as_projection(a)
    ortho(p)
    CentralProjection.from_mask(sh, [True, False])
    a + b, a - b, a @ b, (a @ b).T
    zero(sh), unit(sh), scalar(sh, 2.0), unit_projection(sh), zero_projection(sh), jordan(a, b)
    proj_from_sym(sym_from_proj(p))
    sr = spectral_resolution(a)
    sr.at(0.0), sr.reconstruct()
    rng.element(sh), rng.projection(sh), rng.projection(sh, rank=2), rng.positive_element(sh)
    rng.symmetry(sh), rng.subprojection(p)
    assert counts == {"block_zeros": 0, "norm2": 0}
    # A suite run still validates what `quad` and the witness constructions
    # build; only the spectral norm must stay off np.linalg.norm.
    run_suites(SuiteConfig(seed=42, trials=2, suites=("lattice",)))
    assert counts["norm2"] == 0
