"""Seeded property suites for the whole stack.

Each suite draws from a deterministic xorshift stream, funnels worst-case
residuals into an accumulator, and reports one CHECK line per named
property.  The same machinery backs the command-line `verify` run and the
acceptance tests, which simply raise the trial counts.

The straight-line trial loops run stacked (`_stacked`): each trial's
inputs are drawn with the rng's own methods, in the order a loop over trials
draws them, and stacked per position; each statement then runs once over all
trials (see `core` on stacks), and the observations are replayed trial by
trial in statement order, as a loop over trials makes them.  Loops whose
draws or branches depend on the trial's results stay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    Element,
    ModelShape,
    NotInvertibleError,
    Projection,
    Symmetry,
    SynalgError,
    Tolerances,
    absolute,
    as_projection,
    block_frame,
    carrier,
    commutes,
    dist,
    eig_sym,
    inverse,
    jordan,
    leq,
    neg_part,
    opnorm,
    order_gap,
    order_unit_norm,
    pos_part,
    proj_from_sym,
    quad,
    scalar,
    signum,
    span,
    spectral_resolution,
    sqrt_pos,
    stack,
    sym_from_proj,
    symmetrize_sum,
    unit,
    unit_projection,
    zero,
)
from .lattice import (
    CentralProjection,
    IntervalModel,
    center_basis,
    center_elements,
    central_cover,
    compatible,
    is_central,
    join,
    meet,
    orthogonal,
    ortho,
    sasaki,
    centrally_orthogonal,
    co_join,
)
from .equivalence import (
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
from .oml import (
    boolean_oml,
    is_distributive,
    mo_oml,
    oml_compatible,
    oml_from_projections,
    oml_laws,
    six_piece_decomposition,
    six_piece_exhaustive,
    verify_oml,
)
from .report import Accumulator, Batch, ReportLine
from .rng import XorShift64Star
from .symmetry import (
    ExchangeWitness,
    PerspectivityWitness,
    canonical_extension,
    common_complement_from_exchange,
    complement_exchange,
    exchange_efe_fef,
    family_additivity,
    finite_additivity,
    lift_to_full,
    orthogonal_chain_to_symmetry,
    orthogonal_exchange_symmetry,
    parallelogram_exchange,
    perspective_to_chain,
    related_witness,
    sasaki_exchange,
    strong_perspectivity,
)

SUITE_NAMES = ("synalg", "lattice", "symmetry", "comparability", "oml")


@dataclass(frozen=True)
class SuiteConfig:
    """Deterministic run description for the verification suites."""

    seed: int = 42
    trials: int = 30
    shape: ModelShape = field(default_factory=lambda: ModelShape((2, 3)))
    tolerances: Tolerances = DEFAULT_TOL
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")


# -- instance generators --------------------------------------------------

def split_projection(rng: XorShift64Star, k: Projection) -> tuple[Projection, Projection]:
    """Random orthogonal split k = p + q along eigenvectors of a compression."""
    inside = quad(k, rng.element(k.shape))
    w, v = eig_sym(inside)
    keep = [i for i in range(len(w)) if abs(w[i]) > 1e-8 and rng.uniform() < 0.5]
    p = span(k.shape, v[:, keep])
    p = meet(p, k)
    q = as_projection(k - p)
    return p, q


def complement_pair(rng: XorShift64Star, shape: ModelShape) -> tuple[Projection, Projection] | None:
    """Random non-compatible complement pair (meet zero, join one)."""
    n = shape.dim
    r = 1 + rng.randint(max(1, n - 1))
    e = rng.projection(shape, rank=r)
    for _ in range(8):
        s = rng.symmetry(shape)
        f = as_projection(quad(s, ortho(e)))
        if meet(e, f).rank() == 0 and join(e, f).rank() == n:
            return e, f
    return None


def exchanged_complement_pair(rng: XorShift64Star, shape: ModelShape) -> ExchangeWitness | None:
    """Exchanged pair that also happens to be a complement pair."""
    n = shape.dim
    if n % 2 != 0:
        return None
    e = rng.projection(shape, rank=n // 2)
    for _ in range(8):
        s = rng.symmetry(shape)
        f = as_projection(quad(s, e))
        if meet(e, f).rank() == 0 and join(e, f).rank() == n:
            return ExchangeWitness(s, e, f)
    return None


def orthogonal_pair_with_chain(rng: XorShift64Star, shape: ModelShape):
    """Orthogonal equal-rank pair joined by a genuine two-step chain.

    Routes e through a third subspace m orthogonal to both (all three
    inside one block, keeping ranks matched), so the two chain
    symmetries are nontrivial.
    """
    candidates = [i for i, b in enumerate(shape.blocks) if b >= 3]
    if not candidates:
        return None
    blk = candidates[rng.randint(len(candidates))]
    nb = shape.blocks[blk]
    r = 1 + rng.randint(max(1, nb // 3))
    _, v = block_frame(rng.element(shape))
    cols = shape.columns(blk)
    e = span(shape, v[:, cols[:r]])
    m = span(shape, v[:, cols[r:2 * r]])
    f = span(shape, v[:, cols[2 * r:3 * r]])
    s1 = orthogonal_exchange_symmetry(e, m)
    s2 = orthogonal_exchange_symmetry(m, f)
    return e, f, s1, s2


def chunk_exchange_witness(rng: XorShift64Star, shape: ModelShape, chunk: Projection) -> ExchangeWitness:
    """Exchanged pair supported inside a fixed chunk of the space.

    The symmetry acts as 2q - chunk inside the chunk and trivially
    outside, so conjugates of subprojections stay inside the chunk.
    """
    e = meet(rng.subprojection(chunk), chunk)
    q = rng.subprojection(chunk)
    sym = Symmetry(shape, np.eye(shape.dim) + 2.0 * q.data - 2.0 * chunk.data)
    f = as_projection(quad(sym, e))
    return ExchangeWitness(sym, e, f)


def cross_orthogonal_witnesses(rng: XorShift64Star, shape: ModelShape) -> tuple[ExchangeWitness, ExchangeWitness] | None:
    """Two exchanged pairs in orthogonal chunks, as finite additivity wants."""
    n = shape.dim
    if n < 2:
        return None
    _, v = eig_sym(rng.element(shape))
    r = 1 + rng.randint(max(1, n // 2))
    c1 = span(shape, v[:, :r])
    c2 = span(shape, v[:, r:])
    w1 = chunk_exchange_witness(rng, shape, c1)
    w2 = chunk_exchange_witness(rng, shape, c2)
    return w1, w2


def orthogonal_family_witnesses(rng: XorShift64Star, shape: ModelShape, parts: int) -> list[ExchangeWitness]:
    """Matched orthogonal rank-one pairs, paired inside blocks."""
    ws: list[ExchangeWitness] = []
    for blk in range(shape.nblocks):
        if len(ws) >= parts:
            break
        _, v = block_frame(rng.element(shape))
        cols = shape.columns(blk)
        for i in range(len(cols) // 2):
            if len(ws) >= parts:
                break
            e = span(shape, v[:, [cols[2 * i]]])
            f = span(shape, v[:, [cols[2 * i + 1]]])
            ws.append(ExchangeWitness(orthogonal_exchange_symmetry(e, f), e, f))
    return ws


# -- stacked trials -------------------------------------------------------

def _stacked(acc: Accumulator, body, tol: Tolerances, draws: list[tuple]) -> None:
    """Run body(batch, tol, *inputs) once over the trials' draws, stacked per
    position, and replay what it observes into `acc`, trial by trial in
    statement order.

    If the stacked run raises, the body runs on one trial at a time, so the
    error raised is the first in trial and statement order.
    """
    inputs = [stack(d) for d in zip(*draws)]
    try:
        batches = [Batch(body, tol, *inputs)]
    except (SynalgError, ValueError):
        batches = [Batch(body, tol, *(c[[t]] for c in inputs)) for t in range(len(draws))]
    acc.replay(batches, len(draws))


# -- suites ---------------------------------------------------------------

def run_synalg_suite(acc: Accumulator, rng: XorShift64Star, shape: ModelShape,
                     trials: int, tol: Tolerances = DEFAULT_TOL) -> None:
    _stacked(acc, _synalg_trials, tol, [
        (rng.element(shape), rng.element(shape), rng.projection(shape),
         *(rng.positive_element(shape) for _ in range(4)), rng.symmetry(shape)) for _ in range(trials)])
    small = ModelShape((min(4, shape.blocks[0]),))
    for _ in range(min(trials, 10)):
        a = rng.element(small)
        w, v = eig_sym(a)
        car = carrier(a)
        for bits in range(1 << small.dim):
            q = span(small, v[:, [i for i in range(small.dim) if bits >> i & 1]])
            if opnorm(a.data @ q.data - a.data) <= 1e-10 * (1 + order_unit_norm(a)):
                acc.observe("synalg.carrier_minimality", order_gap(q - car), tol.psd)
    singular = Element(ModelShape((2,)), [[1.0, 0.0], [0.0, 0.0]])
    try:
        inverse(singular)
        acc.check("synalg.singular_rejected", False)
    except NotInvertibleError:
        acc.check("synalg.singular_rejected", True)
    a = rng.element(shape)
    b_fixed = jordan(a, a)
    stayed = all(commutes(a * (1.0 - 1.0 / k), b_fixed) for k in (1, 2, 4, 8)) and commutes(a, b_fixed)
    acc.check("synalg.commutant_limit_smoke", stayed)


def _synalg_trials(acc: Batch, tol: Tolerances, a: Element, b: Element, p: Projection, x1: Element,
                   x2: Element, x3: Element, x4: Element, s: Symmetry) -> None:
    shape = a.shape
    one = unit(shape)
    acc.observe("synalg.square_positive", order_gap(jordan(a, a)), tol.psd)
    ap, bp = absolute(a), absolute(b)
    acc.observe("synalg.quad_preserves_positive", order_gap(quad(ap, bp)), tol.psd)
    inside = quad(as_projection(ortho(p)), bp)
    supported = quad(p, a)
    acc.observe("synalg.annihilation", opnorm(supported.data @ inside.data),
                tol.proj * (1 + order_unit_norm(supported)))
    acc.observe("synalg.polar_decomposition",
                dist(a, Element(shape, signum(a).data @ absolute(a).data)), 1e-8)
    acc.observe("synalg.parts_product_zero", opnorm(pos_part(a).data @ neg_part(a).data), 1e-8)
    acc.observe("synalg.parts_sum_is_abs", dist(pos_part(a) + neg_part(a), absolute(a)), 1e-8)
    acc.observe("synalg.parts_difference_is_a", dist(pos_part(a) - neg_part(a), a), 1e-8)
    acc.observe("synalg.carrier_fixes", dist(Element(shape, a.data @ carrier(a).data), a),
                tol.proj * (1 + order_unit_norm(a)))
    sr = spectral_resolution(a)
    acc.observe("synalg.spectral_reconstruction", dist(sr.reconstruct(), a), 1e-8)
    lo, hi = sr.lower - 0.5, sr.upper + 0.5
    for i in range(6):
        lam = lo + (hi - lo) * (i + 0.5) / 6
        direct = ortho(carrier(pos_part(a - scalar(shape, lam))))
        acc.observe("synalg.step_function_formula", dist(sr.at(lam), direct), tol.proj)
    total = x1
    cj = carrier(x1)
    for x in (x2, x3, x4):
        total = total + x
        cj = join(cj, carrier(x))
    acc.observe("synalg.carrier_of_sum", dist(carrier(total), cj), tol.proj)
    root = sqrt_pos(ap)
    acc.observe("synalg.sqrt_squares_back", dist(jordan(root, root), ap), 1e-8)
    acc.check("synalg.sqrt_commutant", commutes(root, quad(a, a)))
    shifted = ap + scalar(shape, 0.5)
    acc.observe("synalg.inverse_contract",
                dist(Element(shape, shifted.data @ inverse(shifted).data), one), 1e-8)
    acc.observe("synalg.symmetry_has_norm_one", np.abs(order_unit_norm(s) - 1.0), 1e-12)
    acc.observe("synalg.quad_involution", dist(quad(s, quad(s, b)), b), 1e-8)
    x = s @ p
    acc.observe("synalg.symmetrized_transpose_sum",
                dist(symmetrize_sum(x, x.T), Element(shape, x.data + x.data.swapaxes(-1, -2))), 1e-12)
    c, d = jordan(a, a), jordan(a, a) + one  # commuting pair
    acc.observe("synalg.jordan_commuting_is_product",
                dist(jordan(c, d), Element(shape, c.data @ d.data)), tol.proj * 10)
    w, v = eig_sym(a)
    acc.observe("synalg.eig_reconstruction", opnorm((v * w[..., None, :]) @ v.swapaxes(-1, -2) - a.data),
                tol.eig * (1 + order_unit_norm(a)))
    acc.observe("synalg.eig_orthonormal", opnorm(v.swapaxes(-1, -2) @ v - np.eye(shape.dim)), 1e-12)


def run_lattice_suite(acc: Accumulator, rng: XorShift64Star, shape: ModelShape,
                      trials: int, tol: Tolerances = DEFAULT_TOL) -> None:
    one_p = unit_projection(shape)
    draws = []
    for _ in range(trials):
        p, q, r = (rng.projection(shape) for _ in range(3))
        draws.append((p, q, r, rng.subprojection(p), rng.subprojection(q),
                      rng.projection(shape), rng.projection(shape)))
    _stacked(acc, _lattice_trials, tol, draws)
    if shape.dim <= 4:
        _stacked(acc, lambda acc, tol, p, q: acc.observe(
            "lattice.join_matches_orthonormalization_oracle", dist(join(p, q), carrier(p + q)), 1e-8),
                 tol, [(rng.projection(shape), rng.projection(shape)) for _ in range(trials)])
    cents = center_elements(shape)
    for c1 in cents:
        for c2 in cents:
            mask_join = tuple(a or b for a, b in zip(c1.block_mask, c2.block_mask))
            mask_meet = tuple(a and b for a, b in zip(c1.block_mask, c2.block_mask))
            acc.check("lattice.center_sup_closed",
                      tuple(central_cover(join(c1, c2)).block_mask) == mask_join)
            acc.check("lattice.center_inf_closed",
                      tuple(central_cover(meet(c1, c2)).block_mask) == mask_meet)
            acc.check("lattice.center_members_central", is_central(join(c1, c2)))
    boolean_shape = ModelShape(tuple(1 for _ in range(min(4, shape.dim))))
    bools = center_elements(boolean_shape)
    ops_match_masks = True
    for a in bools:
        for b in bools:
            want_meet = tuple(x and y for x, y in zip(a.block_mask, b.block_mask))
            want_join = tuple(x or y for x, y in zip(a.block_mask, b.block_mask))
            ops_match_masks = ops_match_masks and (
                central_cover(meet(a, b)).block_mask == want_meet
                and central_cover(join(a, b)).block_mask == want_join)
    acc.check("lattice.commutative_model_distributive", ops_match_masks)
    gamma_checks(acc, XorShift64Star(rng.next_u64()), shape, max(10, trials // 2), tol)
    blocks = center_basis(shape)
    for _ in range(max(4, trials // 4)):
        fam = [rng.subprojection(c) for c in blocks]
        witness = centrally_orthogonal(fam, tol)
        acc.check("lattice.blockwise_family_centrally_orthogonal", witness is not None)
        if witness is not None:
            total = co_join(fam, shape, tol)
            summed = fam[0]
            for f in fam[1:]:
                summed = as_projection(summed + f)
            acc.observe("lattice.co_join_is_sum", dist(total, summed), 1e-8)
        if shape.nblocks == 1:
            continue
        a = rng.projection(shape)
        b = rng.projection(shape)
        if not orthogonal(a, b) and central_cover(a).block_mask == central_cover(b).block_mask:
            acc.check("lattice.colliding_covers_rejected",
                      centrally_orthogonal([a, b], tol) is None)
    acc.check("lattice.unit_join_identity", dist(join(one_p, rng.projection(shape)), one_p) <= 1e-8)


def _lattice_trials(acc: Batch, tol: Tolerances, p: Projection, q: Projection, r: Projection,
                    sub: Projection, sub2: Projection, qq: Projection, rr: Projection) -> None:
    spq, mpq = sasaki(p, q), meet(p, q)
    acc.observe("lattice.orthomodular_law", dist(join(sub, meet(p, ortho(sub))), p), 1e-8)
    acc.observe("lattice.demorgan", dist(ortho(join(p, q)), meet(ortho(p), ortho(q))), 1e-8)
    acc.check("lattice.sasaki_duality", orthogonal(spq, r) == orthogonal(q, sasaki(p, r)))
    acc.observe("lattice.sasaki_idempotent", dist(sasaki(p, spq), spq), 1e-8)
    compat = compatible(p, q)
    acc.check("lattice.sasaki_compatibility",
              (compat == (dist(spq, mpq) <= 1e-8)) & (compat == leq(spq, q)))
    acc.observe("lattice.compatible_product_is_meet", opnorm(p.data @ q.data - mpq.data), 1e-8, where=compat)
    acc.check("lattice.sasaki_vanishes_iff_orthogonal", orthogonal(p, q) == (spq.rank() == 0))
    acc.observe("lattice.sasaki_lattice_formula", dist(spq, meet(p, join(ortho(p), q))), tol.proj)
    acc.check("lattice.complement_compatible", compatible(p, ortho(p)), where=orthogonal(p, ortho(p)))
    acc.observe("lattice.orthogonal_join_is_sum", dist(join(sub, sub2), as_projection(sub + sub2)), 1e-8,
                where=orthogonal(sub, sub2))
    m = IntervalModel(p)
    qq, rr = meet(qq, p), meet(rr, p)
    acc.observe("lattice.interval_ortho", dist(m.ortho(qq), as_projection(p - qq)), 1e-8)
    acc.observe("lattice.interval_sasaki_restricts", dist(m.sasaki(qq, rr), sasaki(qq, rr)), tol.proj * 10)
    acc.observe("lattice.interval_relative_complement_rule",
                dist(m.sasaki(qq, m.ortho(rr)), sasaki(qq, ortho(rr))), tol.proj * 10)


def gamma_checks(acc: Accumulator, rng: XorShift64Star, shape: ModelShape, trials: int,
                 tol: Tolerances) -> None:
    """Randomized verification of the central cover laws.

    Checks, over random projections: idempotence and monotonicity of the
    cover, the cover of a meet with a central cover, the orthogonality
    transfers, finite join additivity, and that covers land in (and
    exhaust) the center.  On tiny shapes the center is swept exhaustively.
    """
    one = unit_projection(shape)
    zero_p = Projection(shape, np.zeros((shape.dim, shape.dim)))
    acc.check("gamma.unit_cover_is_unit", central_cover(one, tol).block_mask == tuple([True] * shape.nblocks))
    acc.check("gamma.zero_cover_is_zero", central_cover(zero_p, tol).block_mask == tuple([False] * shape.nblocks))
    for c in center_elements(shape):
        acc.observe("gamma.cover_fixes_center", dist(central_cover(c, tol), c), tol.proj)
    for _ in range(trials):
        p = rng.projection(shape)
        q = rng.projection(shape)
        gp = central_cover(p, tol)
        gq = central_cover(q, tol)
        acc.check("gamma.cover_is_central", is_central(gp, tol))
        acc.check("gamma.cover_nonzero_iff", (p.rank() == 0) == (gp.rank() == 0))
        acc.observe("gamma.cover_idempotent", dist(central_cover(gp, tol), gp), tol.proj)
        sub = rng.subprojection(q)
        mono = all(not a or b for a, b in
                   zip(central_cover(sub, tol).block_mask, gq.block_mask))
        acc.check("gamma.cover_monotone", mono)
        lhs = central_cover(meet(p, gq, tol), tol)
        rhs = CentralProjection.from_mask(shape, [a and b for a, b in zip(gp.block_mask, gq.block_mask)])
        acc.observe("gamma.cover_of_meet_with_cover", dist(lhs, rhs), tol.proj)
        o1 = orthogonal(gp, q, tol)
        o2 = orthogonal(gp, gq, tol)
        o3 = orthogonal(p, gq, tol)
        acc.check("gamma.orthogonality_transfer", o1 == o2 == o3)
        if o1:
            acc.check("gamma.orthogonality_descends", orthogonal(p, q, tol))
        fam = [rng.projection(shape) for _ in range(3)]
        big = join(join(fam[0], fam[1], tol), fam[2], tol)
        mask = [False] * shape.nblocks
        for f in fam:
            mask = [m or b for m, b in zip(mask, central_cover(f, tol).block_mask)]
        acc.observe("gamma.cover_join_additive",
                    dist(central_cover(big, tol), CentralProjection.from_mask(shape, mask)),
                    tol.proj)


def run_symmetry_suite(acc: Accumulator, rng: XorShift64Star, shape: ModelShape,
                       trials: int, tol: Tolerances = DEFAULT_TOL) -> None:
    one = unit(shape)
    draws = []
    for _ in range(trials):
        a, b, s = rng.element(shape), rng.element(shape), rng.symmetry(shape)
        e, f, p0 = (rng.projection(shape) for _ in range(3))
        draws.append((a, b, s, e, f, p0, rng.subprojection(e), rng.subprojection(ortho(e)),
                      rng.symmetry(shape)))
    _stacked(acc, _symmetry_trials, tol, draws)
    for _ in range(trials):
        pair = complement_pair(rng, shape)
        if pair is not None:
            e, f = pair
            s = complement_exchange(e, f, tol)
            acc.observe("symmetry.complement_exchange", dist(quad(s, e), ortho(f)), 1e-8)
        witness = exchanged_complement_pair(rng, shape)
        if witness is not None:
            cc = common_complement_from_exchange(witness, tol)
            acc.observe("symmetry.half_one_plus_s_complements",
                        max(cc.residuals(tol).values()), 1e-8)
        inst = orthogonal_pair_with_chain(rng, shape)
        if inst is not None:
            e, f, s1, s2 = inst
            s = orthogonal_chain_to_symmetry(e, f, s1, s2, tol)
            acc.observe("symmetry.orthogonal_chain_collapsed", dist(quad(s, e), f), 1e-8)
        duo = cross_orthogonal_witnesses(rng, shape)
        if duo is not None:
            w1, w2 = duo
            s = finite_additivity(w1, w2, tol)
            total_e = as_projection(w1.e + w2.e, tol=tol)
            total_f = as_projection(w1.f + w2.f, tol=tol)
            acc.observe("symmetry.finite_additivity", dist(quad(s, total_e), total_f), 1e-8)
        fam = orthogonal_family_witnesses(rng, shape, parts=3)
        if fam:
            s = family_additivity(fam, tol=tol)
            esum = as_projection(sum((w.e for w in fam), zero(shape)), tol=tol)
            fsum = as_projection(sum((w.f for w in fam), zero(shape)), tol=tol)
            acc.observe("symmetry.family_additivity", dist(quad(s, esum), fsum), 1e-8)
    empty = family_additivity([], shape=shape, tol=tol)
    acc.observe("symmetry.empty_family_is_minus_one", dist(empty, -1.0 * one), 1e-12)


def _symmetry_trials(acc: Batch, tol: Tolerances, a: Element, b: Element, s: Symmetry, e: Projection,
                     f: Projection, p0: Projection, sub_e: Projection, sub_oe: Projection,
                     sex: Symmetry) -> None:
    shape = a.shape
    acc.observe("symmetry.conjugation_jordan_automorphism",
                dist(quad(s, jordan(a, b)), jordan(quad(s, a), quad(s, b))), 1e-8)
    acc.observe("symmetry.conjugation_involutive", dist(quad(s, quad(s, a)), a), 1e-8)
    low, high = a, a + absolute(b)
    acc.check("symmetry.conjugation_order_preserving", leq(quad(s, low), quad(s, high)))
    acc.observe("symmetry.carrier_equivariance",
                dist(carrier(quad(s, a)), quad(s, carrier(a))), 1e-8)
    c1, c2 = jordan(a, a), pos_part(a)
    acc.check("symmetry.commutation_transfer",
              commutes(c1, c2) & commutes(quad(s, c1), quad(s, c2)))
    diff_abs = absolute(e - f)
    acc.observe("symmetry.difference_abs_commutes_e",
                opnorm(e.data @ diff_abs.data - diff_abs.data @ e.data), 1e-8)
    acc.observe("symmetry.difference_abs_commutes_f",
                opnorm(f.data @ diff_abs.data - diff_abs.data @ f.data), 1e-8)
    built = exchange_efe_fef(e, f, tol)
    acc.observe("symmetry.efe_to_fef",
                dist(quad(built, quad(e, f)), quad(f, e)), 1e-8)
    acc.observe("symmetry.built_symmetry_involution",
                opnorm(built.data @ built.data - np.eye(shape.dim)), 1e-8)
    acc.observe("symmetry.built_symmetry_norm_one", np.abs(order_unit_norm(built) - 1.0), 1e-8)
    w = sasaki_exchange(e, f, tol)
    acc.observe("symmetry.sasaki_pair_exchanged", w.residual(), 1e-8)
    pw = parallelogram_exchange(e, f, tol)
    acc.observe("symmetry.parallelogram_exchanged", pw.residual(), 1e-8)
    orth = orthogonal(e, f, tol)
    # related_witness(e, f) is the Sasaki exchange w for a non-orthogonal pair
    acc.check("symmetry.related_parts_nonzero", (w.e.rank() > 0) & (w.f.rank() > 0), where=~orth)
    acc.check("symmetry.orthogonal_gives_none",
              [bool(o) and related_witness(e[i], f[i], tol) is None for i, o in enumerate(orth)], where=orth)
    ortho(e, tol)  # drawn at the default tolerance; a drift failure under tol stays in its place
    ext = canonical_extension(sub_e - sub_oe, tol)
    acc.observe("symmetry.canonical_extension_involution",
                opnorm(ext.data @ ext.data - np.eye(shape.dim)), 1e-8)
    acc.observe("symmetry.partial_sign_square_is_support",
                dist(Element(shape, signum(a).data @ signum(a).data), carrier(a)), 1e-8)
    acc.observe("symmetry.proj_sym_bijection",
                dist(proj_from_sym(sym_from_proj(p0, tol), tol), p0), 1e-10)
    fex = as_projection(quad(sex, e), tol=tol)
    spw = strong_perspectivity(ExchangeWitness(sex, e, fex), tol)
    acc.observe("symmetry.strong_perspectivity", np.max(list(spw.residuals(tol).values()), axis=0), 1e-8)
    s1, s2 = perspective_to_chain(lift_to_full(spw, tol), tol)
    acc.observe("symmetry.perspective_chain", dist(quad(s2, quad(s1, e)), fex), 1e-8)


def run_comparability_suite(acc: Accumulator, rng: XorShift64Star, shape: ModelShape,
                            trials: int, tol: Tolerances = DEFAULT_TOL) -> None:
    centers = center_elements(shape)
    for _ in range(trials):
        p = rng.projection(shape)
        chain = SymmetryChain(tuple(rng.symmetry(shape) for _ in range(1 + rng.randint(3))))
        q = as_projection(apply_chain(chain, p), tol=tol)
        w = EquivalenceWitness(p, q, chain)
        acc.check("comparability.chain_preserves_rank", p.block_ranks() == q.block_ranks())
        acc.check("comparability.witness_validates", equivalent_check(w, tol))
        acc.check("comparability.zero_only_to_zero", (q.rank() == 0) == (p.rank() == 0))
        if p.rank() > 0:
            ew = key_subprojection_exchange(w, tol)
            acc.check("comparability.key_parts_nonzero", ew.e.rank() > 0 and ew.f.rank() > 0)
            acc.observe("comparability.key_parts_exchanged", ew.residual(), 1e-8)
            acc.check("comparability.key_parts_below",
                      leq(ew.e, p, tol) and leq(ew.f, q, tol))
        fam = orthogonal_family_witnesses(rng, shape, parts=2)
        if fam:
            esum = as_projection(sum((x.e for x in fam), zero(shape)), tol=tol)
            chain1 = SymmetryChain((rng.symmetry(shape),))
            big = as_projection(apply_chain(chain1, esum), tol=tol)
            parts = [as_projection(apply_chain(chain1, x.e), tol=tol) for x in fam]
            acc.check("comparability.complete_divisibility_parts_orthogonal",
                      all(orthogonal(parts[i], parts[j], tol)
                          for i in range(len(parts)) for j in range(i + 1, len(parts))))
            summed = parts[0]
            for x in parts[1:]:
                summed = as_projection(summed + x, tol=tol)
            acc.observe("comparability.complete_divisibility_join", dist(big, summed), 1e-8)
        e = rng.projection(shape)
        f = rng.projection(shape)
        if not orthogonal(e, f, tol):
            acc.check("comparability.nonorthogonal_related", related(e, f, tol))
            rw = related_witness(e, f, tol)
            acc.check("comparability.sk4_witness", rw is not None and rw.e.rank() > 0)
        for c in centers:
            acc.check("comparability.central_related_iff_not_orthogonal",
                      related(e, c, tol) == (not orthogonal(e, c, tol)))
        d = orthogonal_decomposition(e, f, tol)
        r = d.residuals(tol)
        acc.observe("comparability.decomposition_exchange", r["exchange"], 1e-8)
        acc.observe("comparability.decomposition_covers_orthogonal", r["covers_orthogonal"], 1e-8)
        acc.observe("comparability.decomposition_recombines", r["e_split"] + r["f_split"], 1e-8)
        gc = generalized_comparability(e, f, tol)
        res = gc.residuals(tol)
        acc.observe("comparability.split_eh_under_fh", res["seh_below_fh"], tol.psd)
        acc.observe("comparability.split_fc_under_ec", res["sfc_below_ec"], tol.psd)
        acc.check("comparability.split_h_central", is_central(gc.h, tol))
        acc.observe("comparability.split_symmetry_involution",
                    opnorm(gc.s.data @ gc.s.data - np.eye(shape.dim)), 1e-8)
        if shape.nblocks == 1:
            acc.check("comparability.irreducible_dichotomy",
                      gc.h.block_mask in ((True,), (False,)))
        pr = rng.projection(shape)
        cc = centers[rng.randint(len(centers))]
        dd = meet(pr, cc, tol)
        try:
            witness_c = relative_center_witness(pr, dd, tol)
            acc.observe("comparability.relative_center_cut",
                        dist(meet(witness_c, pr, tol), dd), 1e-8)
        except Exception:
            acc.check("comparability.relative_center_cut_ok", False)
        q2 = rng.projection(shape)
        if pr.block_ranks() == q2.block_ranks():
            wch = equal_rank_chain(pr, q2, tol)
            acc.check("comparability.equal_rank_chain_valid", equivalent_check(wch, tol))
            acc.check("comparability.chain_length_bound", len(wch.chain) <= 2 * shape.dim)
    invariant_checks(acc, XorShift64Star(rng.next_u64()), shape, max(6, trials // 3), tol)
    cover_shape = ModelShape((2, 2))
    cover_rng = XorShift64Star(rng.next_u64())
    for _ in range(max(4, trials // 4)):
        p = cover_rng.projection(cover_shape)
        cover_sup_checks(acc, p, XorShift64Star(cover_rng.next_u64()), tol)
    sk3e_rng = XorShift64Star(rng.next_u64())
    for _ in range(max(4, trials // 4)):
        run_six_piece_equivalence(acc, sk3e_rng, tol)


def invariant_checks(acc: Accumulator, rng: XorShift64Star, shape: ModelShape, trials: int,
                     tol: Tolerances) -> None:
    """Randomized checks that invariance coincides with centrality.

    For central h: conjugates of subprojections of h stay below h, and a
    zero meet with h forces orthogonality to h.  For non-central h a
    counterexample to the meet condition is found by search.
    """
    for h in center_elements(shape):
        _stacked(acc, lambda acc, tol, *d: _invariant_trials(acc, tol, h, *d), tol,
                 [(rng.symmetry(shape), rng.subprojection(h), rng.projection(shape)) for _ in range(trials)])
    found_all = True
    for _ in range(trials):
        h = rng.projection(shape)
        if is_central(h, tol) or h.rank() == 0:
            continue
        found = False
        for _ in range(100):
            q = rng.projection(shape, rank=1)
            if meet(q, h, tol).rank() == 0 and not orthogonal(q, h, tol):
                found = True
                break
        found_all = found_all and found
    acc.check("invariant.noncentral_counterexample_found", found_all)


def _invariant_trials(acc: Batch, tol: Tolerances, h: Projection, s: Symmetry, p0: Projection,
                      q: Projection) -> None:
    p = as_projection(quad(s, p0), tol=tol)
    back = as_projection(quad(s, p), tol=tol)
    acc.observe("invariant.conjugate_into_center_round_trip", dist(back, p0), tol.proj)
    acc.observe("invariant.conjugated_subprojection_stays_below", order_gap(h - p), tol.psd)
    acc.check("invariant.zero_meet_forces_orthogonal", orthogonal(q, h, tol), where=meet(q, h, tol).rank() == 0)


def cover_sup_checks(acc: Accumulator, p: Projection, rng: XorShift64Star, tol: Tolerances) -> None:
    """Check the central cover of p is the join of conjugated subprojections.

    Conjugates the eigen-subprojections of p by 24 random symmetries and
    verifies every conjugate stays below the cover while their join
    saturates it blockwise.
    """
    shape = p.shape
    gp = central_cover(p, tol)
    subs: list[Projection] = []
    w, v = eig_sym(p)
    for i in range(len(w)):
        if w[i] > 0.5:
            subs.append(span(shape, v[:, [i]], tol))
    if p.rank() > 0:
        subs.append(p)
    syms = stack([rng.symmetry(shape) for _ in range(24)])
    acc.check("cover_sup.zero_cover_for_zero", (p.rank() == 0) == (gp.rank() == 0))
    current = np.zeros((shape.dim, shape.dim))
    if subs:  # every symmetry with every subprojection, in that order
        c = quad(syms[np.repeat(np.arange(24), len(subs))], stack(subs * 24))
        acc.observe("cover_sup.conjugate_below_cover", np.max(order_gap(gp - c)), tol.psd)
        for x in c.data:
            current = current + x
    current = Element._built(shape, current)
    if subs:
        total = central_cover(current, tol)
        joined = join(carrier(current, tol), gp, tol)
        acc.check("cover_sup.join_saturates_cover", total.block_mask == gp.block_mask)
        acc.observe("cover_sup.join_does_not_exceed_cover", dist(joined, gp), tol.proj)


def run_six_piece_equivalence(acc: Accumulator, rng: XorShift64Star, tol: Tolerances = DEFAULT_TOL) -> None:
    """End-to-end check of the six-piece split feeding chain equivalence.

    Generates two orthogonal splittings of the same projection in a 4x4
    factor, computes the six pieces with matrix lattice operations,
    exchanges the two Sasaki-derived corner pieces inside the interval,
    transfers the common complement, lifts it and drives the chain
    construction; the resulting chains must carry p1 join q1 onto e and
    p2 join q2 onto f.
    """
    shape = ModelShape((4,))
    k = rng.projection(shape, rank=3)
    p, q = split_projection(rng, k)
    e, f = split_projection(rng, k)

    def corner(x, y):
        return meet(x, ortho(meet(x, y), tol), tol)

    for first, second, target in ((p, q, e), (q, p, f)):
        x1 = corner(first, as_projection(k - target, tol=tol))
        t1 = corner(target, as_projection(k - first, tol=tol))
        a = Element(shape, first.data + target.data - k.data)
        s_int = canonical_extension(signum(a, tol), tol)
        w = ExchangeWitness(s_int, x1, t1)
        acc.observe("comparability.sixpiece_corner_exchange", w.residual(), 1e-7)
        spw = strong_perspectivity(w, tol)
        v1 = spw.common_complement
        other = meet(second, target, tol)
        left = join(x1, other, tol)
        top = join(left, target, tol)
        res = PerspectivityWitness(left, target, v1, ambient=top).residuals(tol)
        acc.observe("comparability.sixpiece_complement_transfers", max(res.values()), 1e-7)
        full = join(v1, ortho(top, tol), tol)
        pwit = PerspectivityWitness(left, target, full, ambient=None)
        if pwit.verify(tol):
            s1, s2 = perspective_to_chain(pwit, tol)
            chain = SymmetryChain((s1, s2))
            acc.check("comparability.sixpiece_equivalence",
                      equivalent_check(EquivalenceWitness(left, target, chain), tol))
        else:
            acc.check("comparability.sixpiece_equivalence", False)


def run_oml_suite(acc: Accumulator, rng: XorShift64Star, shape: ModelShape,
                  trials: int, tol: Tolerances = DEFAULT_TOL) -> None:
    """Finite OML checks; `shape` is unused, since the suite builds its own."""
    for n in (2, 3, 4):
        b = boolean_oml(n)
        acc.check(f"oml.boolean{1 << n}_verifies", verify_oml(b).passed)
        acc.check(f"oml.boolean{1 << n}_distributive", is_distributive(b))
    mo2 = mo_oml(2)
    acc.check("oml.mo2_verifies", verify_oml(mo2).passed)
    acc.check("oml.mo2_not_distributive", not is_distributive(mo2))
    acc.check("oml.mo2_atoms_incompatible",
              not oml_compatible(mo2, mo2.index("a1"), mo2.index("a2")))
    for l, label in ((boolean_oml(3), "boolean8"), (mo2, "mo2"), (mo_oml(3), "mo3")):
        for law, ok in oml_laws(l).items():
            acc.check(f"oml.{label}_{law}", ok)
    for l, label in ((boolean_oml(4), "boolean16"), (mo_oml(7), "mo7")):
        acc.check(f"oml.{label}_verifies", verify_oml(l).passed)
        ok, count = six_piece_exhaustive(l)
        acc.check(f"oml.{label}_six_piece_exhaustive", ok and count > 0)
    shape = ModelShape((2,))
    e = Projection(shape, [[1.0, 0.0], [0.0, 0.0]])
    fproj = Projection(shape, [[0.5, 0.5], [0.5, 0.5]])
    l, pool = oml_from_projections([e, fproj], tol=tol)
    acc.check("oml.projection_closure_verifies", verify_oml(l).passed)
    acc.check("oml.incompatible_pair_not_distributive", not is_distributive(l))
    l2, _ = oml_from_projections([e], tol=tol)
    acc.check("oml.commuting_closure_boolean", is_distributive(l2))
    shape3 = ModelShape((3,))
    for _ in range(max(2, trials // 10)):
        k = rng.projection(shape3, rank=2)
        p, q = split_projection(rng, k)
        e2, f2 = split_projection(rng, k)
        try:
            l3, pool3 = oml_from_projections([p, q, e2, f2], tol=tol)
        except Exception:
            continue
        idx = {i: next(j for j in range(len(pool3)) if dist(pool3[j], x) <= 1e-7)
               for i, x in enumerate((p, q, e2, f2))}
        if l3.join(idx[0], idx[1]) != l3.join(idx[2], idx[3]):
            continue
        rep = six_piece_decomposition(l3, idx[0], idx[1], idx[2], idx[3])
        acc.check("oml.matrix_six_piece_crosscheck", rep.passed)
        pieces_abs = pool3[rep.p1]
        pieces_mat = meet(p, ortho(meet(p, f2, tol), tol), tol)
        acc.observe("oml.matrix_piece_agreement", dist(pieces_abs, pieces_mat), 1e-7)


# -- entry point ------------------------------------------------------------

def run_suites(cfg: SuiteConfig) -> list[ReportLine]:
    """Run the selected suites deterministically and return CHECK lines."""
    tol = cfg.tolerances
    acc = Accumulator()
    for idx, name in enumerate(SUITE_NAMES):
        if name not in cfg.suites:
            continue
        rng = XorShift64Star((cfg.seed << 8) + idx)
        # Looked up at call time, so a wrapped run_<name>_suite is the one called.
        globals()[f"run_{name}_suite"](acc, rng, cfg.shape, cfg.trials, tol)
    return acc.lines()
