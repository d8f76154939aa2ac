"""Witness constructions for exchanging projections by symmetries.

Every builder returns the explicit element assembled by the underlying
construction (canonical extensions of partial symmetries, spectral signs
of e + f - 1, sums of enveloping cross terms, orthogonal sums of partial
symmetries), never the output of a generic solver, so tests can pin the
formulas themselves.

Degenerate inputs (zero projections, equal pairs) are accepted
everywhere; the contracts specialize instead of erroring.  On stacks (see
`core`) a precondition fails if it fails for any member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DriftError,
    Element,
    ModelShape,
    PreconditionError,
    Projection,
    Symmetry,
    Tolerances,
    as_projection,
    dist,
    jordan,
    opnorm,
    proj_from_sym,
    quad,
    range_basis,
    signum,
    sym_from_proj,
    symmetrize_sum,
    unit,
    unit_projection,
    zero,
)
from .lattice import join, meet, orthogonal, ortho, sasaki


@dataclass(frozen=True)
class ExchangeWitness:
    """A symmetry s together with projections e, f satisfying s e s = f."""

    s: Symmetry
    e: Projection
    f: Projection

    def residual(self) -> float:
        return dist(quad(self.s, self.e), self.f)

    def verify(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return bool(np.all(self.residual() <= tol.proj))


@dataclass(frozen=True)
class PerspectivityWitness:
    """A common complement of e and f, in the full lattice or an interval.

    With ambient None the complement equations are read in the whole
    lattice; otherwise inside [0, ambient] with the relative complement.
    """

    e: Projection
    f: Projection
    common_complement: Projection
    ambient: Projection | None = None

    def residuals(self, tol: Tolerances = DEFAULT_TOL) -> dict[str, float]:
        w = self.common_complement
        shape = self.e.shape
        top = self.ambient if self.ambient is not None else unit_projection(shape)
        return {
            "join_e": dist(join(self.e, w, tol), top),
            "join_f": dist(join(self.f, w, tol), top),
            "meet_e": opnorm(meet(self.e, w, tol).data),
            "meet_f": opnorm(meet(self.f, w, tol).data),
        }

    def verify(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return all(np.all(r <= tol.proj) for r in self.residuals(tol).values())


# -- elementary correspondences -----------------------------------------

def canonical_extension(t: Element, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """Extend a partial symmetry t to the full symmetry t + (1 - t^2).

    If t exchanges a pair of projections, so does the extension.
    """
    sq = jordan(t, t)
    if np.any(opnorm(sq.data @ sq.data - sq.data) > tol.proj):
        raise PreconditionError("canonical_extension: t^2 is not a projection")
    return Symmetry(t.shape, t.data + np.eye(t.shape.dim) - sq.data, tol=tol)


# -- exchange constructions ---------------------------------------------

def exchange_efe_fef(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """Symmetry s with s (efe) s = fef.

    Built as the canonical extension of the spectral sign of e + f - 1.
    Conjugation by s also carries the Sasaki projection of f by e onto
    the Sasaki projection of e by f.
    """
    t = signum(e + f - unit(e.shape), tol)
    return canonical_extension(t, tol)


def sasaki_exchange(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> ExchangeWitness:
    """Witness exchanging the two Sasaki projections of the pair (e, f)."""
    s = exchange_efe_fef(e, f, tol)
    return ExchangeWitness(s, sasaki(e, f, tol), sasaki(f, e, tol))


def parallelogram_exchange(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> ExchangeWitness:
    """Witness exchanging e - (e meet f) with (e join f) - f.

    Reduces to the Sasaki exchange of the pair (e, ortho(f)).
    """
    s = exchange_efe_fef(e, ortho(f, tol), tol)
    left = as_projection(e - meet(e, f, tol), tol=tol)
    right = as_projection(join(e, f, tol) - f, tol=tol)
    return ExchangeWitness(s, left, right)


def complement_exchange(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """For complements e, f: the symmetry exchanging e with ortho(f), which
    is the symmetry of `parallelogram_exchange` (its pair is e, ortho(f))."""
    if np.any(opnorm(meet(e, f, tol).data) > tol.proj) or np.any(
            dist(join(e, f, tol), unit_projection(e.shape)) > tol.proj):
        raise PreconditionError("complement_exchange: e and f are not complements")
    return exchange_efe_fef(e, ortho(f, tol), tol)


def related_witness(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> ExchangeWitness | None:
    """Nonzero exchanged subprojections of a non-orthogonal pair.

    Returns None for orthogonal inputs, where both Sasaki projections
    vanish and this construction has nothing to offer.
    """
    if orthogonal(e, f, tol):
        return None
    return sasaki_exchange(e, f, tol)


def common_complement_from_exchange(w: ExchangeWitness, tol: Tolerances = DEFAULT_TOL) -> PerspectivityWitness:
    """For exchanged complements e, f: the projection (1 + s)/2 complements both."""
    one = unit_projection(w.e.shape)
    if opnorm(meet(w.e, w.f, tol).data) > tol.proj or dist(join(w.e, w.f, tol), one) > tol.proj:
        raise PreconditionError("inputs are not complements in the lattice")
    p = proj_from_sym(w.s, tol)
    return PerspectivityWitness(w.e, w.f, p, ambient=None)


def strong_perspectivity(w: ExchangeWitness, tol: Tolerances = DEFAULT_TOL) -> PerspectivityWitness:
    """Common complement of an exchanged pair inside [0, e join f].

    With p = e join f and r = p - (e meet f), the conjugate t = r s r is
    a symmetry of the compressed model below r, and q = (r + t)/2 is a
    common complement of e and f in the interval.
    """
    e, f, s = w.e, w.f, w.s
    p = join(e, f, tol)
    r = as_projection(p - meet(e, f, tol), tol=tol)
    t = quad(r, s)
    q = as_projection(0.5 * (r + t), tol=tol)
    return PerspectivityWitness(e, f, q, ambient=p)


def lift_to_full(pw: PerspectivityWitness, tol: Tolerances = DEFAULT_TOL) -> PerspectivityWitness:
    """Turn an interval complement into one for the whole lattice.

    A common complement k below an interval top p lifts to k join ortho(p).
    """
    if pw.ambient is None:
        return pw
    k = join(pw.common_complement, ortho(pw.ambient, tol), tol)
    return PerspectivityWitness(pw.e, pw.f, k, ambient=None)


def perspective_to_chain(pw: PerspectivityWitness, tol: Tolerances = DEFAULT_TOL) -> tuple[Symmetry, Symmetry]:
    """Two symmetries carrying e onto f through a shared complement.

    Each of e and f is exchanged with ortho(p) by a complement exchange,
    so conjugating by the two symmetries in turn maps e to f.
    """
    if pw.ambient is not None:
        raise PreconditionError("chain construction needs a full-lattice witness; lift it first")
    if not pw.verify(tol):
        raise PreconditionError("perspectivity witness does not validate")
    s1 = complement_exchange(pw.e, pw.common_complement, tol)
    s2 = complement_exchange(pw.f, pw.common_complement, tol)
    return s1, s2


def orthogonal_chain_to_symmetry(e: Projection, f: Projection, s1: Symmetry, s2: Symmetry,
                                 tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """Collapse a two-step conjugation between orthogonal e, f to one symmetry.

    The enveloping intermediates x = s2 s1 e and y = e s1 s2 have a
    symmetric sum, and s = (x + y) + 1 - e - f is the desired symmetry.
    """
    if not orthogonal(e, f, tol):
        raise PreconditionError("inputs must be orthogonal")
    chained = quad(s2, quad(s1, e))
    if dist(chained, f) > tol.proj:
        raise PreconditionError("the two symmetries do not carry e onto f")
    x = s2 @ s1 @ e
    y = e @ (s1 @ s2)
    xy = symmetrize_sum(x, y, tol)
    return Symmetry(e.shape, xy.data + np.eye(e.shape.dim) - e.data - f.data, tol=tol)


def finite_additivity(w1: ExchangeWitness, w2: ExchangeWitness, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """Combine exchanges of two cross-orthogonal pairs into one symmetry.

    Requires e1, e2 orthogonal, f1, f2 orthogonal and the cross pairs
    e1, f2 and e2, f1 orthogonal.  With p_i = e_i join f_i, the partial
    symmetries u = s1 p1 and v = s2 p2 sum with 1 - p1 - p2 to a symmetry
    exchanging e1 + e2 and f1 + f2.
    """
    for a, b, label in (
        (w1.e, w2.e, "e1,e2"),
        (w1.f, w2.f, "f1,f2"),
        (w1.e, w2.f, "e1,f2"),
        (w2.e, w1.f, "e2,f1"),
    ):
        if not orthogonal(a, b, tol):
            raise PreconditionError(f"finite_additivity: pair {label} is not orthogonal")
    p1 = join(w1.e, w1.f, tol)
    p2 = join(w2.e, w2.f, tol)
    u = symmetrize_sum(w1.s @ p1, p1 @ w1.s, tol) * 0.5
    v = symmetrize_sum(w2.s @ p2, p2 @ w2.s, tol) * 0.5
    return Symmetry(p1.shape, u.data + v.data + np.eye(p1.shape.dim) - p1.data - p2.data, tol=tol)


def family_additivity(ws: list[ExchangeWitness], shape: ModelShape | None = None,
                      tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """Exchange the orthogonal sums of a finite family of exchanged pairs.

    Requires the e_i pairwise orthogonal, the f_i pairwise orthogonal and
    the total sums orthogonal to each other.  Per pair, p_i is assembled
    from the enveloping cross terms as (x_i + y_i + e_i + f_i)/2 and
    validated to be a projection; the p_i are then validated pairwise
    orthogonal, and the answer is 2 (sum p_i) - 1.  The cross-term
    identities (x y = f, y x = e, doubled compressions) are asserted on
    every run, since their failure signals numerical drift.
    """
    if not ws:
        if shape is None:
            raise ValueError("family_additivity of an empty family needs an explicit shape")
        return Symmetry(shape, -np.eye(shape.dim), tol=tol)
    shape = ws[0].e.shape
    esum = zero(shape)
    fsum = zero(shape)
    for i, w in enumerate(ws):
        for j in range(i + 1, len(ws)):
            if not orthogonal(w.e, ws[j].e, tol) or not orthogonal(w.f, ws[j].f, tol):
                raise PreconditionError("family_additivity: the families are not pairwise orthogonal")
        esum = esum + w.e
        fsum = fsum + w.f
    e = as_projection(esum, tol=tol)
    f = as_projection(fsum, tol=tol)
    if not orthogonal(e, f, tol):
        raise PreconditionError("family_additivity: the summed projections are not orthogonal")

    parts: list[Projection] = []
    for w in ws:
        x = w.s @ w.e
        y = w.e @ w.s
        checks = {
            "xy=f": opnorm(x.data @ y.data - w.f.data),
            "yx=e": opnorm(y.data @ x.data - w.e.data),
            "x2=0": opnorm(x.data @ x.data),
            "y2=0": opnorm(y.data @ y.data),
        }
        p_i = Projection(shape, (0.5 * (symmetrize_sum(x, y, tol) + w.e + w.f)).data, tol=tol)
        checks["2epe=e"] = dist(2.0 * quad(w.e, p_i), w.e)
        checks["2pep=p"] = dist(2.0 * quad(p_i, w.e), p_i)
        checks["2fpf=f"] = dist(2.0 * quad(w.f, p_i), w.f)
        checks["2pfp=p"] = dist(2.0 * quad(p_i, w.f), p_i)
        bad = {k: v for k, v in checks.items() if v > tol.proj * 10}
        if bad:
            raise DriftError(f"cross-term identities failed: {bad}")
        parts.append(p_i)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not orthogonal(parts[i], parts[j], tol):
                raise DriftError("assembled projections are not pairwise orthogonal")
    total = zero(shape)
    for p_i in parts:
        total = total + p_i
    p = as_projection(total, tol=tol)
    return sym_from_proj(p, tol)


# -- orthogonal-basis helpers --------------------------------------------

def orthogonal_exchange_symmetry(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """Symmetry exchanging orthogonal projections of equal blockwise rank.

    Matched range bases give the partial symmetry sum of b a^T + a b^T,
    whose canonical extension exchanges the pair.
    """
    if not orthogonal(e, f, tol):
        raise PreconditionError("inputs must be orthogonal")
    if e.block_ranks() != f.block_ranks():
        raise PreconditionError("blockwise ranks differ; no exchanging symmetry exists")
    x = range_basis(f) @ range_basis(e).T
    t = Element(e.shape, x + x.T)
    return canonical_extension(t, tol)


def householder_factors(qmat: np.ndarray, shape: ModelShape, tol: Tolerances = DEFAULT_TOL) -> list[Symmetry]:
    """Factor a block-diagonal orthogonal matrix into symmetric involutions.

    Standard reflection-based triangularization; the residue is a
    diagonal sign matrix, itself an involution.  Returns factors
    h1, ..., hk, d with qmat = h1 @ ... @ hk @ d.
    """
    n = qmat.shape[0]
    work = qmat.copy()
    factors: list[np.ndarray] = []
    for j in range(n - 1):
        x = work[j:, j]
        alpha = float(np.linalg.norm(x))
        if alpha <= 1e-14 or (x[0] > 0 and np.linalg.norm(x[1:]) <= 1e-14):
            continue
        v = x.copy()
        v[0] += math.copysign(alpha, x[0])
        vn = float(np.linalg.norm(v))
        if vn <= 1e-14:
            continue
        h = np.eye(n)
        h[j:, j:] -= 2.0 * np.outer(v, v) / (vn * vn)
        work = h @ work
        factors.append(h)
    d = np.diag(np.sign(np.round(np.diag(work))))
    out = [Symmetry(shape, h, tol=tol) for h in factors]
    if opnorm(d - np.eye(n)) > tol.proj:
        out.append(Symmetry(shape, d, tol=tol))
    return out
