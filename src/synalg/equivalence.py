"""Equivalence of projections under finite chains of symmetry conjugations.

Two projections are equivalent when some finite composition of
conjugations a -> s a s carries one onto the other.  In the block
matrix model the relation is decided by blockwise rank, with explicit
chain witnesses built from reflection factors.  On top of the relation
sit relatedness, the orthogonal decomposition of an arbitrary pair,
generalized comparability, and the relative center property.  That
invariance is centrality and that central covers are suprema of
conjugated subprojections is checked in `suites`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Element,
    PreconditionError,
    Projection,
    Symmetry,
    Tolerances,
    as_projection,
    block_diag,
    block_frame,
    commutes,
    dist,
    opnorm,
    quad,
    span,
    unit,
    zero,
)
from .lattice import (
    CentralProjection,
    IntervalModel,
    central_cover,
    meet,
    orthogonal,
    ortho,
)
from .symmetry import (
    ExchangeWitness,
    exchange_efe_fef,
    family_additivity,
    finite_additivity,
    householder_factors,
    orthogonal_chain_to_symmetry,
    orthogonal_exchange_symmetry,
    related_witness,
)


@dataclass(frozen=True)
class SymmetryChain:
    """Finite list of symmetries applied by conjugation, innermost first."""

    syms: tuple[Symmetry, ...]

    def __len__(self) -> int:
        return len(self.syms)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Chain witnessing that conjugation carries p onto q."""

    p: Projection
    q: Projection
    chain: SymmetryChain


@dataclass(frozen=True)
class ComparabilityResult:
    """Central h and symmetry s splitting a pair by sub-equivalence."""

    h: CentralProjection
    s: Symmetry
    e: Projection
    f: Projection

    def residuals(self, tol: Tolerances = DEFAULT_TOL) -> dict[str, float]:
        one = np.eye(self.e.shape.dim)
        eh = Element(self.e.shape, self.e.data @ self.h.data)
        fh = Element(self.e.shape, self.f.data @ self.h.data)
        ec = Element(self.e.shape, self.e.data @ (one - self.h.data))
        fc = Element(self.e.shape, self.f.data @ (one - self.h.data))
        d1 = (fh - quad(self.s, eh)).eigenvalues()
        d2 = (ec - quad(self.s, fc)).eigenvalues()
        return {
            "seh_below_fh": max(0.0, -float(np.min(d1))),
            "sfc_below_ec": max(0.0, -float(np.min(d2))),
        }

    def verify(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return all(r <= tol.psd for r in self.residuals(tol).values())


@dataclass(frozen=True)
class Decomposition:
    """Orthogonal split of a pair into an exchanged part and unrelated rest.

    e and f are the split pair itself; the residuals measure how far
    e1 + e2 and f1 + f2 recombine to them.
    """

    e1: Projection
    e2: Projection
    f1: Projection
    f2: Projection
    s: Symmetry
    e: Projection
    f: Projection

    def residuals(self, tol: Tolerances = DEFAULT_TOL) -> dict[str, float]:
        g2 = central_cover(self.e2, tol)
        h2 = central_cover(self.f2, tol)
        return {
            "e_split": dist(as_projection(self.e1 + self.e2, tol=tol), self.e),
            "f_split": dist(as_projection(self.f1 + self.f2, tol=tol), self.f),
            "exchange": dist(quad(self.s, self.e1), self.f1),
            "covers_orthogonal": opnorm(g2.data @ h2.data),
        }


def apply_chain(c: SymmetryChain, a: Element) -> Element:
    out = a
    for s in c.syms:
        out = quad(s, out)
    return out


def equivalent_check(w: EquivalenceWitness, tol: Tolerances = DEFAULT_TOL) -> bool:
    if w.p.shape != w.q.shape:
        raise PreconditionError("witness endpoints have different shapes")
    return dist(apply_chain(w.chain, w.p), w.q) <= tol.proj


def related(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether e and f have equivalent nonzero subprojections.

    Exact in the block model: the pair is related iff some block carries
    both nontrivially, i.e. iff e is not orthogonal to the central cover
    of f.
    """
    ge = central_cover(e, tol).block_mask
    gf = central_cover(f, tol).block_mask
    return any(a and b for a, b in zip(ge, gf))


def equal_rank_chain(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> EquivalenceWitness:
    """Decide equivalence in the model and produce a chain witness.

    Within each block, equal rank is necessary and sufficient; the chain
    is assembled from reflection factors of a block-diagonal orthogonal
    matrix carrying an adapted eigenbasis of e onto one of f.  Chain
    length stays below twice the total dimension.
    """
    if e.shape != f.shape:
        raise PreconditionError("operands have different shapes")
    if e.block_ranks() != f.block_ranks():
        raise PreconditionError(
            f"blockwise ranks differ ({e.block_ranks()} vs {f.block_ranks()}); the pair is not equivalent")
    if dist(e, f) <= tol.proj:
        return EquivalenceWitness(e, f, SymmetryChain(()))
    s = exchange_efe_fef(e, f, tol)
    if dist(quad(s, e), f) <= tol.proj:
        return EquivalenceWitness(e, f, SymmetryChain((s,)))
    qmat = _adapted_frame(f) @ _adapted_frame(e).T
    factors = householder_factors(qmat, e.shape, tol)
    chain = SymmetryChain(tuple(reversed(factors)))
    return EquivalenceWitness(e, f, chain)


def _adapted_frame(p: Projection) -> np.ndarray:
    """Orthogonal matrix whose leading per-block columns span range(p)."""
    return block_diag(p.shape, [v[:, np.argsort(-w, kind="stable")] for w, v in p.block_eig()])


def key_subprojection_exchange(w: EquivalenceWitness, tol: Tolerances = DEFAULT_TOL) -> ExchangeWitness:
    """Nonzero subprojections of equivalent p, q exchanged by one symmetry.

    Follows the chain-shortening recursion: conjugate the endpoint back
    through the last symmetry, solve the shorter problem, then either a
    Sasaki exchange (non-orthogonal case) or a collapsed two-step chain
    (orthogonal case) produces the single symmetry.
    """
    if w.p.rank() == 0:
        raise PreconditionError("zero projection has no nonzero subprojections")
    if not equivalent_check(w, tol):
        raise PreconditionError("witness does not validate")
    syms = w.chain.syms
    if len(syms) == 0:
        return ExchangeWitness(unit(w.p.shape), w.p, w.q)
    if len(syms) == 1:
        return ExchangeWitness(syms[0], w.p, w.q)
    last = syms[-1]
    r = as_projection(quad(last, w.q), tol=tol)
    inner = key_subprojection_exchange(
        EquivalenceWitness(w.p, r, SymmetryChain(syms[:-1])), tol)
    k = as_projection(quad(last, inner.f), tol=tol)
    if not orthogonal(inner.e, k, tol):
        witness = related_witness(inner.e, k, tol)
        assert witness is not None
        return witness
    s = orthogonal_chain_to_symmetry(inner.e, k, inner.s, last, tol)
    return ExchangeWitness(s, inner.e, k)


def _matched_rank_one_pairs(e: Projection, f: Projection, tol: Tolerances) -> list[ExchangeWitness]:
    """Maximal greedy family of exchanged rank-one pairs under orthogonal e, f.

    Each step pairs one range vector of e with one of f inside a shared
    block, exchanged by the canonical extension of their cross term; the
    remainders shrink in rank, so the loop ends after at most dim steps,
    leaving unrelated remainders.
    """
    pairs: list[ExchangeWitness] = []
    e_rem, f_rem = e, f
    while related(e_rem, f_rem, tol):
        blk = next(i for i in range(e.shape.nblocks)
                   if opnorm(e_rem.block(i)) > 0.5 and opnorm(f_rem.block(i)) > 0.5)
        u = _block_top_projection(e_rem, blk, tol)
        v = _block_top_projection(f_rem, blk, tol)
        s = orthogonal_exchange_symmetry(u, v, tol)
        pairs.append(ExchangeWitness(s, u, v))
        e_rem = as_projection(e_rem - u, tol=tol)
        f_rem = as_projection(f_rem - v, tol=tol)
    return pairs


def _block_top_projection(p: Projection, blk: int, tol: Tolerances) -> Projection:
    """Rank-one projection onto the top eigenvector of p inside block blk."""
    w, frame = block_frame(p)
    cols = p.shape.columns(blk)
    i = cols[int(np.argmax(w[cols.start:cols.stop]))]
    return span(p.shape, frame[:, [i]], tol)


def _orthogonal_pair_split(e: Projection, f: Projection, tol: Tolerances) -> Decomposition:
    """Decomposition of an orthogonal pair via the greedy matched family."""
    pairs = _matched_rank_one_pairs(e, f, tol)
    shape = e.shape
    if pairs:
        e1 = as_projection(sum((w.e for w in pairs), zero(shape)), tol=tol)
        f1 = as_projection(sum((w.f for w in pairs), zero(shape)), tol=tol)
        s = family_additivity(pairs, tol=tol)
    else:
        e1 = as_projection(zero(shape), tol=tol)
        f1 = as_projection(zero(shape), tol=tol)
        s = unit(shape)
    e2 = as_projection(e - e1, tol=tol)
    f2 = as_projection(f - f1, tol=tol)
    return Decomposition(e1, e2, f1, f2, s, e, f)


def _overlap_split(e: Projection, f: Projection, tol: Tolerances):
    """The steps orthogonal_decomposition and generalized_comparability share.

    Returns the exchange of the overlap parts e - (e meet ortho(f)) and
    f - (ortho(e) meet f) by the Sasaki symmetry (the unit when the pair is
    orthogonal) and the decomposition of the orthogonal rests
    e meet ortho(f) and ortho(e) meet f, which it keeps as its e and f.
    """
    if e.shape != f.shape:
        raise PreconditionError("operands have different shapes")
    e_rest = meet(e, ortho(f, tol), tol)
    f_rest = meet(ortho(e, tol), f, tol)
    e_over = as_projection(e - e_rest, tol=tol)
    f_over = as_projection(f - f_rest, tol=tol)
    rw = related_witness(e, f, tol)
    inner = _orthogonal_pair_split(e_rest, f_rest, tol)
    w = ExchangeWitness(rw.s if rw is not None else unit(e.shape), e_over, f_over)
    return w, inner


def orthogonal_decomposition(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Split e = e1 + e2, f = f1 + f2 with e1, f1 exchanged and covers of
    e2, f2 orthogonal.

    The non-orthogonal overlap is peeled off first through the Sasaki
    exchange; the orthogonal rest is matched greedily and the two
    exchanged parts are merged by finite additivity.
    """
    w1, inner = _overlap_split(e, f, tol)
    if w1.e.rank() == 0 and w1.f.rank() == 0:
        return Decomposition(inner.e1, inner.e2, inner.f1, inner.f2, inner.s, e, f)
    w2 = ExchangeWitness(inner.s, inner.e1, inner.f1)
    s = finite_additivity(w1, w2, tol)
    e1 = as_projection(w1.e + inner.e1, tol=tol)
    f1 = as_projection(w1.f + inner.f1, tol=tol)
    return Decomposition(e1, inner.e2, f1, inner.f2, s, e, f)


def generalized_comparability(e: Projection, f: Projection, tol: Tolerances = DEFAULT_TOL) -> ComparabilityResult:
    """Central h and a single symmetry s with s(eh)s below fh and
    s(f(1-h))s below e(1-h).

    The overlap parts are exchanged through the Sasaki pair; the
    orthogonal remainders are decomposed, the central cover of the
    unmatched f-part picks h, and one application of finite additivity
    merges everything into a single symmetry.
    """
    w1, inner = _overlap_split(e, f, tol)
    shape = e.shape
    h = central_cover(inner.f2, tol)
    hm = h.data
    comp = np.eye(shape.dim) - hm
    s2 = inner.s
    f3 = as_projection(Element(shape, quad(s2, Element(shape, inner.e.data @ hm)).data), tol=tol)
    e3 = as_projection(quad(s2, Element(shape, inner.f.data @ comp)), tol=tol)
    a2 = as_projection(Element(shape, inner.e.data @ hm + e3.data), tol=tol)
    b2 = as_projection(Element(shape, f3.data + inner.f.data @ comp), tol=tol)
    w2 = ExchangeWitness(s2, a2, b2)
    s = finite_additivity(w1, w2, tol)
    return ComparabilityResult(h, s, e, f)


def relative_center_witness(p: Projection, d: Projection, tol: Tolerances = DEFAULT_TOL) -> CentralProjection:
    """Central c of the whole model with c meet p = d, for d central below p.

    Produced from the comparability split of d against p - d; the
    complement of the returned central piece cuts p exactly at d.
    """
    m = IntervalModel(p, tol)
    if not m.contains(d):
        raise PreconditionError("d is not below p")
    for b in _interval_spanning_set(p):
        if not commutes(d, b, tol):
            raise PreconditionError("d is not central in the compressed model")
    rest = m.ortho(d)
    res = generalized_comparability(d, rest, tol)
    c = CentralProjection.from_mask(p.shape, [not x for x in res.h.block_mask])
    if dist(meet(c, p, tol), d) > tol.proj * 10:
        raise PreconditionError("comparability split failed to cut p at d")
    return c


def _interval_spanning_set(p: Projection) -> list[Element]:
    """Compressions of the standard symmetric basis; they span pAp."""
    n = p.shape.dim
    in_blocks = block_diag(p.shape, [np.ones((b, b)) for b in p.shape.blocks])
    out = []
    for i, j in zip(*np.nonzero(np.triu(in_blocks))):
        b = np.zeros((n, n))
        b[i, j] = b[j, i] = 1.0
        out.append(quad(p, Element(p.shape, b)))
    return out

