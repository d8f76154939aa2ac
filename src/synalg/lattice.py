"""The orthomodular lattice of projections of the matrix model.

Joins, meets and Sasaki projections are spans of orthonormal range bases
(`core.span`), so their ranks are decided on the principal angles between
the ranges (about theta / sqrt(2) for a join, cos theta for a Sasaki
projection), not on their squares.
The center consists of the blockwise 0/1 projections; the central cover
of an element is read off from which blocks carry it.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    Element,
    ModelShape,
    PreconditionError,
    Projection,
    Tolerances,
    as_projection,
    block_frame,
    commutes,
    dist,
    opnorm,
    order_unit_norm,
    quad,
    range_basis,
    span,
)


def ortho(p: Projection, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Orthocomplement 1 - p."""
    return Projection._built(p.shape, np.eye(p.shape.dim) - p.data, tol)


def _by_layout(fn, p: Projection, q: Projection) -> Projection:
    """fn(p, q) for single projections; for stacks, fn once per group of
    members whose blockwise ranks of p and q agree, so that their range
    bases share one column layout (see `core.span`)."""
    p._coerce(q)
    if p.data.ndim == q.data.ndim == 2:
        return fn(p, q)
    m = max(len(x.data) for x in (p, q) if x.data.ndim == 3)
    p, q = (x if x.data.ndim == 3 else Projection._raw(x.shape, np.broadcast_to(x.data, (m,) + x.data.shape))
            for x in (p, q))
    keys = np.concatenate([block_frame(p)[0] > 0.5, block_frame(q)[0] > 0.5], axis=-1)
    group = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    out = np.empty(p.data.shape)
    for g in range(group.max() + 1):
        at = np.flatnonzero(group == g)
        out[at] = fn(p[at], q[at]).data
    return Projection._raw(p.shape, out)


def join(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Least upper bound: the projection onto the span of both ranges."""
    return _by_layout(lambda p, q: span(p.shape, np.concatenate([range_basis(p), range_basis(q)], -1), tol),
                      p, q)


def meet(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Greatest lower bound: the complement of the span of both complements."""
    return _by_layout(lambda p, q: ortho(span(p.shape, np.concatenate(
        [range_basis(p, inside=False), range_basis(q, inside=False)], -1), tol), tol), p, q)


def orthogonal(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """p and q have orthogonal ranges (pq = 0)."""
    return opnorm(p.data @ q.data) <= tol.proj


def compatible(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Compatibility of projections coincides with commuting."""
    return commutes(p, q, tol)


def sasaki(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Sasaki projection of q by p, onto p applied to range(q) (the range of
    p q p); lattice-theoretically p meet (ortho(p) join q)."""
    return _by_layout(lambda p, q: span(p.shape, range_basis(q), tol, onto=range_basis(p)), p, q)


class CentralProjection(Projection):
    """Projection that is blockwise 0 or 1, hence commutes with the model."""

    __slots__ = ("block_mask",)

    def __init__(self, shape, data, *, tol: Tolerances = DEFAULT_TOL):
        super().__init__(shape, data, tol=tol)
        mask = _central_mask(self, tol)
        if mask is None:
            raise PreconditionError("projection is not blockwise 0 or 1")
        object.__setattr__(self, "block_mask", mask)

    @classmethod
    def from_mask(cls, shape: ModelShape, mask) -> "CentralProjection":
        """The central projection that is 1 on the blocks where mask is true;
        a stack for an (m, k) mask, whose `block_mask` is then that array."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[-1:] != (shape.nblocks,):
            raise ValueError(f"mask has {mask.shape[-1]} entries for {shape.nblocks} blocks")
        out = cls._built(shape, np.eye(shape.dim) * np.repeat(mask, shape.blocks, axis=-1)[..., None, :])
        object.__setattr__(out, "block_mask", tuple(mask.tolist()) if mask.ndim == 1 else mask)
        return out

    def __getitem__(self, i):
        return self.from_mask(self.shape, self.block_mask[i])


def _central_mask(p: Projection, tol: Tolerances) -> tuple[bool, ...] | None:
    """Which blocks of p are 1 (True) or 0 (False); None if some block is neither."""
    mask = []
    for i, b in enumerate(p.shape.blocks):
        blk = p.block(i)
        if opnorm(blk - np.eye(b)) <= tol.proj:
            mask.append(True)
        elif opnorm(blk) <= tol.proj:
            mask.append(False)
        else:
            return None
    return tuple(mask)


def is_central(p: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff p is blockwise 0 or 1 (equivalently, commutes with the model)."""
    return _central_mask(p, tol) is not None


def center_basis(shape: ModelShape) -> list[CentralProjection]:
    """The atomic central projections, one per block.

    Their 2^k sums enumerate the whole center, a boolean algebra.
    """
    out = []
    for i in range(shape.nblocks):
        mask = [j == i for j in range(shape.nblocks)]
        out.append(CentralProjection.from_mask(shape, mask))
    return out


def center_elements(shape: ModelShape) -> list[CentralProjection]:
    """All 2^k central projections of the model."""
    k = shape.nblocks
    out = []
    for bits in range(1 << k):
        mask = [(bits >> j) & 1 == 1 for j in range(k)]
        out.append(CentralProjection.from_mask(shape, mask))
    return out


def central_cover(a: Element, tol: Tolerances = DEFAULT_TOL) -> CentralProjection:
    """Smallest central projection dominating the support of a.

    Blockwise: a block contributes iff a's restriction to it is nonzero.
    """
    mask = [opnorm(a.block(i)) > tol.rank for i in range(a.shape.nblocks)]
    return CentralProjection.from_mask(a.shape, np.array(mask).T)


def centrally_orthogonal(ps: list[Projection], tol: Tolerances = DEFAULT_TOL) -> list[CentralProjection] | None:
    """Witnessing family of pairwise orthogonal central covers, if one exists.

    The central covers are the minimal candidates, so the family is
    centrally orthogonal iff they are already pairwise orthogonal.
    """
    covers = [central_cover(p, tol) for p in ps]
    for i in range(len(covers)):
        for j in range(i + 1, len(covers)):
            if any(a and b for a, b in zip(covers[i].block_mask, covers[j].block_mask)):
                return None
    return covers


def co_join(ps: list[Projection], shape: ModelShape | None = None, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Supremum of a centrally orthogonal family; equals its plain sum."""
    if not ps:
        if shape is None:
            raise ValueError("co_join of an empty family needs an explicit shape")
        return Projection(shape, np.zeros((shape.dim, shape.dim)))
    if centrally_orthogonal(ps, tol) is None:
        raise PreconditionError("family is not centrally orthogonal")
    acc = ps[0].data.copy()
    for p in ps[1:]:
        acc = acc + p.data
    return as_projection(Element(ps[0].shape, acc), tol=tol)


class IntervalModel:
    """The compressed sub-model pAp below a fixed projection p.

    Members are the elements fixed by compression by p; the projection
    lattice of the sub-model is the interval [0, p] with q -> p - q as
    orthocomplementation.
    """

    def __init__(self, p: Projection, tol: Tolerances = DEFAULT_TOL):
        self.p = p
        self.tol = tol

    def compress(self, a: Element) -> Element:
        return quad(self.p, a)

    def contains(self, a: Element) -> bool:
        return dist(self.compress(a), a) <= self.tol.proj * (1.0 + order_unit_norm(a))

    def _require_member(self, q: Projection) -> None:
        if not np.all(self.contains(q)):
            raise PreconditionError("projection is not below the interval top")

    def ortho(self, q: Projection) -> Projection:
        """Relative orthocomplement p - q inside [0, p]."""
        self._require_member(q)
        return as_projection(self.p - q, tol=self.tol)

    def join(self, q: Projection, r: Projection) -> Projection:
        return join(q, r, self.tol)

    def meet(self, q: Projection, r: Projection) -> Projection:
        """Meet inside [0, p], via De Morgan with the relative complement."""
        return self.ortho(self.join(self.ortho(q), self.ortho(r)))

    def sasaki(self, q: Projection, r: Projection) -> Projection:
        """Sasaki projection computed entirely inside the interval.

        Uses the lattice formula with the relative complement, a route
        independent of the ambient Sasaki projection (the span of q applied
        to range(r)).
        """
        self._require_member(q)
        self._require_member(r)
        return self.meet(q, self.join(self.ortho(q), r))

