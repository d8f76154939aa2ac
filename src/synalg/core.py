"""Block-diagonal real symmetric matrix model and its spectral calculus.

The model realizes an ordered algebra of observables as the symmetric
members of a block-diagonal real matrix algebra.  A shape (n1, ..., nk)
fixes the block structure; k > 1 yields a nontrivial center, k = 1 an
irreducible factor.  Symmetric block-diagonal matrices (`Element`) carry
the order induced by positive semidefiniteness; arbitrary block-diagonal
matrices (`EnvelopingElement`) host non-symmetric intermediates that
appear inside witness constructions.

All values are immutable after construction and all operations are pure,
so concurrent evaluation over independent inputs is safe.

Stacks.  A value's data may carry one leading batch axis, (m, n, n): a
stack of m members of one shape (`stack`; `x[i]` and `x[idx]` take a member
or a substack).  Operations broadcast over it, one LAPACK call per block
for the stack, and member i of a result equals the operation on member i
bit for bit.  Scalar results (norms, ranks, order tests) become arrays.

Validation.  The public constructors (`EnvelopingElement(...)`,
`Element(...)`, `Projection(...)`, `Symmetry(...)`), which take matrices
from files, the CLI and callers, check everything: the n x n size, finite
entries, exact zeros outside the blocks and, for `Element`, symmetry to
tolerance before symmetrizing.  What this module builds itself (`zero`,
`unit`, `scalar`, `unit_projection`, `zero_projection`, `sym_from_proj`,
`proj_from_sym`, `jordan`, `.T`, the element operators, `spectral_map`
and all built on it, `span`, and a spectral resolution's projections) wraps
its array through the internal `_built` constructor, which checks only
finiteness and the drift of the class invariant (idempotence for
`Projection`, involution for `Symmetry`).  Nothing more is needed: blocks
(b + b^T) / 2, sums, differences and scalar multiples of exactly
symmetric matrices, (ab + (ab)^T) / 2 and outer products v v^T are all
exactly symmetric, and finite block-diagonal operands leave exact zeros
off the blocks.  The compression a b a is symmetric only up to rounding,
so it goes through the full constructor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class SynalgError(Exception):
    """Base class for errors raised by this package."""


class ShapeMismatchError(SynalgError):
    """Operands live over different block structures."""


class NotInvertibleError(SynalgError):
    """Inversion requested for an element with spectrum touching zero."""


class PreconditionError(SynalgError):
    """A construction was called outside its stated hypotheses."""


class DriftError(SynalgError):
    """A chained construction produced a value outside its invariant."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    `rank` and `cluster` are relative to the spectral norm of the input;
    the others are absolute.  `zero` is the absolute floor under which
    spectra count as zero, so that support computations do not mistake
    accumulated rounding noise of a vanished element for genuine rank;
    elements are assumed to live at order-one scale (desk scale, n <= 16).
    Defaults sit two orders of magnitude above double-precision
    eigensolver error.  Every `tol` parameter in the package defaults to
    `DEFAULT_TOL`, one shared instance; the dataclass is frozen, so sharing
    it is safe, and a caller passes its own instance to change a threshold.
    """

    sym: float = 1e-10
    proj: float = 1e-8
    rank: float = 1e-10
    psd: float = 1e-9
    comm: float = 1e-9
    inv: float = 1e-10
    cluster: float = 1e-9
    eig: float = 1e-8
    zero: float = 1e-13

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class ModelShape:
    """Ordered block dimensions (n1, ..., nk) of the matrix model."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        if len(blocks) < 1:
            raise ValueError("shape needs at least one block")
        if any(b < 1 for b in blocks):
            raise ValueError("block dimensions must be >= 1")
        object.__setattr__(self, "blocks", blocks)
        starts = itertools.accumulate(blocks[:-1], initial=0)
        object.__setattr__(self, "_slices", tuple(slice(a, a + b) for a, b in zip(starts, blocks)))

    @property
    def dim(self) -> int:
        return self._slices[-1].stop

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def slices(self) -> tuple[slice, ...]:
        """Row and column slice of each block, in block order."""
        return self._slices

    def columns(self, i: int) -> range:
        """Indices of the rows and columns of block i."""
        s = self._slices[i]
        return range(s.start, s.stop)

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.blocks)


_OFFBLOCK_MASKS: dict[tuple[int, ...], np.ndarray] = {}


def _offblock_mask(shape: ModelShape) -> np.ndarray:
    mask = _OFFBLOCK_MASKS.get(shape.blocks)
    if mask is None:
        mask = np.ones((shape.dim, shape.dim), dtype=bool)
        for s in shape.slices():
            mask[s, s] = False
        mask.flags.writeable = False
        _OFFBLOCK_MASKS[shape.blocks] = mask
    return mask


def _check_finite(data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise ValueError("matrix entries must be finite")


def _check_block_zeros(shape: ModelShape, data: np.ndarray) -> None:
    if (data[..., _offblock_mask(shape)] != 0.0).any():
        raise ValueError("entries outside the diagonal blocks must be exactly zero")


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of each member of a stack)."""
    return x.swapaxes(-1, -2) if x.ndim > 1 else x


def _out(x):
    """A 0-d result as a Python scalar; a stacked result stays an array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def opnorm(x: np.ndarray) -> float:
    """Spectral norm; the matrix norm used for residuals throughout.

    The largest singular value from the same LAPACK call that
    `np.linalg.norm(x, 2)` makes, without its axis handling; the result
    is bit-identical.  Per member for a stack.
    """
    if x.size == 0:
        return 0.0
    return _out(np.linalg.svd(x, compute_uv=False)[..., 0])


def _fro(x: np.ndarray) -> np.ndarray:
    """Frobenius norm (per member); upper bound on the spectral norm,
    cheap for constructor validation."""
    return np.sqrt((x * x).sum(axis=(-2, -1)))


def _raise_over(res: np.ndarray, bound: float, exc: type, message: str) -> None:
    """Raise exc(message % r) for the first member whose residual r exceeds bound."""
    if (over := res > bound).any():
        raise exc(message % np.extract(over, res)[0])


class EnvelopingElement:
    """Arbitrary square block-diagonal real matrix.

    Products of symmetric elements generally leave the symmetric part of
    the algebra; they live here until a symmetric combination (for
    instance x + x^T) is formed again.
    """

    __slots__ = ("shape", "data", "_beig")

    def __init__(self, shape: ModelShape, data: np.ndarray):
        arr = np.array(data, dtype=float)
        n = shape.dim
        if arr.shape[-2:] != (n, n) or arr.ndim > 3:
            raise ValueError(f"expected a {n}x{n} matrix, got {arr.shape}")
        _check_finite(arr)
        _check_block_zeros(shape, arr)
        self._wrap(shape, arr)

    @classmethod
    def _built(cls, shape: ModelShape, arr: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        """Wrap an n x n array that this module built, without copying it.

        The array is fresh or a view of read-only data (the transpose of an
        element's own array).  The caller guarantees zeros outside the
        blocks and, for `Element` and its subclasses, exact symmetry.  Only
        finiteness and the class invariant's drift are checked.
        """
        _check_finite(arr)
        out = object.__new__(cls)
        out._wrap(shape, arr)
        out._drift(tol)
        return out

    @classmethod
    def _raw(cls, shape: ModelShape, arr: np.ndarray):
        """Wrap already validated data (a stack's member or substack) unchecked."""
        out = object.__new__(cls)
        out._wrap(shape, arr)
        return out

    def __getitem__(self, i):
        """Member i of a stack, or the substack at an index array."""
        out = self._raw(self.shape, self.data[i])
        if self._beig is not None:
            object.__setattr__(out, "_beig", [(w[i], v[i]) for w, v in self._beig])
        return out

    def _wrap(self, shape: ModelShape, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "_beig", None)

    def _drift(self, tol: Tolerances) -> None:
        """Raise DriftError if the class invariant fails; none here."""

    def __setattr__(self, name, value):
        raise AttributeError("elements are immutable")

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "EnvelopingElement":
        if not isinstance(other, EnvelopingElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.shape != self.shape:
            raise ShapeMismatchError(f"shape {other.shape} != {self.shape}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        cls = Element if isinstance(self, Element) and isinstance(other, Element) else EnvelopingElement
        return cls._built(self.shape, self.data + other.data)

    def __sub__(self, other):
        other = self._coerce(other)
        cls = Element if isinstance(self, Element) and isinstance(other, Element) else EnvelopingElement
        return cls._built(self.shape, self.data - other.data)

    def __neg__(self):
        cls = Element if isinstance(self, Element) else EnvelopingElement
        return cls._built(self.shape, -self.data)

    def __mul__(self, lam):
        if not isinstance(lam, (int, float)):
            return NotImplemented
        cls = Element if isinstance(self, Element) else EnvelopingElement
        return cls._built(self.shape, float(lam) * self.data)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        return EnvelopingElement._built(self.shape, self.data @ other.data)

    @property
    def T(self) -> "EnvelopingElement":
        return EnvelopingElement._built(self.shape, _t(self.data))

    def norm(self) -> float:
        return opnorm(self.data)

    def block(self, i: int) -> np.ndarray:
        s = self.shape.slices()[i]
        return self.data[..., s, s]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape=({self.shape}), n={self.shape.dim})"


class Element(EnvelopingElement):
    """Symmetric block-diagonal matrix; a member of the ordered algebra."""

    __slots__ = ()

    def __init__(self, shape: ModelShape, data: np.ndarray, *, tol: Tolerances = DEFAULT_TOL):
        arr = np.asarray(data, dtype=float)
        if arr.ndim > 1 and arr.size:
            _raise_over(np.abs(arr - _t(arr)).max(axis=(-2, -1)), tol.sym, ValueError,
                        f"matrix is not symmetric: asymmetry %.3e > {tol.sym:.1e}")
        super().__init__(shape, 0.5 * (arr + _t(arr)))

    # -- spectral data ------------------------------------------------
    def block_eig(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-block eigendecompositions (ascending eigenvalues), cached.

        Working blockwise keeps every derived matrix exactly
        block-diagonal even when eigenvalues repeat across blocks.  One
        `eigh` call per block covers a whole stack.
        """
        cached = self._beig
        if cached is None:
            try:
                cached = [np.linalg.eigh(self.block(i)) for i in range(self.shape.nblocks)]
            except np.linalg.LinAlgError as exc:
                raise SynalgError(f"eigensolver failed to converge: {exc}") from exc
            object.__setattr__(self, "_beig", cached)
        return cached

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([w for w, _ in self.block_eig()], axis=-1), axis=-1)

    def __abs__(self) -> "Element":
        return absolute(self)


class Projection(Element):
    """Idempotent symmetric element (p^2 = p to tolerance).

    For a symmetric matrix the idempotence residual already pins every
    eigenvalue to within a comparable distance of {0, 1}, so no separate
    spectral validation is performed.
    """

    __slots__ = ()

    def __init__(self, shape, data, *, tol: Tolerances = DEFAULT_TOL):
        super().__init__(shape, data, tol=tol)
        self._drift(tol)

    def _drift(self, tol: Tolerances) -> None:
        _raise_over(_fro(self.data @ self.data - self.data), tol.proj, DriftError,
                    "not a projection: |p^2 - p| = %.3e")

    def rank(self) -> int:
        return _out(np.rint(self.data.trace(axis1=-2, axis2=-1)).astype(int))

    def block_ranks(self) -> tuple[int, ...]:
        return tuple(int(round(float(np.trace(self.block(i))))) for i in range(self.shape.nblocks))


class Symmetry(Element):
    """Symmetric involution (s^2 = 1 to tolerance)."""

    __slots__ = ()

    def __init__(self, shape, data, *, tol: Tolerances = DEFAULT_TOL):
        super().__init__(shape, data, tol=tol)
        self._drift(tol)

    def _drift(self, tol: Tolerances) -> None:
        _raise_over(_fro(self.data @ self.data - np.eye(self.shape.dim)), tol.proj, DriftError,
                    "not a symmetry: |s^2 - 1| = %.3e")


# -- constructors ------------------------------------------------------

def zero(shape: ModelShape) -> Element:
    return Element._built(shape, np.zeros((shape.dim, shape.dim)))


def unit(shape: ModelShape) -> Symmetry:
    return Symmetry._built(shape, np.eye(shape.dim))


def scalar(shape: ModelShape, lam: float) -> Element:
    """lam times the unit; a stack for an array of lam."""
    return Element._built(shape, np.multiply.outer(lam, np.eye(shape.dim)))


def stack(xs):
    """One stacked value of the same-class, same-shape values xs, in order."""
    return xs[0]._raw(xs[0].shape, np.stack([x.data for x in xs]))


def unit_projection(shape: ModelShape) -> Projection:
    return Projection._built(shape, np.eye(shape.dim))


def zero_projection(shape: ModelShape) -> Projection:
    return Projection._built(shape, np.zeros((shape.dim, shape.dim)))


def sym_from_proj(p: Projection, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """The symmetry 2p - 1 attached to a projection."""
    return Symmetry._built(p.shape, 2.0 * p.data - np.eye(p.shape.dim), tol)


def proj_from_sym(s: Symmetry, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """The projection (1 + s) / 2 attached to a symmetry."""
    return Projection._built(s.shape, 0.5 * (np.eye(s.shape.dim) + s.data), tol)


def block_diag(shape: ModelShape, blocks) -> np.ndarray:
    """Dense n x n matrix (a stack for stacked blocks) with the given square
    blocks on the diagonal."""
    out = np.zeros(blocks[0].shape[:-2] + (shape.dim, shape.dim))
    for blk, s in zip(blocks, shape.slices()):
        out[..., s, s] = blk
    return out


def block_frame(a: Element) -> tuple[np.ndarray, np.ndarray]:
    """Per-block eigenvalues and block-diagonal eigenvector matrix of a.

    Eigenvalues are concatenated in block order (ascending within each
    block), and the eigenvector columns are grouped by block in the same
    order, so the frame is itself block-diagonal.
    """
    beig = a.block_eig()
    return np.concatenate([w for w, _ in beig], axis=-1), block_diag(a.shape, [v for _, v in beig])


def range_basis(p: Projection, inside: bool = True) -> np.ndarray:
    """Orthonormal columns spanning range(p), or range(1 - p) when not
    inside, grouped by block.  The members of a stack must share their
    block ranks (ValueError otherwise)."""
    w, frame = block_frame(p)
    keep = (w > 0.5) == inside
    if keep.ndim > 1 and (keep != keep[0]).any():
        raise ValueError("the members of the stack have different block ranks")
    return frame[..., keep if keep.ndim == 1 else keep[0]]


def span(shape: ModelShape, cols: np.ndarray, tol: Tolerances = DEFAULT_TOL,
         onto: np.ndarray | None = None) -> Projection:
    """Projection onto the span of block-supported columns of unit scale,
    keeping each direction of one SVD per block whose singular value exceeds
    tol.rank (floored at tol.zero).  Given orthonormal columns `onto`, the
    columns are projected onto range(onto) and the SVD runs in its
    coordinates, so the span stays in that range however small its values.

    Stacked columns must share one layout (the same columns nonzero in each
    block, as `lattice` groups them): a zero column changes the SVD's last
    bits.  Members are grouped by kept rank, so each block is u u^T of the
    kept columns alone.
    """
    cut = max(tol.rank, tol.zero)
    out = np.zeros(cols.shape[:-2] + (shape.dim, shape.dim))
    for s in shape.slices():
        m = cols[..., s, :] if onto is None else _t(onto[..., s, :]) @ cols[..., s, :]
        if m.any():
            u, sv, _ = np.linalg.svd(m, full_matrices=False)
            kept = (sv > cut).sum(-1)
            for r in set(kept.flat):  # sv descends, so the kept columns are the first r
                at = ... if kept.ndim == 0 else kept == r
                ur = u[at][..., np.arange(sv.shape[-1]) < r]
                if onto is not None:
                    ur = onto[at][..., s, :] @ ur
                blk = ur @ _t(ur)
                out[at, s, s] = 0.5 * (blk + _t(blk))
    return Projection._built(shape, out, tol)


def dist(x: EnvelopingElement, y: EnvelopingElement) -> float:
    """Spectral-norm distance between two same-shaped matrices."""
    if x.shape != y.shape:
        raise ShapeMismatchError(f"shape {x.shape} != {y.shape}")
    return opnorm(x.data - y.data)


# -- algebra operations ------------------------------------------------

def jordan(a: Element, b: Element) -> Element:
    """Symmetrized product (ab + ba) / 2; equals ab when a and b commute."""
    if a.shape != b.shape:
        raise ShapeMismatchError("jordan: operands have different shapes")
    ab = a.data @ b.data
    return Element._built(a.shape, 0.5 * (ab + _t(ab)))


def quad(a: Element, b: Element) -> Element:
    """Two-sided compression a b a; linear and order preserving in b."""
    if a.shape != b.shape:
        raise ShapeMismatchError("quad: operands have different shapes")
    return Element(a.shape, a.data @ b.data @ a.data)


def leq(a: Element, b: Element, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Order relation: b - a is positive semidefinite up to tol.psd."""
    d = b - a
    return _out(d.eigenvalues().min(axis=-1) >= -tol.psd)


def order_unit_norm(a: Element) -> float:
    """Largest absolute eigenvalue; the order-unit norm of the model."""
    w = a.eigenvalues()
    return _out(np.abs(w).max(axis=-1)) if w.size else 0.0


def commutes(a: EnvelopingElement, b: EnvelopingElement, tol: Tolerances = DEFAULT_TOL) -> bool:
    if a.shape != b.shape:
        raise ShapeMismatchError("commutes: operands have different shapes")
    res = opnorm(a.data @ b.data - b.data @ a.data)
    return _out(res <= tol.comm * (opnorm(a.data) * opnorm(b.data) + 1.0))


def symmetrize_sum(x: EnvelopingElement, y: EnvelopingElement, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Return x + y as a symmetric element, rejecting non-symmetric sums.

    Sums of mirrored enveloping intermediates (such as x = s2 s1 e and
    y = e s1 s2) land back in the symmetric algebra; anything else is a
    misuse of enveloping values and raises.
    """
    if x.shape != y.shape:
        raise ShapeMismatchError("symmetrize_sum: operands have different shapes")
    s = x.data + y.data
    gap = float(np.max(np.abs(s - _t(s)))) if s.size else 0.0
    if gap > tol.sym:
        raise PreconditionError(f"x + y is not symmetric (asymmetry {gap:.3e})")
    return Element(x.shape, s, tol=tol)


# -- spectral calculus --------------------------------------------------

def eig_sym(a: Element) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector matrix of a.

    Computed blockwise and assembled, so the eigenvector matrix is itself
    block-diagonal even for eigenvalues repeated across blocks.
    """
    vals, vecs = block_frame(a)
    order = np.argsort(vals, axis=-1, kind="stable")
    if vals.ndim == 1:
        return vals[order], vecs[:, order]
    rows = np.arange(len(vals))[:, None]
    # indexed as [member, column, row]: column-major members, as vecs[:, order] is
    return vals[rows, order], vecs[rows, :, order].swapaxes(-1, -2)


def spectral_map(a: Element, fn, cls=Element, tol: Tolerances = DEFAULT_TOL):
    """Apply a real function to the spectrum of a, blockwise.

    A numpy ufunc, or a function defined in this package, is called once
    per block on the array of its eigenvalues (over a whole stack); any
    other function is called on each eigenvalue alone.  Write max(x, 0) as
    np.where(x < 0.0, 0.0, x): np.maximum turns -0.0 into +0.0, and the
    sign of a zero can reach a printed matrix.
    """
    on_array = isinstance(fn, np.ufunc) or str(getattr(fn, "__module__", "")).startswith(f"{__package__}.")
    blocks = []
    for w, v in a.block_eig():
        fw = fn(w) if on_array else np.array([fn(x) for x in w.ravel()], dtype=float).reshape(w.shape)
        blk = (v * fw[..., None, :]) @ _t(v)
        blocks.append(0.5 * (blk + _t(blk)))
    return cls._built(a.shape, block_diag(a.shape, blocks), tol)


def _clip(w: np.ndarray) -> np.ndarray:
    """max(w, 0) entrywise, keeping -0.0 as Python's max does."""
    return np.where(w < 0.0, 0.0, w)


def sqrt_pos(a: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Square root of a positive element."""
    if not np.all(leq(zero(a.shape), a, tol)):
        raise PreconditionError("sqrt_pos: element is not positive")
    return spectral_map(a, lambda w: np.sqrt(_clip(w)), tol=tol)


def absolute(a: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """|a|, the positive element with |a|^2 = a^2."""
    return spectral_map(a, np.abs, tol=tol)


def pos_part(a: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    return spectral_map(a, _clip, tol=tol)


def neg_part(a: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    return spectral_map(a, lambda w: _clip(-w), tol=tol)


def _cut(a: Element, tol: Tolerances) -> np.ndarray:
    """Support cut tol.rank relative to the norm of a, floored at tol.zero,
    shaped to broadcast over a's eigenvalues."""
    return np.maximum(tol.rank * np.abs(a.eigenvalues()).max(axis=-1, keepdims=True), tol.zero)


def carrier(a: Element, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Support projection of a: smallest projection q with a q = a.

    Spectrally, the sum of eigenprojections for eigenvalues larger than
    tol.rank relative to the spectral norm of a.
    """
    cut = _cut(a, tol)
    return spectral_map(a, lambda w: np.where(np.abs(w) > cut, 1.0, 0.0), cls=Projection, tol=tol)


def signum(a: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Spectral sign of a; a partial symmetry whose square is carrier(a).

    Together with |a| it gives the polar decomposition a = signum(a)|a|.
    """
    cut = _cut(a, tol)
    return spectral_map(a, lambda w: np.where(np.abs(w) > cut, np.copysign(1.0, w), 0.0), tol=tol)


def inverse(a: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    w = a.eigenvalues()
    if w.size == 0 or float(np.min(np.abs(w))) <= tol.inv:
        raise NotInvertibleError("inverse: spectrum touches zero")
    return spectral_map(a, lambda w: 1.0 / w, tol=tol)


def as_projection(a: Element, *, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """The projection that snaps the eigenvalues of a at 1/2.

    Chained constructions snap their projections this way, so that
    numerical drift does not accumulate across meets, joins and
    conjugations.
    """
    return spectral_map(a, lambda w: np.where(w >= 0.5, 1.0, 0.0), cls=Projection, tol=tol)


def as_symmetry(a: Element, *, tol: Tolerances = DEFAULT_TOL) -> Symmetry:
    """The symmetry that snaps the eigenvalues of a to +-1 at 0."""
    return spectral_map(a, lambda w: np.where(w >= 0.0, 1.0, -1.0), cls=Symmetry, tol=tol)


class SpectralResolution:
    """Finite jump list (lambda_i, q_i) of the spectral step function.

    The q_i are pairwise orthogonal projections summing to the identity;
    the induced step function at lambda is the sum of all q_i with
    lambda_i <= lambda, which ascends and is right continuous.  The
    element is recovered in norm as sum(lambda_i * q_i).  For a stack the
    lambda_i are arrays over the members.
    """

    def __init__(self, jumps: list[tuple[float, Projection]], lower: float, upper: float):
        self.jumps = tuple((_out(l), q) for l, q in jumps)
        self.lower = _out(lower)
        self.upper = _out(upper)

    def at(self, lam: float) -> Projection:
        """Value of the step function at lam."""
        acc = np.zeros(self.jumps[0][1].data.shape)
        for l, q in self.jumps:
            acc = acc + np.where(np.asarray(l <= lam)[..., None, None], q.data, 0.0)
        return as_projection(Element._built(self.jumps[0][1].shape, acc))

    def reconstruct(self) -> Element:
        acc = np.zeros(self.jumps[0][1].data.shape)
        for l, q in self.jumps:
            acc = acc + np.asarray(l)[..., None, None] * q.data
        return Element._built(self.jumps[0][1].shape, acc)

    def __len__(self) -> int:
        return len(self.jumps)

    def __repr__(self) -> str:
        pts = ", ".join(f"{l:.6g}(rank {q.rank()})" for l, q in self.jumps)
        return f"SpectralResolution([{pts}], lower={self.lower:.6g}, upper={self.upper:.6g})"


def spectral_resolution(a: Element, tol: Tolerances = DEFAULT_TOL) -> SpectralResolution:
    """Eigenvalue jump list of a, with nearby eigenvalues clustered.

    Eigenvalues closer than tol.cluster relative to the norm of a are
    merged into a single jump carrying the summed eigenprojection.  The
    members of a stack must cluster alike (ValueError otherwise).
    """
    n = a.shape.dim
    w, frame = eig_sym(a)
    width = tol.cluster * np.maximum(order_unit_norm(a), 1e-300)
    starts = set()
    for wi, di in zip(w.reshape(-1, n), np.ravel(width)):
        cuts = [0]
        while cuts[-1] < n:
            cuts.append(next((j for j in range(cuts[-1], n) if wi[j] - wi[cuts[-1]] > di), n))
        starts.add(tuple(cuts))
    if len(starts) != 1:
        raise ValueError("the members of the stack cluster their eigenvalues differently")
    bounds = starts.pop()
    jumps: list[tuple[float, Projection]] = []
    for i, j in zip(bounds, bounds[1:]):
        acc = np.zeros(frame.shape)
        for k in range(i, j):
            acc = acc + frame[..., :, k, None] * frame[..., None, :, k]
        q = as_projection(Element._built(a.shape, acc))
        jumps.append((np.mean(w[..., i:j], axis=-1), q))
    return SpectralResolution(jumps, jumps[0][0], jumps[-1][0])
