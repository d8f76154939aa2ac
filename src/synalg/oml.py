"""Finite orthomodular lattices from files, with the full axiom battery.

A lattice is a finite set with an order relation, an orthocomplement
map, and distinguished bottom and top.  Files declare elements and the
covering data; the order closure is computed on load, so a transitive
reduction is enough.  Everything here is independent of the matrix
model; the bridge back is `oml_from_projections`, which closes a finite
set of concrete projections under meet, join and complement.

Every law is a predicate over index tables: the meet and join tables `M`
and `J` of `FiniteOml._bound_tables`, the orthocomplement `o`, and tables
derived from them once per lattice, such as orthogonality `P = leq[:, o]`,
the Sasaki projection `S[p, q] = M[p, J[o[p], q]]` and Mackey
compatibility `C`.  A law over triples indexes them into an m**3 array;
the scalar accessors (`meet`, `join`, `oc`, `oml_sasaki`,
`oml_compatible`) answer single queries and are the reference the tables
are tested against.

File format, one directive per line (# starts a comment):

    elem <name>
    leq <a> <b>
    ortho <a> <b>
    bottom <name>
    top <name>
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    PreconditionError,
    Projection,
    SynalgError,
    Tolerances,
    opnorm,
    unit_projection,
    zero_projection,
)
from .lattice import join as mjoin, meet as mmeet, ortho as mortho  # the matrix operations
from .matio import ParseError
from .report import Accumulator


class ClosureExplosionError(SynalgError):
    """Lattice closure of a projection family exceeded the size cap."""


@dataclass
class FiniteOml:
    """Explicit finite bounded poset with an orthocomplement map.

    `leq` holds the full (reflexive-transitive) relation.  Meet and join
    tables are computed lazily; a -1 entry marks a missing bound, which
    `verify_oml` reports as a lattice violation.
    """

    names: tuple[str, ...]
    leq: np.ndarray
    ortho: np.ndarray
    bottom: int
    top: int
    _meet: np.ndarray | None = field(default=None, repr=False)
    _join: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i, j])

    def _bound_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._meet is None:
            self._meet, self._join = _bound_table(self.leq.T), _bound_table(self.leq)
        return self._meet, self._join

    def meet(self, i: int, j: int) -> int:
        v = int(self._bound_tables()[0][i, j])
        if v < 0:
            raise PreconditionError(f"meet of {self.names[i]} and {self.names[j]} does not exist")
        return v

    def join(self, i: int, j: int) -> int:
        v = int(self._bound_tables()[1][i, j])
        if v < 0:
            raise PreconditionError(f"join of {self.names[i]} and {self.names[j]} does not exist")
        return v

    def oc(self, i: int) -> int:
        v = int(self.ortho[i])
        if v < 0:
            raise PreconditionError(f"orthocomplement of {self.names[i]} is undefined")
        return v

    def perp(self, i: int, j: int) -> bool:
        return self.le(i, self.oc(j))


def _chunks(m: int):
    """Row slices that keep each (rows, m, m) grid near 2**14 entries."""
    step = max(1, 2**14 // m**2)
    return (slice(a, a + step) for a in range(0, m, step))


def _bound_table(down: np.ndarray) -> np.ndarray:
    """Meet table of the order whose down-sets are the rows of `down`: the
    lowest k below i and j whose down-set holds all their common lower
    bounds, or -1.  Symmetric, so only columns from the chunk's row on run."""
    m = len(down)
    d = down.astype(float)
    sizes = d @ d.T
    out = np.full((m, m), -1, dtype=np.int32)
    for s in _chunks(m):
        common = down[s, None, :] & down[s.start:]
        hits = (common.reshape(-1, m).astype(float) @ d.T).reshape(common.shape)
        ok = common & (hits == sizes[s, s.start:, None])
        out[s, s.start:] = np.where(ok.any(-1), ok.argmax(-1), -1)
    return np.maximum(out, out.T)


def _closure(rel: np.ndarray) -> np.ndarray:
    out = rel | np.eye(len(rel), dtype=bool)
    while True:
        nxt = out | (out @ out)
        if np.array_equal(nxt, out):
            return out
        out = nxt


def parse_oml(text: str) -> FiniteOml:
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    orthos: list[tuple[str, str]] = []
    bottom = top = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "elem" and len(args) == 1:
            if args[0] in names:
                raise ParseError(f"line {lineno}: duplicate element {args[0]!r}")
            names.append(args[0])
        elif kind == "leq" and len(args) == 2:
            edges.append((args[0], args[1]))
        elif kind == "ortho" and len(args) == 2:
            orthos.append((args[0], args[1]))
        elif kind == "bottom" and len(args) == 1:
            bottom = args[0]
        elif kind == "top" and len(args) == 1:
            top = args[0]
        else:
            raise ParseError(f"line {lineno}: unrecognized directive {line!r}")
    if not names:
        raise ParseError("no elements declared")
    if bottom is None or top is None:
        raise ParseError("both 'bottom' and 'top' directives are required")
    idx = {n: i for i, n in enumerate(names)}
    for a, b in edges + orthos + [(bottom, bottom), (top, top)]:
        for n in (a, b):
            if n not in idx:
                raise ParseError(f"undeclared element {n!r}")
    m = len(names)
    rel = np.zeros((m, m), dtype=bool)
    for a, b in edges:
        rel[idx[a], idx[b]] = True
    rel[idx[bottom], :] = True
    rel[:, idx[top]] = True
    ortho = -np.ones(m, dtype=int)
    for a, b in orthos:
        ortho[idx[a]] = idx[b]
        ortho[idx[b]] = idx[a]
    return FiniteOml(tuple(names), _closure(rel), ortho, idx[bottom], idx[top])


def load_oml(path) -> FiniteOml:
    with open(path, "r", encoding="ascii") as fh:
        return parse_oml(fh.read())


def format_oml(l: FiniteOml) -> str:
    lines = [f"elem {n}" for n in l.names]
    lines.append(f"bottom {l.names[l.bottom]}")
    lines.append(f"top {l.names[l.top]}")
    strict = l.leq & ~np.eye(len(l), dtype=bool)
    covers = strict & ~(strict @ strict)  # no third element in between
    lines += [f"leq {l.names[i]} {l.names[j]}" for i, j in zip(*np.nonzero(covers))]
    done = set()
    for i, o in enumerate(l.ortho.tolist()):
        if o >= 0 and (o, i) not in done:
            lines.append(f"ortho {l.names[i]} {l.names[o]}")
            done.add((i, o))
    return "\n".join(lines) + "\n"


def verify_oml(l: FiniteOml) -> Accumulator:
    """Full axiom battery: order, bounds, lattice totality, complement
    laws, orthomodularity, and De Morgan duality for pairs and triples."""
    acc = Accumulator()
    m = len(l)
    leq, o, ar = l.leq, l.ortho, np.arange(m)
    anti = not np.any(leq & leq.T & ~np.eye(m, dtype=bool))
    acc.check("oml.order_antisymmetric", anti)
    acc.check("oml.order_reflexive", bool(np.all(np.diag(leq))))
    trans = np.array_equal(leq, _closure(leq))
    acc.check("oml.order_transitive", trans)
    acc.check("oml.bounded", bool(np.all(leq[l.bottom, :]) and np.all(leq[:, l.top])))
    if not anti:
        return acc
    meet_t, join_t = l._bound_tables()
    acc.check("oml.all_meets_exist", bool(np.all(meet_t >= 0)))
    acc.check("oml.all_joins_exist", bool(np.all(join_t >= 0)))
    ortho_total = bool(np.all(o >= 0))
    acc.check("oml.ortho_total", ortho_total)
    if not (ortho_total and np.all(meet_t >= 0) and np.all(join_t >= 0)):
        return acc
    acc.check("oml.ortho_involutive", bool(np.all(o[o] == ar)))
    acc.check("oml.ortho_order_reversing", bool(np.all(~leq | leq[np.ix_(o, o)].T)))
    acc.check("oml.ortho_complement_law",
              bool(np.all(meet_t[ar, o] == l.bottom) and np.all(join_t[ar, o] == l.top)))
    meet_xo = meet_t[:, o]  # meet_xo[x, k] = x meet ortho(k)
    # orthomodular law: i <= j implies i join (j meet ortho(i)) == j
    om = np.all(~leq | (join_t[ar[:, None], meet_xo.T] == ar))
    acc.check("oml.orthomodular_law", bool(om))
    meet_oo, join_oo = meet_t[np.ix_(o, o)], join_t[np.ix_(o, o)]
    dm = np.all(o[join_t] == meet_oo) and np.all(o[meet_t] == join_oo)
    acc.check("oml.de_morgan_pairs", bool(dm))
    dm3 = all(np.array_equal(o[join_t[join_t[s]]], meet_xo[meet_oo[s]]) for s in _chunks(m))
    acc.check("oml.de_morgan_triples", dm3)
    return acc


def _lattice_tables(l: FiniteOml) -> tuple[np.ndarray, np.ndarray]:
    meet_t, join_t = l._bound_tables()
    if np.any(meet_t < 0) or np.any(join_t < 0):
        raise PreconditionError("not a lattice: some meets or joins do not exist")
    return meet_t, join_t


def _ortho_tables(l: FiniteOml) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Meet table, join table and orthocomplement of an ortholattice."""
    M, J = _lattice_tables(l)
    if np.any(l.ortho < 0):
        raise PreconditionError("not an ortholattice: some orthocomplements are undefined")
    return M, J, l.ortho


def is_modular(l: FiniteOml) -> bool:
    """p meet (q join r) == (p meet q) join r whenever r <= p."""
    M, J = _lattice_tables(l)
    return not any(np.any(l.leq.T[s, None, :] & (np.take(M[s], J, axis=1) != J[M[s]]))
                   for s in _chunks(len(l)))


def is_distributive(l: FiniteOml) -> bool:
    """p meet (q join r) == (p meet q) join (p meet r) for all p, q, r."""
    M, J = _lattice_tables(l)
    return not any(np.any(np.take(M[s], J, axis=1) != J[M[s][:, :, None], M[s][:, None, :]])
                   for s in _chunks(len(l)))


# -- derived structure ---------------------------------------------------

def oml_sasaki(l: FiniteOml, p: int, q: int) -> int:
    """Sasaki projection of q by p: p meet (ortho(p) join q)."""
    return l.meet(p, l.join(l.oc(p), q))


def oml_compatible(l: FiniteOml, p: int, q: int) -> bool:
    """Mackey compatibility, decided by the two splitting identities."""
    return (l.join(l.meet(p, q), l.meet(p, l.oc(q))) == p
            and l.join(l.meet(p, q), l.meet(l.oc(p), q)) == q)


def _sasaki_table(M: np.ndarray, J: np.ndarray, o: np.ndarray) -> np.ndarray:
    """S[p, q]: `oml_sasaki(p, q)`, that is M[p, J[o[p], q]]."""
    return np.take_along_axis(M, J[o], 1)


def _compat_table(M: np.ndarray, J: np.ndarray, o: np.ndarray) -> np.ndarray:
    """C[p, q]: `oml_compatible(p, q)` under the orthocomplement o."""
    ar = np.arange(len(o))
    return (J[M, M[:, o]] == ar[:, None]) & (J[M, M[o]] == ar)


def oml_center(l: FiniteOml) -> list[int]:
    return np.flatnonzero(_compat_table(*_ortho_tables(l)).all(1)).tolist()


def oml_interval(l: FiniteOml, p: int) -> tuple[FiniteOml, list[int]]:
    """The interval [bottom, p] as a lattice of its own, plus the index map.

    The orthocomplement inside the interval is q -> ortho(q) meet p.
    """
    below = l.leq[:, p]
    members, pos, oc = np.flatnonzero(below), np.cumsum(below) - 1, l.ortho[below]
    rel = l._bound_tables()[0][oc, p]
    if np.any(oc < 0) or np.any(rel < 0):
        raise PreconditionError(f"the interval below {l.names[p]} has no orthocomplement")
    sub = FiniteOml(tuple(l.names[g] for g in members), l.leq[np.ix_(members, members)],
                    pos[rel], int(pos[l.bottom]), int(pos[p]))
    return sub, members.tolist()


@dataclass(frozen=True)
class OmlElementPairReport:
    """Pair diagnostics: compatibility, both Sasaki images, perspectivity."""

    compatible: bool
    sasaki_pq: int
    sasaki_qp: int
    perspective: int | None
    strongly_perspective: int | None


def _common_complements(l: FiniteOml, M: np.ndarray, J: np.ndarray, a, b, top) -> np.ndarray:
    """mask[..., w]: w <= top and w complements both a and b inside [0, top].

    a, b and top are ints or index arrays that broadcast together; the mask
    has m entries for each of their entries.
    """
    t = np.asarray(top)[..., None]
    return (l.leq.T[top] & (M[a] == l.bottom) & (J[a] == t)
            & (M[b] == l.bottom) & (J[b] == t))


def interval_common_complements(l: FiniteOml, p: int, q: int, top: int) -> list[int]:
    return np.flatnonzero(_common_complements(l, *_lattice_tables(l), p, q, top)).tolist()


def oml_perspectivity(l: FiniteOml, p: int, q: int) -> OmlElementPairReport:
    persp = interval_common_complements(l, p, q, l.top)
    strong = interval_common_complements(l, p, q, l.join(p, q))
    return OmlElementPairReport(
        compatible=oml_compatible(l, p, q),
        sasaki_pq=oml_sasaki(l, p, q),
        sasaki_qp=oml_sasaki(l, q, p),
        perspective=persp[0] if persp else None,
        strongly_perspective=strong[0] if strong else None,
    )


def oml_laws(l: FiniteOml) -> dict[str, bool]:
    """Exhaustive verdicts of the ortholattice laws, keyed as the oml suite
    reports them.  With phi_p(q) = S[p, q] the Sasaki projection:

    sasaki_props: phi_p(q) perp r iff q perp phi_p(r); phi_p is monotone,
      idempotent and join-preserving; phi_p(q) = p meet q iff phi_p(q) <= q
      iff p and q are compatible; phi_p(q) = 0 iff p perp q.
    lift: a common complement w of e and f inside [0, p] gives the common
      complement w join ortho(p) in the whole lattice.
    parallelogram: phi_p(q) and phi_q(p) are strongly perspective.
    effect_algebra: perp is symmetric, and p <= r iff r = p join q, q perp p.
    compat_preserved: the elements compatible with r are closed under meet
      and join.
    triple_distributivity: r compatible with p and q distributes over them.
    interval_center: the center cut down to [0, p] is the center of [0, p].
    interval_sasaki: each [0, p] is an OML whose Sasaki maps are the ambient
      ones, also on relative complements.

    Temporaries hold m**3 entries; the lift and interval laws loop over p.
    Raises PreconditionError unless l is a lattice with a total
    orthocomplement.
    """
    M, J, o = _ortho_tables(l)
    leq, m, ar = l.leq, len(l), np.arange(len(l))
    P = leq[:, o]                        # P[p, q]: p perp q
    S = _sasaki_table(M, J, o)           # S[p, q]: Sasaki projection of q by p
    C = _compat_table(M, J, o)
    sasaki = (np.array_equal(P[S], P[ar[:, None], S[:, None, :]])
              and np.all(leq[S[:, :, None], S[:, None, :]] | ~leq)
              and np.array_equal(np.take_along_axis(S, S, 1), S)
              and np.array_equal(S == M, C) and np.array_equal(leq[S, ar], C)
              and np.array_equal(S == l.bottom, P)
              and np.array_equal(S[:, J], J[S[:, :, None], S[:, None, :]]))
    parallelogram = np.all(_common_complements(l, M, J, S, S.T, J[S, S.T]).any(-1))
    induced = (P[:, :, None] & (J[:, :, None] == ar)).any(1)  # [p, r]: r = p join q, q perp p
    effect = np.array_equal(P, P.T) and np.array_equal(induced, leq)
    # [p, q, r]: p and q compatible with r, and r compatible with p and q
    with_r, r_with = C[:, None, :] & C[None], C.T[:, None, :] & C.T[None]
    compat = np.all(~with_r | (C[J] & C[M]))
    triple = np.all(~r_with | ((M[J] == J[M[:, None, :], M[None]])
                               & (J[M] == M[J[:, None, :], J[None]])))
    center = C.all(1)
    lift = cut = interval = True
    for p in range(m):
        below = leq[:, p]
        x, y = np.flatnonzero(below)[:, None], np.flatnonzero(below)  # all pairs below p
        inside = _common_complements(l, M, J, x, y, p)
        whole = _common_complements(l, M, J, x, y, l.top)
        lift = lift and np.all(~inside | whole[..., J[:, o[p]]])
        rel = M[p, o]                    # the orthocomplement of [0, p]
        sub_center = below & np.all(_compat_table(M, J, rel) | ~below, axis=1)
        cut = cut and np.array_equal(np.isin(ar, M[center, p]), sub_center)
        interval = (interval and verify_oml(oml_interval(l, p)[0]).passed
                    and np.array_equal(M[x, J[rel[x], y]], S[x, y])
                    and np.array_equal(M[x, J[rel[x], rel[y]]], S[x, o[y]]))
    return {"sasaki_props": bool(sasaki), "lift": bool(lift), "parallelogram": bool(parallelogram),
            "effect_algebra": bool(effect), "compat_preserved": bool(compat),
            "triple_distributivity": bool(triple), "interval_center": bool(cut),
            "interval_sasaki": bool(interval)}


@dataclass(frozen=True)
class SixPieceReport:
    """The six pieces of two orthogonal splittings, and whether the laws hold."""

    p1: int | np.ndarray
    p2: int | np.ndarray
    q1: int | np.ndarray
    q2: int | np.ndarray
    e1: int | np.ndarray
    f2: int | np.ndarray
    passed: bool | np.ndarray


def six_piece_decomposition(l: FiniteOml, p, q, e, f) -> SixPieceReport:
    """Decompose two orthogonal splittings of the same element.

    For p perp q, e perp f with p join q = e join f, the six derived
    pieces satisfy: p1 strongly perspective to e1, q2 strongly
    perspective to f2, the stated orthogonal sums recombine, and the
    common complement of p1, e1 also complements p1 join q1 against e.
    p, q, e and f are ints or equal-shape index arrays, one decomposition
    for each entry; temporaries hold m entries for each.
    """
    M, J, o = _ortho_tables(l)
    P = l.leq[:, o]
    if not np.all(P[p, q] & P[e, f] & (J[p, q] == J[e, f])):
        raise PreconditionError("inputs must be orthogonal splittings of a common join")
    p2, q1 = M[p, f], M[q, e]
    p1, q2 = M[p, o[p2]], M[q, o[q1]]
    e1, f2 = M[e, o[M[e, q]]], M[f, o[M[f, p]]]
    pq1, pq2 = J[p1, q1], J[p2, q2]

    def strong(a, b):
        return _common_complements(l, M, J, a, b, J[a, b])

    passed = (P[p1, p2] & (J[p1, p2] == p) & P[q1, e1] & (J[q1, e1] == e)
              & P[p2, f2] & (J[p2, f2] == f) & P[q1, q2] & (J[q1, q2] == q)
              & P[p1, q1] & P[p2, q2] & strong(q2, f2).any(-1) & strong(pq2, f).any(-1)
              # a common complement of p1 and e1 that also serves p1 join q1
              # and e: both pairs are then strongly perspective
              & (strong(p1, e1) & strong(pq1, e)).any(-1))
    return SixPieceReport(p1, p2, q1, q2, e1, f2, passed)


def six_piece_exhaustive(l: FiniteOml) -> tuple[bool, int]:
    """`six_piece_decomposition` on every pair of orthogonal splittings of a
    common element, all (p, q, e, f) with p perp q, e perp f and
    p join q = e join f.  Returns whether all pass, and how many there are.

    Pairing the splittings takes (orthogonal pairs)**2 entries, and the
    decompositions m per quadruple.
    """
    M, J, o = _ortho_tables(l)
    p, q = np.nonzero(l.leq[:, o])
    top = J[p, q]
    i, j = np.nonzero(top[:, None] == top)
    return bool(np.all(six_piece_decomposition(l, p[i], q[i], p[j], q[j]).passed)), len(i)


# -- generators ----------------------------------------------------------

# Largest lattice the generators build: 2**8 subsets, or MO_127.
MAX_ELEMENTS = 256


def boolean_oml(n: int) -> FiniteOml:
    """Boolean lattice of subsets of n atoms (n <= 6 keeps names readable)."""
    if not 0 <= n < MAX_ELEMENTS.bit_length():
        raise ValueError(f"atom count out of range 0..{MAX_ELEMENTS.bit_length() - 1}")
    m = 1 << n

    def name(bits: int) -> str:
        if bits == 0:
            return "0"
        if bits == m - 1 and n > 0:
            return "1"
        return "".join("abcdefgh"[i] for i in range(n) if bits >> i & 1)

    names = tuple(name(b) for b in range(m))
    sets = np.arange(m)
    leq = (sets[:, None] & sets) == sets[:, None]
    return FiniteOml(names, leq, sets ^ (m - 1), 0, m - 1)


def mo_oml(n: int) -> FiniteOml:
    """Height-two lattice with n incomparable atom pairs (0, 1, a_i, a_i')."""
    if not 1 <= n <= (MAX_ELEMENTS - 2) // 2:
        raise ValueError(f"atom pair count out of range 1..{(MAX_ELEMENTS - 2) // 2}")
    names = ["0", "1"] + [f"a{i}{prime}" for i in range(1, n + 1) for prime in ("", "'")]
    m = len(names)
    leq = np.eye(m, dtype=bool)
    leq[0, :] = True
    leq[:, 1] = True
    return FiniteOml(tuple(names), leq, np.arange(m) ^ 1, 0, 1)


def _close(d: np.ndarray, bound: float) -> np.ndarray:
    """opnorm(d) <= bound per matrix of a stack.  The norm lies between the largest entry and
    n times it, so an SVD runs only where they straddle the bound (with a factor 2 to spare)."""
    big = np.abs(d).max(axis=(-2, -1))
    out = big * d.shape[-1] <= bound / 2
    open_ = ~out & (big <= 2 * bound)
    out[open_] = opnorm(d[open_]) <= bound if open_.any() else False
    return out


def oml_from_projections(ps: list[Projection], cap: int = 64,
                         tol: Tolerances = DEFAULT_TOL) -> tuple[FiniteOml, list[Projection]]:
    """Close a finite family of concrete projections into a finite lattice.

    Iterates meet, join and complement until stable, deduplicating by
    matrix distance (10 tol.proj); raises ClosureExplosionError past the
    cap.  Returns the abstract lattice and the matrix for each element.
    """
    if not ps:
        raise ValueError("need at least one projection")
    shape = ps[0].shape
    pool: list[Projection] = [zero_projection(shape), unit_projection(shape)]
    data = np.stack([x.data for x in pool])

    def add(x: Projection) -> None:
        nonlocal data
        if _close(x.data - data, 10 * tol.proj).any():
            return
        if len(pool) >= cap:
            raise ClosureExplosionError(f"lattice closure exceeded {cap} elements")
        pool.append(x)
        data = np.concatenate([data, x.data[None]])

    for p in ps:
        add(p)
    done = 0
    # Each sweep adds, in order, ortho(a) and then a join b, a meet b for each later b.  What
    # two elements of an earlier sweep give is already in the pool, so only newer pairs run.
    while done < len(pool):
        before = len(pool)
        for i in range(before):
            if i >= done:
                add(mortho(pool[i], tol))
            for j in range(max(i + 1, done), before):
                add(mjoin(pool[i], pool[j], tol))
                add(mmeet(pool[i], pool[j], tol))
        done = before
    m = len(pool)
    names = tuple(f"p{i}" for i in range(m))
    leqm = _close(data[:, None] @ data[None] - data[:, None], 10 * tol.proj)
    # the pool is closed under ortho, so every row has a match; take the first
    ortho = np.argmax(_close(data[None] - (np.eye(shape.dim) - data)[:, None], 10 * tol.proj), axis=1)
    return FiniteOml(names, leqm, ortho, 0, 1), pool
