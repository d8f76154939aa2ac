"""Finite orthomodular lattices from files, with the full axiom battery.

A lattice is a finite set with an order relation, an orthocomplement
map, and distinguished bottom and top.  Files declare elements and the
covering data; the order closure is computed on load, so a transitive
reduction is enough.  Everything here is independent of the matrix
model; the bridge back is `oml_from_projections`, which closes a finite
set of concrete projections under meet, join and complement.

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

from .core import PreconditionError, Projection, SynalgError, Tolerances, active_tol, dist, opnorm
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


def verify_oml(l: FiniteOml, demorgan_cap: int = 64) -> Accumulator:
    """Full axiom battery: order, bounds, lattice totality, complement
    laws, orthomodularity, and De Morgan duality.

    The De Morgan law for triples runs only on lattices of at most
    `demorgan_cap` elements.
    """
    acc = Accumulator(prefix="oml.")
    m = len(l)
    leq, o, ar = l.leq, l.ortho, np.arange(m)
    anti = not np.any(leq & leq.T & ~np.eye(m, dtype=bool))
    acc.check("order_antisymmetric", anti)
    acc.check("order_reflexive", bool(np.all(np.diag(leq))))
    trans = np.array_equal(leq, _closure(leq))
    acc.check("order_transitive", trans)
    acc.check("bounded", bool(np.all(leq[l.bottom, :]) and np.all(leq[:, l.top])))
    if not anti:
        return acc
    meet_t, join_t = l._bound_tables()
    acc.check("all_meets_exist", bool(np.all(meet_t >= 0)))
    acc.check("all_joins_exist", bool(np.all(join_t >= 0)))
    ortho_total = bool(np.all(o >= 0))
    acc.check("ortho_total", ortho_total)
    if not (ortho_total and np.all(meet_t >= 0) and np.all(join_t >= 0)):
        return acc
    acc.check("ortho_involutive", bool(np.all(o[o] == ar)))
    acc.check("ortho_order_reversing", bool(np.all(~leq | leq[np.ix_(o, o)].T)))
    acc.check("ortho_complement_law",
              bool(np.all(meet_t[ar, o] == l.bottom) and np.all(join_t[ar, o] == l.top)))
    meet_xo = meet_t[:, o]  # meet_xo[x, k] = x meet ortho(k)
    # orthomodular law: i <= j implies i join (j meet ortho(i)) == j
    om = np.all(~leq | (join_t[ar[:, None], meet_xo.T] == ar))
    acc.check("orthomodular_law", bool(om))
    meet_oo, join_oo = meet_t[np.ix_(o, o)], join_t[np.ix_(o, o)]
    dm = np.all(o[join_t] == meet_oo) and np.all(o[meet_t] == join_oo)
    acc.check("de_morgan_pairs", bool(dm))
    if m <= demorgan_cap:
        dm3 = all(np.array_equal(o[join_t[join_t[s]]], meet_xo[meet_oo[s]]) for s in _chunks(m))
        acc.check("de_morgan_triples", dm3)
    return acc


def _lattice_tables(l: FiniteOml) -> tuple[np.ndarray, np.ndarray]:
    meet_t, join_t = l._bound_tables()
    if np.any(meet_t < 0) or np.any(join_t < 0):
        raise PreconditionError("not a lattice: some meets or joins do not exist")
    return meet_t, join_t


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


def oml_compatible_by_search(l: FiniteOml, p: int, q: int) -> bool:
    """Compatibility by exhaustive search for the decomposing triple."""
    m = len(l)
    for d in range(m):
        if not (l.le(d, p) and l.le(d, q)):
            continue
        for p1 in range(m):
            if not (l.le(p1, p) and l.perp(p1, d)):
                continue
            if l.join(p1, d) != p:
                continue
            for q1 in range(m):
                if (l.le(q1, q) and l.perp(q1, d) and l.perp(p1, q1)
                        and l.join(q1, d) == q):
                    return True
    return False


def oml_center(l: FiniteOml) -> list[int]:
    m = len(l)
    return [c for c in range(m) if all(oml_compatible(l, c, x) for x in range(m))]


def sasaki_props_report(l: FiniteOml) -> Accumulator:
    """Exhaustive check of the six Sasaki-projection laws."""
    acc = Accumulator(prefix="oml.sasaki.")
    m = len(l)
    acc.check("duality", all((l.perp(oml_sasaki(l, p, q), r)) == (l.perp(q, oml_sasaki(l, p, r)))
                             for p in range(m) for q in range(m) for r in range(m)))
    acc.check("order_preserving", all(l.le(oml_sasaki(l, p, q), oml_sasaki(l, p, r))
                                      for p in range(m) for q in range(m) for r in range(m) if l.le(q, r)))
    acc.check("idempotent", all(oml_sasaki(l, p, oml_sasaki(l, p, q)) == oml_sasaki(l, p, q)
                                for p in range(m) for q in range(m)))
    acc.check("compatibility_criterion",
              all((oml_sasaki(l, p, q) == l.meet(p, q)) == oml_compatible(l, p, q)
                  and (l.le(oml_sasaki(l, p, q), q)) == oml_compatible(l, p, q)
                  for p in range(m) for q in range(m)))
    acc.check("kernel_is_orthogonality", all((oml_sasaki(l, p, q) == l.bottom) == l.perp(p, q)
                                             for p in range(m) for q in range(m)))
    acc.check("preserves_joins", all(oml_sasaki(l, p, l.join(q, r)) == l.join(oml_sasaki(l, p, q), oml_sasaki(l, p, r))
                                     for p in range(m) for q in range(m) for r in range(m)))
    return acc


def oml_interval(l: FiniteOml, p: int) -> tuple[FiniteOml, list[int]]:
    """The interval [bottom, p] as a lattice of its own, plus the index map.

    The orthocomplement inside the interval is q -> ortho(q) meet p.
    """
    members = [i for i in range(len(l)) if l.le(i, p)]
    pos = {g: i for i, g in enumerate(members)}
    leq = l.leq[np.ix_(members, members)]
    ortho = np.array([pos[l.meet(l.oc(g), p)] for g in members], dtype=int)
    sub = FiniteOml(tuple(l.names[g] for g in members), leq, ortho, pos[l.bottom], pos[p])
    return sub, members


def interval_sasaki_check(l: FiniteOml, p: int) -> Accumulator:
    """Exhaustive check that interval Sasaki maps restrict correctly.

    Inside [0, p], for q, r below p: the interval Sasaki of r by q equals
    the ambient one, and applied to the relative complement of r it gives
    the ambient Sasaki of ortho(r).
    """
    acc = Accumulator(prefix="oml.interval.")
    sub, members = oml_interval(l, p)
    ver = verify_oml(sub)
    acc.check("interval_is_oml", ver.passed)
    for qi in range(len(sub)):
        for ri in range(len(sub)):
            inner = oml_sasaki(sub, qi, ri)
            acc.check("restriction", members[inner] == oml_sasaki(l, members[qi], members[ri]))
            inner_c = oml_sasaki(sub, qi, sub.oc(ri))
            acc.check("relative_complement_rule",
                      members[inner_c] == oml_sasaki(l, members[qi], l.oc(members[ri])))
    return acc


@dataclass(frozen=True)
class OmlElementPairReport:
    """Pair diagnostics: compatibility, both Sasaki images, perspectivity."""

    compatible: bool
    sasaki_pq: int
    sasaki_qp: int
    perspective: int | None
    strongly_perspective: int | None


def common_complements(l: FiniteOml, p: int, q: int) -> list[int]:
    m = len(l)
    return [w for w in range(m)
            if l.meet(p, w) == l.bottom and l.join(p, w) == l.top
            and l.meet(q, w) == l.bottom and l.join(q, w) == l.top]


def interval_common_complements(l: FiniteOml, p: int, q: int, top: int) -> list[int]:
    return [w for w in range(len(l))
            if l.le(w, top)
            and l.meet(p, w) == l.bottom and l.join(p, w) == top
            and l.meet(q, w) == l.bottom and l.join(q, w) == top]


def oml_perspectivity(l: FiniteOml, p: int, q: int) -> OmlElementPairReport:
    persp = common_complements(l, p, q)
    strong = interval_common_complements(l, p, q, l.join(p, q))
    return OmlElementPairReport(
        compatible=oml_compatible(l, p, q),
        sasaki_pq=oml_sasaki(l, p, q),
        sasaki_qp=oml_sasaki(l, q, p),
        perspective=persp[0] if persp else None,
        strongly_perspective=strong[0] if strong else None,
    )


def relcompl_lift_check(l: FiniteOml) -> Accumulator:
    """Exhaustive check that interval complements lift to global ones.

    If w complements both e and f inside [0, p], then w join ortho(p)
    complements both in the whole lattice.
    """
    acc = Accumulator(prefix="oml.lift.")
    m = len(l)
    ok = True
    for p in range(m):
        for e in range(m):
            if not l.le(e, p):
                continue
            for f in range(m):
                if not l.le(f, p):
                    continue
                for w in interval_common_complements(l, e, f, p):
                    lifted = l.join(w, l.oc(p))
                    ok = ok and lifted in common_complements(l, e, f)
    acc.check("interval_complement_lifts", ok)
    return acc


def parallelogram_check(l: FiniteOml) -> Accumulator:
    """Sasaki images phi_p(q) and phi_q(p) are strongly perspective, all pairs."""
    acc = Accumulator(prefix="oml.parallelogram.")
    m = len(l)
    ok = True
    for p in range(m):
        for q in range(m):
            a = oml_sasaki(l, p, q)
            b = oml_sasaki(l, q, p)
            ok = ok and bool(interval_common_complements(l, a, b, l.join(a, b)))
    acc.check("sasaki_pair_strongly_perspective", ok)
    return acc


@dataclass(frozen=True)
class SixPieceReport:
    """Pieces and witnesses of the two-splitting decomposition."""

    p1: int
    p2: int
    q1: int
    q2: int
    e1: int
    f2: int
    witness_p1_e1: int
    witness_q2_f2: int
    checks: Accumulator


def six_piece_decomposition(l: FiniteOml, p: int, q: int, e: int, f: int) -> SixPieceReport:
    """Decompose two orthogonal splittings of the same element.

    For p perp q, e perp f with p join q = e join f, the six derived
    pieces satisfy: p1 strongly perspective to e1, q2 strongly
    perspective to f2, the stated orthogonal sums recombine, and the
    common complement of p1, e1 also complements p1 join q1 against e.
    """
    if not (l.perp(p, q) and l.perp(e, f) and l.join(p, q) == l.join(e, f)):
        raise PreconditionError("inputs must be orthogonal splittings of a common join")
    acc = Accumulator(prefix="oml.sixpiece.")
    p1 = l.meet(p, l.oc(l.meet(p, f)))
    p2 = l.meet(p, f)
    q1 = l.meet(q, e)
    q2 = l.meet(q, l.oc(l.meet(q, e)))
    e1 = l.meet(e, l.oc(l.meet(e, q)))
    f2 = l.meet(f, l.oc(l.meet(f, p)))
    w1s = interval_common_complements(l, p1, e1, l.join(p1, e1))
    w2s = interval_common_complements(l, q2, f2, l.join(q2, f2))
    acc.check("p1_e1_strongly_perspective", bool(w1s))
    acc.check("q2_f2_strongly_perspective", bool(w2s))
    acc.check("p_recombines", l.perp(p1, p2) and l.join(p1, p2) == p)
    acc.check("e_recombines", l.perp(q1, e1) and l.join(q1, e1) == e)
    acc.check("f_recombines", l.perp(p2, f2) and l.join(p2, f2) == f)
    acc.check("q_recombines", l.perp(q1, q2) and l.join(q1, q2) == q)
    acc.check("p1_q1_orthogonal", l.perp(p1, q1))
    acc.check("p2_q2_orthogonal", l.perp(p2, q2))
    pq1 = l.join(p1, q1)
    pq2 = l.join(p2, q2)
    acc.check("p1q1_perspective_to_e",
              bool(interval_common_complements(l, pq1, e, l.join(pq1, e))))
    acc.check("p2q2_perspective_to_f",
              bool(interval_common_complements(l, pq2, f, l.join(pq2, f))))
    shared = False
    for v1 in w1s:
        top = l.join(pq1, e)
        if (l.le(v1, top) and l.meet(pq1, v1) == l.bottom and l.join(pq1, v1) == top
                and l.meet(e, v1) == l.bottom and l.join(e, v1) == top):
            shared = True
            break
    acc.check("witness_transfers_to_e", shared)
    return SixPieceReport(p1, p2, q1, q2, e1, f2,
                          w1s[0] if w1s else -1, w2s[0] if w2s else -1, acc)


def effect_algebra_check(l: FiniteOml) -> Accumulator:
    """Partial orthosum view: defined exactly on orthogonal pairs, with the
    induced order matching the lattice order."""
    acc = Accumulator(prefix="oml.effect.")
    m = len(l)
    ok_def = all((l.perp(p, q)) == (l.perp(q, p)) for p in range(m) for q in range(m))
    acc.check("orthosum_domain_symmetric", ok_def)
    ok_order = True
    for p in range(m):
        for r in range(m):
            exists = any(l.perp(p, q) and l.join(p, q) == r for q in range(m))
            ok_order = ok_order and (exists == l.le(p, r))
    acc.check("induced_order_matches", ok_order)
    return acc


def compat_preserved_check(l: FiniteOml) -> Accumulator:
    """Compatibility with a fixed element survives meets and joins."""
    acc = Accumulator(prefix="oml.compat.")
    m = len(l)
    ok = True
    for r in range(m):
        compat = [x for x in range(m) if oml_compatible(l, x, r)]
        for p in compat:
            for q in compat:
                ok = ok and oml_compatible(l, l.join(p, q), r) and oml_compatible(l, l.meet(p, q), r)
    acc.check("compatibility_closed_under_bounds", ok)
    return acc


def distributive_triple_check(l: FiniteOml) -> Accumulator:
    """One element compatible with the other two forces distributivity."""
    acc = Accumulator(prefix="oml.triple.")
    m = len(l)
    ok = True
    for p in range(m):
        for q in range(m):
            for r in range(m):
                if not (oml_compatible(l, r, p) and oml_compatible(l, r, q)):
                    continue
                ok = ok and l.meet(l.join(p, q), r) == l.join(l.meet(p, r), l.meet(q, r))
                ok = ok and l.join(l.meet(p, q), r) == l.meet(l.join(p, r), l.join(q, r))
    acc.check("compatible_triple_distributes", ok)
    return acc


def interval_center_check(l: FiniteOml) -> Accumulator:
    """Central elements cut down into interval centers; reports whether the
    lattice has the relative center property (every interval-central
    element arises that way)."""
    acc = Accumulator(prefix="oml.intcenter.")
    center = set(oml_center(l))
    ok_cut = True
    relative = True
    for p in range(len(l)):
        sub, members = oml_interval(l, p)
        sub_center = {members[i] for i in oml_center(sub)}
        for c in center:
            ok_cut = ok_cut and (l.meet(c, p) in sub_center)
        cuts = {l.meet(c, p) for c in center}
        relative = relative and sub_center <= cuts
    acc.check("central_cut_is_interval_central", ok_cut)
    acc.check("relative_center_property", relative)
    return acc


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


def oml_from_projections(ps: list[Projection], cap: int = 64,
                         tol: Tolerances | None = None) -> tuple[FiniteOml, list[Projection]]:
    """Close a finite family of concrete projections into a finite lattice.

    Iterates meet, join and complement until stable, deduplicating by
    matrix distance; raises ClosureExplosionError past the cap.  Returns
    the abstract lattice and the matrix for each element.
    """
    from .lattice import join as mjoin, meet as mmeet, ortho as mortho
    from .core import unit_projection, zero_projection

    tol = active_tol(tol)
    if not ps:
        raise ValueError("need at least one projection")
    shape = ps[0].shape
    pool: list[Projection] = [zero_projection(shape), unit_projection(shape)]

    def add(x: Projection) -> None:
        for y in pool:
            if dist(x, y) <= 10 * tol.proj:
                return
        if len(pool) >= cap:
            raise ClosureExplosionError(f"lattice closure exceeded {cap} elements")
        pool.append(x)

    for p in ps:
        add(p)
    changed = True
    while changed:
        changed = False
        snapshot = list(pool)
        for i, a in enumerate(snapshot):
            before = len(pool)
            add(mortho(a, tol))
            for b in snapshot[i + 1:]:
                add(mjoin(a, b, tol))
                add(mmeet(a, b, tol))
            if len(pool) != before:
                changed = True
    m = len(pool)
    names = tuple(f"p{i}" for i in range(m))
    leqm = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            leqm[i, j] = opnorm(pool[i].data @ pool[j].data - pool[i].data) <= 10 * tol.proj
    ortho = np.array([next(j for j in range(m) if dist(pool[j], mortho(pool[i], tol)) <= 10 * tol.proj)
                      for i in range(m)], dtype=int)
    bottom = next(i for i in range(m) if pool[i].rank() == 0)
    top = next(i for i in range(m) if pool[i].rank() == shape.dim)
    return FiniteOml(names, leqm, ortho, bottom, top), pool
