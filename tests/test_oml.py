"""Finite orthomodular lattice engine: files, axioms, theory battery."""

import numpy as np
import pytest

from synalg import ModelShape, Projection
from synalg.matio import ParseError
from synalg.oml import (
    MAX_ELEMENTS,
    ClosureExplosionError,
    FiniteOml,
    boolean_oml,
    format_oml,
    interval_common_complements,
    is_distributive,
    is_modular,
    load_oml,
    mo_oml,
    oml_center,
    oml_compatible,
    oml_from_projections,
    oml_interval,
    oml_laws,
    oml_perspectivity,
    oml_sasaki,
    _closure,
    _compat_table,
    _ortho_tables,
    _sasaki_table,
    parse_oml,
    six_piece_decomposition,
    six_piece_exhaustive,
    verify_oml,
)
from synalg.core import PreconditionError
from synalg.report import Accumulator
from synalg.rng import XorShift64Star

# hexagon (benzene ring): bounded lattice with an orthocomplement whose
# orthomodular law fails
HEXAGON = (
    "elem 0\nelem a\nelem b\nelem c\nelem d\nelem 1\n"
    "bottom 0\ntop 1\n"
    "leq a b\nleq c d\n"
    "ortho 0 1\northo a d\northo b c\n"
)

# bowtie: a and b have two minimal upper bounds, so no join exists
BOWTIE = ("elem 0\nelem a\nelem b\nelem c\nelem d\nelem 1\nbottom 0\ntop 1\n"
          "leq a c\nleq a d\nleq b c\nleq b d\northo 0 1\northo a d\northo b c\n")


def test_boolean_generator():
    for n in (1, 2, 3, 4):
        b = boolean_oml(n)
        assert len(b) == 1 << n
        assert verify_oml(b).passed
        assert is_distributive(b) and is_modular(b)
        assert len(oml_center(b)) == len(b)
    assert len(boolean_oml(8)) == MAX_ELEMENTS
    for n in (-1, 9):
        with pytest.raises(ValueError):
            boolean_oml(n)


def test_mo_generator():
    for n in (1, 2, 3, 7):
        l = mo_oml(n)
        assert len(l) == 2 * n + 2
        assert verify_oml(l).passed
        assert is_modular(l)
        if n >= 2:
            assert not is_distributive(l)
            assert oml_center(l) == [0, 1]
    assert len(mo_oml(127)) == MAX_ELEMENTS
    for n in (0, 128):
        with pytest.raises(ValueError):
            mo_oml(n)


def test_mo2_sasaki_and_perspectivity():
    mo2 = mo_oml(2)
    a, b = mo2.index("a1"), mo2.index("a2")
    assert not oml_compatible(mo2, a, b)
    assert oml_sasaki(mo2, a, b) == a
    rep = oml_perspectivity(mo2, a, b)
    assert rep.perspective is not None
    assert rep.strongly_perspective is not None
    assert oml_sasaki(mo2, a, mo2.bottom) == mo2.bottom
    assert oml_sasaki(mo2, a, a) == a


def test_perspectivity_needs_a_lattice():
    bowtie = parse_oml(BOWTIE)
    for p, q in (("0", "1"), ("a", "b")):
        with pytest.raises(PreconditionError):
            oml_perspectivity(bowtie, bowtie.index(p), bowtie.index(q))


def test_boolean_sasaki_is_meet():
    b = boolean_oml(3)
    for p in range(len(b)):
        for q in range(len(b)):
            assert oml_sasaki(b, p, q) == b.meet(p, q)
            assert oml_compatible(b, p, q)


def oml_compatible_by_search(l: FiniteOml, p: int, q: int) -> bool:
    """Compatibility by exhaustive search for the decomposing triple: the
    reference that `oml_compatible` is checked against."""
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


def test_compatibility_formula_matches_search():
    for l in (boolean_oml(2), mo_oml(2), mo_oml(3)):
        for p in range(len(l)):
            for q in range(len(l)):
                assert oml_compatible(l, p, q) == oml_compatible_by_search(l, p, q)


def test_theory_battery_on_fixtures():
    for l in (boolean_oml(3), mo_oml(2), mo_oml(3)):
        assert all(oml_laws(l).values())


def test_interval_is_own_oml():
    mo2 = mo_oml(2)
    sub, members = oml_interval(mo2, mo2.index("a1"))
    assert len(sub) == 2
    assert verify_oml(sub).passed
    full, _ = oml_interval(mo2, mo2.top)
    assert len(full) == len(mo2)
    b3 = boolean_oml(3)
    sub, members = oml_interval(b3, b3.index("ab"))
    assert len(sub) == 4
    assert verify_oml(sub).passed


def test_boolean_perspective_iff_equal():
    b = boolean_oml(3)
    for p in range(len(b)):
        for q in range(len(b)):
            persp = bool(interval_common_complements(b, p, q, b.top))
            assert persp == (p == q)


def test_six_piece_identity_and_swap():
    b = boolean_oml(4)
    p, q = b.index("a"), b.index("b")
    k = b.join(p, q)
    rep = six_piece_decomposition(b, p, q, p, q)
    assert rep.passed
    assert rep.p1 == p and rep.q2 == q
    rep = six_piece_decomposition(b, p, q, q, p)
    assert rep.passed
    with pytest.raises(PreconditionError):
        six_piece_decomposition(b, p, q, p, b.index("c"))


def test_six_piece_exhaustive_16_element():
    assert six_piece_exhaustive(boolean_oml(4)) == (True, 625)
    assert six_piece_exhaustive(mo_oml(7)) == (True, 313)


def test_file_roundtrip(tmp_path):
    for l in (boolean_oml(3), mo_oml(2)):
        text = format_oml(l)
        again = parse_oml(text)
        assert verify_oml(again).passed
        assert len(again) == len(l)
        assert set(again.names) == set(l.names)
    path = tmp_path / "mo2.oml"
    path.write_text(format_oml(mo_oml(2)), encoding="ascii")
    assert verify_oml(load_oml(path)).passed


def test_transitive_reduction_accepted():
    text = (
        "elem 0\nelem a\nelem a'\nelem 1\n"
        "bottom 0\ntop 1\n"
        "leq 0 a\nleq a 1\n"  # 0 <= 1 only via closure
        "ortho 0 1\northo a a'\n"
    )
    l = parse_oml(text)
    assert l.le(l.index("0"), l.index("1"))
    assert verify_oml(l).passed


def test_parse_errors_and_violations():
    with pytest.raises(ParseError):
        parse_oml("elem a\ntop a\n")  # missing bottom
    with pytest.raises(ParseError):
        parse_oml("leq a b\nbottom a\ntop b\n")  # undeclared elements
    with pytest.raises(ParseError):
        parse_oml("elem a\nelem a\nbottom a\ntop a\n")  # duplicate
    # non-involutive orthocomplement is a verification failure, not a parse error
    bad = (
        "elem 0\nelem 1\nelem a\nelem b\nelem c\n"
        "bottom 0\ntop 1\n"
        "ortho a b\northo b c\northo 0 1\n"
    )
    rep = verify_oml(parse_oml(bad))
    assert not rep.passed
    # missing ortho map entries are flagged
    nosym = "elem 0\nelem 1\nbottom 0\ntop 1\n"
    rep = verify_oml(parse_oml(nosym))
    assert not rep.passed


def test_non_orthomodular_detected():
    l = parse_oml(HEXAGON)
    rep = verify_oml(l)
    assert not rep.passed
    failing = {line.name for line in rep.lines() if not line.passed}
    assert "oml.orthomodular_law" in failing


def test_oml_from_projections():
    sh = ModelShape((2,))
    e = Projection(sh, [[1.0, 0.0], [0.0, 0.0]])
    f = Projection(sh, [[0.5, 0.5], [0.5, 0.5]])
    l, pool = oml_from_projections([e, f])
    assert len(l) == 6  # two incompatible lines close into a lantern
    assert verify_oml(l).passed
    assert not is_distributive(l)
    l2, _ = oml_from_projections([e])
    assert is_distributive(l2) and len(l2) == 4
    rng = XorShift64Star(70)
    sh3 = ModelShape((3,))
    with pytest.raises(ClosureExplosionError):
        oml_from_projections([rng.projection(sh3, rank=1) for _ in range(4)], cap=12)


# -- brute-force reference: the loop engine the vectorised one replaced ----

def _ref_bound_tables(l):
    m = len(l)
    meet_t = -np.ones((m, m), dtype=int)
    join_t = -np.ones((m, m), dtype=int)
    for i in range(m):
        for j in range(i, m):
            lowers = np.flatnonzero(l.leq[:, i] & l.leq[:, j])
            uppers = np.flatnonzero(l.leq[i, :] & l.leq[j, :])
            for k in lowers:
                if all(l.leq[x, k] for x in lowers):
                    meet_t[i, j] = meet_t[j, i] = k
                    break
            for k in uppers:
                if all(l.leq[k, x] for x in uppers):
                    join_t[i, j] = join_t[j, i] = k
                    break
    return meet_t, join_t


def _ref(l):
    """A copy of l whose meet and join read the reference tables."""
    return FiniteOml(l.names, l.leq, l.ortho, l.bottom, l.top, *_ref_bound_tables(l))


def _ref_verify(l):
    acc = Accumulator()
    m = len(l)
    rng_all = range(m)
    anti = all(not (l.leq[i, j] and l.leq[j, i]) for i in rng_all for j in rng_all if i != j)
    acc.check("oml.order_antisymmetric", anti)
    acc.check("oml.order_reflexive", bool(np.all(np.diag(l.leq))))
    acc.check("oml.order_transitive", np.array_equal(l.leq, _closure(l.leq)))
    acc.check("oml.bounded", all(l.leq[l.bottom, i] and l.leq[i, l.top] for i in rng_all))
    if not anti:
        return acc
    meet_t, join_t = l._meet, l._join
    acc.check("oml.all_meets_exist", bool(np.all(meet_t >= 0)))
    acc.check("oml.all_joins_exist", bool(np.all(join_t >= 0)))
    ortho_total = bool(np.all(l.ortho >= 0))
    acc.check("oml.ortho_total", ortho_total)
    if not (ortho_total and np.all(meet_t >= 0) and np.all(join_t >= 0)):
        return acc
    acc.check("oml.ortho_involutive", all(l.oc(l.oc(i)) == i for i in rng_all))
    acc.check("oml.ortho_order_reversing",
              all(l.le(l.oc(j), l.oc(i)) for i in rng_all for j in rng_all if l.le(i, j)))
    acc.check("oml.ortho_complement_law",
              all(l.meet(i, l.oc(i)) == l.bottom and l.join(i, l.oc(i)) == l.top for i in rng_all))
    acc.check("oml.orthomodular_law", all(l.join(i, l.meet(j, l.oc(i))) == j
                                          for i in rng_all for j in rng_all if l.le(i, j)))
    acc.check("oml.de_morgan_pairs", all(l.oc(l.join(i, j)) == l.meet(l.oc(i), l.oc(j))
                                         and l.oc(l.meet(i, j)) == l.join(l.oc(i), l.oc(j))
                                         for i in rng_all for j in rng_all))
    acc.check("oml.de_morgan_triples",
              all(l.oc(l.join(l.join(i, j), k)) == l.meet(l.meet(l.oc(i), l.oc(j)), l.oc(k))
                  for i in rng_all for j in rng_all for k in rng_all))
    return acc


def _ref_modular_rows(l):
    """Every p with some q, r <= p where p meet (q join r) != (p meet q) join r."""
    m = len(l)
    return {p for p in range(m) for q in range(m) for r in range(m)
            if l.le(r, p) and l.meet(p, l.join(q, r)) != l.join(l.meet(p, q), r)}


def _ref_distributive_rows(l):
    m = len(l)
    return {p for p in range(m) for q in range(m) for r in range(m)
            if l.meet(p, l.join(q, r)) != l.join(l.meet(p, q), l.meet(p, r))}


# -- scalar references for `oml_laws` and `six_piece_decomposition`: the
# element loops the table predicates replaced, one bool per law


def _ref_common_complements(l, p, q, top):
    return [w for w in range(len(l))
            if l.le(w, top)
            and l.meet(p, w) == l.bottom and l.join(p, w) == top
            and l.meet(q, w) == l.bottom and l.join(q, w) == top]


def _ref_interval(l, p):
    members = [i for i in range(len(l)) if l.le(i, p)]
    pos = {g: i for i, g in enumerate(members)}
    leq = l.leq[np.ix_(members, members)]
    ortho = np.array([pos[l.meet(l.oc(g), p)] for g in members], dtype=int)
    sub = FiniteOml(tuple(l.names[g] for g in members), leq, ortho, pos[l.bottom], pos[p])
    return _ref(sub), members


def _ref_center(l):
    m = len(l)
    return [c for c in range(m) if all(oml_compatible(l, c, x) for x in range(m))]


def _ref_sasaki_props(l):
    m = range(len(l))
    s = lambda p, q: oml_sasaki(l, p, q)  # noqa: E731
    return (all(l.perp(s(p, q), r) == l.perp(q, s(p, r)) for p in m for q in m for r in m)
            and all(l.le(s(p, q), s(p, r)) for p in m for q in m for r in m if l.le(q, r))
            and all(s(p, s(p, q)) == s(p, q) for p in m for q in m)
            and all((s(p, q) == l.meet(p, q)) == oml_compatible(l, p, q)
                    and l.le(s(p, q), q) == oml_compatible(l, p, q) for p in m for q in m)
            and all((s(p, q) == l.bottom) == l.perp(p, q) for p in m for q in m)
            and all(s(p, l.join(q, r)) == l.join(s(p, q), s(p, r))
                    for p in m for q in m for r in m))


def _ref_lift(l):
    m = range(len(l))
    for p in m:
        for e in (e for e in m if l.le(e, p)):
            for f in (f for f in m if l.le(f, p)):
                ws = _ref_common_complements(l, e, f, p)
                whole = _ref_common_complements(l, e, f, l.top) if ws else []
                if not all(l.join(w, l.oc(p)) in whole for w in ws):
                    return False
    return True


def _ref_parallelogram(l):
    m = range(len(l))
    return all(_ref_common_complements(l, a, b, l.join(a, b))
               for a, b in ((oml_sasaki(l, p, q), oml_sasaki(l, q, p)) for p in m for q in m))


def _ref_effect_algebra(l):
    m = range(len(l))
    return (all(l.perp(p, q) == l.perp(q, p) for p in m for q in m)
            and all(any(l.perp(p, q) and l.join(p, q) == r for q in m) == l.le(p, r)
                    for p in m for r in m))


def _ref_compat_preserved(l):
    m = range(len(l))
    for r in m:
        compat = [x for x in m if oml_compatible(l, x, r)]
        if not all(oml_compatible(l, l.join(p, q), r) and oml_compatible(l, l.meet(p, q), r)
                   for p in compat for q in compat):
            return False
    return True


def _ref_triple_distributivity(l):
    m = range(len(l))
    return all(l.meet(l.join(p, q), r) == l.join(l.meet(p, r), l.meet(q, r))
               and l.join(l.meet(p, q), r) == l.meet(l.join(p, r), l.join(q, r))
               for p in m for q in m for r in m
               if oml_compatible(l, r, p) and oml_compatible(l, r, q))


def _ref_interval_center(l):
    center = _ref_center(l)
    ok = True
    for p in range(len(l)):
        sub, members = _ref_interval(l, p)
        sub_center = {members[i] for i in _ref_center(sub)}
        cuts = {l.meet(c, p) for c in center}
        ok = ok and cuts <= sub_center and sub_center <= cuts
    return ok


def _ref_interval_sasaki(l):
    for p in range(len(l)):
        sub, members = _ref_interval(l, p)
        if not _ref_verify(sub).passed:
            return False
        for qi in range(len(sub)):
            for ri in range(len(sub)):
                q, r = members[qi], members[ri]
                if (members[oml_sasaki(sub, qi, ri)] != oml_sasaki(l, q, r)
                        or members[oml_sasaki(sub, qi, sub.oc(ri))] != oml_sasaki(l, q, l.oc(r))):
                    return False
    return True


_REF_LAWS = {
    "sasaki_props": _ref_sasaki_props,
    "lift": _ref_lift,
    "parallelogram": _ref_parallelogram,
    "effect_algebra": _ref_effect_algebra,
    "compat_preserved": _ref_compat_preserved,
    "triple_distributivity": _ref_triple_distributivity,
    "interval_center": _ref_interval_center,
    "interval_sasaki": _ref_interval_sasaki,
}


def _ref_six_piece(l, p, q, e, f):
    """(passed, p1, q2) of one decomposition."""
    p1 = l.meet(p, l.oc(l.meet(p, f)))
    p2 = l.meet(p, f)
    q1 = l.meet(q, e)
    q2 = l.meet(q, l.oc(l.meet(q, e)))
    e1 = l.meet(e, l.oc(l.meet(e, q)))
    f2 = l.meet(f, l.oc(l.meet(f, p)))
    w1s = _ref_common_complements(l, p1, e1, l.join(p1, e1))
    w2s = _ref_common_complements(l, q2, f2, l.join(q2, f2))
    pq1, pq2 = l.join(p1, q1), l.join(p2, q2)
    pq1_e = _ref_common_complements(l, pq1, e, l.join(pq1, e))
    passed = (bool(w1s) and bool(w2s)
              and l.perp(p1, p2) and l.join(p1, p2) == p
              and l.perp(q1, e1) and l.join(q1, e1) == e
              and l.perp(p2, f2) and l.join(p2, f2) == f
              and l.perp(q1, q2) and l.join(q1, q2) == q
              and l.perp(p1, q1) and l.perp(p2, q2)
              and bool(pq1_e)
              and bool(_ref_common_complements(l, pq2, f, l.join(pq2, f)))
              and any(v1 in pq1_e for v1 in w1s))
    return passed, p1, q2


def _ref_quadruples(l):
    """Every (p, q, e, f) with p perp q, e perp f and p join q = e join f."""
    m = range(len(l))
    return [(p, q, e, f) for p in m for q in m if l.perp(p, q)
            for e in m if l.le(e, l.join(p, q))
            for f in m if l.le(f, l.join(p, q)) and l.perp(e, f) and l.join(e, f) == l.join(p, q)]


def _random_poset(seed, m, cyclic=False):
    """Bounded relation on m elements, closed on load; cyclic ones need not be antisymmetric."""
    rng = np.random.default_rng(seed)
    rel = rng.random((m, m)) < 3.0 / m
    if not cyclic:
        rel = np.triu(rel, 1)
    lines = [f"elem e{i}" for i in range(m)] + ["bottom e0", f"top e{m - 1}"]
    lines += [f"leq e{i} e{j}" for i, j in zip(*np.nonzero(rel))]
    lines += [f"ortho e{i} e{m - 1 - i}" for i in range(m // 2)]
    return parse_oml("\n".join(lines) + "\n")


def _oracle_inputs():
    yield from (boolean_oml(n) for n in range(1, 6))
    yield from (mo_oml(n) for n in range(1, 10))
    yield parse_oml(HEXAGON)
    yield parse_oml(BOWTIE)
    # a <= b <= a: not antisymmetric, and several elements tie as bounds
    yield parse_oml("elem 0\nelem a\nelem b\nelem c\nelem 1\nbottom 0\ntop 1\n"
                    "leq a b\nleq b a\nleq c a\northo 0 1\northo a c\n")
    # non-involutive orthocomplement on M3
    yield parse_oml("elem 0\nelem 1\nelem a\nelem b\nelem c\nbottom 0\ntop 1\n"
                    "ortho a b\northo b c\northo 0 1\n")
    # pentagon N5: a lattice, but not modular
    yield parse_oml("elem 0\nelem a\nelem b\nelem c\nelem 1\nbottom 0\ntop 1\n"
                    "leq a b\northo 0 1\northo a c\northo b b\n")
    for seed in range(12):
        yield _random_poset(seed, 6 + seed, cyclic=seed % 3 == 2)


def test_engine_matches_brute_force_reference():
    lattices = 0
    for l in _oracle_inputs():
        ref = _ref(l)
        meet_t, join_t = l._bound_tables()
        assert np.array_equal(meet_t, ref._meet) and np.array_equal(join_t, ref._join)
        got = [line.format() for line in verify_oml(l).lines()]
        assert got == [line.format() for line in _ref_verify(ref).lines()]
        if np.all(ref._meet >= 0) and np.all(ref._join >= 0):
            lattices += 1
            assert is_modular(l) == (not _ref_modular_rows(ref))
            assert is_distributive(l) == (not _ref_distributive_rows(ref))
        else:
            with pytest.raises(PreconditionError):
                is_modular(l)
            with pytest.raises(PreconditionError):
                is_distributive(l)
    assert lattices >= 17


def test_laws_match_scalar_reference():
    compared = failing = 0
    for l in _oracle_inputs():
        ref = _ref(l)
        try:
            want = {law: check(ref) for law, check in _REF_LAWS.items()}
        except PreconditionError:
            with pytest.raises(PreconditionError):
                oml_laws(l)
            continue
        assert list(oml_laws(l).items()) == list(want.items())
        compared += 1
        failing += not all(want.values())
    assert compared == 22 and failing >= 8


def test_sasaki_and_compat_tables_match_scalar():
    ortholattices = 0
    for l in _oracle_inputs():
        try:
            M, J, o = _ortho_tables(l)
        except PreconditionError:
            continue
        ortholattices += 1
        ref, m = _ref(l), range(len(l))
        assert np.array_equal(_sasaki_table(M, J, o), [[oml_sasaki(ref, p, q) for q in m] for p in m])
        assert np.array_equal(_compat_table(M, J, o),
                              [[oml_compatible(ref, p, q) for q in m] for p in m])
    assert ortholattices == 22


def test_six_piece_matches_scalar_reference():
    total = failed = 0
    for l in _oracle_inputs():
        ref = _ref(l)
        try:
            quads = _ref_quadruples(ref)
        except PreconditionError:
            continue
        want = np.array([_ref_six_piece(ref, *quad) for quad in quads])
        rep = six_piece_decomposition(l, *np.array(quads).T)
        assert np.array_equal(rep.passed, want[:, 0].astype(bool))
        assert np.array_equal(rep.p1, want[:, 1]) and np.array_equal(rep.q2, want[:, 2])
        assert six_piece_exhaustive(l) == (bool(np.all(want[:, 0])), len(quads))
        total += len(quads)
        failed += int(np.sum(~want[:, 0].astype(bool)))
    assert (total, failed) == (49471, 43303)


def _pentagon_on_chain(m, b_index):
    """A chain of m - 4 elements under a pentagon 0 < a < b < 1, 0 < x < 1.

    Both laws fail only at p = b, which is declared as element b_index.
    """
    chain = [f"c{i}" for i in range(m - 4)]
    order = chain + ["a", "x", "1"]
    order.insert(b_index, "b")
    lines = [f"elem {n}" for n in order] + ["bottom c0", "top 1"]
    lines += [f"leq {u} {v}" for u, v in zip(chain, chain[1:])]
    lines += [f"leq {chain[-1]} a", "leq a b", "leq b 1", f"leq {chain[-1]} x", "leq x 1"]
    return parse_oml("\n".join(lines) + "\n")


def test_chunk_edges():
    # 50 elements go in chunks of 2**14 // 50**2 = 6 rows, the last one of 2
    m = 50
    l = _pentagon_on_chain(m, m - 1)
    ref = _ref(l)
    assert _ref_modular_rows(ref) == _ref_distributive_rows(ref) == {m - 1}
    meet_t, join_t = l._bound_tables()
    assert np.array_equal(meet_t, ref._meet) and np.array_equal(join_t, ref._join)
    # the violating row on either side of a chunk boundary
    for b_index in (0, 5, 6, 47, 48, m - 1):
        l = _pentagon_on_chain(m, b_index)
        assert not is_modular(l) and not is_distributive(l)
    chain = parse_oml("".join(f"elem c{i}\n" for i in range(m)) + f"bottom c0\ntop c{m - 1}\n"
                      + "".join(f"leq c{i} c{i + 1}\n" for i in range(m - 1)))
    assert is_modular(chain) and is_distributive(chain)
    # MO_24 also has 50 elements; breaking its last atom pair's ortho puts the
    # De Morgan violations in the last chunk
    mo = mo_oml(24)
    bad = FiniteOml(mo.names, mo.leq, np.r_[mo.ortho[:-2], m - 2, m - 1], mo.bottom, mo.top)
    for l in (mo, bad):
        got = [line.format() for line in verify_oml(l).lines()]
        assert got == [line.format() for line in _ref_verify(_ref(l)).lines()]
    assert verify_oml(mo).passed and not verify_oml(bad).passed
