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
    common_complements,
    compat_preserved_check,
    distributive_triple_check,
    effect_algebra_check,
    format_oml,
    interval_center_check,
    interval_sasaki_check,
    is_distributive,
    is_modular,
    load_oml,
    mo_oml,
    oml_center,
    oml_compatible,
    oml_compatible_by_search,
    oml_from_projections,
    oml_interval,
    oml_perspectivity,
    oml_sasaki,
    parallelogram_check,
    _closure,
    parse_oml,
    relcompl_lift_check,
    sasaki_props_report,
    six_piece_decomposition,
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


def test_boolean_sasaki_is_meet():
    b = boolean_oml(3)
    for p in range(len(b)):
        for q in range(len(b)):
            assert oml_sasaki(b, p, q) == b.meet(p, q)
            assert oml_compatible(b, p, q)


def test_compatibility_formula_matches_search():
    for l in (boolean_oml(2), mo_oml(2), mo_oml(3)):
        for p in range(len(l)):
            for q in range(len(l)):
                assert oml_compatible(l, p, q) == oml_compatible_by_search(l, p, q)


def test_theory_battery_on_fixtures():
    for l in (boolean_oml(3), mo_oml(2), mo_oml(3)):
        assert sasaki_props_report(l).passed
        assert relcompl_lift_check(l).passed
        assert parallelogram_check(l).passed
        assert effect_algebra_check(l).passed
        assert compat_preserved_check(l).passed
        assert distributive_triple_check(l).passed
        assert interval_center_check(l).passed
        for p in range(len(l)):
            assert interval_sasaki_check(l, p).passed


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
            persp = bool(common_complements(b, p, q))
            assert persp == (p == q)


def test_six_piece_identity_and_swap():
    b = boolean_oml(4)
    p, q = b.index("a"), b.index("b")
    k = b.join(p, q)
    rep = six_piece_decomposition(b, p, q, p, q)
    assert rep.checks.passed
    assert rep.p1 == p and rep.q2 == q
    rep = six_piece_decomposition(b, p, q, q, p)
    assert rep.checks.passed
    with pytest.raises(PreconditionError):
        six_piece_decomposition(b, p, q, p, b.index("c"))


def test_six_piece_exhaustive_16_element():
    for l in (boolean_oml(4), mo_oml(7)):
        assert len(l) == 16
        m = len(l)
        count = 0
        for p in range(m):
            for q in range(m):
                if not l.perp(p, q):
                    continue
                top = l.join(p, q)
                for e in range(m):
                    if not l.le(e, top):
                        continue
                    for f in range(m):
                        if l.le(f, top) and l.perp(e, f) and l.join(e, f) == top:
                            rep = six_piece_decomposition(l, p, q, e, f)
                            assert rep.checks.passed
                            count += 1
        assert count > 100


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


def _ref_verify(l, demorgan_cap=64):
    acc = Accumulator(prefix="oml.")
    m = len(l)
    rng_all = range(m)
    anti = all(not (l.leq[i, j] and l.leq[j, i]) for i in rng_all for j in rng_all if i != j)
    acc.check("order_antisymmetric", anti)
    acc.check("order_reflexive", bool(np.all(np.diag(l.leq))))
    acc.check("order_transitive", np.array_equal(l.leq, _closure(l.leq)))
    acc.check("bounded", all(l.leq[l.bottom, i] and l.leq[i, l.top] for i in rng_all))
    if not anti:
        return acc
    meet_t, join_t = l._meet, l._join
    acc.check("all_meets_exist", bool(np.all(meet_t >= 0)))
    acc.check("all_joins_exist", bool(np.all(join_t >= 0)))
    ortho_total = bool(np.all(l.ortho >= 0))
    acc.check("ortho_total", ortho_total)
    if not (ortho_total and np.all(meet_t >= 0) and np.all(join_t >= 0)):
        return acc
    acc.check("ortho_involutive", all(l.oc(l.oc(i)) == i for i in rng_all))
    acc.check("ortho_order_reversing",
              all(l.le(l.oc(j), l.oc(i)) for i in rng_all for j in rng_all if l.le(i, j)))
    acc.check("ortho_complement_law",
              all(l.meet(i, l.oc(i)) == l.bottom and l.join(i, l.oc(i)) == l.top for i in rng_all))
    acc.check("orthomodular_law", all(l.join(i, l.meet(j, l.oc(i))) == j
                                      for i in rng_all for j in rng_all if l.le(i, j)))
    acc.check("de_morgan_pairs", all(l.oc(l.join(i, j)) == l.meet(l.oc(i), l.oc(j))
                                     and l.oc(l.meet(i, j)) == l.join(l.oc(i), l.oc(j))
                                     for i in rng_all for j in rng_all))
    if m <= demorgan_cap:
        acc.check("de_morgan_triples",
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
    # bowtie: a and b have two minimal upper bounds, so no join exists
    yield parse_oml("elem 0\nelem a\nelem b\nelem c\nelem d\nelem 1\nbottom 0\ntop 1\n"
                    "leq a c\nleq a d\nleq b c\nleq b d\northo 0 1\northo a d\northo b c\n")
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
        for cap in (64, 0):
            got = [line.format() for line in verify_oml(l, cap).lines()]
            assert got == [line.format() for line in _ref_verify(ref, cap).lines()]
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
