"""Acceptance gate: one test per criterion, printed as ACCEPT lines.

Counts and tolerances are fixed here; each test prints a single
pass/fail line on the real stdout so the gate is visible in any pytest
run.  Random data comes from the package's own deterministic generator.
"""

import subprocess
import sys
import time

import numpy as np
from conftest import oracle_join

from synalg import (
    Element,
    ModelShape,
    as_projection,
    carrier,
    dist,
    leq,
    opnorm,
    pos_part,
    quad,
    scalar,
    signum,
    spectral_resolution,
    absolute,
    zero,
)
from synalg.equivalence import (
    generalized_comparability,
    related,
)
from synalg.lattice import (
    center_elements,
    central_cover,
    compatible,
    is_central,
    join,
    meet,
    orthogonal,
    ortho,
    sasaki,
)
from synalg.oml import (
    boolean_oml,
    is_distributive,
    mo_oml,
    oml_from_projections,
    six_piece_decomposition,
    six_piece_exhaustive,
    verify_oml,
)
from synalg.rng import XorShift64Star
from synalg.suites import (
    cross_orthogonal_witnesses,
    orthogonal_family_witnesses,
    orthogonal_pair_with_chain,
    split_projection,
)
from synalg.symmetry import (
    ExchangeWitness,
    exchange_efe_fef,
    family_additivity,
    finite_additivity,
    orthogonal_chain_to_symmetry,
    strong_perspectivity,
)


def announce(num: int, name: str, ok: bool) -> None:
    line = f"ACCEPT {num:02d} {name} {'PASS' if ok else 'FAIL'}"
    print(line)
    from conftest import record_accept
    record_accept(line)


def test_criterion_01_spectral_calculus():
    rng = XorShift64Star(1001)
    shapes = [ModelShape((n,)) for n in range(2, 9)]
    t0 = time.perf_counter()
    worst_polar = worst_recon = worst_step = 0.0
    for i in range(500):
        shape = shapes[i % len(shapes)]
        a = rng.element(shape)
        worst_polar = max(worst_polar, dist(
            a, Element(shape, signum(a).data @ absolute(a).data)))
        sr = spectral_resolution(a)
        worst_recon = max(worst_recon, dist(sr.reconstruct(), a))
        lo, hi = sr.lower - 0.3, sr.upper + 0.3
        for k in range(20):
            lam = lo + (hi - lo) * (k + 0.5) / 20.0
            direct = ortho(carrier(pos_part(a - scalar(shape, lam))))
            worst_step = max(worst_step, dist(sr.at(lam), direct))
    elapsed = time.perf_counter() - t0
    ok = worst_polar <= 1e-8 and worst_recon <= 1e-8 and worst_step <= 1e-8 and elapsed <= 10.0
    announce(1, "spectral-calculus", ok)
    assert worst_polar <= 1e-8, worst_polar
    assert worst_recon <= 1e-8, worst_recon
    assert worst_step <= 1e-8, worst_step
    assert elapsed <= 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_02_lattice_layer():
    rng = XorShift64Star(1002)
    shapes = [ModelShape(s) for s in ((2,), (3,), (4,), (2, 2), (2, 3), (3, 3))]
    worst = 0.0
    checks_ok = True
    oracle_worst = 0.0
    for i in range(500):
        shape = shapes[i % len(shapes)]
        p = rng.projection(shape)
        q = rng.projection(shape)
        r = rng.projection(shape)
        sub = rng.subprojection(p)
        worst = max(worst, dist(join(sub, meet(p, ortho(sub))), p))
        worst = max(worst, dist(ortho(join(p, q)), meet(ortho(p), ortho(q))))
        checks_ok = checks_ok and (
            orthogonal(sasaki(p, q), r) == orthogonal(q, sasaki(p, r)))
        if leq(q, r):
            checks_ok = checks_ok and leq(sasaki(p, q), sasaki(p, r))
        worst = max(worst, dist(sasaki(p, sasaki(p, q)), sasaki(p, q)))
        compat = compatible(p, q)
        checks_ok = checks_ok and (compat == (dist(sasaki(p, q), meet(p, q)) <= 1e-8))
        checks_ok = checks_ok and (orthogonal(p, q) == (sasaki(p, q).rank() == 0))
        if shape.dim <= 4:
            oracle_worst = max(oracle_worst, float(
                np.abs(join(p, q).data - oracle_join(p, q)).max()))
    ok = worst <= 1e-8 and checks_ok and oracle_worst <= 1e-8
    announce(2, "lattice-layer", ok)
    assert worst <= 1e-8, worst
    assert checks_ok
    assert oracle_worst <= 1e-8, oracle_worst


def test_criterion_03_efe_fef_construction():
    rng = XorShift64Star(1003)
    shapes = [ModelShape(s) for s in ((2,), (3,), (4,), (2, 3), (5,), (2, 2))]
    worst_main = worst_sasaki = 0.0
    for i in range(500):
        shape = shapes[i % len(shapes)]
        e = rng.projection(shape)
        f = rng.projection(shape)
        s = exchange_efe_fef(e, f)
        worst_main = max(worst_main, dist(quad(s, quad(e, f)), quad(f, e)))
        worst_sasaki = max(worst_sasaki, dist(quad(s, sasaki(e, f)), sasaki(f, e)))
    ok = worst_main <= 1e-8 and worst_sasaki <= 1e-8
    announce(3, "exchange-efe-fef", ok)
    assert worst_main <= 1e-8, worst_main
    assert worst_sasaki <= 1e-8, worst_sasaki


def test_criterion_04_strong_perspectivity():
    rng = XorShift64Star(1004)
    shapes = [ModelShape(s) for s in ((3,), (4,), (5,), (2, 3))]
    worst = 0.0
    for i in range(300):
        shape = shapes[i % len(shapes)]
        e = rng.projection(shape)
        s = rng.symmetry(shape)
        f = as_projection(quad(s, e))
        pw = strong_perspectivity(ExchangeWitness(s, e, f))
        worst = max(worst, max(pw.residuals().values()))
    ok = worst <= 1e-8
    announce(4, "strong-perspectivity", ok)
    assert worst <= 1e-8, worst


def test_criterion_05_additivity_constructions():
    rng = XorShift64Star(1005)
    shapes = [ModelShape(s) for s in ((4,), (5,), (6,), (3, 3), (7,))]
    worst_chain = 0.0
    made_chain = 0
    while made_chain < 200:
        shape = shapes[made_chain % len(shapes)]
        inst = orthogonal_pair_with_chain(rng, shape)
        if inst is None:
            continue
        e, f, s1, s2 = inst
        s = orthogonal_chain_to_symmetry(e, f, s1, s2)
        worst_chain = max(worst_chain, dist(quad(s, e), f))
        made_chain += 1
    worst_pair = 0.0
    made_pair = 0
    while made_pair < 200:
        shape = shapes[made_pair % len(shapes)]
        duo = cross_orthogonal_witnesses(rng, shape)
        if duo is None:
            continue
        s = finite_additivity(*duo)
        total_e = as_projection(duo[0].e + duo[1].e)
        total_f = as_projection(duo[0].f + duo[1].f)
        worst_pair = max(worst_pair, dist(quad(s, total_e), total_f))
        made_pair += 1
    worst_family = worst_prep = 0.0
    made_family = 0
    while made_family < 200:
        shape = shapes[made_family % len(shapes)]
        fam = orthogonal_family_witnesses(rng, shape, parts=3)
        if not fam:
            continue
        for w in fam:
            x = w.s.data @ w.e.data
            y = w.e.data @ w.s.data
            p_i = 0.5 * (x + y + w.e.data + w.f.data)
            worst_prep = max(worst_prep, opnorm(x @ y - w.f.data))
            worst_prep = max(worst_prep, opnorm(y @ x - w.e.data))
            worst_prep = max(worst_prep, opnorm(2.0 * w.e.data @ p_i @ w.e.data - w.e.data))
            worst_prep = max(worst_prep, opnorm(2.0 * p_i @ w.e.data @ p_i - p_i))
        s = family_additivity(fam)
        esum = as_projection(sum((w.e for w in fam), zero(shape)))
        fsum = as_projection(sum((w.f for w in fam), zero(shape)))
        worst_family = max(worst_family, dist(quad(s, esum), fsum))
        made_family += 1
    ok = max(worst_chain, worst_pair, worst_family, worst_prep) <= 1e-8
    announce(5, "additivity-constructions", ok)
    assert worst_chain <= 1e-8, worst_chain
    assert worst_pair <= 1e-8, worst_pair
    assert worst_family <= 1e-8, worst_family
    assert worst_prep <= 1e-8, worst_prep


def test_criterion_06_generalized_comparability():
    rng = XorShift64Star(1006)
    worst = 0.0
    structure_ok = True
    for shape in (ModelShape((2, 3)), ModelShape((4,))):
        for _ in range(150):
            e = rng.projection(shape)
            f = rng.projection(shape)
            res = generalized_comparability(e, f)
            structure_ok = structure_ok and is_central(res.h)
            structure_ok = structure_ok and (
                opnorm(res.s.data @ res.s.data - np.eye(shape.dim)) <= 1e-8)
            worst = max(worst, max(res.residuals().values()))
            if shape.nblocks == 1:
                structure_ok = structure_ok and res.h.block_mask in ((True,), (False,))
    ok = worst <= 1e-9 and structure_ok
    announce(6, "generalized-comparability", ok)
    assert worst <= 1e-9, worst
    assert structure_ok


def test_criterion_07_invariance_centrality():
    rng = XorShift64Star(1007)
    sh22 = ModelShape((2, 2))
    ok_central = True
    for h in center_elements(sh22):
        for _ in range(40):
            s = rng.symmetry(sh22)
            p0 = rng.subprojection(h)
            p = as_projection(quad(s, p0))
            ok_central = ok_central and leq(p, h)
            q = rng.projection(sh22)
            if meet(q, h).rank() == 0:
                ok_central = ok_central and orthogonal(q, h)
    ok_unrelated = True
    for _ in range(60):
        e = rng.projection(sh22)
        f = rng.projection(sh22)
        unrel = not related(e, f)
        ge, gf = central_cover(e), central_cover(f)
        ok_unrelated = ok_unrelated and (unrel == orthogonal(ge, gf) == orthogonal(e, gf))
        for c in center_elements(sh22):
            ok_unrelated = ok_unrelated and (related(e, c) == (not orthogonal(e, c)))
    sh2 = ModelShape((2,))
    ok_counter = True
    tested = 0
    while tested < 30:
        h = rng.projection(sh2)
        if is_central(h):
            continue
        tested += 1
        found = False
        for _ in range(100):
            q = rng.projection(sh2, rank=1)
            if meet(q, h).rank() == 0 and not orthogonal(q, h):
                found = True
                break
        ok_counter = ok_counter and found
    one_block = ModelShape((3,))
    ok_irred = True
    for _ in range(40):
        a = rng.projection(one_block)
        b = rng.projection(one_block)
        if a.rank() > 0 and b.rank() > 0:
            ok_irred = ok_irred and related(a, b)
    ok = ok_central and ok_unrelated and ok_counter and ok_irred
    announce(7, "invariance-centrality", ok)
    assert ok_central and ok_unrelated and ok_counter and ok_irred


def test_criterion_08_cover_as_conjugate_join():
    rng = XorShift64Star(1008)
    sh = ModelShape((2, 2))
    ok = True
    for _ in range(40):
        p = rng.projection(sh)
        gp = central_cover(p)
        subs = []
        from synalg import eig_sym
        w, v = eig_sym(p)
        for i in range(len(w)):
            if w[i] > 0.5:
                subs.append(as_projection(Element(sh, np.outer(v[:, i], v[:, i]))))
        if p.rank() > 0:
            subs.append(p)
        acc = zero(sh)
        bounded = True
        for _ in range(24):
            s = rng.symmetry(sh)
            for q in subs:
                c = quad(s, q)
                bounded = bounded and leq(c, gp)
                acc = acc + c
        if subs:
            saturated = central_cover(acc).block_mask == gp.block_mask
            joined = join(carrier(acc), gp)
            exact = central_cover(joined).block_mask == gp.block_mask
            ok = ok and bounded and saturated and exact
        else:
            ok = ok and gp.rank() == 0
    announce(8, "cover-conjugate-join", ok)
    assert ok


def test_criterion_09_finite_oml():
    ok = True
    for n in (1, 2, 3, 4):
        ok = ok and verify_oml(boolean_oml(n)).passed
    mo2 = mo_oml(2)
    ok = ok and verify_oml(mo2).passed
    ok = ok and not is_distributive(mo2)
    for l in (boolean_oml(4), mo_oml(7)):
        assert len(l) == 16
        passed, count16 = six_piece_exhaustive(l)
        ok = ok and passed and count16 > 0
    rng = XorShift64Star(1009)
    sh3 = ModelShape((3,))
    crosschecks = 0
    attempts = 0
    while crosschecks < 3 and attempts < 60:
        attempts += 1
        k = rng.projection(sh3, rank=2)
        if k.rank() != 2:
            continue
        p, q = split_projection(rng, k)
        e, f = split_projection(rng, k)
        try:
            l3, pool3 = oml_from_projections([p, q, e, f], cap=64)
        except Exception:
            continue
        idx = [next(j for j in range(len(pool3)) if dist(pool3[j], x) <= 1e-7)
               for x in (p, q, e, f)]
        if l3.join(idx[0], idx[1]) != l3.join(idx[2], idx[3]):
            continue
        rep = six_piece_decomposition(l3, idx[0], idx[1], idx[2], idx[3])
        ok = ok and rep.passed
        abstract_p1 = pool3[rep.p1]
        concrete_p1 = meet(p, ortho(meet(p, f)))
        ok = ok and dist(abstract_p1, concrete_p1) <= 1e-7
        crosschecks += 1
    ok = ok and crosschecks >= 3
    announce(9, "finite-oml", ok)
    assert ok


def test_criterion_10_determinism_and_budget():
    cmd = [sys.executable, "-m", "synalg", "verify", "--seed", "42", "--suites", "all",
           "--shape", "2,3"]
    t0 = time.perf_counter()
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    identical = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
    ok = identical and elapsed <= 60.0
    announce(10, "determinism-and-budget", ok)
    assert r1.returncode == 0, r1.stdout[-2000:]
    assert identical
    assert elapsed <= 60.0, f"verify run took {elapsed:.1f}s"
