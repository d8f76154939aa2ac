"""Command-line front end.

Subcommands: `verify` (seeded property suites), `witness` (explicit
theorem constructions on matrix files), `spectra`, `lattice`, `compare`,
`equiv`, and the `oml` group (verify / report / gen).  Reports are
line-oriented: one `CHECK <name> <residual> <tol> PASS|FAIL` per check.

Exit codes: 0 all checks pass, 1 any FAIL (or a violated construction
precondition), 2 usage or I/O errors.  Identical invocations produce
byte-identical output for a fixed seed.

Flags can also be supplied through environment variables prefixed with
SYNALG_ (SYNALG_SEED, SYNALG_TRIALS, SYNALG_SHAPE, SYNALG_SUITES).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .core import (
    Element,
    ModelShape,
    PreconditionError,
    SynalgError,
    Tolerances,
    as_projection,
    dist,
    quad,
    spectral_resolution,
    zero,
)
from .equivalence import (
    equal_rank_chain,
    generalized_comparability,
    orthogonal_decomposition,
    relative_center_witness,
)
from .lattice import central_cover, join, meet, sasaki
from .matio import ParseError, format_matrix, read_matrix
from .oml import (
    boolean_oml,
    format_oml,
    is_distributive,
    is_modular,
    load_oml,
    mo_oml,
    oml_perspectivity,
    verify_oml,
)
from .report import Accumulator, ReportLine
from .suites import SUITE_NAMES, SuiteConfig, run_suites
from .symmetry import (
    ExchangeWitness,
    PerspectivityWitness,
    complement_exchange,
    exchange_efe_fef,
    family_additivity,
    finite_additivity,
    parallelogram_exchange,
    perspective_to_chain,
    sasaki_exchange,
    strong_perspectivity,
)

USAGE_EXIT = 2
FAIL_EXIT = 1

WITNESS_IDS = ("thm5.8", "thm5.9i", "thm5.9ii", "thm5.9iii", "thm5.11",
               "thm5.12", "lem5.6", "thm5.15", "thm8.3", "thm8.5", "thm8.6")


def _parse_shape(text: str) -> ModelShape:
    try:
        return ModelShape(tuple(int(t) for t in text.split(",") if t))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}")


def _parse_tol(pairs: list[str]) -> Tolerances | None:
    if not pairs:
        return None
    tol = Tolerances()
    fields = set(tol.__dataclass_fields__)
    for item in pairs:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in fields:
            raise argparse.ArgumentTypeError(f"unknown tolerance {name!r}")
        tol = replace(tol, **{name: float(value)})
    return tol


def _env_default(name: str, fallback):
    return os.environ.get(f"SYNALG_{name}", fallback)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="synalg", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run seeded property suites")
    v.add_argument("--seed", type=int, default=int(_env_default("SEED", 42)))
    v.add_argument("--trials", type=int, default=int(_env_default("TRIALS", 30)))
    v.add_argument("--shape", type=_parse_shape, default=_env_default("SHAPE", "2,3"))
    v.add_argument("--suites", default=_env_default("SUITES", "all"),
                   help="comma list from: " + ",".join(SUITE_NAMES) + " (or 'all')")
    v.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")

    w = sub.add_parser("witness", help="run an explicit construction on matrix files")
    w.add_argument("theorem", help="one of: " + ", ".join(WITNESS_IDS))
    w.add_argument("files", nargs="*")

    sp = sub.add_parser("spectra", help="print the spectral resolution of an element")
    sp.add_argument("file")

    lt = sub.add_parser("lattice", help="meet/join/sasaki/cover tables for projections")
    lt.add_argument("files", nargs="+")

    cp = sub.add_parser("compare", help="generalized comparability of two projections")
    cp.add_argument("e")
    cp.add_argument("f")

    eq = sub.add_parser("equiv", help="equivalence chain between two projections")
    eq.add_argument("e")
    eq.add_argument("f")

    om = sub.add_parser("oml", help="finite orthomodular lattice tools")
    omsub = om.add_subparsers(dest="oml_command", required=True)
    ov = omsub.add_parser("verify", help="check the axioms of a lattice file")
    ov.add_argument("file")
    ov.add_argument("--cap", type=int, default=64,
                    help="largest lattice on which the de_morgan_triples check runs")
    orp = omsub.add_parser("report", help="pair diagnostics inside a lattice file")
    orp.add_argument("file")
    orp.add_argument("p")
    orp.add_argument("q")
    og = omsub.add_parser("gen", help="emit a generated lattice to stdout")
    og.add_argument("family", choices=("boolean", "mo"))
    og.add_argument("n", type=int)
    return ap


def _print_lines(lines: list[ReportLine]) -> int:
    for line in lines:
        print(line.format())
    ok = all(l.passed for l in lines)
    print("RESULT", "PASS" if ok else "FAIL")
    return 0 if ok else FAIL_EXIT


def _print_matrix(label: str, el) -> None:
    print(f"MATRIX {label}")
    sys.stdout.write(format_matrix(el))


def cmd_verify(args) -> int:
    shape = args.shape if isinstance(args.shape, ModelShape) else _parse_shape(args.shape)
    suites = tuple(SUITE_NAMES) if args.suites == "all" else tuple(args.suites.split(","))
    try:
        cfg = SuiteConfig(seed=args.seed, trials=args.trials, shape=shape,
                          tolerances=_parse_tol(args.tol), suites=suites)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print(f"# verify seed={cfg.seed} trials={cfg.trials} shape={cfg.shape} "
          f"suites={','.join(s for s in SUITE_NAMES if s in cfg.suites)}")
    return _print_lines(run_suites(cfg))


def _load(path, kind):
    try:
        return read_matrix(path, kind=kind)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def cmd_witness(args) -> int:
    tid = args.theorem
    if tid not in WITNESS_IDS:
        print(f"usage error: unknown construction id {tid!r}; expected one of "
              + ", ".join(WITNESS_IDS), file=sys.stderr)
        return USAGE_EXIT
    acc = Accumulator(prefix=f"witness.{tid}.")
    f = args.files
    try:
        if tid == "thm5.8":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            s = exchange_efe_fef(e, fp)
            _print_matrix("s", s)
            acc.observe("efe_to_fef", dist(quad(s, quad(e, fp)), quad(fp, e)), 1e-8)
            acc.observe("sasaki_conjugation", dist(quad(s, sasaki(e, fp)), sasaki(fp, e)), 1e-8)
        elif tid == "thm5.9i":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            w = sasaki_exchange(e, fp)
            _print_matrix("s", w.s)
            _print_matrix("sasaki_ef", w.e)
            _print_matrix("sasaki_fe", w.f)
            acc.observe("exchanged", w.residual(), 1e-8)
        elif tid == "thm5.9ii":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            w = parallelogram_exchange(e, fp)
            _print_matrix("s", w.s)
            _print_matrix("e_minus_meet", w.e)
            _print_matrix("join_minus_f", w.f)
            acc.observe("exchanged", w.residual(), 1e-8)
        elif tid == "thm5.9iii":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            s = complement_exchange(e, fp)
            _print_matrix("s", s)
            target = as_projection(Element(e.shape, np.eye(e.shape.dim) - fp.data))
            acc.observe("exchanges_e_with_ortho_f", dist(quad(s, e), target), 1e-8)
        elif tid == "thm5.11":
            e = _load(f[0], "projection")
            s = _load(f[1], "symmetry")
            fp = as_projection(quad(s, e))
            _print_matrix("f", fp)
            pw = strong_perspectivity(ExchangeWitness(s, e, fp))
            _print_matrix("k", pw.common_complement)
            for name, value in pw.residuals().items():
                acc.observe(name, value, 1e-8)
        elif tid == "thm5.12":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            wcompl = _load(f[2], "projection")
            pw = PerspectivityWitness(e, fp, wcompl, ambient=None)
            s1, s2 = perspective_to_chain(pw)
            _print_matrix("s1", s1)
            _print_matrix("s2", s2)
            acc.observe("chain_carries_e_to_f", dist(quad(s2, quad(s1, e)), fp), 1e-8)
        elif tid == "lem5.6":
            e1, f1, s1 = (_load(f[0], "projection"), _load(f[1], "projection"),
                          _load(f[2], "symmetry"))
            e2, f2, s2 = (_load(f[3], "projection"), _load(f[4], "projection"),
                          _load(f[5], "symmetry"))
            s = finite_additivity(ExchangeWitness(s1, e1, f1), ExchangeWitness(s2, e2, f2))
            _print_matrix("s", s)
            acc.observe("exchanges_sums",
                        dist(quad(s, as_projection(e1 + e2)), as_projection(f1 + f2)), 1e-8)
        elif tid == "thm5.15":
            if len(f) % 3 != 0 or not f:
                raise ParseError("thm5.15 needs triples: e1 f1 s1 [e2 f2 s2 ...]")
            ws = []
            for i in range(0, len(f), 3):
                ws.append(ExchangeWitness(_load(f[i + 2], "symmetry"),
                                          _load(f[i], "projection"),
                                          _load(f[i + 1], "projection")))
            s = family_additivity(ws)
            _print_matrix("s", s)
            start = zero(ws[0].e.shape)
            esum = as_projection(sum((w.e for w in ws), start))
            fsum = as_projection(sum((w.f for w in ws), start))
            acc.observe("exchanges_sums", dist(quad(s, esum), fsum), 1e-8)
        elif tid == "thm8.3":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            d = orthogonal_decomposition(e, fp)
            for label, mat in (("e1", d.e1), ("e2", d.e2), ("f1", d.f1), ("f2", d.f2), ("s", d.s)):
                _print_matrix(label, mat)
            for name, value in d.residuals().items():
                acc.observe(name, value, 1e-8)
        elif tid == "thm8.5":
            e, fp = _load(f[0], "projection"), _load(f[1], "projection")
            res = generalized_comparability(e, fp)
            _print_matrix("h", res.h)
            _print_matrix("s", res.s)
            for name, value in res.residuals().items():
                acc.observe(name, value, 1e-9)
        elif tid == "thm8.6":
            p, d = _load(f[0], "projection"), _load(f[1], "projection")
            c = relative_center_witness(p, d)
            _print_matrix("c", c)
            acc.observe("central_cut_equals_d", dist(meet(c, p), d), 1e-8)
    except IndexError:
        print(f"usage error: {tid} needs more input files", file=sys.stderr)
        return USAGE_EXIT
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PreconditionError as exc:
        print(f"ERROR precondition {exc}")
        return FAIL_EXIT
    return _print_lines(acc.lines())


def cmd_spectra(args) -> int:
    try:
        a = _load(args.file, "element")
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    sr = spectral_resolution(a)
    for lam, q in sr.jumps:
        print(f"JUMP {lam:.12g} rank {q.rank()}")
    print(f"LOWER {sr.lower:.12g}")
    print(f"UPPER {sr.upper:.12g}")
    acc = Accumulator(prefix="spectra.")
    acc.observe("reconstruction", dist(sr.reconstruct(), a), 1e-8)
    return _print_lines(acc.lines())


def cmd_lattice(args) -> int:
    try:
        ps = [_load(path, "projection") for path in args.files]
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    for i, p in enumerate(ps):
        print(f"GAMMA p{i} mask " + "".join("1" if b else "0" for b in central_cover(p).block_mask))
    for i in range(len(ps)):
        for j in range(len(ps)):
            if i == j:
                continue
            print(f"PAIR p{i} p{j} meet_rank {meet(ps[i], ps[j]).rank()} "
                  f"join_rank {join(ps[i], ps[j]).rank()} "
                  f"sasaki_rank {sasaki(ps[i], ps[j]).rank()}")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            _print_matrix(f"meet_p{i}_p{j}", meet(ps[i], ps[j]))
            _print_matrix(f"join_p{i}_p{j}", join(ps[i], ps[j]))
            _print_matrix(f"sasaki_p{i}_p{j}", sasaki(ps[i], ps[j]))
    return 0


def cmd_compare(args) -> int:
    try:
        e = _load(args.e, "projection")
        f = _load(args.f, "projection")
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    res = generalized_comparability(e, f)
    _print_matrix("h", res.h)
    _print_matrix("s", res.s)
    acc = Accumulator(prefix="compare.")
    for name, value in res.residuals().items():
        acc.observe(name, value, 1e-9)
    return _print_lines(acc.lines())


def cmd_equiv(args) -> int:
    try:
        e = _load(args.e, "projection")
        f = _load(args.f, "projection")
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        w = equal_rank_chain(e, f)
    except PreconditionError as exc:
        print(f"VERDICT not-equivalent: {exc}")
        return FAIL_EXIT
    print(f"VERDICT equivalent chain_length {len(w.chain)}")
    for i, s in enumerate(w.chain.syms):
        _print_matrix(f"s{i + 1}", s)
    from .equivalence import equivalent_check
    acc = Accumulator(prefix="equiv.")
    acc.check("chain_validates", equivalent_check(w))
    return _print_lines(acc.lines())


def cmd_oml(args) -> int:
    if args.oml_command == "gen":
        try:
            l = boolean_oml(args.n) if args.family == "boolean" else mo_oml(args.n)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        sys.stdout.write(format_oml(l))
        return 0
    try:
        l = load_oml(args.file)
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.oml_command == "verify":
        acc = verify_oml(l, demorgan_cap=args.cap)
        code = _print_lines(acc.lines())
        if acc.passed:
            print(f"INFO elements {len(l)} modular {is_modular(l)} distributive {is_distributive(l)}")
        return code
    try:
        p, q = l.index(args.p), l.index(args.q)
    except KeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    rep = oml_perspectivity(l, p, q)
    print(f"COMPATIBLE {rep.compatible}")
    print(f"SASAKI {l.names[p]} {l.names[q]} -> {l.names[rep.sasaki_pq]}")
    print(f"SASAKI {l.names[q]} {l.names[p]} -> {l.names[rep.sasaki_qp]}")
    print("PERSPECTIVE " + (l.names[rep.perspective] if rep.perspective is not None else "none"))
    print("STRONGLY_PERSPECTIVE "
          + (l.names[rep.strongly_perspective] if rep.strongly_perspective is not None else "none"))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        handler = {
            "verify": cmd_verify,
            "witness": cmd_witness,
            "spectra": cmd_spectra,
            "lattice": cmd_lattice,
            "compare": cmd_compare,
            "equiv": cmd_equiv,
            "oml": cmd_oml,
        }[args.command]
        return handler(args)
    except SynalgError as exc:
        print(f"ERROR {type(exc).__name__} {exc}")
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
