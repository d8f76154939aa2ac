"""Command-line front end.

Subcommands: `verify` (seeded property suites), `witness` (explicit
theorem constructions on matrix files), `spectra`, `lattice`, `compare`,
`equiv`, and the `oml` group (verify / report / gen).  Reports are
line-oriented: one `CHECK <name> <residual> <tol> PASS|FAIL` per check.

Exit codes: 0 all checks pass, 1 any FAIL (or a violated construction
precondition), 2 usage or I/O errors.  Identical invocations produce
byte-identical output for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
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
    equivalent_check,
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

class UsageError(Exception):
    """Bad command-line input that argument parsing cannot see."""


def _parse_shape(text: str) -> ModelShape:
    try:
        return ModelShape(tuple(int(t) for t in text.split(",") if t))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}")


def _parse_tol(pairs: list[str]) -> Tolerances:
    tol = DEFAULT_TOL
    fields = set(tol.__dataclass_fields__)
    for item in pairs:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected name=value, got {item!r}")
        name, _, value = item.partition("=")
        if name not in fields:
            raise argparse.ArgumentTypeError(f"unknown tolerance {name!r}")
        tol = replace(tol, **{name: float(value)})
    return tol


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="synalg", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run seeded property suites")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--trials", type=int, default=30)
    v.add_argument("--shape", type=_parse_shape, default="2,3")
    v.add_argument("--suites", default="all",
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
    suites = tuple(SUITE_NAMES) if args.suites == "all" else tuple(args.suites.split(","))
    try:
        cfg = SuiteConfig(seed=args.seed, trials=args.trials, shape=args.shape,
                          tolerances=_parse_tol(args.tol), suites=suites)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(exc) from exc
    print(f"# verify seed={cfg.seed} trials={cfg.trials} shape={cfg.shape} "
          f"suites={','.join(s for s in SUITE_NAMES if s in cfg.suites)}")
    return _print_lines(run_suites(cfg))


def _read(reader, path, *args):
    """reader(path, *args), naming the file when it cannot be read or decoded."""
    try:
        return reader(path, *args)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_all(paths, kinds) -> list:
    """Load each path as the kind of the same position; all shapes must agree."""
    values = [_read(read_matrix, path, kind) for path, kind in zip(paths, kinds)]
    if len({v.shape for v in values}) > 1:
        raise UsageError("input files have different shapes")
    return values


# -- witness constructions ----------------------------------------------------
# Each builder takes the loaded input values and returns the matrices to print
# and the named residuals.  It calls each construction by its module-level name
# at call time, so a wrapped construction is the one called.

def _thm5_8(e, f):
    s = exchange_efe_fef(e, f)
    return {"s": s}, {"efe_to_fef": dist(quad(s, quad(e, f)), quad(f, e)),
                      "sasaki_conjugation": dist(quad(s, sasaki(e, f)), sasaki(f, e))}


def _thm5_9i(e, f):
    w = sasaki_exchange(e, f)
    return {"s": w.s, "sasaki_ef": w.e, "sasaki_fe": w.f}, {"exchanged": w.residual()}


def _thm5_9ii(e, f):
    w = parallelogram_exchange(e, f)
    return {"s": w.s, "e_minus_meet": w.e, "join_minus_f": w.f}, {"exchanged": w.residual()}


def _thm5_9iii(e, f):
    s = complement_exchange(e, f)
    target = as_projection(Element(e.shape, np.eye(e.shape.dim) - f.data))
    return {"s": s}, {"exchanges_e_with_ortho_f": dist(quad(s, e), target)}


def _thm5_11(e, s):
    f = as_projection(quad(s, e))
    pw = strong_perspectivity(ExchangeWitness(s, e, f))
    return {"f": f, "k": pw.common_complement}, pw.residuals()


def _thm5_12(e, f, w):
    s1, s2 = perspective_to_chain(PerspectivityWitness(e, f, w, ambient=None))
    return {"s1": s1, "s2": s2}, {"chain_carries_e_to_f": dist(quad(s2, quad(s1, e)), f)}


def _lem5_6(e1, f1, s1, e2, f2, s2):
    s = finite_additivity(ExchangeWitness(s1, e1, f1), ExchangeWitness(s2, e2, f2))
    return {"s": s}, {"exchanges_sums": dist(quad(s, as_projection(e1 + e2)), as_projection(f1 + f2))}


def _thm5_15(*vals):
    ws = [ExchangeWitness(vals[i + 2], vals[i], vals[i + 1]) for i in range(0, len(vals), 3)]
    s = family_additivity(ws)
    start = zero(ws[0].e.shape)
    esum = as_projection(sum((w.e for w in ws), start))
    fsum = as_projection(sum((w.f for w in ws), start))
    return {"s": s}, {"exchanges_sums": dist(quad(s, esum), fsum)}


def _thm8_3(e, f):
    d = orthogonal_decomposition(e, f)
    return {"e1": d.e1, "e2": d.e2, "f1": d.f1, "f2": d.f2, "s": d.s}, d.residuals()


def _thm8_5(e, f):
    res = generalized_comparability(e, f)
    return {"h": res.h, "s": res.s}, res.residuals()


def _thm8_6(p, d):
    c = relative_center_witness(p, d)
    return {"c": c}, {"central_cut_equals_d": dist(meet(c, p), d)}


class _Witness(NamedTuple):
    kinds: str  # one letter per input file: p a projection, s a symmetry
    build: Callable  # input values -> (matrices to print, named residuals)
    tol: float = 1e-8
    repeats: bool = False  # takes any positive number of groups of `kinds`


WITNESSES = {
    "thm5.8": _Witness("pp", _thm5_8),
    "thm5.9i": _Witness("pp", _thm5_9i),
    "thm5.9ii": _Witness("pp", _thm5_9ii),
    "thm5.9iii": _Witness("pp", _thm5_9iii),
    "thm5.11": _Witness("ps", _thm5_11),
    "thm5.12": _Witness("ppp", _thm5_12),
    "lem5.6": _Witness("ppspps", _lem5_6),
    "thm5.15": _Witness("pps", _thm5_15, repeats=True),
    "thm8.3": _Witness("pp", _thm8_3),
    "thm8.5": _Witness("pp", _thm8_5, 1e-9),
    "thm8.6": _Witness("pp", _thm8_6),
}
WITNESS_IDS = tuple(WITNESSES)
KINDS = {"p": "projection", "s": "symmetry"}


def _run_witness(tid: str, paths, prefix: str) -> int:
    """Load the inputs of construction tid, print its matrices and judge its residuals."""
    w = WITNESSES[tid]
    vals = _load_all(paths, (KINDS[k] for k in itertools.cycle(w.kinds)))
    matrices, residuals = w.build(*vals)
    for label, value in matrices.items():
        _print_matrix(label, value)
    acc = Accumulator()
    for name, value in residuals.items():
        acc.observe(prefix + name, value, w.tol)
    return _print_lines(acc.lines())


def cmd_witness(args) -> int:
    tid = args.theorem
    if tid not in WITNESSES:
        raise UsageError(f"unknown construction id {tid!r}; expected one of "
                         + ", ".join(WITNESS_IDS))
    f, need = args.files, len(WITNESSES[tid].kinds)
    if WITNESSES[tid].repeats:
        ok, what = len(f) > 0 and len(f) % need == 0, f"a positive multiple of {need}"
    else:
        ok, what = len(f) == need, str(need)
    if not ok:
        raise UsageError(f"{tid} takes {what} input files, got {len(f)}")
    try:
        return _run_witness(tid, f, f"witness.{tid}.")
    except PreconditionError as exc:
        print(f"ERROR precondition {exc}")
        return FAIL_EXIT


def cmd_spectra(args) -> int:
    a = _read(read_matrix, args.file, "element")
    sr = spectral_resolution(a)
    for lam, q in sr.jumps:
        print(f"JUMP {lam:.12g} rank {q.rank()}")
    print(f"LOWER {sr.lower:.12g}")
    print(f"UPPER {sr.upper:.12g}")
    acc = Accumulator()
    acc.observe("spectra.reconstruction", dist(sr.reconstruct(), a), 1e-8)
    return _print_lines(acc.lines())


def cmd_lattice(args) -> int:
    ps = _load_all(args.files, itertools.repeat("projection"))
    for i, p in enumerate(ps):
        print(f"GAMMA p{i} mask " + "".join("1" if b else "0" for b in central_cover(p).block_mask))
    pairs = {}
    for i, j in itertools.permutations(range(len(ps)), 2):
        m, jn, s = pairs[i, j] = meet(ps[i], ps[j]), join(ps[i], ps[j]), sasaki(ps[i], ps[j])
        print(f"PAIR p{i} p{j} meet_rank {m.rank()} join_rank {jn.rank()} sasaki_rank {s.rank()}")
    for (i, j), ops in pairs.items():
        if i < j:
            for name, x in zip(("meet", "join", "sasaki"), ops):
                _print_matrix(f"{name}_p{i}_p{j}", x)
    return 0


def cmd_compare(args) -> int:
    """Generalized comparability: the thm8.5 construction under its own prefix."""
    return _run_witness("thm8.5", (args.e, args.f), "compare.")


def cmd_equiv(args) -> int:
    e, f = _load_all((args.e, args.f), ("projection", "projection"))
    try:
        w = equal_rank_chain(e, f)
    except PreconditionError as exc:
        print(f"VERDICT not-equivalent: {exc}")
        return FAIL_EXIT
    print(f"VERDICT equivalent chain_length {len(w.chain)}")
    for i, s in enumerate(w.chain.syms):
        _print_matrix(f"s{i + 1}", s)
    acc = Accumulator()
    acc.check("equiv.chain_validates", equivalent_check(w))
    return _print_lines(acc.lines())


def cmd_oml(args) -> int:
    if args.oml_command == "gen":
        try:
            l = boolean_oml(args.n) if args.family == "boolean" else mo_oml(args.n)
        except ValueError as exc:
            raise UsageError(exc) from exc
        sys.stdout.write(format_oml(l))
        return 0
    l = _read(load_oml, args.file)
    if args.oml_command == "verify":
        acc = verify_oml(l)
        code = _print_lines(acc.lines())
        if acc.passed:
            print(f"INFO elements {len(l)} modular {is_modular(l)} distributive {is_distributive(l)}")
        return code
    try:
        p, q = l.index(args.p), l.index(args.q)
    except KeyError as exc:
        raise UsageError(exc) from exc
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (OSError, ParseError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SynalgError as exc:
        print(f"ERROR {type(exc).__name__} {exc}")
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
