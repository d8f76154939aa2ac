"""Generate one workload's inputs from its seed and write them to a directory.

Run as a script, this is the benchmark's set-up step: a fresh interpreter
imports ``synalg.cli`` from the checkout's ``src`` and writes the inputs, so
its wall time is what a user pays before the first command runs::

    python3 bench/prepare.py --workload witness-files --seed 42 --out DIR

The inputs are plain files plus ``ops.json``, which lists every operation as
CLI calls (argv relative to DIR) with the output each call must produce.
The program under test only ever sees these files and argv lists.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-default", "witness-files", "oml-lattices")

# Enough distinct operations that a run of up to 60 s never cycles
# verify-default; witness-files cycles through its 32 ops of two pairs each.
VERIFY_OPS = 64
WITNESS_PAIRS = 64
WITNESS_BLOCKS = (8, 8)
WITNESS_COMMANDS = (
    ("witness", "thm5.8", "e", "f"),
    ("witness", "thm5.9i", "e", "f"),
    ("witness", "thm5.9ii", "e", "f"),
    ("witness", "thm5.11", "e", "s"),
    ("witness", "thm8.3", "e", "f"),
    ("compare", "e", "f"),
    ("equiv", "e", "f"),
    ("lattice", "e", "f"),
)


def verify_seed(seed: int, i: int) -> int:
    """Seed of verify op i; op 0 is ``verify --seed <seed>`` itself."""
    return seed + 1000 * i


def _call(argv, tag, exit_code=0, result="PASS", lines=(), prefixes=()):
    return {"argv": list(argv), "tag": tag,
            "expect": {"exit": exit_code, "result": result,
                       "lines": list(lines), "prefixes": list(prefixes)}}


# -- verify-default -----------------------------------------------------------

def verify_ops(seed: int) -> list[dict]:
    ops = []
    for i in range(VERIFY_OPS):
        s = verify_seed(seed, i)
        argv = ["verify", "--seed", str(s), "--shape", "2,3", "--suites", "all", "--trials", "30"]
        ops.append({"seed": s, "calls": [_call(argv, "verify")]})
    return ops


# -- witness-files ------------------------------------------------------------

def _random_projection(rng: np.random.Generator, ranks) -> np.ndarray:
    n = sum(WITNESS_BLOCKS)
    p = np.zeros((n, n))
    start = 0
    for b, r in zip(WITNESS_BLOCKS, ranks):
        q, _ = np.linalg.qr(rng.standard_normal((b, b)))
        p[start:start + b, start:start + b] = q[:, :r] @ q[:, :r].T
        start += b
    return 0.5 * (p + p.T)


def _write_matrix(path: Path, m: np.ndarray) -> None:
    rows = "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in m)
    path.write_text("shape " + " ".join(map(str, WITNESS_BLOCKS)) + "\n" + rows, encoding="ascii")


def _lattice_expectations(re_, rf) -> list[str]:
    """Ranks that two subspaces in general position must have, per block."""
    blocks = list(zip(re_, rf, WITNESS_BLOCKS))
    meet = sum(max(0, x + y - n) for x, y, n in blocks)
    join = sum(min(n, x + y) for x, y, n in blocks)
    sasaki = sum(min(x, y) for x, y, _ in blocks)
    pair = f"meet_rank {meet} join_rank {join} sasaki_rank {sasaki}"
    return [f"GAMMA p0 mask {''.join('1' if r else '0' for r in re_)}",
            f"GAMMA p1 mask {''.join('1' if r else '0' for r in rf)}",
            f"PAIR p0 p1 {pair}", f"PAIR p1 p0 {pair}"]


def _witness_pair(rng: np.random.Generator, i: int, equal: bool, out: Path) -> dict:
    """Write pair i (e, f and a symmetry s) and return its calls and block ranks."""
    n = sum(WITNESS_BLOCKS)
    re_ = tuple(int(r) for r in rng.integers(1, 8, size=len(WITNESS_BLOCKS)))
    rf = re_
    while not equal and rf == re_:
        rf = tuple(int(r) for r in rng.integers(1, 8, size=len(WITNESS_BLOCKS)))
    rs = tuple(int(r) for r in rng.integers(0, 9, size=len(WITNESS_BLOCKS)))
    files = {"e": f"pair{i:02d}_e.mat", "f": f"pair{i:02d}_f.mat", "s": f"pair{i:02d}_s.mat"}
    _write_matrix(out / files["e"], _random_projection(rng, re_))
    _write_matrix(out / files["f"], _random_projection(rng, rf))
    _write_matrix(out / files["s"], 2.0 * _random_projection(rng, rs) - np.eye(n))
    calls = []
    for cmd in WITNESS_COMMANDS:
        argv = [files.get(a, a) for a in cmd]
        tag = cmd[1] if cmd[0] == "witness" else cmd[0]
        if cmd[0] == "equiv" and not equal:
            calls.append(_call(argv, tag, exit_code=1, result=None,
                               prefixes=["VERDICT not-equivalent"]))
        elif cmd[0] == "equiv":
            calls.append(_call(argv, tag, prefixes=["VERDICT equivalent chain_length "]))
        elif cmd[0] == "lattice":
            calls.append(_call(argv, tag, result=None, lines=_lattice_expectations(re_, rf)))
        else:
            calls.append(_call(argv, tag))
    return {"pair": i, "ranks_e": re_, "ranks_f": rf, "calls": calls}


def witness_ops(seed: int, out: Path) -> list[dict]:
    """One op per two pairs: an equal-rank pair, then an unequal one.

    Every op does the same mix of work (one equivalence chain, one
    not-equivalent verdict), so op times form one population.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(WITNESS_PAIRS // 2):
        pairs = [_witness_pair(rng, 2 * k + j, j == 0, out) for j in range(2)]
        ops.append({"seed": seed, "pairs": [p["pair"] for p in pairs],
                    "ranks": [(p["ranks_e"], p["ranks_f"]) for p in pairs],
                    "calls": pairs[0]["calls"] + pairs[1]["calls"]})
    return ops


# -- oml-lattices -------------------------------------------------------------

def oml_ops(seed: int, out: Path) -> list[dict]:
    from synalg.oml import boolean_oml, format_oml, mo_oml

    rng = np.random.default_rng(seed)
    calls = []
    for tag, lattice, distributive in (("boolean64", boolean_oml(6), True),
                                       ("mo64", mo_oml(31), False)):
        lines = format_oml(lattice).splitlines()
        order = rng.permutation(len(lines))
        (out / f"{tag}.oml").write_text("".join(lines[k] + "\n" for k in order), encoding="ascii")
        info = f"INFO elements 64 modular True distributive {distributive}"
        calls.append(_call(["oml", "verify", f"{tag}.oml"], tag, lines=[info]))
    return [{"seed": seed, "calls": calls}]


def prepare(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of `workload` for `seed` into `out`; return the op list."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "verify-default":
        ops = verify_ops(seed)
        warmup = [_call(["verify", "--seed", str(seed), "--trials", "1"], "verify")]
    elif workload == "witness-files":
        ops = witness_ops(seed, out)
        warmup = ops[0]["calls"]
    elif workload == "oml-lattices":
        ops = oml_ops(seed, out)
        from synalg.oml import boolean_oml, format_oml

        (out / "warmup.oml").write_text(format_oml(boolean_oml(2)), encoding="ascii")
        warmup = [_call(["oml", "verify", "warmup.oml"], "warmup",
                        lines=["INFO elements 4 modular True distributive True"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec = {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops}
    (out / "ops.json").write_text(json.dumps(spec), encoding="ascii")
    return spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import synalg.cli  # noqa: F401  (import cost is part of set-up)
    prepare(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
