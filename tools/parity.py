"""Byte parity of two synalg source trees over a fixed command set.

Runs each command once per tree, each in its own interpreter with that
tree on ``PYTHONPATH``, and compares stdout, stderr and exit code.  Prints
``DIFF <command>`` for each command whose outputs differ and a summary line,
and exits 1 if any differ::

    python3 tools/parity.py OLD/src NEW/src
    python3 tools/parity.py OLD/src NEW/src --ops DIR      # also every call in DIR/ops.json
    python3 tools/parity.py OLD/src NEW/src -k thm5.8      # only commands containing "thm5.8"
    python3 tools/parity.py OLD/src NEW/src --import-times 12

The command set is ``verify`` at seeds 42 and 7 on shapes 2,3, 4 and
1,1,1,1, and at seed 42 on 8,8 and 5,7,3; ``verify --seed 42`` at
``--trials`` 1 and 2 (stacks of one and two trials); ``verify --seed 3
--trials 6 --tol proj=1e-15``; the 28 file-golden commands of
``tests/test_golden.py`` on the inputs its ``write_inputs`` builds; and
``oml verify`` and ``oml report`` on ``oml gen boolean 6`` (pair a, b) and
``oml gen mo 31`` (pair a1, a2).
``--ops DIR`` adds every call of a ``bench/prepare.py`` output directory,
run inside DIR.  ``--import-times N`` times ``import synalg.cli`` in N fresh
interpreters per tree, alternating, and prints the median and quartiles.

Needs only the standard library; the inputs are written with this
checkout's ``src`` and ``tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = [["verify", "--seed", seed, "--shape", shape]
          for seed in ("42", "7") for shape in ("2,3", "4", "1,1,1,1")]
VERIFY += [["verify", "--seed", "42", "--shape", shape] for shape in ("8,8", "5,7,3")]
VERIFY += [["verify", "--seed", "42", "--trials", trials] for trials in ("1", "2")]
VERIFY.append(["verify", "--seed", "3", "--trials", "6", "--tol", "proj=1e-15"])
OML = {"boolean6.oml": (["boolean", "6"], ["a", "b"]), "mo31.oml": (["mo", "31"], ["a1", "a2"])}
WRITE_INPUTS = """
import json, sys
from pathlib import Path
from test_golden import FILE_CASES, write_inputs
write_inputs(Path(sys.argv[1]))
print(json.dumps(sorted(FILE_CASES.items())))
"""


def _env(src: Path, *extra: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (src, *extra))
    return env


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m synalg argv`` on one tree."""
    proc = subprocess.run([sys.executable, "-m", "synalg", *argv], cwd=cwd, env=_env(src),
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def commands(work: Path, ops_dirs: list[Path]) -> list[tuple[list[str], Path]]:
    """Every (argv, cwd) of the command set; writes the inputs into `work`."""
    src = ROOT / "src"
    out = subprocess.run([sys.executable, "-c", WRITE_INPUTS, str(work)], env=_env(src, ROOT / "tests"),
                         capture_output=True, text=True, check=True).stdout
    cmds = [(argv, work) for argv in VERIFY]
    for _, args in json.loads(out):
        k = 2 if args[0] == "witness" else 1
        cmds.append((args[:k] + [f"{a}.mat" for a in args[k:]], work))
    for name, (gen, pair) in OML.items():
        (work / name).write_text(run(src, ["oml", "gen", *gen], work)[1], encoding="ascii")
        cmds += [(["oml", "verify", name], work), (["oml", "report", name, *pair], work)]
    for d in ops_dirs:
        spec = json.loads((d / "ops.json").read_text(encoding="ascii"))
        cmds.extend((call["argv"], d) for op in spec["ops"] for call in op["calls"])
    return cmds


def import_times(old: Path, new: Path, n: int) -> None:
    """Time ``import synalg.cli`` in n fresh interpreters per tree, alternating."""
    times: dict[str, list[float]] = {"old": [], "new": []}
    for i in range(n):
        order = (("old", old), ("new", new)) if i % 2 == 0 else (("new", new), ("old", old))
        for side, src in order:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import synalg.cli"], env=_env(src), check=True)
            times[side].append(time.perf_counter() - t0)
    for side, ts in times.items():
        q1, med, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else (ts[0],) * 3
        print(f"# import {side} median {med:.4f} s [q1 {q1:.4f}, q3 {q3:.4f}] n={len(ts)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="src directory of the first tree")
    ap.add_argument("new", type=Path, help="src directory of the second tree")
    ap.add_argument("--ops", type=Path, action="append", default=[],
                    help="a bench/prepare.py output directory whose calls to add")
    ap.add_argument("-k", dest="match", default="", help="run only commands containing this text")
    ap.add_argument("--import-times", type=int, default=0, metavar="N")
    args = ap.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    if args.import_times:
        import_times(old, new, args.import_times)
        return 0
    diffs = ran = 0
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, cwd in commands(Path(tmp), [d.resolve() for d in args.ops]):
            text = " ".join(cmd)
            if args.match not in text:
                continue
            ran += 1
            if run(old, cmd, cwd) != run(new, cmd, cwd):
                diffs += 1
                print(f"DIFF {text}", flush=True)
    print(f"# parity commands={ran} differ={diffs}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
