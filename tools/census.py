"""Census of wrong verdicts: the full `verify` suites over many seeds and shapes.

Runs `run_suites` with every suite for each (shape, seed) pair and prints
each FAIL line with its shape and seed; a run that raises prints one FAIL
line with the exception.  Exits 1 if any run failed, else 0.  The default
covers seeds 1..100 at each of 2,3, 4, 1,1,1,1, 8,8 and 5,7,3 with 30
trials, as `synalg verify --trials 30` would::

    python3 tools/census.py                       # 500 runs, one worker per CPU
    python3 tools/census.py --seeds 2 --shapes 2,3 --trials 3 --workers 1

Needs only the standard library and numpy; it imports synalg from this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import multiprocessing
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from synalg import suites  # noqa: E402
from synalg.core import ModelShape  # noqa: E402

SHAPES = ("2,3", "4", "1,1,1,1", "8,8", "5,7,3")


def run_one(job: tuple[str, int, int]) -> list[str]:
    """The FAIL lines of one `verify --suites all` run, each tagged with its shape and seed."""
    shape, seed, trials = job
    tag = f"FAIL shape={shape} seed={seed}"
    cfg = suites.SuiteConfig(seed=seed, trials=trials, shape=ModelShape(tuple(map(int, shape.split(",")))))
    try:
        lines = suites.run_suites(cfg)
    except Exception as exc:  # a crash is a wrong verdict too
        return [f"{tag} ERROR {type(exc).__name__} {exc}"]
    return [f"{tag} {line.format()}" for line in lines if not line.passed]


def _print_fails(results) -> int:
    """Print the FAIL lines of each run in job order; return how many runs failed."""
    failed_runs = 0
    for fails in results:
        failed_runs += bool(fails)
        for line in fails:
            print(line, flush=True)
    return failed_runs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shapes", nargs="+", default=list(SHAPES), metavar="SHAPE")
    ap.add_argument("--seeds", type=int, default=100, help="run seeds 1..SEEDS at each shape")
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="worker processes, at most one per CPU")
    args = ap.parse_args(argv)
    workers = max(1, min(args.workers, os.cpu_count() or 1))
    jobs = [(shape, seed, args.trials) for shape in args.shapes
            for seed in range(1, args.seeds + 1)]
    start = time.perf_counter()
    if workers == 1:
        failed_runs = _print_fails(map(run_one, jobs))
    else:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            failed_runs = _print_fails(pool.imap(run_one, jobs))
    print(f"# census runs={len(jobs)} failed={failed_runs} trials={args.trials} workers={workers} "
          f"wall={time.perf_counter() - start:.1f}s")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
