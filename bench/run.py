"""synalg benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload verify-default --seed 42 --seconds 30 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory.  Set-up runs ``bench/prepare.py`` in fresh interpreters and times
them.  The timed loop then calls ``synalg.cli.main`` in this process, one
operation after another on one thread, and checks every call's output.

The host this was written on changes speed by up to 1.9x, from one
fraction of a second to the next and in levels that last a minute, so times
are taken relative to a fixed reference: blocks of the benchmark's own code
that call nothing in synalg (`reference_blocks`), run after every op and
every set-up for a tenth of its time.  Each time is scaled by
``REF_NOMINAL_S / mean time of the blocks just before and just after it``
(their median for set-up times), so it reads as seconds on a host where a
block takes its nominal time.  The raw wall times are printed beside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then traced (see ``tracing.py``), checks that both
print the same bytes and that the first operation's counts repeat exactly,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One thread, as the benchmark's single client; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import prepare
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10
# A reference block is interpreter and small-LAPACK work, the mix synalg's
# operations are made of.  REF_NOMINAL_S is about a block's median time on
# the 2-vCPU x86_64 host the baselines were taken on.
REF_SHARE = 0.1
REF_MIN_BLOCKS = 3
REF_NOMINAL_S = 0.0035
_REF_MATRIX = np.random.default_rng(0).standard_normal((5, 5))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB"}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  The sample with exactly
    ten larger ones sits at percentile 100 * (n - 10) / n.  Below 20
    samples that percentile would lie under the median, so the median is
    reported instead, with the n // 2 samples beyond it.
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(samples), 50.0, n // 2
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def reference_blocks(seconds: float) -> list[float]:
    """Run reference blocks for about `seconds`; return each block's time."""
    times = []
    t_end = time.perf_counter() + seconds
    while len(times) < REF_MIN_BLOCKS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        acc = {}
        for i in range(8000):
            acc[i % 97] = acc.get(i % 97, 0) + i * i
        a = _REF_MATRIX
        for _ in range(40):
            w, v = np.linalg.eigh(a)
            a = (v * w) @ v.T
            np.linalg.norm(a, 2)
        times.append(time.perf_counter() - t0)
    return times


def scaled(times: list[float], blocks: list[list[float]], typical=statistics.fmean) -> list[float]:
    """Each time taken to the nominal reference speed.

    ``blocks[k]`` are the reference blocks run just before ``times[k]`` and
    ``blocks[k + 1]`` those run just after it; ``typical`` of them is the
    block time of that moment.
    """
    return [t * REF_NOMINAL_S / typical(blocks[k] + blocks[k + 1]) for k, t in enumerate(times)]


def check_call(expect: dict, code: int, out: str) -> str | None:
    """Why the output of one CLI call is wrong, or None when it is right."""
    lines = out.splitlines()
    bad = [l for l in lines if l.startswith(("ERROR", "CHECK")) and not l.endswith(" PASS")]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}" + (f": {bad[0]}" if bad else "")
    if bad:
        return bad[0]
    present = set(lines)
    if expect["result"] is not None and "RESULT " + expect["result"] not in present:
        return f"no line 'RESULT {expect['result']}'"
    for want in expect["lines"]:
        if want not in present:
            return f"missing line {want!r}"
    for prefix in expect["prefixes"]:
        if not any(l.startswith(prefix) for l in lines):
            return f"no line starts with {prefix!r}"
    return None


def run_call(main, call: dict) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(call["argv"])
    return code, out.getvalue()


class Op:
    """One operation: its CLI calls in order, timed together."""

    def __init__(self, spec: dict):
        self.spec = spec

    def label(self) -> str:
        extra = f" pairs={','.join(map(str, self.spec['pairs']))}" if "pairs" in self.spec else ""
        return f"seed={self.spec['seed']}{extra}"

    def run(self, main, tracer=None) -> tuple[float, list[tuple[int, str]], str | None]:
        """Run every call; return (seconds, outputs, first failure or None)."""
        outputs = []
        t0 = time.perf_counter()
        try:
            for call in self.spec["calls"]:
                if tracer is None:
                    outputs.append(run_call(main, call))
                else:
                    outputs.append(tracer.call(call["tag"], run_call, main, call))
        except Exception as exc:  # an exception is a failed op, not a crashed benchmark
            return time.perf_counter() - t0, outputs, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        for call, (code, text) in zip(self.spec["calls"], outputs):
            why = check_call(call["expect"], code, text)
            if why is not None:
                return dt, outputs, f"{' '.join(call['argv'])}: {why}"
        return dt, outputs, None


def setup(workload: str, seed: int, work: Path) -> tuple[list[float], list[list[float]], dict]:
    """Prepare the inputs SETUP_REPEATS times in fresh interpreters.

    Returns the wall times, the reference blocks run around them (see
    `scaled`) and the op list.
    """
    times, blocks = [], [reference_blocks(0.0)]
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(work)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.Popen(argv)
        # A blocking wait sees the exit at once; wait(timeout=...) polls every
        # 50 ms, which would round set-up times up to that grid.  The timer
        # only kills a hung child.
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        code = child.wait()
        times.append(time.perf_counter() - t0)
        killer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        blocks.append(reference_blocks(REF_SHARE * times[-1]))
    return times, blocks, json.loads((work / "ops.json").read_text(encoding="ascii"))


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"METRIC {name} {value:.9g} {unit}" + (f"  # {note}" if note else ""))


def timed_loop(ops: list[Op], main,
               seconds: float) -> tuple[list[float], list[list[float]], list[str]]:
    """Closed loop with one client: start the next op when the last ends.

    Returns the op wall times, the reference blocks run around them (see
    `scaled`) and the failed ops.
    """
    times, blocks, failures = [], [reference_blocks(0.0)], []
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        op = ops[i % len(ops)]
        dt, _, why = op.run(main)
        times.append(dt)
        blocks.append(reference_blocks(REF_SHARE * dt))
        if why is not None:
            failures.append(f"op={i} {op.label()} {why}")
        i += 1
    return times, blocks, failures


def traced_loop(ops: list[Op], main, seconds: float, spans_out: Path):
    """Each op untraced, then traced; then op 0 traced again for the counts.

    Returns untraced and traced op times, failed ops, the benchmark's own
    inconsistencies (counts that do not repeat) and each op's layer metrics.
    """
    plain, traced, failures, per_op = [], [], [], []
    first = None
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        op = ops[i % len(ops)]
        dt, outs, why = op.run(main)
        plain.append(dt)
        with tracing.Tracer() as tr:
            tdt, touts, twhy = op.run(main, tr)
        traced.append(tdt)
        why = why or twhy
        if why is None and touts != outs:
            why = "traced output differs from untraced output"
        if why is not None:
            failures.append(f"op={i} {op.label()} {why}")
        per_op.append(tracing.aggregate(tr))
        if i == 0:
            first = tr
        i += 1
    with tracing.Tracer() as again:
        ops[0].run(main, again)
    counts_again = tracing.aggregate(again)
    diff = [k for k in tracing.COUNT_METRICS if per_op[0][k] != counts_again[k]]
    problems = []
    if diff:
        problems.append(f"op=0 {ops[0].label()} counts differ between two traced runs: {diff}")
    first.write(spans_out)
    return plain, traced, failures, problems, per_op


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="synalg benchmark (one workload, one seed)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in prepare.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {prepare.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "synalg" / "cli.py").is_file():
        print(f"no synalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cwd = os.getcwd()
    problems: list[str] = []
    try:
        setup_times, setup_blocks, spec = setup(args.workload, args.seed, work)
        import synalg
        from synalg.cli import main as cli_main

        if not Path(synalg.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"imported synalg from {synalg.__file__}, not from this checkout",
                  file=sys.stderr)
            return 2
        os.chdir(work)
        ops = [Op(o) for o in spec["ops"]]
        _, _, why = Op({"seed": args.seed, "calls": spec["warmup"]}).run(cli_main)
        if why is not None:
            problems.append(f"warm-up: {why}")
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} loop=closed clients=1 threads=1")
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
            plain, traced, failures, inconsistent, per_op = traced_loop(
                ops, cli_main, args.seconds, spans)
            problems += inconsistent
            attempted = len(plain)
            units = tracing.METRICS
            metrics = dict(per_op[0])
            for k, unit in units.items():
                if unit == "s" and not k.startswith("trace."):
                    metrics[k] = statistics.median(m[k] for m in per_op)
            base = statistics.median(plain)
            metrics["trace.base_p50_s"] = base
            metrics["trace.overhead_ratio"] = (statistics.median(traced) - base) / base
            print(f"# counts are op 0 ({ops[0].label()}); times are medians over "
                  f"{len(per_op)} traced ops; spans of op 0 in {spans.name}")
        else:
            wall, blocks, failures = timed_loop(ops, cli_main, args.seconds)
            times = scaled(wall, blocks)
            attempted = len(times)
            value, pct, beyond = tail(times)
            metrics = {
                # Blocks right after a set-up child exits catch its teardown
                # as spikes of 10-25 ms; their median ignores those, so a
                # heavier set-up cannot shrink its own scale.
                "setup_s": statistics.median(scaled(setup_times, setup_blocks, statistics.median)),
                "ops_per_s": attempted / sum(times),
                "op_p50_s": statistics.median(times),
                "op_tail_s": value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            notes = {"setup_s": f"median of {SETUP_REPEATS}; wall "
                                f"{statistics.median(setup_times):.4g} s",
                     "ops_per_s": f"wall {attempted / sum(wall):.4g} 1/s",
                     "op_p50_s": f"wall {statistics.median(wall):.4g} s",
                     "op_tail_s": f"p{pct:.4g} of n={attempted}, {beyond} samples beyond; "
                                  f"wall {tail(wall)[0]:.4g} s"}
            in_loop = [b for g in blocks for b in g]
            in_setup = [b for g in setup_blocks for b in g]
            print(f"# reference block: mean {statistics.fmean(in_loop):.4g} s over "
                  f"{len(in_loop)} blocks in the loop, {statistics.fmean(in_setup):.4g} s "
                  f"over {len(in_setup)} in set-up; nominal {REF_NOMINAL_S} s")
        for k, unit in units.items():
            emit(k, metrics[k], unit, "" if args.trace else notes.get(k, ""))
        emit("fail_ratio", len(failures) / attempted, "ratio", f"{len(failures)}/{attempted}")
        for f in failures:
            print(f"FAILED_OP {f}")
        for p in problems:
            print(f"INCONSISTENT {p}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
