"""The benchmark's tracer still finds what it patches in synalg.

``bench/tracing.py`` wraps synalg functions and methods by name.  A rename
would make it trace nothing there and report zeros, so this test resolves
every name it lists, and runs the benchmark's own self-test in a child
process.  Nothing under ``bench/`` is written.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import synalg.suites

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _resolve(dotted: str):
    """Follow `module.Name[.attr]` in synalg, requiring each name to be defined there."""
    short, *attrs = dotted.split(".")
    obj = importlib.import_module(f"synalg.{short}")
    for attr in attrs:
        owner = obj
        assert attr in vars(owner), f"{dotted}: {attr!r} is not defined on {owner.__name__}"
        obj = vars(owner)[attr]
        if inspect.ismodule(owner) and inspect.isfunction(obj):
            assert obj.__module__ == owner.__name__, f"{dotted} is imported, not defined, there"
    return obj


def test_traced_names_resolve():
    tr = _load_tracing()
    names = [".".join(m) for m in tr.METHODS]
    names += list(tr.PER_FUNCTION) + list(tr.OML_SPLIT) + list(tr.COMPLEMENT_PAIR)
    names += [tr.RNG_SYMMETRY, "core.Element.block_eig", "oml.FiniteOml._bound_tables"]
    suites = set(tr.SUITES) | set(synalg.suites.SUITE_NAMES)
    names += [f"suites.run_{s}_suite" for s in sorted(suites)]
    for name in names:
        assert callable(_resolve(name)), name


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, str(BENCH / "selftest.py")], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
