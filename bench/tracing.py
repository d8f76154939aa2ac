"""Outside-in tracing of synalg's layers, from the benchmark's own files.

`Tracer` replaces every public function of each layer module with a wrapper
that records a span (name, start, end, parent), in every ``synalg.*``
namespace that binds the function, because ``from .core import carrier``
keeps its own reference.  It also counts ``numpy.linalg`` calls.  Spans stay
in memory in flat arrays; `aggregate` turns one operation's spans into the
per-layer metrics.  Patching is undone when the tracer's context exits, so
untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Module -> layer.  rng belongs to the suites layer.
MODULE_LAYER = {
    "core": "core", "lattice": "lattice", "symmetry": "symmetry",
    "equivalence": "equivalence", "oml": "oml", "suites": "suites", "rng": "suites",
    "matio": "matio", "cli": "cli",
}
LAYERS = ("core", "lattice", "symmetry", "equivalence", "oml", "suites", "matio", "cli")

# Methods traced besides the module-level public functions: element
# constructors, the lazily built OML bound tables and the random draws.
METHODS = (
    ("core", "EnvelopingElement", "__init__"),
    ("core", "Element", "__init__"),
    ("core", "Projection", "__init__"),
    ("core", "Symmetry", "__init__"),
    ("rng", "XorShift64Star", "uniform"),
    ("rng", "XorShift64Star", "randint"),
    ("rng", "XorShift64Star", "element"),
    ("rng", "XorShift64Star", "positive_element"),
    ("rng", "XorShift64Star", "projection"),
    ("rng", "XorShift64Star", "symmetry"),
    ("rng", "XorShift64Star", "subprojection"),
)

# The functions ROADMAP item 1 names; each gets `<name>.calls` and `<name>.self_s`.
PER_FUNCTION = (
    "core.Element", "core.spectral_map", "core.carrier", "core.opnorm",
    "lattice.join", "lattice.meet", "lattice.sasaki", "lattice.central_cover",
    "symmetry.exchange_efe_fef", "symmetry.strong_perspectivity", "symmetry.family_additivity",
    "equivalence.equal_rank_chain", "equivalence.orthogonal_decomposition",
    "equivalence.generalized_comparability",
)
SUITES = ("synalg", "lattice", "symmetry", "comparability", "oml")
OML_TAGS = ("boolean64", "mo64")
OML_SPLIT = {"oml.load_oml": "parse_s", "oml.FiniteOml._bound_tables": "bound_tables_s",
             "oml.verify_oml": "verify_s", "oml.is_modular": "modular_s",
             "oml.is_distributive": "distributive_s"}
COMPLEMENT_PAIR = ("suites.complement_pair", "suites.exchanged_complement_pair")
RNG_SYMMETRY = "rng.XorShift64Star.symmetry"
CALL_PREFIX = "call:"

# Per-layer metrics in the order printed, with their units.
METRICS: dict[str, str] = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.self_s"] = "s"
METRICS.update({
    "core.eigh_calls": "count", "core.svd_norm_calls": "count", "core.svd_calls": "count",
    "core.element_constructions": "count", "core.eig_cache_hit_ratio": "ratio",
})
for _what in OML_SPLIT.values():
    for _tag in OML_TAGS:
        METRICS[f"oml.{_what}.{_tag}"] = "s"
for _suite in SUITES:
    METRICS[f"suites.{_suite}_s"] = "s"
METRICS.update({"suites.rng_s": "s", "suites.complement_pair_yield": "ratio",
                "matio.read_s": "s", "matio.format_s": "s",
                "matio.bytes_read": "B", "matio.bytes_written": "B"})
for _fn in PER_FUNCTION:
    METRICS[f"{_fn}.calls"] = "count"
    METRICS[f"{_fn}.self_s"] = "s"
METRICS.update({"trace.overhead_ratio": "ratio", "trace.base_p50_s": "s"})

# Metrics that count work; they must repeat exactly for the same inputs.
COUNT_METRICS = tuple(k for k, u in METRICS.items() if u in ("count", "B", "ratio")
                      and not k.startswith("trace."))


def _note_bytes_read(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _note_len(args, kwargs, out):
    return len(out)


def _note_not_none(args, kwargs, out):
    return out is not None


NOTES = {"matio.read_matrix": _note_bytes_read, "matio.format_matrix": _note_len,
         "suites.complement_pair": _note_not_none,
         "suites.exchanged_complement_pair": _note_not_none}


class Tracer:
    """Context manager that patches synalg while active and records spans.

    Span i has name ``names[name_id[i]]``, times ``start[i]``/``end[i]``
    (``time.perf_counter``) and parent index ``parent[i]`` (-1 for a root).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.notes: dict[int, object] = {}
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def call(self, tag: str, fn, *args):
        """Run fn(*args) as the root span of one CLI call, named after its tag."""
        return self._wrap(fn, CALL_PREFIX + tag)(*args)

    def _wrap(self, fn, name: str):
        ident = self._intern(name)
        note = NOTES.get(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, notes, clock = self._stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(ident)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, out)
            return out

        return traced

    def _counted(self, fn, key: str, when=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if when is None or when(*args, **kwargs):
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {name: sys.modules[f"synalg.{name}"] for name in MODULE_LAYER}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "synalg" or n.startswith("synalg."))]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(ns, attr, wrapped[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}" if meth == "__init__" else f"{short}.{cls_name}.{meth}"
            self._set(cls, meth, self._wrap(cls.__dict__[meth], name))
        finite_oml = modules["oml"].FiniteOml
        build = self._on_build(finite_oml.__dict__["_bound_tables"], "oml.FiniteOml._bound_tables")
        self._set(finite_oml, "_bound_tables", build)
        element = modules["core"].Element
        self._set(element, "block_eig", self._block_eig_counter(element.__dict__["block_eig"]))
        linalg = np.linalg
        self._set(linalg, "eigh", self._counted(linalg.eigh, "eigh"))
        self._set(linalg, "svd", self._counted(linalg.svd, "svd"))
        self._set(linalg, "norm", self._counted(linalg.norm, "svd_norm", _is_norm2))
        return self

    def _on_build(self, fn, name: str):
        """Trace the call that builds the OML bound tables, not every lookup."""
        traced = self._wrap(fn, name)

        @functools.wraps(fn)
        def bound_tables(l):
            return traced(l) if l._meet is None else fn(l)

        return bound_tables

    def _block_eig_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def block_eig(el):
            before = counts["eigh"]
            out = fn(el)
            counts["block_eig"] += 1
            counts["block_eig_hits"] += counts["eigh"] == before
            return out

        return block_eig

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write the spans as gzipped TSV: index, parent, name, start, end."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _is_norm2(x, ord=None, *args, **kwargs) -> bool:
    return ord == 2 and np.ndim(x) == 2


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_a = cur_b = None
        for c in sorted(children[i], key=start.__getitem__):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


def _layer(name: str) -> str | None:
    return MODULE_LAYER.get(name.split(".", 1)[0])


def aggregate(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded by `tr`.

    Root spans (the benchmark's own, one per CLI call) name the call's tag,
    which splits the OML metrics by lattice.
    """
    n = len(tr.start)
    names = [tr.names[k] for k in tr.name_id]
    selfs = self_times(tr.start, tr.end, tr.parent)
    m = {k: 0.0 if u == "s" else 0 for k, u in METRICS.items() if not k.startswith("trace.")}
    root = [0] * n
    in_rng = [False] * n
    in_cp = [False] * n
    cp_ok = cp_sym = 0
    for i in range(n):
        name, p = names[i], tr.parent[i]
        dur = tr.end[i] - tr.start[i]
        root[i] = i if p < 0 else root[p]
        is_rng = name.startswith("rng.")
        in_rng[i] = is_rng or (p >= 0 and in_rng[p])
        in_cp[i] = name in COMPLEMENT_PAIR or (p >= 0 and in_cp[p])
        layer = _layer(name)
        if layer is not None:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += selfs[i]
        if name in PER_FUNCTION:
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += selfs[i]
        if name == "core.EnvelopingElement":
            m["core.element_constructions"] += 1
        if is_rng and not (p >= 0 and in_rng[p]):
            m["suites.rng_s"] += dur
        if name == RNG_SYMMETRY and in_cp[i]:
            cp_sym += 1
        if name in COMPLEMENT_PAIR:
            cp_ok += bool(tr.notes.get(i))
        if name.startswith("suites.run_") and name.endswith("_suite"):
            m[f"suites.{name[len('suites.run_'):-len('_suite')]}_s"] += dur
        elif name == "matio.read_matrix":
            m["matio.read_s"] += dur
            m["matio.bytes_read"] += tr.notes.get(i, 0)
        elif name == "matio.format_matrix":
            m["matio.format_s"] += dur
            m["matio.bytes_written"] += tr.notes.get(i, 0)
        elif name in OML_SPLIT:
            tag = names[root[i]][len(CALL_PREFIX):]
            if tag in OML_TAGS:
                m[f"oml.{OML_SPLIT[name]}.{tag}"] += dur
    c = tr.counts
    m["core.eigh_calls"] = c["eigh"]
    m["core.svd_norm_calls"] = c["svd_norm"]
    m["core.svd_calls"] = c["svd"]
    m["core.eig_cache_hit_ratio"] = c["block_eig_hits"] / c["block_eig"] if c["block_eig"] else 0.0
    m["suites.complement_pair_yield"] = cp_ok / cp_sym if cp_sym else 0.0
    return m
