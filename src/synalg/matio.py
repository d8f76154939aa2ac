"""Plain-text matrix files for elements, projections and symmetries.

Format: a header line ``shape n1 n2 ...`` followed by one row of decimal
floats per matrix row.  Values are written with 17 significant digits so
files round-trip exactly through binary doubles.
"""

from __future__ import annotations

from .core import (
    DEFAULT_TOL,
    Element,
    EnvelopingElement,
    ModelShape,
    Projection,
    Symmetry,
    SynalgError,
    Tolerances,
)


class ParseError(SynalgError):
    """Malformed matrix or lattice file."""


def format_matrix(el: EnvelopingElement) -> str:
    lines = ["shape " + " ".join(str(b) for b in el.shape.blocks)]
    for row in el.data:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, kind: str = "element", tol: Tolerances = DEFAULT_TOL):
    """Parse matrix text into the requested kind of value.

    kind is one of "element", "envelope", "projection", "symmetry".
    """
    rows = []
    shape = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if shape is None:
            parts = line.split()
            if parts[0] != "shape":
                raise ParseError(f"line {lineno}: expected 'shape n1 n2 ...'")
            try:
                shape = ModelShape(tuple(int(p) for p in parts[1:]))
            except (ValueError, TypeError) as exc:
                raise ParseError(f"line {lineno}: bad shape: {exc}") from exc
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad number: {exc}") from exc
    if shape is None:
        raise ParseError("missing 'shape' header line")
    n = shape.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"expected {n} rows of {n} entries")
    cls = {
        "element": Element,
        "envelope": EnvelopingElement,
        "projection": Projection,
        "symmetry": Symmetry,
    }.get(kind)
    if cls is None:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        if cls is EnvelopingElement:
            return cls(shape, rows)
        return cls(shape, rows, tol=tol)
    except (ValueError, SynalgError) as exc:
        raise ParseError(f"matrix does not satisfy {kind} invariants: {exc}") from exc


def write_matrix(path, el: EnvelopingElement) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(el))


def read_matrix(path, kind: str = "element", tol: Tolerances = DEFAULT_TOL):
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read(), kind=kind, tol=tol)
