"""Shared pytest plumbing: surface acceptance lines in the run summary,
and the dense join oracle that the lattice tests share."""

import os
from pathlib import Path

import numpy as np

ACCEPT_LINES: list[str] = []
SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    # Tests that run `python -m synalg` in a child process import this checkout too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def oracle_join(p, q) -> np.ndarray:
    """Projection onto the summed ranges, from an SVD of the stacked dense
    matrices; independent of `core.span`, which works on range bases."""
    u, s, _ = np.linalg.svd(np.hstack([p.data, q.data]))
    r = int(np.sum(s > 1e-9))
    return u[:, :r] @ u[:, :r].T


def record_accept(line: str) -> None:
    ACCEPT_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPT_LINES:
            terminalreporter.write_line(line)
