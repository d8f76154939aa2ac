"""Shared pytest plumbing: surface acceptance lines in the run summary."""

import os
from pathlib import Path

ACCEPT_LINES: list[str] = []
SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    # Tests that run `python -m synalg` in a child process import this checkout too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def record_accept(line: str) -> None:
    ACCEPT_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPT_LINES:
            terminalreporter.write_line(line)
