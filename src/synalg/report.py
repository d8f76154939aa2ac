"""Line-oriented check reports shared by the suites, CLI and report ops."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReportLine:
    """One named check: PASS iff residual <= tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {self.residual:.3e} {self.tolerance:.1e} {verdict}"


class Accumulator:
    """Collects worst-case residuals per check name across trials."""

    def __init__(self):
        self._worst: dict[str, tuple[float, float]] = {}  # insertion order is report order

    def observe(self, name: str, residual: float, tolerance: float) -> None:
        residual = float(residual)
        if residual != residual:  # NaN never passes
            residual = float("inf")
        if name not in self._worst:
            self._worst[name] = (residual, float(tolerance))
        else:
            old_res, old_tol = self._worst[name]
            self._worst[name] = (max(old_res, residual), min(old_tol, float(tolerance)))

    def check(self, name: str, ok: bool) -> None:
        """Boolean check recorded as residual 0/1 against tolerance 0."""
        self.observe(name, 0.0 if ok else 1.0, 0.0)

    def replay(self, batches: list["Batch"], trials: int) -> None:
        """Observe what runs of a trial body over stacked trials recorded (one
        batch for all trials, or one per trial), trial by trial in statement order."""
        m = trials // len(batches)
        for batch in batches:
            rows = [(name, *np.broadcast_arrays(*obs, np.zeros(m))[:3]) for name, *obs in batch]
            for i in range(m):
                for name, res, tol, where in rows:
                    if where[i]:
                        self.observe(name, res[i], tol[i])

    def lines(self) -> list[ReportLine]:
        return [ReportLine(k, *v) for k, v in self._worst.items()]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines())


class Batch(list):
    """What body(batch, *args), run on construction over stacked trials, observes: (name, residual,
    tolerance, where) per statement, each one value or one per trial; `where` marks who observes."""

    def __init__(self, body, *args):
        super().__init__()
        body(self, *args)

    def observe(self, name: str, residual, tolerance, where=True) -> None:
        self.append((name, residual, tolerance, where))

    def check(self, name: str, ok, where=True) -> None:
        self.observe(name, np.where(ok, 0.0, 1.0), 0.0, where)
