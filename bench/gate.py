"""Correctness gate: every op is checked, and every failure is counted.

A failed op is any of: an exception or a nonzero CLI exit; a stdout line
that is not strict JSON (NaN and Infinity are rejected); a non-finite
field; a `fail` verdict; a coupling residual above its tolerance; an MC
estimate more than 4 standard errors from the exact mean; or a mismatch
with the values frozen in reference.json for the default seed.

Ops marked as known defects still count as failed ops (they raise the
error rate); only failures of other ops make a run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

REFERENCE_TOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def nonfinite_path(obj, path: str = "$") -> str | None:
    """Path of the first non-finite float inside a parsed JSON value."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        bad = nonfinite_path(value, f"{path}.{key}")
        if bad:
            return bad
    return None


def parse_strict(line: str):
    """(object, None) for a strict, finite JSON line, else (None, reason)."""
    try:
        obj = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, f"invalid JSON line ({exc}): {line[:120]}"
    bad = nonfinite_path(obj)
    if bad:
        return None, f"non-finite field {bad}"
    return obj, None


def compare_reference(actual, frozen, tol: float = REFERENCE_TOL) -> str | None:
    """Reason string when `actual` differs from the frozen values."""
    if len(actual) != len(frozen):
        return f"reference mismatch: {len(actual)} values, frozen {len(frozen)}"
    for i, (a, e) in enumerate(zip(actual, frozen)):
        if not (abs(a - e) <= tol * max(1.0, abs(e))):
            return f"reference mismatch at value {i}: got {a!r}, frozen {e!r}"
    return None


@dataclass
class Failure:
    op_id: str
    kind: str
    known_defect: bool
    reasons: list[str]


@dataclass
class Gate:
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)

    def record(self, op_id: str, kind: str, reasons: list[str], known_defect=False):
        self.attempted += 1
        if reasons:
            self.failures.append(Failure(op_id, kind, known_defect, reasons))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f.known_defect for f in self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
