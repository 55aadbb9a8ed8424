"""Power-sum moment tables and the membership checks that gate the verifiers.

A function f on {0,...,q-1} qualifies when every power sum
S_m = sum_x f(x)^m is real and non-negative and q*S_{m+n} >= S_m * S_n;
the stronger variant additionally requires |f| to peak at a given state
with a real non-negative value there. Membership is certified up to a
finite exponent bound M, which every report states explicitly.

Both checks are memoized on their exact arguments (f, M, tol), defaults
filled in: a fuzz trial certifies one f for up to four claims, and the
families are the same table for a given q. Reports are frozen, so a cached
one is shared; the uncached body stays reachable as `__wrapped__`.

Three ready-made families: the centred staircase (q-1)/2 - x, the q-th
roots of unity exp(2*pi*i*x/q), and arbitrary non-negative tables peaking
at 0.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from math import fsum

from .model import ModelError, SpinFunction, integer_q

DEFAULT_M = 16
DEFAULT_TOL = 1e-9
_MEMO_SIZE = 256


class BadFamilyC(ModelError):
    """Family C values must be real, non-negative, and peak at index 0."""


@dataclass(frozen=True)
class MomentTable:
    """S[m] = sum_x f(x)^m for m = 0..M (so S[0] == q always)."""

    q: int
    M: int
    S: tuple[complex, ...]


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a membership check, certified up to exponent M_checked.

    first_violation is (m, n, margin) for the first failed moment
    constraint, with n = 0 when the m-th moment itself is non-real or
    negative; margin is the raw signed slack (pass means margin >= -tol).
    condition1_margin reports the peak-at-i condition when it was checked.
    """

    in_Fq: bool
    in_Fq_i: int | None
    M_checked: int
    tolerance: float
    first_violation: tuple[int, int, float] | None
    condition1_margin: float | None = None

    @property
    def passed(self) -> bool:
        if self.condition1_margin is None:  # plain moment check
            return self.in_Fq
        return self.in_Fq_i is not None  # peak-at-i variant


def moments(f: SpinFunction, M: int) -> MomentTable:
    """Exact power sums via compensated summation; 0**0 counts as 1."""
    if M < 0:
        raise ModelError(f"M must be >= 0, got {M}")
    powers = [1 + 0j] * f.q
    S = []
    for m in range(M + 1):
        if m > 0:
            powers = [p * v for p, v in zip(powers, f.values)]
        S.append(complex(fsum(p.real for p in powers), fsum(p.imag for p in powers)))
    return MomentTable(f.q, M, tuple(S))


def _first_bad_moment(S, tol: float) -> tuple[int, int, float] | None:
    """(m, 0, margin) for the first S_m that is non-real or negative."""
    for m, s in enumerate(S):
        if abs(s.imag) > tol:
            return (m, 0, -abs(s.imag))
        if s.real < -tol:
            return (m, 0, s.real)
    return None


def _memoized(check):
    """LRU-cache a check(f, M, tol) on its arguments, with the defaults
    filled in, so check(f, 16) and check(f, 16, 1e-9) share one entry.
    Keys are typed: M=16.0 is not served the report of M=16."""
    cached = functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)(check)

    @functools.wraps(check)
    def memoized(f, M, tol):
        return cached(f, M, tol)

    memoized.__defaults__ = check.__defaults__
    return memoized


@_memoized
def moments_real_nonneg(
    f: SpinFunction, M: int, tol: float = DEFAULT_TOL
) -> tuple[bool, tuple[int, int, float] | None]:
    """Check only that every S_m (m <= M) is real and non-negative."""
    violation = _first_bad_moment(moments(f, M).S, tol)
    return violation is None, violation


@_memoized
def check_Fq(
    f: SpinFunction, M: int = DEFAULT_M, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """Certify the moment conditions for all m, n >= 0 with m + n <= M."""
    if M < 1:
        raise ModelError(f"M must be >= 1, got {M}")
    S = moments(f, M).S
    violation = _first_bad_moment(S, tol)
    if violation is not None:
        return MembershipReport(False, None, M, tol, violation)
    S = [s.real for s in S]
    q = f.q
    for total in range(M + 1):
        for m in range(total // 2 + 1):
            n = total - m
            margin = q * S[total] - S[m] * S[n]
            if margin < -tol:
                return MembershipReport(False, None, M, tol, (m, n, margin))
    return MembershipReport(True, None, M, tol, None)


def check_Fq_i(
    f: SpinFunction, i: int, M: int = DEFAULT_M, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """check_Fq plus: f(i) is real, non-negative, and equals max_x |f(x)|."""
    if not 0 <= i < f.q:
        raise ModelError(f"index i must be in [0, {f.q - 1}], got {i}")
    report = check_Fq(f, M, tol)
    fi = f.values[i]
    peak = max(abs(v) for v in f.values)
    margin1 = min(-abs(fi.imag), fi.real - peak)
    ok1 = margin1 >= -tol
    return MembershipReport(
        report.in_Fq,
        i if (report.in_Fq and ok1) else None,
        M,
        tol,
        report.first_violation,
        condition1_margin=margin1,
    )


def make_family(kind: str, q: int, values=None) -> SpinFunction:
    """Construct a family member: A (centred staircase), B (roots of
    unity), or C (caller-supplied non-negative table peaking at 0)."""
    if q < 2:
        raise ModelError(f"q must be >= 2, got {q}")
    kind = kind.upper().removeprefix("FAMILY")
    if kind == "A":
        return SpinFunction(tuple((q - 1) / 2 - x for x in range(q)))
    if kind == "B":
        return SpinFunction(tuple(cmath.exp(2j * cmath.pi * x / q) for x in range(q)))
    if kind == "C":
        if values is None:
            raise BadFamilyC("family C needs an explicit value table")
        vals = [complex(v) for v in values]
        if len(vals) != q:
            raise BadFamilyC(f"family C needs {q} values, got {len(vals)}")
        if any(v.imag != 0.0 or v.real < 0.0 for v in vals):
            raise BadFamilyC("family C values must be real and non-negative")
        if any(v.real > vals[0].real for v in vals):
            raise BadFamilyC("family C values must satisfy f(x) <= f(0)")
        return SpinFunction(tuple(vals))
    raise ModelError(f"unknown family kind {kind!r}")


def spin_function_from_spec(spec: dict) -> SpinFunction:
    """Parse {"kind": "A"|"B"|"C"|"table", "q": int, "values": [...]}.

    Values may be numbers or [re, im] pairs; they are required for kinds
    C and table.
    """
    try:
        kind = str(spec["kind"]).upper().removeprefix("FAMILY")
        q = integer_q(spec["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed function spec: {exc}") from exc
    values = spec.get("values")
    if values is not None:
        try:
            values = [
                complex(*v) if isinstance(v, (list, tuple)) and len(v) == 2
                else complex(v)
                for v in values
            ]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"malformed function values {values!r}: {exc}") from exc
    if kind == "TABLE":
        if values is None:
            raise ModelError('function spec kind "table" needs "values"')
        if len(values) != q:
            raise ModelError(f"function table needs {q} values, got {len(values)}")
        return SpinFunction(tuple(values))
    return make_family(kind, q, values)
