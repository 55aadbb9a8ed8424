"""Power-sum moments and the membership checks that gate the verifiers.

A function f on {0,...,q-1} qualifies when every power sum
S_m = sum_x f(x)^m is real and non-negative and q*S_{m+n} >= S_m * S_n;
the stronger variant additionally requires |f| to peak at a given state
with a real non-negative value there. Membership is certified up to a
finite exponent bound M, which every report states explicitly.

A real non-negative table is a member for every M, by Chebyshev's sum
inequality: every S_m is real and >= 0, and
q*S_{m+n} - S_m*S_n = 1/2 sum_{x,y} (f(x)^m - f(y)^m)(f(x)^n - f(y)^n) >= 0,
each term a product of two differences of one sign. So the checks return
their passing report for such a table at once (for tol >= 0), and scan the
moments of signed and complex tables only.

The scan's tolerance is relative, so membership is invariant under positive
scaling, as the class is: a constraint fails when its slack is below -tol
times the sum of the magnitudes of its terms, with A_m = sum_x |f(x)|^m:
q*A_{m+n} + A_m*A_n for q*S_{m+n} >= S_m*S_n, A_m for S_m real and >= 0,
and max_x |f(x)| for the peak condition. That sum times a factor of order
M*1e-16 bounds the slack's rounding error (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3), so the default 1e-9 refuses no member to
rounding.

The checks (check_Fq, check_Fq_i and moments_real_nonneg) are
functools.lru_cache memos, typed, on their arguments as passed: a fuzz
trial certifies one f for up to four claims, and the families are the same
table for a given q. check_Fq(f) and check_Fq(f, 16, 1e-9) are separate
entries, and so are M=16 and M=16.0. Reports are frozen, so a cached one
is shared; errors are raised, not cached, and the uncached body stays
reachable as `__wrapped__`.

Three ready-made families: the centred staircase (q-1)/2 - x, the q-th
roots of unity exp(2*pi*i*x/q), and arbitrary non-negative tables peaking
at 0.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass
from math import fsum, inf, isfinite

from .model import ModelError, SpinFunction, as_integer

DEFAULT_M = 16
DEFAULT_TOL = 1e-9
_MEMO_SIZE = 256


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a membership check, certified up to exponent M_checked.

    first_violation is (m, n, margin) for the first failed moment
    constraint, with n = 0 when the m-th moment itself is non-real or
    negative; margin is the raw signed slack (pass means margin >= -tol
    times the magnitudes of its terms; see the module docstring).
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


def _power_sum(terms, m: int) -> float:
    """The fsum of one part of S_m's terms; ModelError where it overflows."""
    try:
        s = fsum(terms)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        s = inf
    if not isfinite(s):
        raise ModelError(f"the power sum S_{m} overflows float64; rescale f, "
                         "as membership is invariant under positive scaling")
    return s


def moments(f: SpinFunction, M: int) -> tuple[complex, ...]:
    """S_0..S_M, S_m = sum_x f(x)^m (so S_0 == q), as exact power sums via
    compensated summation; 0**0 counts as 1. A power sum that overflows
    float64 raises ModelError."""
    if M < 0:
        raise ModelError(f"M must be >= 0, got {M}")
    # a real table's complex products have these float products as real
    # parts, and imaginary parts that sum to 0
    real = not any(v.imag for v in f.values)
    values = [v.real for v in f.values] if real else f.values
    powers = [1.0] * f.q
    S = []
    for m in range(M + 1):
        if m > 0:
            powers = [p * v for p, v in zip(powers, values)]
        if real:
            S.append(complex(_power_sum(powers, m)))
        else:
            S.append(complex(_power_sum((p.real for p in powers), m),
                             _power_sum((p.imag for p in powers), m)))
    return tuple(S)


def _first_bad_moment(S, A, tol: float) -> tuple[int, int, float] | None:
    """(m, 0, margin) for the first S_m that is non-real or negative, each
    against tol * A_m, where A_m = sum_x |f(x)|^m."""
    for m, (s, a) in enumerate(zip(S, A)):
        bound = tol * a
        if abs(s.imag) > bound:
            return (m, 0, -abs(s.imag))
        if s.real < -bound:
            return (m, 0, s.real)
    return None


def _scan_moments(f: SpinFunction, M: int, tol: float):
    """S_0..S_M, A_0..A_M (A_m = sum_x |f(x)|^m), and the first bad moment."""
    S = moments(f, M)
    A = [a.real for a in moments(SpinFunction(tuple(abs(v) for v in f.values)), M)]
    return S, A, _first_bad_moment(S, A, tol)


def _certified_by_sign(f: SpinFunction, M, least: int, tol: float) -> bool:
    """Refuse M as the scan would (ModelError below `least`, TypeError for a
    non-integer), then say whether f is real and non-negative, which makes
    it a member for every M (Chebyshev's sum inequality; see the module
    docstring). A negative tol asks for strict slack, which no table has
    at m = n = 0, so it goes to the scan."""
    if M < least:
        raise ModelError(f"M must be >= {least}, got {M}")
    operator.index(M)
    return tol >= 0.0 and all(v.imag == 0.0 and v.real >= 0.0 for v in f.values)


def _memo(check):
    """check behind functools.lru_cache(maxsize=_MEMO_SIZE, typed=True),
    keyed on its arguments as passed. The cache sits in a plain function,
    as bench/tracer.py wraps plain functions only."""
    cached = functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)(check)

    @functools.wraps(check)
    def memo(*args, **kwargs):
        return cached(*args, **kwargs)

    return memo


@_memo
def moments_real_nonneg(
    f: SpinFunction, M: int, tol: float = DEFAULT_TOL
) -> tuple[bool, tuple[int, int, float] | None]:
    """Check only that every S_m (m <= M) is real and non-negative."""
    if _certified_by_sign(f, M, 0, tol):
        return True, None
    violation = _scan_moments(f, M, tol)[2]
    return violation is None, violation


def _scan_Fq(f: SpinFunction, M: int, tol: float) -> MembershipReport:
    """The moment scan: every S_m real and non-negative, then
    q*S_{m+n} >= S_m*S_n for all m, n >= 0 with m + n <= M."""
    S, A, violation = _scan_moments(f, M, tol)
    if violation is not None:
        return MembershipReport(False, None, M, tol, violation)
    S = [s.real for s in S]
    q = f.q
    for total in range(M + 1):
        for m in range(total // 2 + 1):
            n = total - m
            margin = q * S[total] - S[m] * S[n]
            if margin < -tol * (q * A[total] + A[m] * A[n]):
                return MembershipReport(False, None, M, tol, (m, n, margin))
    return MembershipReport(True, None, M, tol, None)


@_memo
def check_Fq(
    f: SpinFunction, M: int = DEFAULT_M, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """Certify the moment conditions for all m, n >= 0 with m + n <= M."""
    if _certified_by_sign(f, M, 1, tol):
        return MembershipReport(True, None, M, tol, None)
    return _scan_Fq(f, M, tol)


@_memo
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
    ok1 = margin1 >= -tol * peak
    return MembershipReport(
        report.in_Fq,
        i if (report.in_Fq and ok1) else None,
        M,
        tol,
        report.first_violation,
        condition1_margin=margin1,
    )


def _family_kind(kind: str) -> str:
    """kind as make_family reads it: "a", "familyA" and "A" all name A."""
    return kind.upper().removeprefix("FAMILY")


def is_family_name(kind: str) -> bool:
    """Whether make_family reads kind as a family."""
    return _family_kind(kind) in ("A", "B", "C")


def make_family(kind: str, q: int, values=None) -> SpinFunction:
    """Construct a family member: A (centred staircase), B (roots of
    unity), or C (caller-supplied non-negative table peaking at 0)."""
    if q < 2:
        raise ModelError(f"q must be >= 2, got {q}")
    kind = _family_kind(kind)
    if kind == "A":
        return SpinFunction(tuple((q - 1) / 2 - x for x in range(q)))
    if kind == "B":
        return SpinFunction(tuple(cmath.exp(2j * cmath.pi * x / q) for x in range(q)))
    if kind == "C":
        if values is None:
            raise ModelError("family C needs an explicit value table")
        vals = [complex(v) for v in values]
        if len(vals) != q:
            raise ModelError(f"family C needs {q} values, got {len(vals)}")
        if any(v.imag != 0.0 or v.real < 0.0 for v in vals):
            raise ModelError("family C values must be real and non-negative")
        if any(v.real > vals[0].real for v in vals):
            raise ModelError("family C values must satisfy f(x) <= f(0)")
        return SpinFunction(tuple(vals))
    raise ModelError(f"unknown family kind {kind!r}")


def spin_function_from_spec(spec: dict) -> SpinFunction:
    """Parse {"kind": "A"|"B"|"C"|"table", "q": int, "values": [...]}.

    Values may be numbers or [re, im] pairs; they are required for kinds
    C and table.
    """
    try:
        kind = _family_kind(str(spec["kind"]))
        q = as_integer(spec["q"], "q")
    except KeyError as exc:
        raise ModelError(f'function spec needs "{exc.args[0]}"') from exc
    except (TypeError, ValueError) as exc:
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
