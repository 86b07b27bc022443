"""Special functions backing the regularized-summation engines.

Real-argument Riemann zeta, the gamma function, exact Bernoulli numbers,
and guarded trigonometric helpers for the interval (0, pi).  Everything
here is scalar, pure and thread-safe.  Accuracy target is 12 significant
digits or better on the documented ranges; negative-integer zeta values
are exact rationals rendered as doubles.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .errors import DomainError, PoleError, RangeError, SingularityError

__all__ = [
    "bernoulli",
    "gamma",
    "riemann_zeta",
    "sin_pi",
    "cot",
    "csc2",
    "require_interior_angle",
    "check_sine",
    "MAX_BERNOULLI_INDEX",
]

MAX_BERNOULLI_INDEX = 64

# The smallest normal double.
_TINY = 2.2250738585072014e-308


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _normal(what: str, name: str, arg: float, value: float) -> float:
    """``value``, of ``what`` at ``name`` = ``arg``; RangeError outside the normal doubles."""
    if not _TINY <= abs(value) < math.inf:
        way = "overflows" if abs(value) > 1.0 else "underflows"
        raise RangeError(f"{what} {way} a double at {name} = {arg!r}")
    return value


# --------------------------------------------------------------------------
# Bernoulli numbers
# --------------------------------------------------------------------------

# B_n as a reduced integer pair; the float users divide its integers, and
# only bernoulli() builds a Fraction, so no cold command imports fractions.
_Pair = namedtuple("_Pair", "numerator denominator")

# Extended by whole-tuple replacement so concurrent readers never observe a
# partially built table.
_bernoulli_cache: tuple[_Pair, ...] = (_Pair(1, 1),)


def bernoulli(n: int) -> "Fraction":
    """Bernoulli number B_n as an exact rational, with B_1 = -1/2.

    Values come from the defining recurrence
    sum_{k=0}^{n} C(n+1, k) B_k = 0, evaluated exactly in integers over the
    common denominator of the earlier terms, and are cached.  ``n`` must
    lie in [0, 64]; larger indices are rejected rather than silently
    losing exactness guarantees.
    """
    from fractions import Fraction

    pair = _bernoulli_pair(n)
    return Fraction(pair.numerator, pair.denominator)


def _bernoulli_pair(n: int) -> _Pair:
    global _bernoulli_cache
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < 0 or n > MAX_BERNOULLI_INDEX:
        raise DomainError(f"n must lie in [0, {MAX_BERNOULLI_INDEX}], got {n}")
    cache = _bernoulli_cache
    if n >= len(cache):
        work = list(cache)
        while len(work) <= n:
            m = len(work)
            d = math.lcm(*(b_k.denominator for b_k in work))
            s = sum(
                math.comb(m + 1, k) * b_k.numerator * (d // b_k.denominator)
                for k, b_k in enumerate(work)
            )
            d *= m + 1
            common = math.gcd(s, d)
            work.append(_Pair(-s // common, d // common))
        cache = tuple(work)
        _bernoulli_cache = cache
    return cache[n]


# --------------------------------------------------------------------------
# Gamma
# --------------------------------------------------------------------------


def sin_pi(x: float) -> float:
    """sin(pi * x) with the nearest integer to ``x`` reduced exactly.

    Returns an exact 0.0 at integer ``x``, and full relative accuracy next
    to every integer; plain ``math.sin(math.pi * x)`` does neither.
    """
    x = _require_finite("x", x)
    n = round(x)
    frac = x - n
    if frac == 0.0:
        return 0.0
    s = math.sin(math.pi * frac)
    return -s if (n & 1) else s


def gamma(x: float) -> float:
    """Gamma function for real ``x`` that is not a non-positive integer.

    ``math.gamma``, within a few ulp of the exact value wherever that is a
    normal double.  A result outside the normal doubles (from x =
    171.62..., next to 0, and far below 0 between the poles) raises
    RangeError.
    """
    x = _require_finite("x", x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at the non-positive integer x = {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        value = math.inf
    return _normal("gamma", "x", x, value)


# --------------------------------------------------------------------------
# Riemann zeta
# --------------------------------------------------------------------------

_EM_CUT = 20  # partial-sum length
_EM_ORDER = 13  # number of B_{2k} tail-correction terms
# Below this, the functional equation.  As s -> 0- it takes zeta(1 - s) next
# to its pole and sin(pi s/2) next to 0, and loses digits: against 50-digit
# mpmath its relative error passes Euler-Maclaurin's (about 2e-14) near -0.01.
_EM_FLOOR = -0.01


@functools.cache
def _em_coefficients() -> tuple[float, ...]:
    pairs = map(_bernoulli_pair, range(2, 2 * _EM_ORDER + 1, 2))
    return tuple(p / (q * math.factorial(2 * k)) for k, (p, q) in enumerate(pairs, 1))


def _zeta_euler_maclaurin(s: float) -> float:
    # Partial sum to N plus the Euler-Maclaurin tail; the formula continues
    # zeta analytically for every s > -(2*_EM_ORDER + 1) except s = 1.
    n_cut = _EM_CUT
    partial = math.fsum(n ** -s for n in range(1, n_cut))
    tail = n_cut ** (1.0 - s) / (s - 1.0) + 0.5 * n_cut ** -s
    coeffs = _em_coefficients()
    corr = 0.0
    rising = s  # product s (s+1) ... (s + 2k - 2)
    power = n_cut ** (-s - 1.0)
    for k in range(1, _EM_ORDER + 1):
        if power == 0.0:  # so is every later term, while rising may overflow to inf
            break
        corr += coeffs[k - 1] * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= n_cut * n_cut
    return partial + tail + corr


def _zeta_negative_integer(n: int) -> float:
    # zeta(-n) = (-1)^n B_{n+1} / (n+1); odd Bernoulli numbers above B_1
    # vanish, so negative even arguments give an exact 0.0.
    p, q = _bernoulli_pair(n + 1)
    return (-p if n % 2 else p) / (q * (n + 1))


def riemann_zeta(s: float) -> float:
    """Riemann zeta on the real line, s != 1.

    s >= -0.01 uses Euler-Maclaurin corrected partial summation.  Negative
    integers return the exact Bernoulli value (0 at negative even
    integers).  Other arguments below -0.01 go through the functional
    equation zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), below
    s = -140 with Gamma(1-s) duplicated (2^s cancels), so no partial product
    overflows before the result, which then raises RangeError.
    """
    s = _require_finite("s", s)
    if s == 1.0:
        raise PoleError("riemann_zeta has a simple pole at s = 1")
    if s < _EM_FLOOR:
        if s == math.floor(s):
            n = int(-s)
            if n + 1 > MAX_BERNOULLI_INDEX:
                raise DomainError(f"s = {s} is below the supported range")
            return _zeta_negative_integer(n)
        if s < -140.0:
            try:
                value = (math.pi ** (s - 1.5) * sin_pi(0.5 * s) * gamma(0.5 - 0.5 * s)
                         * gamma(1.0 - 0.5 * s) * _zeta_euler_maclaurin(1.0 - s))
            except RangeError:  # a Gamma factor overflows, and so does zeta(s)
                value = math.inf
            return _normal("riemann_zeta", "s", s, value)
        return (
            2.0 ** s
            * math.pi ** (s - 1.0)
            * sin_pi(0.5 * s)
            * gamma(1.0 - s)
            * _zeta_euler_maclaurin(1.0 - s)
        )
    return _zeta_euler_maclaurin(s)


# --------------------------------------------------------------------------
# Guarded trigonometric helpers
# --------------------------------------------------------------------------


def require_interior_angle(theta: float) -> float:
    """Validate that ``theta`` lies strictly inside (0, pi)."""
    theta = _require_finite("theta", theta)
    if theta <= 0.0 or theta >= math.pi:
        raise SingularityError(
            f"theta = {theta!r} is not strictly inside (0, pi); the requested "
            "quantity diverges on the boundary"
        )
    return theta


def cot(theta: float) -> float:
    """cos(theta)/sin(theta) on the open interval (0, pi); RangeError where it overflows."""
    theta = require_interior_angle(theta)
    return _normal("cot", "theta", theta, math.cos(theta) / math.sin(theta))


def check_sine(sin_theta: float, theta: float) -> float:
    """``sin_theta``, for a kernel that divides by its square; RangeError if that underflows.

    A value that is not finite or exceeds 1 in magnitude is no sine: DomainError.
    """
    if not abs(sin_theta) <= 1.0:
        raise DomainError(f"sin(theta) must lie in [-1, 1], got {sin_theta!r} at theta = {theta!r}")
    if sin_theta * sin_theta < _TINY:
        raise RangeError(f"sin(theta)^2 underflows a double at theta = {theta!r}")
    return sin_theta


def csc2(theta: float) -> float:
    """1/sin^2(theta) on the open interval (0, pi)."""
    theta = require_interior_angle(theta)
    s = check_sine(math.sin(theta), theta)
    return 1.0 / (s * s)
