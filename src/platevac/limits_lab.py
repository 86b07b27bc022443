"""Order-of-limits experiments: regularization versus spatial integration.

The two operations do not commute for confined fields: summing modes
first and regularizing the total gives a finite number, while integrating
the regularized density runs into boundary divergences.  This module
samples density profiles, fits the boundary power laws, and assembles a
commutation report that shows the finite route, the divergent route, and
the cutoff-scheme route whose bulk-subtracted total is scheme and cutoff
independent.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import operator
from collections.abc import Sequence
from enum import Enum
from typing import TYPE_CHECKING, Callable

from . import em3d, regsum, scalar1d, specfun
from .errors import DomainError, FitError
from .geometry import (
    LAWS, Clustering, FieldModel, Geometry, GridSpec, Position, law, scaled, summed,
    window_integral,
)
from .record import Record
from .regsum import RegKind, RegScheme
from .scalar1d import Couplings, EnergySplit

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Clustering",
    "FieldModel",
    "GridSpec",
    "DensityProfile",
    "Endpoint",
    "DivergenceFit",
    "ExpansionFit",
    "CommutationModel",
    "WindowRow",
    "CutoffRow",
    "Verdict",
    "CommutationReport",
    "theta_array",
    "theta_grid",
    "grid_angles",
    "density_columns",
    "sample_profile",
    "fit_divergence",
    "epsilon_expansion_check",
    "commutation_report",
]


def theta_array(spec: GridSpec) -> np.ndarray:
    """Strictly increasing angles strictly inside (0, pi), as an array."""
    import numpy as np

    n = spec.count
    if spec.clustering is Clustering.UNIFORM:
        return math.pi * np.arange(1, n + 1) / (n + 1)
    # Chebyshev-style clustering toward both endpoints.
    return 0.5 * math.pi * (1.0 - np.cos(math.pi * (np.arange(n) + 0.5) / n))


def theta_grid(spec: GridSpec) -> tuple[float, ...]:
    """The angles of :func:`theta_array` as a tuple of floats, bit for bit.

    Computed with ``math`` alone, so a caller that needs only the angles
    does not load numpy.
    """
    n = spec.count
    if spec.clustering is Clustering.UNIFORM:
        return tuple(math.pi * k / (n + 1) for k in range(1, n + 1))
    return tuple(0.5 * math.pi * (1.0 - math.cos(math.pi * (i + 0.5) / n)) for i in range(n))


# The largest grid that grid_angles hands out as floats.  At 1000
# points the float pass costs 0.8-1.7 ms in-process, a few percent of the
# ~150 ms numpy import it spares a cold process; at 10,001 points it would
# cost 8-20 ms against under 1 ms for the array pass (2-core VM).
_FLOAT_GRID_MAX = 1000


def grid_angles(spec: GridSpec) -> tuple[float, ...] | np.ndarray:
    """The angles of ``spec``, in the type that picks :func:`density_columns`' engine.

    Up to ``_FLOAT_GRID_MAX`` (1000) points, the tuple of
    :func:`theta_grid`, which density_columns evaluates on plain floats
    without loading numpy; above, the array of :func:`theta_array`,
    evaluated in one numpy pass.
    """
    return theta_grid(spec) if spec.count <= _FLOAT_GRID_MAX else theta_array(spec)


def _itemwise(op, reflected=False):
    # A _Floats operator: op item by item, against a list or one float.
    def method(self, other):
        others = other if isinstance(other, list) else itertools.repeat(other)
        return _Floats(map(op, others, self) if reflected else map(op, self, others))
    return method


class _Floats(list):
    """Floats with a numpy array's item-by-item arithmetic: the float engine.

    The model laws are plain arithmetic, so they run on it unchanged, each
    item through the float operations of the point functions.
    """

    __add__ = __radd__ = _itemwise(operator.add)  # IEEE sums and products commute
    __mul__ = __rmul__ = _itemwise(operator.mul)
    __sub__, __rsub__ = _itemwise(operator.sub), _itemwise(operator.sub, True)
    __truediv__, __rtruediv__ = _itemwise(operator.truediv), _itemwise(operator.truediv, True)
    __gt__, __and__ = _itemwise(operator.gt), _itemwise(operator.and_)

    def __abs__(self):
        return _Floats(map(abs, self))


def density_columns(
    g: Geometry,
    model: FieldModel,
    scheme: RegScheme,
    thetas: Sequence[float] | np.ndarray,
    couplings: Couplings | None = None,
) -> dict[str, list[float]] | dict[str, np.ndarray]:
    """The energy density at every angle of ``thetas``, column by column.

    Returns the columns theta, z, electric, magnetic and total, plus
    correction (the interaction correction to the density) when
    ``couplings`` is given; both models take a :class:`Couplings`, of
    which :class:`em3d.EhCouplings` is the one with the EM defaults.  A
    sequence of angles gives lists, evaluated float by float; an array
    gives arrays, evaluated in one numpy pass.  Both run the model's law
    evaluator once over the grid, as the point functions (``density_split``,
    ``correction_density``, ``eh_correction_density``) run it on one
    angle, so every entry equals their value bit for bit; the total is the
    constant free density.  Validation happens once per grid with the
    point functions' errors: DomainError for angles outside [0, pi] or an
    EM cutoff scheme, SingularityError for wall angles where the density
    diverges, RangeError where sin^2(theta) underflows, and at most one
    ValidityWarning for a strong scalar coupling.  A column that leaves
    the range of normal doubles raises RangeError.
    """
    arrays = not isinstance(thetas, Sequence)
    if arrays:
        import numpy as np

        theta = np.asarray(thetas, dtype=float)
        rim = theta[~((theta > 0.0) & (theta < math.pi))].tolist()  # walls, outside, nan
    else:
        theta = [float(t) for t in thetas]
        rim = [t for t in theta if not 0.0 < t < math.pi]
    for value in rim:
        Position.from_theta(value, g)  # DomainError unless on a wall
    em = model is FieldModel.EM
    if em:
        em3d._require_zeta(scheme)
    divides = em or scheme.kind is RegKind.ZETA or couplings is not None
    if rim and divides:
        specfun.require_interior_angle(rim[0])  # SingularityError on the wall
    length = g.length
    # The engines differ only in the type the laws run on: numpy arrays, or
    # _Floats, which apply each operation float by float.
    if arrays:
        floats, sin_theta, least, any_ = np.asarray, np.sin(theta), np.min, np.any
    else:
        floats, sin_theta, least, any_ = _Floats, _Floats(map(math.sin, theta)), min, any
    if divides and len(theta):
        specfun.check_sine(float(least(sin_theta)), float(least(theta)))
    if couplings is not None and not em:
        scalar1d._warn_if_strong(couplings, g)
    with np.errstate(over="ignore", invalid="ignore") if arrays else contextlib.nullcontext():
        columns = {"theta": theta,
                   "z": scaled(length * floats(theta) / math.pi, 0, "the z column", length)}
        laws = (em3d._laws(g, couplings, sin_theta) if em
                else scalar1d._laws(g, scheme, couplings, sin_theta))
        # Each column is its law's value times its power of two; the total is
        # the law's constant, scaled once.
        for name, (value, exponent) in zip(("electric", "magnetic"), laws):
            columns[name] = scaled(value, exponent, f"the {name} column", length)
        total = (em3d.free_casimir_density(g) if em
                 else scaled(*laws[2], "the total column", length))
        columns["total"] = np.full_like(theta, total) if arrays else [total] * len(theta)
        if em:
            em3d._check_cancellation(floats(columns["electric"]), floats(columns["magnetic"]),
                                     total, any_)
        if couplings is not None:
            columns["correction"] = scaled(*laws[-1], "the correction column", length)
    return columns


# Rows per pass of _table_rows: its arrays stay near 2 MB.
_TABLE_CHUNK = 2048


def _split(x):
    # Dekker's split: x = big + small, each of at most 26 significant bits.
    c = 134217729.0 * x
    big = c - (c - x)
    return big, x - big


@functools.cache
def _digit_tables() -> tuple:
    # 10**k, k in [-300, 300], as double-doubles from exact integers: hi,
    # its halves, lo; and the least double >= 10**k.  Then byte rows read
    # as 8-byte words, so one gather fetches a row: the digits of 0..9999
    # in 2-byte digit-point slots; over the five words of 20 such slots,
    # past three NUL slots, the digits kept up to digit j and the point
    # after digit j (none in row 17); the sign and the lead "0.000" cut to
    # 1 - e bytes for e in (-5, 0), in row 6 (x < 0) + 5 + clip(e, -5, 0);
    # and the five bytes of "e-XXX" in row e + 331.  Last, for N's last
    # base-10**4 group g, the index of N's last nonzero digit among its 17:
    # 16 less g's trailing zeros, and 0 for g = 0, whose N is read digit by
    # digit.
    import numpy as np

    hi, lo = [], []
    for k in range(-300, 301):
        hi.append(float(10 ** k) if k >= 0 else 1 / 10 ** -k)
        a, b = hi[-1].as_integer_ratio()
        lo.append(10 ** k - a if k >= 0 else (b - a * 10 ** -k) / (b * 10 ** -k))
    hi, lo = np.array(hi), np.array(lo, dtype=float)

    def words(rows, width):
        data = b"".join(row.ljust(width, b"\0") for row in rows)
        return np.frombuffer(data, np.uint64).reshape(len(rows), -1)

    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return (hi, *_split(hi), lo, np.where(lo > 0.0, np.nextafter(hi, np.inf), hi),
            quads.astype("<u2").view(np.uint64)[:, 0],
            words([b"\0" * 6 + b"\xff\0" * (j + 1) for j in range(17)], 40),
            words([b"\0" * (7 + 2 * j) + b"." for j in range(17)] + [b""], 40),
            words([sign + (b"0.000"[:1 - e] if -5 < e < 0 else b"")
                   for sign in (b"\0", b"-") for e in range(-5, 1)], 8)[:, 0],
            words([b""] + [b"e%+03d" % e for e in range(-330, 331)], 8).view(np.uint8)[:, :5],
            np.r_[0, 16 - sum(np.arange(1, 10000) % 10 ** i == 0 for i in (1, 2, 3))])


def _table_rows(columns: Sequence[np.ndarray], shortest: bool = False,
                between: str = ",", row_end: str = "\n") -> list[str]:
    """The rows of float ``columns``, one string per chunk of rows.

    Each cell is format(x, ".17g"), or repr(x) with ``shortest``; cells
    are joined by ``between`` and rows by ``row_end``; a chunk takes a few
    numpy passes.  A column whose cells share one bit pattern is formatted
    once.  For |x| in [1e-270, 1e290], p + t = |x| 10^(16-e) comes from a
    double-double power of ten and Dekker's exact product, with e log10's
    exponent corrected by comparing |x| with the least doubles at or above
    10^e and 10^(e+1), and N = round(p + t) is its 17 digits, split into
    base-10^4 groups by floor division and a subtraction.  ``shortest``
    takes repr's digits instead: N rounded to 15 digits, else to 16,
    whichever lies within half an ulp of |x| first (a decimal of at most 15
    digits survives the trip through a double, so the shortest one, if it
    has 15 digits or fewer, is x rounded to 15).  The cell then fills 45
    byte slots (sign, lead "0.000", 17 digit-point pairs, "e+XXX") in %g's
    or repr's fixed or scientific form without trailing zeros, NUL in every
    unused slot: N's digits, read as five 8-byte words, are masked whole
    (digits kept up to the last nonzero one, which a 10,000-row table gives
    from N's last group, or, where that group is 0, a scan of the digits
    from the end; point set), take the sign and lead in bytes 0-5 from a
    sign-by-lead table and are copied in one assignment; the exponent
    slots are written only in a pass with a scientific cell and in the one
    after it.  Table rows are gathered by np.take(axis=0), 4x faster than
    fancy indexing.  A row is its cells and the ``between`` after each but
    the last, then ``row_end``, each written once per table; one translate
    per chunk, on the bytearray under the buffer, removes the NULs.
    "%.17g" or repr itself writes every other cell, one within 1e-6 of a
    rounding tie or of the ulp bound, and with ``shortest`` a significand
    that is a power of two, whose rounding interval is lopsided; a pass
    puts those cells in with one assignment from their joined bytes.
    """
    import numpy as np

    (hi, hi_big, hi_small, lo, ceil_tens, quads, keep, points, signs, exponents,
     lasts) = _digit_tables()
    between, row_end = between.encode(), row_end.encode()
    span, gap = 45 + len(between), max(len(between), len(row_end))

    def text(values):  # the cells as "%.17g" or repr writes them, NUL-padded, one row each
        cells = ((repr(x) if shortest else "%.17g" % x).encode().ljust(45, b"\0") for x in values)
        return np.frombuffer(b"".join(cells), np.uint8).reshape(-1, 45)

    # One row buffer serves every pass, which rewrites all 45 bytes of each
    # live cell: a column of one bit pattern (0.0 and -0.0 print apart) and
    # the separators are written once per table.  Cell j starts at j span.
    live = [j for j, column in enumerate(columns)
            if (column.view(np.uint64) != column.view(np.uint64)[0]).any()]
    width = len(columns) * span - len(between) + gap
    text_rows = bytearray(min(len(columns[0]), _TABLE_CHUNK) * width)  # translate reads it in place
    rows = np.frombuffer(text_rows, np.uint8).reshape(-1, width)
    buffer = rows[:, :len(columns) * span].reshape(len(rows), len(columns), span)
    for j in set(range(len(columns))) - set(live):
        buffer[:, j, :45] = text(columns[j][:1].tolist())
    buffer[..., 45:] = list(between)
    rows[:, len(columns) * span - len(between):] = list(row_end.ljust(gap, b"\0"))
    table = np.stack([columns[j] for j in live], 1) if live else np.empty((len(columns[0]), 0))
    chunks, exponents_set = [], False
    for start in range(0, len(table), _TABLE_CHUNK):
        x = table[start:start + _TABLE_CHUNK]
        ax = np.abs(x)
        fallback = ~((ax >= 1e-270) & (ax <= 1e290))  # also zeros, inf and nan
        ax[fallback] = 1.0
        ax_big, ax_small = _split(ax)
        e = np.floor(np.log10(ax)).astype(np.int64)
        e += ax >= ceil_tens[e + 301]  # exact, as ceil_tens[e + 300] <= |x| means 10**e <= |x|
        e -= ax < ceil_tens[e + 300]
        k = 316 - e  # the index of 10**(16 - e)
        p = ax * hi[k]  # an integer from 2**53 on; t carries the rest
        t = ((((ax_big * hi_big[k] - p) + ax_big * hi_small[k]) + ax_small * hi_big[k])
             + ax_small * hi_small[k]) + ax * lo[k]
        p_int = p.astype(np.int64)
        n = p_int + np.floor(t + 0.5).astype(np.int64)
        fallback |= np.abs(t - np.floor(t) - 0.5) < 1e-6
        if shortest:
            half = np.spacing(ax) * hi[k] / 2  # half an ulp of |x|, in units of p
            fallback |= (ax.view(np.uint64) & (2 ** 52 - 1)) == 0
            for step in (10, 100):  # 16 digits, then 15
                q = p_int // step
                r = p_int - q * step
                up = np.floor((r + t) / step + 0.5)
                miss = np.abs(up * step - r - t)  # |(q + up) step - (p + t)|
                fallback |= (np.abs(miss - half) < 1e-6) | (np.abs(miss - step / 2) < 1e-6)
                n = np.where(miss < half, (q + up.astype(np.int64)) * step, n)
        fallback |= (n < 10 ** 16) | (n >= 10 ** 17)
        groups = np.empty(x.shape + (5,), np.intp)  # N in base 10**4, by scalar divisors
        for i in (4, 3, 2, 1):
            q = n // 10 ** 4
            groups[..., i] = n - q * 10 ** 4
            n = q
        groups[..., 0] = n
        words = np.take(quads, groups)  # 20 digits in 2-byte slots, the first three '0'
        last = np.take(lasts, groups[..., 4])  # the last nonzero digit, from N's last group
        zero = np.flatnonzero(last == 0)
        if len(zero):  # a last group of 0: read N's digits back, from the last
            digits = words.reshape(-1, 5)[zero].view("<u2")[:, 3:]
            np.put(last, zero, 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=-1))
        sci = (e < -4) | (e > 16 - shortest)
        whole = np.where(sci, 0, e)  # the digits before the point, less one
        last = np.maximum(last, whole + ~sci if shortest else whole)  # repr writes 1.0, %g 1
        words &= np.take(keep, last, axis=0)
        words |= np.take(points, np.where((last > whole) & (whole >= 0), whole, 17), axis=0)
        words[..., 0] |= np.take(signs, np.clip(e, -5, 0) + 5 + 6 * (x < 0))  # bytes 0-5
        cell = buffer[:len(x)]
        cell[:, live, :40] = words.view(np.uint8)
        set_before, exponents_set = exponents_set, sci.any()
        if exponents_set or set_before:  # else every exponent slot still holds NUL
            cell[:, live, 40:45] = np.take(exponents, np.where(sci, e + 331, 0), axis=0)
        row, col = np.nonzero(fallback)
        if len(row):
            cell[row, np.take(live, col), :45] = text(x[row, col].tolist())
        chunks.append((text_rows if len(x) == len(rows) else text_rows[:len(x) * width])
                      .translate(None, b"\0").decode())
    chunks[-1] = chunks[-1][:len(chunks[-1]) - len(row_end)]
    return chunks


_COMPONENTS = ("electric", "magnetic", "total")
_SPLIT_REPR = "EnergySplit(electric={!r}, magnetic={!r}, total={!r})"


class _SplitColumns(Sequence):
    """Read-only electric, magnetic and total columns, read as EnergySplit.

    Indexing, slicing and iteration build EnergySplit values, so the
    sequence behaves as the tuple of EnergySplit it holds: it compares
    equal to that tuple, hashes and prints as it.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        for column in columns.values():
            column.flags.writeable = False
        self._columns = columns

    @classmethod
    def of(cls, splits: Sequence[EnergySplit]) -> "_SplitColumns":
        import numpy as np

        return cls({name: np.array([getattr(s, name) for s in splits], dtype=float)
                    for name in _COMPONENTS})

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise DomainError(f"component must be one of {_COMPONENTS}, got {name!r}")
        return self._columns[name]

    def __len__(self) -> int:
        return len(self._columns["total"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(EnergySplit, *(c[index].tolist() for c in self._columns.values())))
        # ndarray.item takes negative indices and raises IndexError past the end.
        return EnergySplit(*(c.item(index) for c in self._columns.values()))

    def __iter__(self):
        return map(EnergySplit, *(c.tolist() for c in self._columns.values()))

    def __eq__(self, other):
        if isinstance(other, _SplitColumns):
            import numpy as np

            return all(map(np.array_equal, self._columns.values(), other._columns.values()))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        # The tuple's repr, formatted from the columns without building
        # the EnergySplit values.
        items = list(map(_SPLIT_REPR.format, *(c.tolist() for c in self._columns.values())))
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


class DensityProfile(Record):
    """A density sampled over a theta grid, with scheme provenance.

    The density is held as electric, magnetic and total columns.
    ``values`` reads them as a sequence of EnergySplit, one per grid
    angle, built on indexing; :meth:`component` returns one column as a
    read-only array.  EnergySplit values passed in are stored as columns.
    """

    __slots__ = ("g", "scheme", "grid", "values")

    def _validate(self):
        if len(self.values) != len(self.grid):
            raise DomainError("grid and values must have equal length")
        if not all(map(operator.lt, self.grid, self.grid[1:])):
            raise DomainError("grid must be strictly increasing")
        if self.scheme.kind is RegKind.ZETA and (
            self.grid[0] <= 0.0 or self.grid[-1] >= math.pi
        ):
            raise DomainError("zeta-scheme grids must stay strictly inside (0, pi)")
        if not isinstance(self.values, _SplitColumns):
            _, _, _, set_values = self._setters
            set_values(self, _SplitColumns.of(self.values))

    def component(self, name: str) -> np.ndarray:
        """The electric, magnetic or total column, read-only."""
        return self.values.column(name)


DensitySource = Callable[[Geometry, Position, RegScheme], "EnergySplit | float"]


def sample_profile(
    source: DensitySource, g: Geometry, scheme: RegScheme, spec: GridSpec
) -> DensityProfile:
    """Evaluate a density operation on a grid.

    ``source`` is called as source(g, position, scheme) and may return an
    EnergySplit or a bare density; bare values are stored in the electric
    slot with a zero magnetic part.  ``scalar1d.density_split`` and
    ``em3d.density_split`` are evaluated in one pass by
    :func:`density_columns` instead, with the same values bit for bit.
    Deterministic for a given spec.
    """
    if source is scalar1d.density_split or source is em3d.density_split:
        model = FieldModel.EM if source is em3d.density_split else FieldModel.SCALAR
        thetas = theta_array(spec)
        columns = density_columns(g, model, scheme, thetas)
        values = _SplitColumns({name: columns[name] for name in _COMPONENTS})
        return DensityProfile(g=g, scheme=scheme, grid=tuple(thetas.tolist()), values=values)
    grid = theta_grid(spec)
    values = []
    for theta in grid:
        out = source(g, Position.from_theta(theta, g), scheme)
        if not isinstance(out, EnergySplit):
            out = EnergySplit.from_parts(electric=float(out), magnetic=0.0)
        values.append(out)
    return DensityProfile(g=g, scheme=scheme, grid=grid, values=tuple(values))


class Endpoint(Enum):
    LEFT = "left"
    RIGHT = "right"


class DivergenceFit(Record):
    """Power law density - constant ~ amplitude * sin(theta)^exponent."""

    __slots__ = ("exponent", "amplitude", "r_squared", "window", "n_points")

    @property
    def conclusive(self) -> bool:
        return self.r_squared >= 0.99


def _log_log_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept, with its r^2.

    Every sum is centred and taken with math.fsum.
    """
    n = len(x)
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise FitError("the abscissae of a fit must not all be equal")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(d * d for d in dy)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, min(max(r_squared, 0.0), 1.0)


def fit_divergence(
    profile: DensityProfile,
    endpoint: Endpoint,
    component: str = "total",
    constant_part: float | None = None,
    n_points: int = 4,
    window: float | None = None,
) -> DivergenceFit:
    """Least-squares slope of log|density - constant| against log sin(theta).

    The fit window is the ``n_points`` samples nearest the chosen endpoint
    whose residual magnitude is positive, taken from that endpoint's half
    of the interval (theta <= pi/2 for LEFT, theta >= pi/2 for RIGHT) so a
    mirror sample from the other wall, with the same sin(theta), never
    enters the fit; ``window`` optionally restricts them further to angles
    within that distance of the endpoint.  When ``constant_part`` is not
    given, the sample nearest theta = pi/2 is subtracted.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    return _fit_walk(
        profile.grid, profile.component(component), endpoint, constant_part, n_points, window
    )


def _fit_walk(
    grid: Sequence[float],
    values: Sequence[float] | np.ndarray,
    endpoint: Endpoint,
    constant_part: float | None,
    n_points: int,
    window: float | None,
) -> DivergenceFit:
    # fit_divergence over a strictly increasing grid and its density column.
    if constant_part is None:
        # The angle nearest pi/2, the lower index on a tie (as argmin): the
        # distance falls towards pi/2 and grows past it, so step left from
        # the first angle >= pi/2 while the neighbour is no farther.
        half = 0.5 * math.pi
        nearest = min(bisect.bisect_left(grid, half), len(grid) - 1)
        while nearest > 0 and abs(grid[nearest - 1] - half) <= abs(grid[nearest] - half):
            nearest -= 1
        constant_part = float(values[nearest])

    left = endpoint is Endpoint.LEFT
    reach = 0.5 * math.pi if window is None else min(window, 0.5 * math.pi)
    chosen: list[tuple[float, float]] = []  # (theta, residual), from the wall inward
    for idx in range(len(grid)) if left else reversed(range(len(grid))):
        theta = grid[idx]
        if (theta if left else math.pi - theta) > reach:
            break
        residual = abs(float(values[idx]) - constant_part)
        if residual > 0.0:  # skips zero and nan
            chosen.append((theta, residual))
        if len(chosen) == n_points:
            break
    if len(chosen) < n_points:
        raise FitError(
            f"only {len(chosen)} usable residuals available near the "
            f"{endpoint.value} endpoint; the rest vanish and cannot be logged"
        )
    thetas, residuals = zip(*chosen)
    slope, intercept, r_squared = _log_log_fit(
        [math.log(math.sin(t)) for t in thetas], [math.log(r) for r in residuals]
    )
    return DivergenceFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        r_squared=r_squared,
        window=(min(thetas), max(thetas)),
        n_points=len(chosen),
    )


class ExpansionFit(Record):
    """Scaling of the cutoff-series residual after the eps^2 term is removed."""

    __slots__ = ("theta", "slope", "r_squared", "breakdown")


def epsilon_expansion_check(
    thetas: Sequence[float], eps_list: Sequence[float]
) -> list[ExpansionFit]:
    """Per-angle log-log slope of S(eps, theta) - cot/2 + (cos/(8 sin^3)) eps^2.

    The residual scales as eps^4 wherever the expansion holds; angles with
    theta < max(eps) sit in the breakdown region where the cutoff value is
    boundary dominated, and are flagged.  ``eps_list`` must be a geometric
    sequence with ratio 2 and at least 3 entries.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 3:
        raise DomainError("need at least 3 cutoff values")
    for a, b in zip(eps, eps[1:]):
        if a <= 0.0 or b <= 0.0 or abs(a / b - 2.0) > 1e-9:
            raise DomainError("eps_list must decrease geometrically with ratio 2")
    results = []
    log_eps = [math.log(e) for e in eps]
    for theta in thetas:
        theta = specfun.require_interior_angle(theta)
        limit = regsum.abel_sum_sin_limit(theta)
        quadratic = 0.125 * math.cos(theta) / math.sin(theta) ** 3
        residuals = [
            regsum.abel_sum_sin(e, theta) - limit + quadratic * e * e for e in eps
        ]
        log_residuals = [math.log(abs(r)) for r in residuals]
        slope, _, r_squared = _log_log_fit(log_eps, log_residuals)
        results.append(
            ExpansionFit(
                theta=theta,
                slope=slope,
                r_squared=r_squared,
                breakdown=theta < max(eps),
            )
        )
    return results


# --------------------------------------------------------------------------
# Commutation report
# --------------------------------------------------------------------------


class CommutationModel(Enum):
    FREE_SCALAR = "free_scalar"
    INTERACTING_SCALAR = "interacting_scalar"


# The rows' and the verdict's field names, in order, are their JSON keys.
class WindowRow(Record):
    __slots__ = ("delta", "partial_total", "divergent_estimate")


class CutoffRow(Record):
    __slots__ = ("epsilon", "raw_total", "bulk", "subtracted")


class Verdict(Record):
    __slots__ = ("agrees", "sum_then_regularize", "cutoff_limit", "difference", "tolerance")


class CommutationReport(Record):
    __slots__ = (
        "model", "length", "alpha", "mass", "sum_then_regularize", "window_rows",
        "window_fit_exponent", "window_fit_r_squared", "cutoff_rows", "cutoff_spread",
        "cutoff_limit", "verdict", "notes",
    )
    _defaults = {"notes": ()}

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "length": self.length,
            "alpha": self.alpha,
            "mass": self.mass,
            "sum_then_regularize": self.sum_then_regularize,
            "integrate_then_regularize": [r.asdict() for r in self.window_rows],
            "window_fit": {
                "exponent": self.window_fit_exponent,
                "r_squared": self.window_fit_r_squared,
            },
            "cutoff_full_interval": [r.asdict() for r in self.cutoff_rows],
            "cutoff_spread": self.cutoff_spread,
            "cutoff_limit": self.cutoff_limit,
            "verdict": self.verdict.asdict(),
            "notes": list(self.notes),
        }


def _free_cutoffs(g: Geometry, c: None, epsilons: Sequence[float]):
    # The (raw, bulk, subtracted) law terms at each eps: sum n e^(-eps n), its bulk
    # 1/eps^2 and their difference.  Position terms integrate to zero at any eps.
    scale, exponent = law("scalar total", g.length)
    for eps in epsilons:
        yield (((scale * regsum.abel_sum_linear(eps), exponent),),
               ((scale / (eps * eps), exponent),),
               ((scale * regsum.abel_sum_linear_minus_bulk(eps), exponent),))


def _interacting_cutoffs(g: Geometry, c: Couplings, epsilons: Sequence[float]):
    # The free terms, and at the correction total's scale its constant part
    # plus the squared-index series sum n^2 e^(-2 eps n), with the bulk 2/(2 eps)^3.
    scale, exponent = law("scalar correction total", g.length, c)
    r, s = LAWS["scalar correction total"][4]
    constant = scale * (r / s)
    for eps, (raw, bulk, subtracted) in zip(epsilons, _free_cutoffs(g, c, epsilons)):
        yield (raw + ((constant + scale * regsum.abel_sum_quadratic(2.0 * eps), exponent),),
               bulk + ((scale * 2.0 / (2.0 * eps) ** 3, exponent),),
               subtracted + ((constant + scale * regsum.abel_sum_quadratic_minus_bulk(2.0 * eps),
                              exponent),))


# Each model's report: (a) its total at (g, c); (b) its window, the density that
# geometry.window_integral integrates at each delta; (c) its cutoff (raw, bulk,
# subtracted) law terms at each eps; the Richardson order of (c) (the free
# remainder is even in eps, the interacting one is not); its notes; and whether
# it reads the couplings.
_MODELS = {
    CommutationModel.FREE_SCALAR: (
        lambda g, c: scalar1d.free_total_energy(g), scalar1d.ELECTRIC_WINDOW, _free_cutoffs, 2,
        (), False,
    ),
    CommutationModel.INTERACTING_SCALAR: (
        lambda g, c: scalar1d.interacting_total_energy(g, c), scalar1d.INTERACTING_WINDOW,
        _interacting_cutoffs, 1, (
            "cutoff handling of the 1/sin^4 position term maps it to "
            "4 (dS/dtheta)^2, whose full-interval integral is the squared-index "
            "series; the bulk-subtracted values below are measurements made by "
            "this harness's own construction",
        ), True,
    ),
}


# The verdict's agreement test: |limit - total| <= rtol * max(1, |total|).
_AGREEMENT_RTOL = 1e-7


def _ladder(name: str, values: Sequence[float], g: Geometry) -> list[float]:
    """``values`` as floats, strictly decreasing inside the range of ``name``.

    A delta lies in (0, L/2), an epsilon in (0, inf) and at least
    regsum's smallest cutoff, 1e-75; nan and inf fail the range test.
    The window fit needs at least two deltas.  Epsilons are extrapolated
    to zero, so their ratios must also be constant, as
    richardson_extrapolate requires.
    """
    ladder = [float(v) for v in values]
    upper, bounds = (0.5 * g.length, "(0, L/2)") if name == "delta" else (math.inf, "(0, inf)")
    if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise DomainError(f"{name}s must be a decreasing sequence")
    if any(not 0.0 < v < upper for v in ladder):
        raise DomainError(f"every {name} must lie in {bounds}")
    if name == "epsilon":
        regsum._check_eps(ladder[-1])  # the smallest
    if name == "delta" and len(ladder) < 2:
        raise DomainError("the window fit needs at least two deltas")
    if name == "epsilon" and len(ladder) > 1:
        regsum._common_ratio(ladder, "epsilons")
    return ladder


def commutation_report(
    g: Geometry,
    model: CommutationModel,
    deltas: Sequence[float],
    epsilons: Sequence[float],
    couplings: Couplings | None = None,
) -> CommutationReport:
    """Quantify the non-commutation of regularization and integration.

    Sections: (a) the finite sum-then-regularize total; (b) integrals of
    the continued density over [delta, L - delta], with a power-law fit in
    delta of their divergent part (None where that is 0, at alpha = 0);
    (c) full-interval cutoff totals at each eps, reported raw, with their
    boundary-independent bulk divergence, and with the bulk subtracted;
    (d) a verdict comparing (a) with the eps -> 0 extrapolation of (c).

    The cutoff bulk is 1/eps^2 per unit mode sum (and 2/eps^3 for the
    squared-frequency series of the interacting position term); removing
    it is this harness's own construction, not an input prescription.
    Each model is one entry of ``_MODELS``.
    """
    deltas = _ladder("delta", deltas, g)
    epsilons = _ladder("epsilon", epsilons, g)
    total_of, window, cutoffs, order, notes, coupled = _MODELS[model]
    c = couplings if coupled else None
    if coupled and c is None:
        raise DomainError(f"the {model.value} model requires couplings")

    # (a) integrate first, regularize the total afterwards.
    total = total_of(g, c)
    # (b) regularize first, integrate the density over a shrinking window.
    window_rows = tuple(WindowRow(delta, *window_integral(window, g.length, c, (total, 0), delta))
                        for delta in deltas)
    estimates = [abs(r.divergent_estimate) for r in window_rows]
    window_exponent = window_r2 = None
    if 0.0 not in estimates:
        window_exponent, _, window_r2 = _log_log_fit(
            [math.log(d) for d in deltas], [math.log(e) for e in estimates])
    # (c) cutoff scheme on the full interval.
    rows = tuple(CutoffRow(eps, *(summed("the cutoff total", g.length, *terms) for terms in row))
                 for eps, row in zip(epsilons, cutoffs(g, c, epsilons)))
    subtracted = [r.subtracted for r in rows]
    limit = subtracted[-1]
    if len(rows) > order:
        limit, _ = regsum.richardson_extrapolate(
            [(r.epsilon, r.subtracted) for r in rows], order=order
        )

    difference = abs(limit - total)
    verdict = Verdict(agrees=difference <= _AGREEMENT_RTOL * max(1.0, abs(total)),
                      sum_then_regularize=total, cutoff_limit=limit, difference=difference,
                      tolerance=_AGREEMENT_RTOL)
    return CommutationReport(
        model=model.value,
        length=g.length,
        alpha=None if c is None else c.alpha,
        mass=None if c is None else c.m,
        sum_then_regularize=total,
        window_rows=window_rows,
        window_fit_exponent=window_exponent,
        window_fit_r_squared=window_r2,
        cutoff_rows=rows,
        cutoff_spread=max(subtracted) - min(subtracted),
        cutoff_limit=limit,
        verdict=verdict,
        notes=notes,
    )
