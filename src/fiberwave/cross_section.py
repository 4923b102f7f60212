"""Dirichlet spectra of channel cross-sections.

Every channel of the network carries a transverse shape; the Dirichlet
eigenvalues of that shape are the propagation thresholds: the n-th mode
travels along the channel iff the spectral parameter exceeds the n-th
eigenvalue.  Three analytic shapes are supported (interval, rectangle,
disk) so every threshold and eigenfunction is exactly checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from scipy.special import jn_zeros, jv

from .errors import NoInfiniteChannels, OutOfDomain, ThresholdCollision

#: Relative half-width of the exclusion window around each threshold.
THRESHOLD_RTOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """1-D cross-section (0, width); channels with it live in the plane."""

    width: float


@dataclass(frozen=True)
class Rectangle:
    """Rectangular cross-section (0, side_a) x (0, side_b)."""

    side_a: float
    side_b: float


@dataclass(frozen=True)
class Disk:
    """Disk of given radius centered at the origin."""

    radius: float


CrossSectionShape = Union[Interval, Rectangle, Disk]


def shape_dims(shape: CrossSectionShape) -> tuple[float, ...]:
    if isinstance(shape, Interval):
        return (shape.width,)
    if isinstance(shape, Rectangle):
        return (shape.side_a, shape.side_b)
    if isinstance(shape, Disk):
        return (shape.radius,)
    raise TypeError(f"not a cross-section shape: {shape!r}")


def _checked_dims(shape: CrossSectionShape) -> tuple[float, ...]:
    dims = shape_dims(shape)
    if not all(math.isfinite(d) and d > 0 for d in dims):
        raise ValueError(f"cross-section dimensions must be positive: {shape!r}")
    return dims


# Mode descriptors: Interval -> n; Rectangle -> (p, q); Disk -> (m, k, parity)
# with parity 0 = cos(m theta), 1 = sin(m theta).

#: Entries kept by the Bessel-zero cache.  Its keys are (order, index)
#: pairs, which do not depend on the radius, so one request touches a few
#: dozen of them however many distinct disks its channels carry, and a
#: long-lived process keeps a fixed amount of memory.
SPECTRUM_CACHE_SIZE = 1024


@lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _bessel_zero(m: int, k: int) -> float:
    return float(jn_zeros(m, k)[-1])


def _modes(shape: CrossSectionShape, level: float) -> list[tuple]:
    """Every mode with eigenvalue <= level as (eigenvalue, *descriptor),
    ascending; equal eigenvalues are ordered by descriptor."""
    _checked_dims(shape)
    modes = []
    if isinstance(shape, Interval):
        n = 0
        while (lam := ((n + 1) * math.pi / shape.width) ** 2) <= level:
            modes.append((lam, n))
            n += 1
    elif isinstance(shape, Rectangle):
        a, b = shape.side_a, shape.side_b
        p = 1
        while math.pi**2 * (p**2 / a**2 + 1 / b**2) <= level:
            q = 1
            while (lam := math.pi**2 * (p**2 / a**2 + q**2 / b**2)) <= level:
                modes.append((lam, p, q))
                q += 1
            p += 1
    else:
        # order m contributes zeros j_{m,k}, twice for m >= 1 (cos/sin
        # variants); j_{m,1} is increasing in m, so the first order whose
        # first zero passes the level ends the enumeration
        m = 0
        while (_bessel_zero(m, 1) / shape.radius) ** 2 <= level:
            k = 1
            while (lam := (_bessel_zero(m, k) / shape.radius) ** 2) <= level:
                modes += [(lam, m, k, parity) for parity in range(1 if m == 0 else 2)]
                k += 1
            m += 1
    modes.sort()
    return modes


def _first_modes(shape: CrossSectionShape, count: int) -> list[tuple]:
    """The `count` lowest modes, raising the level until enough lie below."""
    level = (math.pi / min(_checked_dims(shape))) ** 2
    while len(modes := _modes(shape, level)) < count:
        level *= 2
    return modes[:count]


def thresholds(shape: CrossSectionShape, count: int) -> list[float]:
    """First `count` Dirichlet eigenvalues of the shape, ascending, with
    multiplicity.

    Interval and rectangle values are closed forms; disk values come from
    Bessel zeros (scipy's Newton-refined zeros, well below 1e-12 relative
    error).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [mode[0] for mode in _first_modes(shape, count)]


def threshold_window(lam: float) -> float:
    """Half-width of the exclusion window around thresholds at level lam."""
    return THRESHOLD_RTOL * max(1.0, abs(lam))


def thresholds_below(shape: CrossSectionShape, lam: float) -> list[float]:
    """Thresholds strictly below lam, ascending, with multiplicity: the
    propagating modes at lam.

    Raises ThresholdCollision if lam is within the exclusion window of a
    threshold of this shape, ValueError if lam is not finite.  Every
    propagating-mode count and wavenumber is derived from this one
    enumeration.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    tol = threshold_window(lam)
    ths = [mode[0] for mode in _modes(shape, lam + tol)]
    for t in ths:
        if abs(lam - t) < tol:
            raise ThresholdCollision(
                f"lambda={lam!r} collides with threshold {t!r} of {shape!r}"
            )
    return [t for t in ths if t < lam]


def propagating_count(shape: CrossSectionShape, lam: float) -> int:
    """Number of thresholds strictly below lam (propagating modes).

    Zero when lam sits below the first threshold.
    """
    return len(thresholds_below(shape, lam))


def eigenfunction(shape: CrossSectionShape, n: int, y) -> float:
    """Value of the n-th L2-normalized Dirichlet eigenfunction at y.

    y is a scalar for Interval and a pair of coordinates for Rectangle and
    Disk.  Points on the boundary evaluate to 0; points outside raise
    OutOfDomain.
    """
    if n < 0:
        raise ValueError("mode index must be >= 0")
    mode = _first_modes(shape, n + 1)[n]
    if isinstance(shape, Interval):
        w = shape.width
        y = float(y)
        if not 0 <= y <= w:
            raise OutOfDomain(f"{y!r} outside interval (0, {w!r})")
        return math.sqrt(2.0 / w) * math.sin((mode[1] + 1) * math.pi * y / w)
    if isinstance(shape, Rectangle):
        a, b = shape.side_a, shape.side_b
        y1, y2 = float(y[0]), float(y[1])
        if not (0 <= y1 <= a and 0 <= y2 <= b):
            raise OutOfDomain(f"({y1!r}, {y2!r}) outside rectangle {a!r} x {b!r}")
        _, p, q = mode
        return (
            2.0
            / math.sqrt(a * b)
            * math.sin(p * math.pi * y1 / a)
            * math.sin(q * math.pi * y2 / b)
        )
    r = shape.radius
    y1, y2 = float(y[0]), float(y[1])
    rho = math.hypot(y1, y2)
    if rho > r:
        raise OutOfDomain(f"({y1!r}, {y2!r}) outside disk of radius {r!r}")
    theta = math.atan2(y2, y1)
    _, m, k, parity = mode
    z = _bessel_zero(m, k)
    # ||J_m(z rho / r) trig(m theta)||^2 = (r^2/2) J_{m+1}(z)^2 * (2pi or pi)
    ang = 2.0 * math.pi if m == 0 else math.pi
    norm = math.sqrt(ang * r**2 / 2.0) * abs(jv(m + 1, z))
    radial = jv(m, z * rho / r)
    trig = math.cos(m * theta) if parity == 0 else math.sin(m * theta)
    return float(radial * trig / norm)


@dataclass(frozen=True)
class ModeTable:
    """Thresholds and eigenfunction evaluators of one cross-section."""

    shape: CrossSectionShape
    thresholds: tuple[float, ...]

    def eigenfunction(self, n: int, y) -> float:
        if n >= len(self.thresholds):
            raise ValueError(f"mode {n} not tabulated (have {len(self.thresholds)})")
        return eigenfunction(self.shape, n, y)


def mode_table(shape: CrossSectionShape, count: int) -> ModeTable:
    return ModeTable(shape=shape, thresholds=tuple(thresholds(shape, count)))


def lambda0(graph) -> float:
    """Bottom of the absolutely continuous spectrum: the smallest first
    threshold over the infinite channels of the graph."""
    infinite = [c for c in graph.channels if c.end is None]
    if not infinite:
        raise NoInfiniteChannels("graph has no infinite channel")
    return min(thresholds(c.cross_section, 1)[0] for c in infinite)
