"""Shear velocity profiles U(x2) on the air column [0, h_plus].

Every profile exposes the wind speed and its first two derivatives plus
critical-point queries (altitudes where U equals a given phase speed), and
where its pieces meet: ``kinks`` gives the jumps of U', and the private
``_breaks`` the altitudes at which the solvers stop a shoot.
``value`` and ``curvature`` also take a numpy array of altitudes and return
the array of values; a Python float gets a Python float back.  Profiles
with ``complex_path`` also evaluate arrays of complex altitudes, so that the
Rayleigh solver can shoot along a path indented around a critical layer.
Profiles are immutable after construction and safe to share between
concurrent solves.

Four winds are piecewise polynomials on one private class, ``_Piecewise``:
a table's cubic spline, and the piecewise-linear wind, of which the uniform
and constant-shear winds are the one-piece cases.  Their constructors
validate the input and build the pieces' coefficients; ``_Piecewise``
evaluates every piece by Horner's rule, and reads ``zero_curvature`` (no
piece above degree 1) and its negation ``complex_path`` from them.

The package has one critical-layer finder, :meth:`ShearProfile.path_layers`.
It brackets the layers between altitudes where U is monotone (a table's
knots and interior extrema, a zero-curvature wind's kinks, on any column,
otherwise a uniform grid) and polishes each; tanh has a closed form.
:func:`find_critical_points` validates what it returns.
"""
from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateShear, EndpointCritical, OutOfDomain

__all__ = [
    "ShearProfile",
    "ConstantProfile",
    "LinearShearProfile",
    "PiecewiseLinearProfile",
    "TanhProfile",
    "AnalyticProfile",
    "TabulatedProfile",
    "CriticalLayer",
    "find_critical_points",
    "load_tabulated",
]

#: default number of grid cells used when scanning for critical points
ROOT_SCAN_GRID = 4096

#: |U'(s)| must exceed this multiple of (max U - min U)/h_plus at every root
DEGENERACY_FACTOR = 1e-8

#: c_r this close to U(0) or U(h_plus), relative to the speed scale, is critical
ENDPOINT_RTOL = 1e-10


def _lib(x2):
    """numpy for an array of altitudes, math for one altitude."""
    return np if isinstance(x2, np.ndarray) else math


class ShearProfile:
    """Base class: a wind profile on [0, h_plus].

    Subclasses set ``kind`` and ``h_plus`` and implement ``value``,
    ``slope`` and ``curvature``; ``value`` and ``curvature`` accept an array
    of altitudes as well as a float.  The solvers take ``h_plus = inf`` only
    for profiles with ``zero_curvature`` (uniform, constant shear, piecewise
    linear), whose impedance there has a closed form.
    """

    kind: str = "abstract"
    h_plus: float = math.inf
    #: the interior altitudes where the wind's pieces meet, at which every
    #: shoot stops (a table's knots)
    _breaks: tuple[float, ...] = ()
    #: True when U'' = 0 between the kinks, so that ``curvature`` is 0 and
    #: the wind's vorticity, if any, sits in the point masses of ``kinks``
    #: (a piecewise wind with no piece above degree 1)
    zero_curvature: bool = False
    #: True when ``value`` and ``curvature`` take arrays of complex altitudes
    #: (the domain check applies to the real part) and ``path_reach`` is
    #: implemented
    complex_path: bool = False

    def value(self, x2: float) -> float:
        raise NotImplementedError

    def slope(self, x2: float) -> float:
        raise NotImplementedError

    def curvature(self, x2: float) -> float:
        raise NotImplementedError

    def value_and_curvature(self, x2):
        """(U, U'') at x2, for the solvers that need both at once."""
        self._check_domain(x2)
        return self._value_and_curvature(x2)

    def _value_and_curvature(self, x2):
        """:meth:`value_and_curvature` at altitudes known to lie in the
        column, which it does not check."""
        return self.value(x2), self.curvature(x2)

    # Third and fourth derivatives feed the local series at critical layers.
    # Central differences on the curvature are accurate enough by default;
    # analytic families override.
    def derivative3(self, x2: float) -> float:
        h = self._fd_step()
        lo, hi = max(0.0, x2 - h), min(self.h_plus, x2 + h)
        return (self.curvature(hi) - self.curvature(lo)) / (hi - lo)

    def derivative4(self, x2: float) -> float:
        h = self._fd_step()
        lo, hi = max(0.0, x2 - h), min(self.h_plus, x2 + h)
        mid = 0.5 * (lo + hi)
        return (self.curvature(hi) - 2.0 * self.curvature(mid) + self.curvature(lo)) / (
            (0.5 * (hi - lo)) ** 2
        )

    def path_layers(self, c_r: float) -> tuple[tuple[float, float], ...]:
        """(s, U'(s)) of every interior critical layer at c_r, ascending in s.

        The package's one critical-layer finder, for every profile on a
        finite column and every zero-curvature one.  Each interval between
        consecutive monotone nodes (``_monotone_nodes``) over which U - c_r
        changes sign, or is zero at the left node, holds one layer.  Its
        root is polished by Newton from the chord's root, with a bisection
        step wherever Newton would leave the bracket.  On the default grid,
        two layers inside one cell are missed.  :func:`find_critical_points` validates what this returns.
        """
        xs, us = self._monotone_nodes
        f = us - c_r
        below = f < 0.0
        hits = (f[:-1] == 0.0) | ((f[1:] != 0.0) & (below[:-1] != below[1:]))
        out = []
        for i in np.flatnonzero(hits).tolist():
            s = float(xs[i]) if f[i] == 0.0 else self._polish(
                c_r, float(xs[i]), float(xs[i + 1]), float(f[i]), float(f[i + 1]))
            if 0.0 < s < self.h_plus:
                out.append((s, self.slope(s)))
        return tuple(out)

    @cached_property
    def _monotone_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Altitudes from 0 to h_plus between which U is monotone, and U at
        them, evaluated once per profile (profiles are immutable): a
        zero-curvature wind's 0, kinks and h_plus, U's limit standing at an
        unbounded top; otherwise the ``ROOT_SCAN_GRID`` cells of a uniform
        grid on a finite column."""
        if self.zero_curvature:
            xs = np.array([0.0, *(x for x, _ in self.kinks()), self.h_plus])
            us, slope = self.value(xs[:-1]), self.slope(xs[-2])
            # U is linear above the top kink
            top = self.value(xs[-1]) if math.isfinite(xs[-1]) else \
                us[-1] + (slope and math.copysign(math.inf, slope))
            return xs, np.append(us, top)
        if not math.isfinite(self.h_plus):
            raise OutOfDomain("cannot scan or bound a curved profile on [0, inf)")
        xs = np.linspace(0.0, self.h_plus, ROOT_SCAN_GRID + 1)
        return xs, self.value(xs)

    def _polish(self, c_r: float, lo: float, hi: float, f_lo: float,
                f_hi: float) -> float:
        """The root of U - c_r in [lo, hi], where it takes the opposite-signed
        values f_lo and f_hi: Newton from the chord's root, bisecting wherever
        Newton would leave the bracket, until the residual or the step reaches
        rounding; Newton starts from lo where hi is infinite."""
        eps = sys.float_info.epsilon
        s = lo + (hi - lo) * (f_lo / (f_lo - f_hi)) if hi < math.inf else lo
        for _ in range(100):
            f = self.value(s) - c_r
            if abs(f) <= eps * abs(c_r):
                break
            if (f < 0.0) == (f_lo < 0.0):
                lo = s
            else:
                hi = s
            slope = self.slope(s)
            nxt = s - f / slope if slope != 0.0 else lo  # flat: bisect
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - s) <= eps * abs(s):
                break
            s = nxt
        return s

    def kinks(self) -> list[tuple[float, float]]:
        """Interior kink altitudes with the U' jump (above minus below): none
        unless U' is discontinuous."""
        return []

    def path_reach(self, s: float) -> float:
        """Distance from s to the nearest other complex root of U(x) = U(s).

        An indented path around the layer at s stays inside this radius, so
        that it passes no other singularity of the Rayleigh coefficient.
        """
        raise NotImplementedError

    def _fd_step(self) -> float:
        span = self.h_plus if math.isfinite(self.h_plus) else 1.0
        return 1e-4 * max(span, 1.0)

    def u_bounds(self) -> tuple[float, float]:
        """(min U, max U) over the column: U's extremes at the monotone
        nodes, which hold a piecewise wind's extrema (a zero-curvature one's
        on any column) and sample the others; closed forms override."""
        us = self._monotone_nodes[1]
        return float(us.min()), float(us.max())

    def _check_domain(self, x2) -> None:
        if isinstance(x2, np.ndarray):
            re = x2.real  # a complex altitude is in the column by its real part
            if re.size and not (0.0 <= re.min() and re.max() <= self.h_plus):
                raise OutOfDomain(
                    f"altitudes in [{re.min()!r}, {re.max()!r}] outside "
                    f"[0, {self.h_plus!r}] for {self.kind} profile")
        elif not (0.0 <= x2 <= self.h_plus):
            raise OutOfDomain(
                f"x2={x2!r} outside [0, {self.h_plus!r}] for {self.kind} profile"
            )


class _Piecewise(ShearProfile):
    """A polynomial of degree <= 3 on each piece [knots[j], knots[j+1]]:
    U = ((a t + b) t + c) t + d, t = x2 - knots[j], (a, b, c, d) = ``_c[:, j]``
    as in scipy's ``PPoly.c``, evaluated by Horner's rule at any real or
    complex altitude.  The top knot is h_plus, infinite only above a linear
    piece; ``kinks`` are the U' jumps the subclass states (a spline has none).
    """

    def __init__(self, knots: np.ndarray, coeffs: np.ndarray,
                 kinks: Sequence[tuple[float, float]] = ()):
        self._knots, self._c, self._kinks = knots, coeffs, tuple(kinks)
        self.h_plus = float(knots[-1])
        # U''' (and U' at a kink) jumps at the knots, which the error estimate
        # does not see coming: stepping across them misses the tolerance 100-fold
        self._breaks = tuple(knots[1:-1].tolist())
        # (a, b, c, d, lower knot) of each piece, for a float altitude
        self._pieces = np.vstack((coeffs, knots[:-1])).T.tolist()
        # no piece above degree 1; the others evaluate complex altitudes
        self.zero_curvature = not coeffs[:2].any()
        self.complex_path = not self.zero_curvature
        if self.zero_curvature:  # the base class's nodes: 0, kinks, h_plus
            return
        # the knots and the interior extrema of the pieces: U is monotone
        # between consecutive nodes, so each sign change of U - c_r over
        # them brackets exactly one layer
        a, b, c = 3.0 * coeffs[0], 2.0 * coeffs[1], coeffs[2]
        with np.errstate(all="ignore"):  # NaN where U' has no real root
            sq = np.sqrt(b * b - 4.0 * a * c)
            # the roots of U' = a t^2 + b t + c on each piece
            t = np.concatenate(((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a),
                                np.where(a == 0.0, -c / b, np.nan)))
        base, span = np.tile(knots[:-1], 3), np.tile(np.diff(knots), 3)
        inside = (t > 0.0) & (t < span)
        nodes = np.unique(np.concatenate((knots, base[inside] + t[inside])))
        self._monotone_nodes = nodes, self._value_and_curvature(nodes)[0]

    def _piece(self, x):
        """Index of the piece that holds the altitude (real part of) x: the
        count of interior knots at or below it."""
        if isinstance(x, np.ndarray):
            return np.searchsorted(self._knots[1:-1], x.real, side="right")
        return bisect_right(self._breaks, x)

    def _at(self, x2):
        """The coefficients (a, b, c, d, ...) of the piece of Re x2 and t:
        Python floats for a float x2, whose arithmetic is numpy's bit for
        bit."""
        j = self._piece(x2)
        if isinstance(x2, np.ndarray):
            return self._c[:, j], x2 - self._knots[j]
        return self._pieces[j], x2 - self._pieces[j][4]

    def _value_and_curvature(self, x2):
        """(U, U'') at real or complex x2, by Horner's rule."""
        (a, b, c, d, *_), t = self._at(x2)
        u, upp = ((a * t + b) * t + c) * t + d, 6.0 * a * t + 2.0 * b
        return (u, upp) if isinstance(x2, np.ndarray) else (float(u), float(upp))

    def value(self, x2):
        self._check_domain(x2)
        return self._value_and_curvature(x2)[0]

    def slope(self, x2):
        self._check_domain(x2)
        (a, b, c, *_), t = self._at(x2)
        return float((3.0 * a * t + 2.0 * b) * t + c)

    def curvature(self, x2):
        self._check_domain(x2)
        return self._value_and_curvature(x2)[1]

    def derivative3(self, x2):
        return 6.0 * self._pieces[self._piece(x2)][0]

    def derivative4(self, x2):
        return 0.0  # cubic pieces

    def kinks(self) -> list[tuple[float, float]]:
        return list(self._kinks)

    def path_reach(self, s: float) -> float:
        # the other two roots of the piece's cubic: divide (t - t_s) out of
        # a t^3 + b t^2 + c t + (d - U(s)) and solve the quadratic
        (a, b, c, *_), ts = self._at(s)
        b1 = b + a * ts
        c1 = c + ts * b1
        if a == 0.0:
            return math.inf if b1 == 0.0 else abs(c1 / b1)
        disc = cmath.sqrt(b1 * b1 - 4.0 * a * c1)
        return min(abs((-b1 + disc) / (2.0 * a) - ts),
                   abs((-b1 - disc) / (2.0 * a) - ts))


class PiecewiseLinearProfile(_Piecewise):
    """Continuous piecewise-linear wind profile.

    ``nodes`` lists the kink altitudes starting at 0; segment ``i`` spans
    ``[nodes[i], nodes[i+1]]`` (the last segment extends to ``h_plus``, which
    may be infinite) and carries shear rate ``slopes[i]``.  U'' is 0 inside
    every segment; its point masses at the interior nodes are the U' jumps
    of :meth:`kinks`.
    """

    kind = "piecewise_linear"

    def __init__(self, nodes: Sequence[float], slopes: Sequence[float], u0: float = 0.0,
                 h_plus: float = math.inf):
        nodes = [float(x) for x in nodes]
        slopes = [float(s) for s in slopes]
        if len(nodes) < 1 or len(slopes) != len(nodes):
            raise ValueError("need one slope per segment (len(slopes) == len(nodes))")
        if nodes[0] != 0.0:
            raise ValueError("first node must be 0")
        if any(b >= c for b, c in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        if not nodes[-1] < h_plus:  # also for a NaN h_plus
            raise ValueError("all nodes must lie below h_plus")
        self.nodes = tuple(nodes)
        self.slopes = tuple(slopes)
        self.u0 = float(u0)
        rises = [s * (b - a) for s, a, b in zip(slopes, nodes, nodes[1:])]
        vals = list(accumulate(rises, initial=self.u0))  # U at the nodes
        super().__init__(np.array([*nodes, h_plus], dtype=float),
                         np.array([[0.0] * len(nodes)] * 2 + [slopes, vals]),
                         [(x, b - a) for x, a, b in zip(nodes[1:], slopes, slopes[1:])])

    @classmethod
    def ramp(cls, mu: float, x2_star: float, h_plus: float = math.inf
             ) -> "PiecewiseLinearProfile":
        """Shear mu up to the kink altitude x2_star, uniform above."""
        return PiecewiseLinearProfile([0.0, x2_star], [mu, 0.0], u0=0.0,
                                      h_plus=h_plus)

    def __repr__(self):
        return (f"PiecewiseLinearProfile(nodes={self.nodes}, slopes={self.slopes}, "
                f"u0={self.u0}, h_plus={self.h_plus})")


class ConstantProfile(PiecewiseLinearProfile):
    """Uniform wind U(x2) = u0: one piece of zero shear."""

    kind = "constant"

    def __init__(self, u0: float, h_plus: float = math.inf):
        super().__init__([0.0], [0.0], u0, h_plus)

    def __repr__(self):
        return f"ConstantProfile(u0={self.u0}, h_plus={self.h_plus})"


class LinearShearProfile(PiecewiseLinearProfile):
    """Constant shear U(x2) = u0 + mu * x2: one piece."""

    kind = "linear"

    def __init__(self, u0: float, mu: float, h_plus: float = math.inf):
        super().__init__([0.0], [mu], u0, h_plus)
        self.mu = self.slopes[0]

    def __repr__(self):
        return f"LinearShearProfile(u0={self.u0}, mu={self.mu}, h_plus={self.h_plus})"


@dataclass(frozen=True)
class TanhProfile(ShearProfile):
    """Boundary-layer style wind U(x2) = u_max * tanh(x2 / d)."""

    u_max: float
    d: float
    h_plus: float
    kind = "tanh"
    complex_path = True

    def __post_init__(self):
        # h_plus > 0 is False for a NaN
        if not (math.isfinite(self.u_max) and math.isfinite(self.d)
                and self.d != 0.0 and self.h_plus > 0.0):
            raise ValueError("need u_max and d finite, d nonzero and h_plus "
                             "> 0 (inf allowed)")

    def value(self, x2):
        self._check_domain(x2)
        return self.u_max * _lib(x2).tanh(x2 / self.d)

    def slope(self, x2):
        self._check_domain(x2)
        return self.u_max / self.d / math.cosh(x2 / self.d) ** 2

    def curvature(self, x2):
        self._check_domain(x2)
        t = _lib(x2).tanh(x2 / self.d)
        return -2.0 * self.u_max / self.d**2 * t * (1.0 - t * t)

    def _value_and_curvature(self, x2):
        t = _lib(x2).tanh(x2 / self.d)
        return (self.u_max * t,
                -2.0 * self.u_max / self.d**2 * t * (1.0 - t * t))

    def derivative3(self, x2):
        t = math.tanh(x2 / self.d)
        s2 = 1.0 - t * t
        return -2.0 * self.u_max / self.d**3 * (s2 * s2 - 2.0 * s2 * t * t)

    def derivative4(self, x2):
        t = math.tanh(x2 / self.d)
        s2 = 1.0 - t * t
        return 8.0 * self.u_max / self.d**4 * s2 * t * (2.0 * s2 - t * t)

    def u_bounds(self) -> tuple[float, float]:
        ends = (0.0, self.u_max * math.tanh(self.h_plus / self.d))
        return min(ends), max(ends)

    def path_layers(self, c_r: float) -> tuple[tuple[float, float], ...]:
        if self.u_max == 0.0:
            return ()
        r = c_r / self.u_max
        lo, hi = sorted((0.0, math.tanh(self.h_plus / self.d)))
        if not lo < r < hi:
            return ()
        return ((self.d * math.atanh(r), self.u_max / self.d * (1.0 - r * r)),)

    def path_reach(self, s: float) -> float:
        # tanh(x/d) = tanh(s/d) again at x = s + i pi d n
        return math.pi * abs(self.d)


def _each(fn, x2):
    """fn at x2, called once per altitude of an array."""
    if isinstance(x2, np.ndarray):
        return np.array([fn(x) for x in x2.ravel().tolist()]).reshape(x2.shape)
    return fn(x2)


class AnalyticProfile(ShearProfile):
    """Wind profile defined by user-supplied callables.

    Parameters
    ----------
    f, df, d2f : callable
        U, U' and U'' as functions of altitude.
    h_plus : float
        Top of the air column (finite).
    d3f, d4f : callable, optional
        Higher derivatives; finite differences of ``d2f`` are used otherwise.
    name : str
        Label used in reprs and serialized metadata.
    """

    kind = "analytic"

    def __init__(self, f: Callable[[float], float], df, d2f, h_plus: float,
                 d3f=None, d4f=None, name: str = "analytic"):
        if not math.isfinite(h_plus):
            raise ValueError("AnalyticProfile requires a finite h_plus")
        self._f, self._df, self._d2f = f, df, d2f
        self._d3f, self._d4f = d3f, d4f
        self.h_plus = float(h_plus)
        self.name = name

    def value(self, x2):
        self._check_domain(x2)
        return _each(self._f, x2)

    def slope(self, x2):
        self._check_domain(x2)
        return self._df(x2)

    def curvature(self, x2):
        self._check_domain(x2)
        return _each(self._d2f, x2)

    def derivative3(self, x2):
        if self._d3f is not None:
            return self._d3f(x2)
        return super().derivative3(x2)

    def derivative4(self, x2):
        if self._d4f is not None:
            return self._d4f(x2)
        return super().derivative4(x2)

    def __repr__(self):
        return f"AnalyticProfile(name={self.name!r}, h_plus={self.h_plus})"


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, n-1) coefficients of the not-a-knot cubic spline through
    (x, y), laid out as scipy's ``CubicSpline.c``: the knot slopes m solve
    scipy's tridiagonal system by one sweep, which needs no pivoting, since
    the interior rows are diagonally dominant once m[0] is eliminated."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # row i: sub[i] m[i-1] + diag[i] m[i] + sup[i] m[i+1] = rhs[i]; the end
    # rows make U''' continuous across the second and last-but-one knots
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    sub = np.r_[0.0, dx[1:], d1].tolist()
    diag = np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]].tolist()
    sup = np.r_[d0, dx[:-1], 0.0].tolist()
    m = np.r_[  # rhs, the slopes once swept
        ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
        3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1,
    ].tolist()
    for i in range(1, len(m)):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        m[i] -= w * m[i - 1]
    m[-1] /= diag[-1]
    for i in range(len(m) - 2, -1, -1):
        m[i] = (m[i] - sup[i] * m[i + 1]) / diag[i]
    m = np.array(m)
    t = (m[:-1] + m[1:] - 2.0 * slope) / dx
    return np.array([t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]])


class TabulatedProfile(_Piecewise):
    """Measured wind samples interpolated by a C2 cubic spline.

    Not-a-knot end conditions avoid injecting artificial curvature at the
    endpoints.  The coefficients are scipy's ``CubicSpline`` ones, computed
    in numpy; samples on one line give a zero-curvature wind.  Needs at
    least 4 strictly increasing sample altitudes starting at 0.
    """

    kind = "tabulated"

    def __init__(self, x2: Sequence[float], u: Sequence[float]):
        x2 = np.asarray(x2, dtype=float)
        u = np.asarray(u, dtype=float)
        if x2.ndim != 1 or x2.shape != u.shape:
            raise ValueError("x2 and u must be 1-d arrays of equal length")
        if x2.size < 4:
            raise ValueError("need at least 4 samples for a C2 interpolant")
        if not (np.isfinite(x2).all() and np.isfinite(u).all()):
            raise ValueError("samples must be finite")
        if np.any(np.diff(x2) <= 0.0):
            raise ValueError("sample altitudes must be strictly increasing")
        if abs(x2[0]) > 1e-12 * max(1.0, abs(x2[-1])):
            raise ValueError("samples must start at the interface x2 = 0")
        self.x2 = x2
        self.u = u
        super().__init__(x2, _not_a_knot(x2, u))

    def __repr__(self):
        return f"TabulatedProfile(n={self.x2.size}, h_plus={self.h_plus})"


def load_tabulated(path) -> TabulatedProfile:
    """Read a profile table: one "x2 value" pair per line, '#' comments."""
    xs, us = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:  # a count other than two, or a sample that is no number
                x, u = (float(part) for part in line.split())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'x2 value', "
                                 f"got {raw!r}") from None
            xs.append(x)
            us.append(u)
    return TabulatedProfile(xs, us)


@dataclass(frozen=True)
class CriticalLayer:
    """One critical altitude: U(position) = target phase speed."""

    position: float
    u_prime: float
    u_double_prime: float


def find_critical_points(profile: ShearProfile, c_r: float
                         ) -> tuple[CriticalLayer, ...]:
    """Every interior critical layer at the real phase speed c_r, as a tuple
    ascending in altitude.

    The layers are those of ``profile.path_layers(c_r)``, at the same
    positions, validated against the endpoints, the degeneracy threshold and
    the residual of the polish, then annotated with U''.

    Raises
    ------
    EndpointCritical
        If c_r matches U(0) or U(h_plus) to within ``ENDPOINT_RTOL``.
    DegenerateShear
        If |U'(s)| at any root falls below the ``DEGENERACY_FACTOR`` threshold
        (0 on an unbounded column), if U = c_r on the whole of an unbounded
        top piece, or if |U(s) - c_r| exceeds 1e-12 max(1, |c_r|).
    OutOfDomain
        On an unbounded column, for a wind without ``zero_curvature``.
    """
    if not math.isfinite(c_r):
        raise ValueError("c_r must be finite")

    h = profile.h_plus
    bounded = math.isfinite(h)
    umin, umax = profile.u_bounds() if bounded else (0.0, 0.0)
    speed_scale = max(1.0, abs(c_r), umax - umin)
    u0 = profile.value(0.0)
    uh = profile.value(h) if bounded else profile._monotone_nodes[1][-1]
    if not bounded and abs(uh - c_r) <= ENDPOINT_RTOL * speed_scale:
        raise DegenerateShear(f"U = c_r = {c_r} on the unbounded top piece")
    if abs(u0 - c_r) <= ENDPOINT_RTOL * speed_scale or abs(uh - c_r) <= ENDPOINT_RTOL * speed_scale:
        raise EndpointCritical(
            f"c_r={c_r} equals U at an endpoint (U(0)={u0}, U(h+)={uh})"
        )

    threshold = DEGENERACY_FACTOR * max(umax - umin, 1e-300) / h
    layers = []
    for s, up in profile.path_layers(c_r):
        if abs(up) <= threshold:
            raise DegenerateShear(
                f"|U'({s})| = {abs(up):g} below regular-value threshold {threshold:g}"
            )
        layers.append(CriticalLayer(s, up, profile.curvature(s)))

    for layer in layers:
        resid = abs(profile.value(layer.position) - c_r)
        if resid > 1e-12 * max(1.0, abs(c_r)):
            raise DegenerateShear(
                f"root polish stalled at x2={layer.position} (residual {resid:g})"
            )
    return tuple(layers)
