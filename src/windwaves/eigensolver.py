"""Complex root location for dispersion residuals.

Residual evaluations typically cost an ODE solve, so the local iteration is
Muller's three-point method, which needs no derivative, and the global
counting tool is an argument-principle winding number with adaptive
boundary refinement.  A sweep's kernel gives the residual's slope at the
cost of a quadrature, so a sweep's chain can start with a Hermite step.

Each finder is a generator that yields the wave speeds it needs next.  One
driver, :func:`_rounds`, runs any number of them with one evaluation per
round, which returns the values and the error of each failed point.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryZero,
    BranchLost,
    NoConvergence,
    NoCriticalLayer,
    PhaseJumpUnresolved,
    WindwavesError,
)
from .rayleigh import _raise_first

__all__ = [
    "EigenResult",
    "GrowthCurve",
    "ScanStrategy",
    "find_root",
    "root_counts",
    "square_roots_real",
    "continue_in_epsilon",
    "scan_k",
]

UNSTABLE = "Unstable"
NEUTRAL = "NeutralOrStable"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class EigenResult:
    """One complex wave speed that a Muller chain converged to, or, in a
    :class:`GrowthCurve`, a failed row: ``converged`` False, c and the
    residual NaN, and ``message`` naming the error."""

    c: complex
    residual_norm: float
    iterations: int
    classification: str
    k: Optional[float] = None
    converged: bool = True
    message: str = ""

    @property
    def growth_rate(self) -> Optional[float]:
        """Temporal growth k * Im c of the mode e^{ik(x1 - c t)}."""
        if self.k is None:
            return None
        return self.k * self.c.imag


def _classify(c: complex) -> str:
    # relative to |c|, so that the verdict does not depend on the unit of speed
    return UNSTABLE if c.imag > 1e-8 * abs(c) else NEUTRAL


def find_root(residual: Callable[[complex], complex], c_init: complex, *,
              tol: float = 1e-11, max_iter: int = 50, scale: float = 1.0,
              k: Optional[float] = None) -> EigenResult:
    """Muller iteration in the complex plane from a single seed.

    Convergence requires |residual| <= tol * scale together with a relative
    step below 1e-12 (or a residual at rounding level).  ``scale`` carries the
    dimensional normalization, typically g.  Muller starts 1e-4 relative
    around the seed; Im c > 1e-8 |c| classifies a root unstable.
    A residual with a ``batch`` (see :func:`root_counts`) gets the starting
    triple in one call, and each later point in one more.

    Raises
    ------
    ValueError
        Unless tol and scale are positive and finite and max_iter >= 1,
        before any evaluation.
    NoConvergence
        After max_iter Muller steps.
    WindwavesError
        The residual's error at the first failed point.
    """
    # each comparison is False for a NaN
    if not (0.0 < tol < math.inf and 0.0 < scale < math.inf
            and max_iter >= 1):
        raise ValueError("need tol and scale positive and finite, "
                         "and max_iter >= 1")
    chain = _muller(c_init, tol=tol, max_iter=max_iter, scale=scale, k=k)
    results, errors = _rounds(_evaluator(residual), [chain])
    _raise_first(errors)
    return results[0]


def _muller(c_init: complex, *, tol: float, max_iter: int, scale: float,
            k: Optional[float],
            known: Optional[tuple[complex, complex, Optional[complex]]] = None
            ) -> Generator[list, list, EigenResult]:
    """Muller's iteration as a generator, for :func:`find_root` and
    :func:`scan_k`: it yields its start, then one point per step, and
    returns its :class:`EigenResult`.

    The start is the triple c_init +/- h0, c_init, h0 = 1e-4 max(|c_init|, 1).
    A ``known`` triple (c0, f(c0), f'(c0) or None) replaces it: the chain
    yields c_init alone and is sent (f(c_init), f'(c_init)) for it; with
    f(c0) None too, it yields c_init and c0 and is sent both pairs.  Its
    first step goes to the root nearest c_init of the Hermite interpolant
    through (c0, f(c0)) and (c_init, f(c_init), f'(c_init)), cubic with
    f'(c0) and quadratic without, and Muller goes on from (c0, c_init, x1)
    unless x1 passes the convergence test.  Each step counts as one
    iteration.
    """
    floor = tol * scale
    h0 = 1e-4 * max(abs(c_init), 1.0)
    if known is None:
        xs = [c_init + h0, c_init - h0, c_init]
        fs = yield xs
        step = None
    else:
        x0, f0, df0 = known
        if f0 is None:  # c0 is shot beside c_init
            (f1, df1), (f0, df0) = yield [c_init, x0]
        else:
            (f1, df1), = yield [c_init]
        xs, fs = [x0, c_init], [f0, f1]
        step = _hermite_step(x0, f0, df0, c_init, f1, df1, h0)

    for x, f in zip(xs, fs):
        if f == 0.0:
            return EigenResult(c=x, residual_norm=0.0, iterations=0,
                               classification=_classify(x), k=k)

    n_iter = 0
    while n_iter < max_iter:
        n_iter += 1
        if step is None:
            x0, x1, x2 = xs
            f0, f1, f2 = fs
            h1, h2 = x1 - x0, x2 - x1
            if h1 == 0.0 or h2 == 0.0:
                break
            d1 = (f1 - f0) / h1
            d2 = (f2 - f1) / h2
            a = (d2 - d1) / (h2 + h1)
            b = a * h2 + d2
            disc = cmath.sqrt(b * b - 4.0 * f2 * a)
            den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
            if den == 0.0:
                step = -f2 / d2 if d2 != 0.0 else h2
            else:
                step = -2.0 * f2 / den
        x3 = xs[-1] + step
        f3, = yield [x3]
        xs = xs[-2:] + [x3]
        fs = fs[-2:] + [f3]
        if abs(f3) <= floor and (abs(step) <= 1e-12 * max(abs(x3), 1e-30)
                                 or abs(f3) <= 1e-3 * floor):
            return EigenResult(c=x3, residual_norm=abs(f3) / scale,
                               iterations=n_iter,
                               classification=_classify(x3), k=k)
        step = None

    # accept a stagnated iterate whose residual still meets the tolerance
    best = min(zip(xs, fs), key=lambda t: abs(t[1]))
    if abs(best[1]) <= floor:
        return EigenResult(c=best[0], residual_norm=abs(best[1]) / scale,
                           iterations=n_iter,
                           classification=_classify(best[0]), k=k)
    raise NoConvergence(
        f"no root after {n_iter} Muller steps from {c_init} "
        f"(best |residual|/scale = {abs(best[1]) / scale:g})")


def _hermite_step(c0: complex, f0: complex, df0: Optional[complex],
                  x: complex, f: complex, df: complex, fallback: complex
                  ) -> complex:
    """The step from x to the root nearest x of the Hermite interpolant
    p(x + s) = f + df s + a s^2 + b s^3 through (c0, f0, df0) and
    (x, f, df), with b = 0 when ``df0`` is None: Muller's root of the
    quadratic part, then Newton's steps on p while they shrink;
    ``fallback`` where the quadratic is flat."""
    d = c0 - x
    a = (f0 - f - df * d) / (d * d)
    b = 0.0 if df0 is None else ((df0 - df) / d - 2.0 * a) / d
    a -= b * d
    disc = cmath.sqrt(df * df - 4.0 * a * f)
    den = df + disc if abs(df + disc) > abs(df - disc) else df - disc
    if den == 0.0:
        return fallback
    s, last = -2.0 * f / den, math.inf
    while True:
        slope = df + s * (2.0 * a + 3.0 * b * s)
        ds = 0.0 if slope == 0.0 else \
            (f + s * (df + s * (a + b * s))) / slope
        if not abs(ds) < last:  # also for a NaN
            return s
        s, last = s - ds, abs(ds)


#: each refinement level splits a flagged boundary interval into this many
#: parts; a level spends log2(REFINE_SPLIT) of ``max_levels``
REFINE_SPLIT = 16
_REFINE_DEPTH = REFINE_SPLIT.bit_length() - 1
_MAX_LEVELS = 48
#: a contour point whose |residual| is at most this times the largest
#: |residual| on the contour counts as a zero
_ZERO_FLOOR = 1e-13


def root_counts(residual: Callable[[complex], complex],
                rectangles: Sequence[tuple[float, float, float, float]],
                n_boundary: int = 64, *,
                max_levels: int = _MAX_LEVELS) -> list[int]:
    """Winding numbers of the residual around rectangles, counted in lockstep.

    Each rectangle is (re_min, re_max, im_min, im_max).  Its boundary is
    walked counterclockwise with n_boundary samples per side; every adjacent
    pair whose phase difference exceeds pi/2 is split into ``REFINE_SPLIT``
    equal parts, all flagged pairs of one level together, up to
    ``max_levels`` halvings of the original spacing (each level counts as
    log2(REFINE_SPLIT) of them).  Each rectangle has its own zero floor,
    1e-13 times the largest |residual| on its contour, and its own
    refinement.  The rectangles run round by round: the first round evaluates
    all contours, and each later round the next level of every rectangle that
    still has flagged pairs.

    When ``residual`` has a ``batch`` attribute (as the residuals of
    :func:`~windwaves.dispersion.make_miles_residual` do, whose values do not
    depend on the batch), ``batch(cs)`` maps a 1-d array of wave speeds to
    ``(values, errors)``, the error of each failed point by its index, and
    each round is one call.  Other residuals are evaluated point by point.
    A rectangle with a failed point ends with that point's error, and none
    is evaluated again on its own.  Returns the counts in rectangle order.

    Raises
    ------
    ValueError
        If a rectangle has no positive extent, before any evaluation.
    BoundaryZero
        If |residual| at a boundary point falls below the floor.
    PhaseJumpUnresolved
        If refinement cannot bring all phase jumps under pi/2.
    WindwavesError
        The residual's error at a rectangle's first failed point.

    Of several failing rectangles, the first in order raises, as it would in
    separate calls of one rectangle each.
    """
    results, errors = _rounds(_evaluator(residual), [
        _winding(rectangle, n_boundary, max_levels) for rectangle in rectangles])
    _raise_first(errors)
    return results


def square_roots_real(residual: Callable[[complex], complex], center: float,
                      radius: float, n_boundary: int) -> bool:
    """Whether every root in a square on the real axis is real and simple.

    The square is |Re c - center| <= radius, |Im c| <= radius, and the
    residual must be real on its real segment, as a residual with real
    coefficients is.  N is the winding number around the square, counted as
    :func:`root_counts` counts it by default; S is the number of sign
    changes among the n_boundary + 1 real samples at the abscissae of the
    square's bottom side and its far corner.  Each sign change brackets a
    real root (the intermediate value theorem), and N counts every root in
    the square with multiplicity (the argument principle; Delves & Lyness
    1967), so N >= S, and N == S leaves no room for a non-real or a multiple
    root.

    The first round evaluates the contour and the real samples, one
    ``residual.batch`` call when the residual has one; a flagged pair of the
    contour costs one more round per refinement level, as in
    :func:`root_counts`.  Returns False, and raises nothing, when one round
    cannot decide: N != S, a sample value whose imaginary part is not 0 or
    whose modulus is at or below the contour's zero floor, or a
    :class:`~windwaves.errors.WindwavesError` from an evaluation or the count.

    Raises
    ------
    ValueError
        If the radius is not positive, before any evaluation.
    """
    results, errors = _rounds(_evaluator(residual),
                              [_square(center, radius, n_boundary)])
    return not errors and results[0]


def _square(center: float, radius: float, n_boundary: int
            ) -> Generator[list[complex], list[complex], bool]:
    """The decision of :func:`square_roots_real` as a generator."""
    lo, hi = center - radius, center + radius
    contour = _contour((lo, hi, -radius, radius), n_boundary)
    axis = [complex(z.real, 0.0) for z in contour[:n_boundary]] + [complex(hi)]
    vals = yield contour + axis
    ring, line = vals[:len(contour)], vals[len(contour):]
    floor = _ZERO_FLOOR * max(abs(v) for v in ring)
    if any(v.imag != 0.0 or abs(v) <= floor for v in line):
        return False
    signs = sum((a.real > 0.0) != (b.real > 0.0) for a, b in zip(line, line[1:]))
    return (yield from _refined(contour, ring, _MAX_LEVELS)) == signs


def _rounds(evaluate: Callable, generators: Sequence[Generator]
            ) -> tuple[list, dict[int, WindwavesError]]:
    """Run generators round by round, with one ``evaluate`` call per round.

    Each generator yields the points it needs next, is sent their values as
    Python complex numbers, and returns its result; all start before the
    first evaluation.  ``evaluate(owners, points)``, where generator
    ``owners[j]`` asks for ``points[j]``, returns the values and each failed
    point's error by index.  A generator ends with its first failed point's
    error, or the :class:`~windwaves.errors.WindwavesError` it raises.
    Returns the results (None where failed) and the errors by generator.
    """
    results, errors = [None] * len(generators), {}
    live = {i: (gen, next(gen)) for i, gen in enumerate(generators)}
    while live:
        rows = list(live.items())
        vals, failed = evaluate([i for i, (_, zs) in rows for _ in zs],
                                [z for _, (_, zs) in rows for z in zs])
        pos = 0
        for i, (gen, zs) in rows:
            span = range(pos, pos + len(zs))
            pos += len(zs)
            first = next((j for j in span if j in failed), None)
            try:
                if first is None:
                    live[i] = (gen, gen.send(vals[span.start:span.stop]))
                    continue
                errors[i] = failed[first]
            except StopIteration as done:
                results[i] = done.value
            except WindwavesError as exc:
                errors[i] = exc
            del live[i]
            gen.close()
    return results, errors


def _evaluator(residual: Callable[[complex], complex]) -> Callable:
    """The ``evaluate`` of :func:`_rounds`: one ``residual.batch`` call, or
    point by point with each point's error caught, skipping the later points
    of an owner whose earlier point failed, which :func:`_rounds` ends."""
    batch = getattr(residual, "batch", None)
    if batch is not None:
        def evaluate(owners, zs):
            vals, errors = batch(np.array(zs, dtype=complex))
            return vals.tolist(), errors
        return evaluate

    def evaluate(owners, zs):
        vals, errors = [complex("nan")] * len(zs), {}
        failed = set()  # owners with a failed point
        for j, (owner, z) in enumerate(zip(owners, zs)):
            if owner in failed:
                continue
            try:
                vals[j] = residual(z)
            except WindwavesError as exc:
                errors[j] = exc
                failed.add(owner)
        return vals, errors
    return evaluate


def _winding(rectangle: tuple[float, float, float, float], n_boundary: int,
             max_levels: int) -> Generator[list[complex], list[complex], int]:
    """One rectangle's count of :func:`root_counts` as a generator."""
    pts = _contour(rectangle, n_boundary)
    return (yield from _refined(pts, (yield pts), max_levels))


def _contour(rectangle: tuple[float, float, float, float],
             n_boundary: int) -> list[complex]:
    """The rectangle's boundary samples, counterclockwise from its corner."""
    re0, re1, im0, im1 = rectangle
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must have positive extent")

    # the sides share their abscissae and ordinates, so a rectangle
    # symmetric about the real axis is made of exact conjugate pairs
    xs, ys = _ticks(re0, re1, n_boundary), _ticks(im0, im1, n_boundary)
    return ([complex(x, im0) for x in xs[:-1]]
            + [complex(re1, y) for y in ys[:-1]]
            + [complex(x, im1) for x in xs[:0:-1]]
            + [complex(re0, y) for y in ys[:0:-1]])


def _refined(pts: list[complex], vals: list[complex], max_levels: int
             ) -> Generator[list[complex], list[complex], int]:
    """The winding number around the contour pts of residuals vals."""
    floor = _ZERO_FLOOR * max(abs(v) for v in vals)

    def check_floor(zs: list[complex], fs: list[complex]) -> None:
        for z, v in zip(zs, fs):
            if abs(v) <= floor:
                raise BoundaryZero(f"|residual({z})| = {abs(v):g} on the contour")

    check_floor(pts, vals)
    n = len(pts)
    pending = [(pts[i], vals[i], pts[(i + 1) % n], vals[(i + 1) % n])
               for i in range(n)]
    total = 0.0
    depth = 0
    while pending:
        flagged = []
        for a, fa, b, fb in pending:
            dphi = cmath.phase(fb / fa)
            if abs(dphi) <= 0.5 * math.pi:
                total += dphi
            elif depth >= max_levels:
                raise PhaseJumpUnresolved(
                    f"phase jump {dphi:.3f} rad between {a} and {b} "
                    f"unresolved after {max_levels} levels")
            else:
                flagged.append((a, fa, b, fb))
        if not flagged:
            break
        depth += _REFINE_DEPTH
        inner = [a + (b - a) * (j / REFINE_SPLIT)
                 for a, _, b, _ in flagged for j in range(1, REFINE_SPLIT)]
        inner_vals = yield inner
        check_floor(inner, inner_vals)
        pending = []
        for i, (a, fa, b, fb) in enumerate(flagged):
            row = slice(i * (REFINE_SPLIT - 1), (i + 1) * (REFINE_SPLIT - 1))
            zs = [a] + inner[row] + [b]
            fs = [fa] + inner_vals[row] + [fb]
            pending += zip(zs, fs, zs[1:], fs[1:])

    winding = total / (2.0 * math.pi)
    count = round(winding)
    if abs(winding - count) > 0.15:
        raise PhaseJumpUnresolved(
            f"non-integer winding number {winding:.4f}")
    return int(count)


def _ticks(lo: float, hi: float, n: int) -> list[float]:
    """n + 1 equally spaced points from lo to hi, taken from the midpoint, so
    that an interval symmetric about 0 gets ticks symmetric about 0."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [lo] + [mid + half * ((2 * j - n) / n) for j in range(1, n)] + [hi]


def continue_in_epsilon(residual_family: Callable[[float], Callable[[complex], complex]],
                        eps_list: Sequence[float], c_seed: complex, *,
                        tol: float = 1e-11, max_iter: int = 50,
                        scale: float = 1.0, k: Optional[float] = None,
                        dc_deps: Optional[complex] = None) -> list[EigenResult]:
    """Track one eigenvalue branch along an ascending epsilon list.

    The predictor is the asymptotic slope ``dc_deps`` (such as
    :attr:`~windwaves.asymptotics.MilesAsymptotics.c1`) for the first step
    when supplied, then secant extrapolation from the two previous roots; the
    corrector is :func:`find_root`.

    Raises
    ------
    ValueError
        If eps_list is not strictly ascending, or as :func:`find_root` does.
    BranchLost
        If the corrector diverges or the branch degenerates.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly ascending")

    results: list[EigenResult] = []
    roots: list[complex] = []
    guess = c_seed
    for i, eps in enumerate(eps_list):
        if i >= 2:
            slope = (roots[-1] - roots[-2]) / (eps_list[i - 1] - eps_list[i - 2])
            guess = roots[-1] + slope * (eps - eps_list[i - 1])
        elif i == 1:
            base = dc_deps if dc_deps is not None else 0.0
            guess = roots[-1] + base * (eps - eps_list[0])
        try:
            res = find_root(residual_family(eps), guess, tol=tol,
                            max_iter=max_iter, scale=scale, k=k)
        except WindwavesError as exc:
            raise BranchLost(
                f"branch lost at eps={eps:g} (seed {guess}): {exc}") from exc
        results.append(res)
        roots.append(res.c)
    return results


@dataclass(frozen=True)
class ScanStrategy:
    """Knobs of a wavenumber sweep."""

    branch: int = +1
    tol: float = 1e-11
    max_iter: int = 60
    rayleigh_tol: float = 1e-10

    def __post_init__(self):
        if self.branch not in (+1, -1):
            raise ValueError("branch must be +1 or -1")
        # each comparison is False for a NaN
        if not (0.0 < self.tol < math.inf
                and 0.0 < self.rayleigh_tol < math.inf and self.max_iter >= 1):
            raise ValueError("need tol and rayleigh_tol positive and finite, "
                             "and max_iter >= 1")


@dataclass
class GrowthCurve:
    """Per-wavenumber eigenvalues of one profile, in ascending k."""

    entries: list[EigenResult]

    def unstable_ks(self) -> list[float]:
        return [e.k for e in self.entries
                if e.converged and e.classification == UNSTABLE]


def scan_k(profile, params, k_list: Sequence[float],
           strategy: ScanStrategy = ScanStrategy()) -> GrowthCurve:
    """Solve the quiescent-ocean dispersion relation at every wavenumber.

    A row is the :class:`EigenResult` its chain returns, conjugated into
    the upper half-plane when Im c < 0; a failed row is recorded in the
    curve without aborting the sweep, with ``converged`` False, and its
    message names the error of its growth constant unless c_k has no layer.
    The Muller chains of all wavenumbers run in lockstep: each round
    evaluates the wave speeds every live chain asks for (each chain's start,
    then one point per chain) in one
    :func:`~windwaves.dispersion.miles_residuals` call, whose batched
    impedances do not depend on the batch.  One
    :func:`~windwaves.asymptotics.growth_constants` call gives the growth
    constants of all wavenumbers and each limit impedance y*'(0) at c_k + i0,
    and so the residual f(c_k) there, and, on the indented path, its slope
    f'(c_k + i0) from the quadrature the shoot carries.  A row with
    c_sharp > 0 is seeded at its
    :meth:`~windwaves.asymptotics.MilesAsymptotics.predicted_c`,
    c_k + eps c_1, and starts from (c_k, f(c_k), f'(c_k + i0)) as the known
    triple of :func:`_muller`, with no slope on the Frobenius route: its
    first round shoots the seed alone, and asks for f' there too; its
    second shoots the root of the Hermite interpolant, cubic with
    f'(c_k + i0) and quadratic without, which mostly converges at once.
    The residual is not analytic in c where U at a column end or at a
    break (a table's knot) equals c; a row whose Re c_k and Re seed lie
    either side of such a speed shoots the partner seed + 1e-4 i
    max(|seed|, 1), away from the real axis, beside its seed instead, and
    its Hermite cubic runs through those two.  A row with c_sharp <= 0, or
    without a growth constant (no layer, or the constant failed), is seeded
    at the real c_k and starts from the triple around it; the first round
    asks for f' at every point it shoots, so also at these triples, whose
    chains do not read it.
    Each chain's shoots start from its last final mesh: the first from its
    seed shoot's, each later point from its last point's.  The Muller
    points lie close together, so that mesh already passes the kernel's
    error test and a round costs one pass of the kernel, not the three of a
    fresh mesh.  The meshes live inside one call, and each row's depend on
    its own chain alone, so a row's entry does not depend on its neighbours
    and a repeated call gives the same entries bit for bit.
    """
    from .asymptotics import growth_constants
    from .dispersion import (_miles_slope, ck, miles_residuals,
                             residual_miles)

    ks = [float(k) for k in k_list]
    if not ks or any(k <= 0.0 for k in ks):
        raise ValueError("k_list must be nonempty and positive")

    meshes = [None] * len(ks)  # each chain's last final mesh
    dimps = [None] * len(ks)  # the slope of y*'(0) at c_k + i0
    asyms, seed_errors = growth_constants(profile, params, ks,
                                          strategy.branch,
                                          strategy.rayleigh_tol,
                                          meshes=meshes, slopes=dimps)
    # no layer, degenerate or c_sharp <= 0: the real seed c_k and its triple
    seeds = [complex(ck(params, k, strategy.branch)) for k in ks]
    known: dict[int, tuple[complex, complex, Optional[complex]]] = {}
    seeded = [i for i, asym in enumerate(asyms)
              if asym is not None and asym.c_sharp > 0.0]
    if seeded:
        # f(c_k) and f'(c_k + i0) at y*'(0) of every seeded row, each in
        # one array call; NaN where the Frobenius route gave no slope
        at = np.array([seeds[i] for i in seeded])
        imp = np.array([asyms[i].impedance for i in seeded])
        dimp = np.array([math.nan if dimps[i] is None else dimps[i]
                         for i in seeded], dtype=complex)
        k_seeded = np.array([ks[i] for i in seeded])
        u0, up0 = profile.value(0.0), profile.slope(0.0)
        f0 = residual_miles(at, imp, params, k_seeded, u0, up0)
        df0 = _miles_slope(at, imp, dimp, params, k_seeded, u0, up0)
        # the residual is not analytic in c where U is at the column's ends
        # or at a break: a row whose c_k and seed lie either side of such a
        # speed would take its Hermite step across it, so it shoots its
        # partner point beside the seed instead
        edges = profile.value(np.array([0.0, *profile._breaks,
                                        profile.h_plus]))
        for i, f, df in zip(seeded, f0.tolist(), df0.tolist()):
            c_k, seed = seeds[i], asyms[i].predicted_c(params.epsilon)
            if np.any((edges - c_k.real) * (edges - seed.real) < 0.0):
                known[i] = (seed + 1e-4j * max(abs(seed), 1.0), None, None)
            else:
                known[i] = (c_k, f, None if dimps[i] is None else df)
            seeds[i] = seed
    chains = [_muller(seed, tol=strategy.tol, max_iter=strategy.max_iter,
                      scale=params.g, k=k, known=known.get(i))
              for i, (k, seed) in enumerate(zip(ks, seeds))]
    # the seed round asks for f' too, which each seeded chain is sent with
    # its f
    seed_round = bool(known)

    def evaluate(owners, cs):
        nonlocal seed_round
        pair_meshes = [meshes[i] for i in owners]
        slopes = [None] * len(cs) if seed_round else None
        seed_round = False
        vals, errors = miles_residuals(profile, params,
                                       [ks[i] for i in owners], cs,
                                       tol=strategy.rayleigh_tol,
                                       meshes=pair_meshes, slopes=slopes)
        for i, mesh in zip(owners, pair_meshes):  # its last point's
            meshes[i] = mesh
        vals = vals.tolist()
        if slopes is not None:
            vals = [(f, df) if i in known else f
                    for i, f, df in zip(owners, vals, slopes)]
        return vals, errors

    rows, errors = _rounds(evaluate, chains)
    for i, row in enumerate(rows):
        if i in errors:
            message, seed_error = str(errors[i]), seed_errors.get(i)
            if seed_error and not isinstance(seed_error, NoCriticalLayer):
                message += f" (seed: {seed_error})"
            rows[i] = EigenResult(
                c=complex("nan"), residual_norm=float("nan"), iterations=0,
                classification=DEGENERATE, k=ks[i], converged=False,
                message=message)
        elif row.c.imag < 0.0:  # report the upper-half representative
            c = row.c.conjugate()
            rows[i] = replace(row, c=c, classification=_classify(c))
    return GrowthCurve(entries=sorted(rows, key=lambda row: row.k))
