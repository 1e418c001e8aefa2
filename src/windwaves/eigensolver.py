"""Complex root location for dispersion residuals.

Residual evaluations typically cost an ODE solve, so the local iteration is
derivative-free (Muller's three-point method) and the global counting tool is
an argument-principle winding number with adaptive boundary refinement.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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

__all__ = [
    "EigenResult",
    "GrowthCurve",
    "GrowthEntry",
    "ScanStrategy",
    "find_root",
    "count_roots",
    "root_counts",
    "square_roots_real",
    "multistart_roots",
    "continue_in_epsilon",
    "scan_k",
]

UNSTABLE = "Unstable"
NEUTRAL = "NeutralOrStable"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class EigenResult:
    """One converged (or classified) complex wave speed."""

    c: complex
    residual_norm: float
    iterations: int
    classification: str
    k: Optional[float] = None

    @property
    def growth_rate(self) -> Optional[float]:
        """Temporal growth k * Im c of the mode e^{ik(x1 - c t)}."""
        if self.k is None:
            return None
        return self.k * self.c.imag


def _classify(c: complex) -> str:
    return UNSTABLE if c.imag > 1e-8 * max(1.0, abs(c.real)) else NEUTRAL


def find_root(residual: Callable[[complex], complex], c_init: complex, *,
              tol: float = 1e-11, max_iter: int = 50, scale: float = 1.0,
              k: Optional[float] = None) -> EigenResult:
    """Muller iteration in the complex plane from a single seed.

    Convergence requires |residual| <= tol * scale together with a relative
    step below 1e-12 (or a residual at rounding level).  ``scale`` carries the
    dimensional normalization, typically g.  Muller starts 1e-4 relative
    around the seed; Im c > 1e-8 max(1, |Re c|) classifies a root unstable.

    Raises
    ------
    NoConvergence
        After max_iter Muller steps.
    """
    chain = _muller(c_init, tol=tol, max_iter=max_iter, scale=scale, k=k)
    try:
        wanted = next(chain)
        while True:
            wanted = chain.send([residual(x) for x in wanted])
    except StopIteration as done:
        return done.value


def _muller(c_init: complex, *, tol: float, max_iter: int, scale: float,
            k: Optional[float]) -> Generator[list[complex], list[complex], EigenResult]:
    """Muller's iteration as a generator, for :func:`find_root` and :func:`scan_k`.

    It yields the list of wave speeds whose residuals it needs next (the
    starting triple, then one point per step), is sent their residuals, and
    returns its :class:`EigenResult`.  A residual error thrown into it ends
    the iteration with that error, as a raising residual ends
    :func:`find_root`.
    """
    floor = tol * scale
    h0 = 1e-4 * max(abs(c_init), 1.0)
    xs = [c_init + h0, c_init - h0, c_init]
    fs = yield xs

    for x, f in zip(xs, fs):
        if f == 0.0:
            return EigenResult(c=x, residual_norm=0.0, iterations=0,
                               classification=_classify(x), k=k)

    n_iter = 0
    while n_iter < max_iter:
        n_iter += 1
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
        x3 = x2 + step
        f3, = yield [x3]
        xs = [x1, x2, x3]
        fs = [f1, f2, f3]
        if abs(f3) <= floor and (abs(step) <= 1e-12 * max(abs(x3), 1e-30)
                                 or abs(f3) <= 1e-3 * floor):
            return EigenResult(c=x3, residual_norm=abs(f3) / scale,
                               iterations=n_iter,
                               classification=_classify(x3), k=k)

    # accept a stagnated iterate whose residual still meets the tolerance
    best = min(zip(xs, fs), key=lambda t: abs(t[1]))
    if abs(best[1]) <= floor:
        return EigenResult(c=best[0], residual_norm=abs(best[1]) / scale,
                           iterations=n_iter,
                           classification=_classify(best[0]), k=k)
    raise NoConvergence(
        f"no root after {n_iter} Muller steps from {c_init} "
        f"(best |residual|/scale = {abs(best[1]) / scale:g})")


def multistart_roots(residual: Callable[[complex], complex],
                     rectangle: tuple[float, float, float, float],
                     grid: int = 5, *, tol: float = 1e-11, scale: float = 1.0,
                     max_iter: int = 40) -> list[complex]:
    """Distinct converged roots inside a rectangle from a seed grid.

    Cross-check companion of :func:`count_roots`: on well-separated zero sets
    the number of distinct roots found from a grid x grid seed array equals
    the winding-number count.
    """
    re0, re1, im0, im1 = rectangle
    found: list[complex] = []
    sep = 1e-6 * max(re1 - re0, im1 - im0)
    for i in range(grid):
        for j in range(grid):
            seed = complex(re0 + (re1 - re0) * (i + 0.5) / grid,
                           im0 + (im1 - im0) * (j + 0.5) / grid)
            try:
                res = find_root(residual, seed, tol=tol, scale=scale,
                                max_iter=max_iter)
            except WindwavesError:
                continue
            c = res.c
            if not (re0 <= c.real <= re1 and im0 <= c.imag <= im1):
                continue
            if all(abs(c - other) > sep for other in found):
                found.append(c)
    return found


#: each refinement level splits a flagged boundary interval into this many
#: parts; a level spends log2(REFINE_SPLIT) of ``max_levels``
REFINE_SPLIT = 16
_REFINE_DEPTH = REFINE_SPLIT.bit_length() - 1
_MAX_LEVELS = 48
#: a contour point whose |residual| is at most this times the largest
#: |residual| on the contour counts as a zero
_ZERO_FLOOR = 1e-13


def count_roots(residual: Callable[[complex], complex],
                rectangle: tuple[float, float, float, float],
                n_boundary: int = 64, *, max_levels: int = _MAX_LEVELS) -> int:
    """Winding number of the residual around a rectangle (root count inside).

    The one-rectangle case of :func:`root_counts`, which documents the
    count, its arguments and its errors.
    """
    return root_counts(residual, [rectangle], n_boundary,
                       max_levels=max_levels)[0]


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
    1e-13 times the largest |residual| on its contour, and its
    own refinement.  The rectangles run round by round: the first round
    evaluates all contours, and each later round the next level of every
    rectangle that still has flagged pairs.

    When ``residual`` has a ``batch`` attribute (as the residuals of
    :func:`~windwaves.dispersion.make_miles_residual` do), ``batch(cs)`` must
    map a 1-d array of wave speeds to the array of residuals, and each round
    is one call.  A batched value of
    :func:`~windwaves.dispersion.make_miles_residual` does not depend on its
    batch, so the counts do not depend on how the points are grouped.  Other
    residuals are evaluated point by point.  When a round's evaluation
    raises a :class:`~windwaves.errors.WindwavesError`, each rectangle's
    points are evaluated on their own, so each meets the error it meets
    alone.  Returns the counts in the order of ``rectangles``.

    Raises
    ------
    ValueError
        If a rectangle has no positive extent, before any evaluation.
    BoundaryZero
        If |residual| at a boundary point falls below the floor.
    PhaseJumpUnresolved
        If refinement cannot bring all phase jumps under pi/2.

    Of several failing rectangles, the first in order raises, as it would in
    separate :func:`count_roots` calls.
    """
    evaluate = _evaluator(residual)
    counts: list[Optional[int]] = [None] * len(rectangles)
    errors: dict[int, WindwavesError] = {}
    live = {}  # index -> (winding generator, the points it waits for)
    for i, rectangle in enumerate(rectangles):
        winding = _winding(rectangle, n_boundary, max_levels)
        live[i] = (winding, next(winding))

    while live:
        rows = list(live.items())
        try:
            joint = evaluate([z for _, (_, zs) in rows for z in zs])
        except WindwavesError:
            joint = None
        pos = 0
        for i, (winding, zs) in rows:
            span = slice(pos, pos + len(zs))
            pos += len(zs)
            try:
                vals = evaluate(zs) if joint is None else joint[span]
                live[i] = (winding, winding.send(vals))
            except StopIteration as done:
                del live[i]
                counts[i] = done.value
            except WindwavesError as exc:
                del live[i]
                errors[i] = exc
    if errors:
        raise errors[min(errors)]
    return counts


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

    The contour and the real samples are evaluated in one call, one
    ``residual.batch`` call when the residual has one; a flagged pair of the
    contour costs one more call per refinement level, as in
    :func:`root_counts`.  Returns False, and raises nothing, when one round
    cannot decide: N != S, a sample value whose imaginary part is not 0 or
    whose modulus is at or below the contour's zero floor, or a
    :class:`~windwaves.errors.WindwavesError` from an evaluation or the count.

    Raises
    ------
    ValueError
        If the radius is not positive, before any evaluation.
    """
    lo, hi = center - radius, center + radius
    winding = _winding((lo, hi, -radius, radius), n_boundary, _MAX_LEVELS)
    contour = next(winding)
    axis = [complex(z.real, 0.0) for z in contour[:n_boundary]] + [complex(hi)]
    evaluate = _evaluator(residual)
    try:
        vals = evaluate(contour + axis)
        ring, line = vals[:len(contour)], vals[len(contour):]
        floor = _ZERO_FLOOR * max(abs(v) for v in ring)
        if any(v.imag != 0.0 or abs(v) <= floor for v in line):
            return False
        wanted = winding.send(ring)
        while True:
            wanted = winding.send(evaluate(wanted))
    except StopIteration as done:
        n_roots = done.value
    except WindwavesError:
        return False
    signs = sum((a.real > 0.0) != (b.real > 0.0) for a, b in zip(line, line[1:]))
    return n_roots == signs


def _evaluator(residual: Callable[[complex], complex]
               ) -> Callable[[list[complex]], list[complex]]:
    """Evaluate a list of wave speeds in one ``residual.batch`` call, or
    point by point when the residual has no ``batch``."""
    batch = getattr(residual, "batch", None)
    if batch is None:
        return lambda zs: [residual(z) for z in zs]
    return lambda zs: [complex(v) for v in batch(np.array(zs, dtype=complex))]


def _winding(rectangle: tuple[float, float, float, float], n_boundary: int,
             max_levels: int) -> Generator[list[complex], list[complex], int]:
    """One rectangle's count of :func:`root_counts` as a generator.

    It checks the rectangle, yields the contour and then the inner points of
    each refinement level, is sent their residuals, and returns the count.
    """
    re0, re1, im0, im1 = rectangle
    if not (re1 > re0 and im1 > im0):
        raise ValueError("rectangle must have positive extent")

    # counterclockwise from (re0, im0); the sides share their abscissae and
    # ordinates, so a rectangle symmetric about the real axis is made of
    # exact conjugate pairs
    xs, ys = _ticks(re0, re1, n_boundary), _ticks(im0, im1, n_boundary)
    pts = ([complex(x, im0) for x in xs[:-1]]
           + [complex(re1, y) for y in ys[:-1]]
           + [complex(x, im1) for x in xs[:0:-1]]
           + [complex(re0, y) for y in ys[:0:-1]])
    vals = yield pts

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

    The predictor is the asymptotic slope ``dc_deps`` for the first step when
    supplied, then secant extrapolation from the two previous roots; the
    corrector is :func:`find_root`.

    Raises
    ------
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


@dataclass(frozen=True)
class GrowthEntry:
    k: float
    c: complex
    growth_rate: float
    residual_norm: float
    converged: bool
    classification: str
    message: str = ""


@dataclass
class GrowthCurve:
    """Per-wavenumber eigenvalues of one profile + parameter snapshot."""

    entries: list[GrowthEntry]
    metadata: dict = field(default_factory=dict)

    def unstable_ks(self) -> list[float]:
        return [e.k for e in self.entries
                if e.converged and e.classification == UNSTABLE]


def scan_k(profile, params, k_list: Sequence[float],
           strategy: ScanStrategy = ScanStrategy()) -> GrowthCurve:
    """Solve the quiescent-ocean dispersion relation at every wavenumber.

    Each entry seeds Muller at c_k plus the asymptotic growth offset
    i eps c_sharp when a critical layer exists; failures are recorded in the
    curve without aborting the sweep, and a failed row's message names the
    error of its growth constant unless c_k has no layer.  The Muller chains
    of all wavenumbers run in lockstep: each round evaluates the wave speeds
    every live chain asks for (the starting triples, then one point per
    chain) in one :func:`~windwaves.dispersion.miles_residuals` call, whose
    batched impedances do not depend on the batch.  The asymptotic seeds of
    all wavenumbers come from one growth-constant call
    (:func:`~windwaves.asymptotics.growth_constants`): on a profile with
    ``complex_path``, one kernel batch at the real speeds c_k along Lin's
    indented path, the same shoot that the Muller rounds take at complex c.
    Each chain's shoots start from its last final mesh: the starting triple
    from its seed's, each later point from its last point's.  The Muller
    points lie close together, so that mesh already passes the kernel's
    error test and a round costs one pass of the kernel, not the three of a
    fresh mesh.  The meshes live inside one call, and each row's depend on
    its own chain alone, so a row's entry does not depend on its neighbours
    and a repeated call gives the same entries bit for bit.
    """
    ks = [float(k) for k in k_list]
    if not ks or any(k <= 0.0 for k in ks):
        raise ValueError("k_list must be nonempty and positive")

    entries = _lockstep(profile, params, ks, strategy)
    order = sorted(range(len(ks)), key=lambda i: ks[i])
    entries = [entries[i] for i in order]
    metadata = {"profile": repr(profile), "params": repr(params),
                "branch": strategy.branch}
    return GrowthCurve(entries=entries, metadata=metadata)


def _lockstep(profile, params, ks: list[float],
              strategy: ScanStrategy) -> list[GrowthEntry]:
    """One Muller chain per wavenumber, all evaluated round by round; each
    chain's shoots start from the final mesh of its last shoot, the first
    ones from its seed's."""
    from .asymptotics import _growth_constants
    from .dispersion import ck, miles_residuals

    entries: list[Optional[GrowthEntry]] = [None] * len(ks)
    chains = {}  # index -> (Muller generator, the wave speeds it waits for)
    meshes: dict[int, np.ndarray] = {}  # index -> the chain's last final mesh
    asyms, seed_errors = _growth_constants(profile, params, ks,
                                           strategy.branch,
                                           strategy.rayleigh_tol, meshes)
    for i, (k, asym) in enumerate(zip(ks, asyms)):
        c_k = ck(params, k, strategy.branch)
        seed = complex(c_k)  # no layer or degenerate: on the real axis
        if asym is not None:
            seed = c_k + 1j * params.epsilon * max(asym.c_sharp, 0.0)
        chain = _muller(seed, tol=strategy.tol, max_iter=strategy.max_iter,
                        scale=params.g, k=k)
        chains[i] = (chain, next(chain))

    while chains:
        rows = list(chains.items())
        pair_ks = [ks[i] for i, (_, wanted) in rows for _ in wanted]
        pair_cs = [c for _, (_, wanted) in rows for c in wanted]
        pair_meshes = [meshes.get(i) for i, (_, wanted) in rows
                       for _ in wanted]
        try:
            vals, errors = miles_residuals(profile, params, pair_ks, pair_cs,
                                           tol=strategy.rayleigh_tol,
                                           meshes=pair_meshes)
        except WindwavesError as exc:  # the whole round, e.g. no finite column
            vals, errors = None, dict.fromkeys(range(len(pair_cs)), exc)
        pos = 0
        for i, (chain, wanted) in rows:
            span = range(pos, pos + len(wanted))
            pos += len(wanted)
            meshes[i] = pair_meshes[span[-1]]
            failed = [errors[j] for j in span if j in errors]
            try:
                if failed:
                    wanted = chain.throw(failed[0])
                else:
                    wanted = chain.send([complex(vals[j]) for j in span])
                chains[i] = (chain, wanted)
            except StopIteration as done:
                del chains[i]
                c = done.value.c
                if c.imag < 0.0:
                    c = c.conjugate()  # report the upper-half representative
                entries[i] = GrowthEntry(
                    k=ks[i], c=c, growth_rate=ks[i] * c.imag,
                    residual_norm=done.value.residual_norm, converged=True,
                    classification=_classify(c))
            except WindwavesError as exc:
                del chains[i]
                message, seed_error = str(exc), seed_errors.get(i)
                if seed_error and not isinstance(seed_error, NoCriticalLayer):
                    message += f" (seed: {seed_error})"
                entries[i] = GrowthEntry(
                    k=ks[i], c=complex("nan"), growth_rate=float("nan"),
                    residual_norm=float("nan"), converged=False,
                    classification=DEGENERATE, message=message)
    return entries
