"""Rayleigh-equation solvers on the air column.

The second-order problem

    -y'' + (U''/(U - c) + k^2) y = 0 on (0, h_plus),   y(h_plus) = 0

is integrated from the lid down to the interface with initial data
y(h_plus) = 0, y'(h_plus) = 1.  The single output consumed by the dispersion
relations is the interface impedance y'(0)/y(0), which is invariant under
rescaling of the initial data.

A wind linear between its kinks (``zero_curvature``) takes the closed form
:func:`pwl_impedance_cascade` at every entry below, with ``n_steps`` 0, and
never enters the kernel.  Three regimes cover every other wind:

* ``impedance_outcomes``: many (k, c) pairs in one batch of the kernel.
  The equation is linear in (y, y') and its coefficient does not depend on
  y, so each DOP853 step of a pair is a fixed 2x2 matrix.  The kernel
  (:func:`_integrate`) builds every step of every pair at once, each sum
  over the stages it weighs in one elementwise pass, never by BLAS, chains
  them by prefix products into the states at all nodes, and cuts every step
  that fails DOP853's error test, round by round, until none does; each
  pair's mesh and arithmetic are its own.  A pair may start from an earlier
  shoot's final mesh, which at a nearby wave speed passes the test at once.
  On a profile that evaluates at complex altitudes (``complex_path``: tanh,
  tables) each pair shoots along Lin's path, indented into the complex
  plane only across each critical layer at Re c, on the side away from the
  singularity, so one solver covers Im c large down to Im c = 0+- (the
  limit, with the side given by ``sign_ci``).
  Other curved profiles shoot on the real axis and are refused too close to
  a layer.  The same kernel, or the closed form, shoots the water column of
  :func:`~windwaves.dispersion.general_residuals` from its wall data, with
  no conjugation (:func:`_lid_shoot`).
* ``integrate_wronskian``: the real 4-vector (|y|^2, Re y'conj(y), |y'|^2,
  Im y'conj(y)) whose last component carries the destabilizing phase.
* ``limiting_solution``: the Im c -> 0 limit across critical layers on the
  real axis, one element of the direct solver's column builder whose mesh
  runs between the layers and crosses each with a local log-series patch
  and the explicit derivative jump i sign(c_I) pi U''(s)/|U'(s)| y(s); its
  impedance is an independent check of the indented path's.

The prefix products carry a log scale (see :func:`_chain`), so the kernel
runs at any |k| h+.  It, and with it the limiting solver, needs numpy
alone; ``integrate_wronskian`` steps on scipy's ``solve_ivp``, imported
when it first runs.
"""
from __future__ import annotations

import cmath
import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

try:  # what np.einsum calls when ``optimize`` is False, without its wrapper
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

from .errors import (
    DegenerateAtInterface,
    InfiniteDomain,
    NearSingularCoefficient,
    OrderUnavailable,
    SeriesRadiusTooSmall,
    WindwavesError,
)
from .profiles import CriticalLayer, ShearProfile, find_critical_points

__all__ = [
    "WronskianPath",
    "LayerJump",
    "LimitSolution",
    "ConvergenceReport",
    "integrate_wronskian",
    "limiting_solution",
    "impedance_limit_check",
    "impedance_outcomes",
    "uniform_flow_impedance",
    "pwl_impedance_cascade",
]

#: on the real axis, direct integration requires |Im c| >= SWITCH_FACTOR *
#: speed scale when critical layers exist at Re c (below that, use
#: limiting_solution); profiles with ``complex_path`` shoot along an indented
#: path instead and are not refused
SWITCH_FACTOR = 1e-7

#: relative floor on |y(0)| below which the interface normalization fails
INTERFACE_FLOOR = 1e-12

_DEFAULT_TOL = 1e-10


def _speed_scale(c: complex, u_range: tuple[float, float]) -> float:
    return max(1.0, u_range[1] - u_range[0], abs(c.real))


def _has_layers(u_range: tuple[float, float], c_r: float) -> bool:
    # cheap range test; an exact scan only follows for real c
    umin, umax = u_range
    return umin - 1e-12 <= c_r <= umax + 1e-12


def _check_switch(profile: ShearProfile, c: complex, scale: float,
                  u_range: tuple[float, float]) -> None:
    """Refuse a real-axis solve too close to a critical-layer singularity."""
    ci = c.imag
    if abs(ci) >= SWITCH_FACTOR * scale * (1.0 - 1e-9):
        return
    if abs(ci) > 0.0 and _has_layers(u_range, c.real):
        raise NearSingularCoefficient(
            f"|Im c|={abs(ci):g} below switch threshold "
            f"{SWITCH_FACTOR * scale:g}; use limiting_solution")
    if ci == 0.0 and len(find_critical_points(profile, c.real)) > 0:
        raise _real_speed_refused()


def _speed_not_finite() -> NearSingularCoefficient:
    return NearSingularCoefficient("wave speed is not finite")


def _real_speed_refused() -> NearSingularCoefficient:
    return NearSingularCoefficient(
        "real wave speed with critical layers; use limiting_solution")


def _bumps(profile: ShearProfile, c: complex, bounds: list[float],
           sign_ci: Optional[int],
           layers: Optional[tuple[CriticalLayer, ...]] = None
           ) -> tuple[tuple[float, float, float], ...]:
    """The indentations (lo, hi, depth) of one element's shooting path on a
    profile with ``complex_path``, Re c within the range of U.

    Lin's rule: the path x(t) = t + i depth b(t) passes each critical layer
    s at Re c on the side away from the singularity of the coefficient, at
    sign(depth) = -sign(c_I U'(s)), with c_I's sign taken from ``sign_ci``
    for a real c.  |depth| = a is half the layer's distance to the nearer
    end of its stretch (the span between breakpoints, cut at the midpoints
    between adjacent layers, that holds it) or to the next complex root of
    U = Re c, whichever is less.  The bump, pinned to the real axis at both
    ends, spans [s - 2a, s + 2a] (an end that reaches the stretch's is that
    end), so bumps neither overlap nor cross a break.  A layer gets no bump
    when the singularity already lies farther off the axis than the bump
    would reach.
    A real c's layers are scanned for unless ``layers`` holds them.
    """
    ci = c.imag
    if ci == 0.0:
        # the validated scan: the path must pass a real speed's layers
        found = find_critical_points(profile, c.real) if layers is None \
            else layers
        if found and sign_ci is None:
            raise _real_speed_refused()
        est = [(layer.position, layer.u_prime) for layer in found]
        side = sign_ci
    else:
        est = profile.path_layers(c.real)
        side = 1.0 if ci > 0.0 else -1.0
    out = []
    for j, (s, up) in enumerate(est):
        lo = max(b for b in bounds if b <= s)
        hi = min(b for b in bounds if b >= s)
        if j > 0:
            lo = max(lo, 0.5 * (est[j - 1][0] + s))
        if j + 1 < len(est):
            hi = min(hi, 0.5 * (s + est[j + 1][0]))
        a = 0.5 * min(s - lo, hi - s, profile.path_reach(s))
        if a > 0.0 and abs(ci) < a * abs(up):
            out.append((lo if 2.0 * a >= s - lo else s - 2.0 * a,
                        hi if 2.0 * a >= hi - s else s + 2.0 * a,
                        -math.copysign(a, side * up)))
    return tuple(out)


def _check_path(min_coeff_dist: float, scale: float) -> None:
    if min_coeff_dist < 1e-10 * scale:
        raise NearSingularCoefficient(
            f"min |U - c| = {min_coeff_dist:g} along the path")


def _check_interface(y0: complex, sup_y: float) -> None:
    if abs(y0) < INTERFACE_FLOOR * sup_y:
        raise DegenerateAtInterface(
            f"|y(0)| = {abs(y0):g} vs sup |y| = {sup_y:g}: channel-type mode")


def uniform_flow_impedance(k: float, h_plus: float) -> float:
    """y'(0)/y(0) for profiles with U'' = 0: -|k| coth(|k| h+), -> -|k| at inf."""
    ak = abs(k)
    if math.isinf(h_plus):
        return -ak
    return -ak / math.tanh(ak * h_plus)


# ---------------------------------------------------------------------------
# Batched direct solves: many (k, c) pairs, each on its own step sequence
# ---------------------------------------------------------------------------

def _dop853_coefficients():
    """scipy's DOP853 tableau module, executed from its file.

    ``find_spec`` of a top-level package locates it without importing it, so
    the ``__init__`` of ``scipy`` and ``scipy.integrate``, most of the import
    time of a fresh process, never runs; the file itself imports only numpy.
    """
    root = Path(importlib.util.find_spec("scipy").origin).parent
    spec = importlib.util.spec_from_file_location(
        "windwaves._dop853_coefficients",
        root / "integrate" / "_ivp" / "dop853_coefficients.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5), as
# the weights of slices of a (slot, row, column, step) array of stage
# matrices (see :func:`_propagators`).
_TABLEAU = _dop853_coefficients()
_DOP_STAGES = _TABLEAU.N_STAGES
# abscissae of stages 0 .. N_STAGES - 1: 0 at the step's start, 1 at its end
_DOP_C = _TABLEAU.C[:_DOP_STAGES, None]
# stage s sits in slot _SLOT[s], and slot j holds stage _SLOT[j]: in the
# order 2, 1, 0, 3, ..., 11 the stages that each sum weights are adjacent
_SLOT = np.r_[2, 1, 0, 3:_DOP_STAGES]


def _weighted(weights: np.ndarray) -> tuple[slice, np.ndarray]:
    """The adjacent slots spanning every weighted stage, and their weights."""
    used = np.flatnonzero(np.atleast_2d(weights[..., _SLOT]).any(axis=0))
    span = slice(int(used[0]), int(used[-1]) + 1)
    return span, weights[..., _SLOT[span]]


# each stage's sum over the stages before it, for stages 1 .. N_STAGES - 1
_DOP_A = [_weighted(_TABLEAU.A[s, :_DOP_STAGES])
          for s in range(1, _DOP_STAGES)]
# the solution's sum and the order-5 and order-3 error estimators, which
# give the last stage, at t0 - h, no weight
_DOP_SUMS = _weighted(np.stack((_TABLEAU.B, _TABLEAU.E5[:_DOP_STAGES],
                                _TABLEAU.E3[:_DOP_STAGES])))
# the slot of stages 1 .. N_STAGES - 1, with the slots and weights of its sum
_STAGE_SUMS = [(int(_SLOT[s]), *_DOP_A[s - 1]) for s in range(1, _DOP_STAGES)]
# the solution's sum weighs stage 0, whose Y is I, and the stages from
# _QUAD on, the others not at all: the quadrature of the slope (see
# :func:`_propagators`)
_QUAD = int(np.flatnonzero(_TABLEAU.B[1:_DOP_STAGES])[0]) + 1
_EYE = np.eye(2, dtype=complex)[:, :, None]
# scipy's step-size controller; the embedded error estimate is of order 7
_SAFETY, _MIN_FACTOR = 0.9, 0.2
_ERROR_EXPONENT = -1.0 / 8.0
_RESCALE = 1e100  # a product or lid state past this is divided by its size
_RTOL_FLOOR = 100.0 * np.finfo(float).eps
_CHUNK = 1024  # steps per propagator build, which bounds its memory
_MAX_STEPS = 2 ** 18  # per element: a batch's memory grows with its size
_BEND_STEP = 1.0  # the first mesh's spacing in asinh((t - s)/depth) on bumps


def _pairs(k, cs) -> tuple[np.ndarray, np.ndarray]:
    """Validated 1-d arrays of wavenumbers and wave speeds, broadcast together."""
    ks, cs = np.asarray(k, dtype=float), np.asarray(cs, dtype=complex)
    if ks.ndim == 0:  # the common case, far cheaper than broadcast_arrays
        ks = np.full(cs.shape, ks)
    else:
        ks, cs = np.broadcast_arrays(ks, cs)
    if cs.ndim != 1:
        raise ValueError("k and cs must broadcast to a 1-d array")
    _check_wavenumber(ks)
    return ks, cs


def _check_wavenumber(k) -> None:
    """Refuse a wavenumber, or an array of them, that is zero or not finite."""
    if not ((np.isfinite(k) & (k != 0.0)).all() if isinstance(k, np.ndarray)
            else k != 0.0 and math.isfinite(k)):
        raise ValueError("wavenumber k must be finite and nonzero")


def _raise_first(errors: dict) -> None:
    """Raise the error of the first failed element in input order, if any."""
    if errors:
        raise errors[min(errors)]


def _shoot(profile: ShearProfile, ks: np.ndarray, cs: np.ndarray, tol: float,
           init=(0.0, 1.0), nodes: Optional[dict] = None,
           sign_ci: Optional[int] = None,
           layers: Optional[Sequence[tuple[CriticalLayer, ...]]] = None,
           meshes: Optional[list] = None,
           crossings: Optional[Sequence[dict]] = None,
           slopes: Optional[list] = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Shoot every (k, c) element from the lid data ``init`` to the interface.

    Returns ``(y, log_scale, n_steps, errors)``: (y(0), y'(0)) per element
    in the kernel's scale (the true state is y e^log_scale), NaN where the
    element failed; its accepted points (see :func:`_integrate`); and, by
    element index, the error of each failed element, which on a column
    without a finite lid is ``InfiniteDomain`` for every element, and else
    ``NearSingularCoefficient`` for each c that is not finite.  Each
    element runs along its own path (see :func:`_bumps`, which takes
    ``sign_ci`` and element i's ``layers[i]``), one mesh from the lid to the
    interface whose fixed nodes are the breakpoints and the ends of its
    bumps.
    ``crossings``, one entry per element, shoots each on the real axis
    instead, with no bumps, across its layers' patches (see
    :func:`limiting_solution`): entry i maps each patch's top s + delta to
    (s - delta, its 2x2 map of (y, y')), one more step.  A break strictly
    inside a patch is no cut.  A patch's edges sit near its layer by
    design, so such a shoot skips the check on min |U - c| along the path;
    the interface check stays.
    ``nodes`` receives the final meshes (see :func:`_integrate`).
    ``meshes``, one entry per element, holds the node parameters each
    element's first mesh starts from, or None for the uniform and graded one
    (see :func:`_first_mesh`); each entry is replaced by the element's final
    node parameters, or by None where it failed.
    ``slopes``, a list, is replaced by each element's slope d(y'/y)(0)/dc
    (see :func:`_integrate`), None where it failed; it is not for a shoot
    with ``crossings``, whose patches carry no quadrature.
    A ``tol`` that is negative, infinite or NaN is a ValueError: a NaN error
    norm would cut every step down to ``_MAX_STEPS``; a ``tol`` of 0 asks
    for the floor on rtol.
    """
    if not 0.0 <= tol < math.inf:  # False for a NaN
        raise ValueError("tol must be finite and not negative")
    n = cs.size
    if not math.isfinite(profile.h_plus):
        exc = InfiniteDomain("direct integration needs a finite air column; "
                             "uniform-vorticity impedances have closed forms")
        for out in (meshes, slopes):
            if out is not None:
                out[:] = [None] * n
        return (np.full((2, n), complex("nan")), np.zeros(n),
                np.zeros(n, dtype=int), dict.fromkeys(range(n), exc))
    alive = np.ones(n, dtype=bool)
    errors: dict[int, WindwavesError] = {}

    def fail(i: int, exc: WindwavesError) -> None:
        errors.setdefault(int(i), exc)
        alive[i] = False

    for i in (~np.isfinite(cs)).nonzero()[0].tolist():
        fail(i, _speed_not_finite())
    u_range = profile.u_bounds()
    scales = np.fmax(_speed_scale(0j, u_range), np.abs(cs.real))
    owner, top, bot, depth, joints = _segments(
        profile, cs, u_range, scales, sign_ci, layers, crossings, fail, alive)
    k = ks[owner]
    coeff = _coefficient(profile, cs[owner], k * k, bot, top - bot, depth)
    start = None if meshes is None else \
        {i: m for i, m in enumerate(meshes) if m is not None}
    first = _first_mesh(top, bot, k, depth, joints, owner, start)
    # each later step lies between the ends of a first one, and each stage
    # of a step between its ends, at the real part of a bump's altitude: so
    # the profile's domain is checked here, once, not where it is evaluated
    profile._check_domain(first[1])
    nodes = {} if nodes is None and meshes is not None else nodes
    quad = None if slopes is None else {}
    y = np.empty((2, n), dtype=complex)
    y[0], y[1] = init
    with np.errstate(all="ignore"):  # failed elements may overflow
        y, log_scale, sup_y, dist, n_steps = _integrate(
            coeff, owner, joints, first, y, tol, fail, nodes, quad)

    # only an element that may fail either check is checked alone
    maybe = ~((dist >= 1e-10 * scales)
              & (np.abs(y[0]) >= INTERFACE_FLOOR * sup_y))
    for i in (alive & maybe).nonzero()[0]:
        try:
            if crossings is None:
                _check_path(float(dist[i]), float(scales[i]))
            _check_interface(complex(y[0, i]), float(sup_y[i]))
        except WindwavesError as exc:
            fail(i, exc)
    y[:, ~alive] = np.nan
    ok = alive.tolist()
    if meshes is not None:
        meshes[:] = [nodes[i][0] if live else None
                     for i, live in enumerate(ok)]
    if slopes is not None:
        slopes[:] = [quad[i] if live else None for i, live in enumerate(ok)]
    return y, log_scale, n_steps, errors


def _segments(profile: ShearProfile, cs: np.ndarray,
              u_range: tuple[float, float], scales: np.ndarray,
              sign_ci: Optional[int],
              layers: Optional[Sequence[tuple[CriticalLayer, ...]]],
              crossings: Optional[Sequence[dict]], fail, alive: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Each live element's segments down its column (see :func:`_shoot`):
    the (owner, top, bottom, bump depth) arrays, by element and descending,
    and the matrix of each patch's crossing by segment.

    An element's cuts are the column's ends and the profile's breaks, with
    the ends of its bumps (see :func:`_bumps`) or of its patches, less the
    cuts strictly inside a patch; the segment below a bump's top is bent by
    its depth, and the one below a patch's top is the patch's joint.  Only
    an element with layers at Re c, or with patches, runs Python of its
    own, for those ends; every element's cuts are merged, ordered and
    paired in one pass over arrays.  A profile without ``complex_path``
    shoots on the real axis, where an element that fails the vectorised
    ``SWITCH_FACTOR`` test is checked alone by :func:`_check_switch`.
    """
    # the column's ends and the profile's breaks, descending
    bounds = sorted({profile.h_plus, 0.0, *profile._breaks}, reverse=True)
    # the cuts that elements add, as (element, altitude, depth of the
    # segment below, index of its joint's matrix or -1): the bottoms and
    # the tops of bumps and patches; and each patch's (element, bottom, top)
    tops: list[tuple[int, float, float, int]] = []
    lows: list[tuple[int, float, float, int]] = []
    patches: list[tuple[int, float, float]] = []
    matrices = []
    if crossings is not None:
        for i, crossing in enumerate(crossings):
            for hi, (lo, matrix) in crossing.items():
                tops.append((i, hi, 0.0, len(matrices)))
                lows.append((i, lo, 0.0, -1))
                patches.append((i, lo, hi))
                matrices.append(matrix)
    elif profile.complex_path:
        umin, umax = u_range  # _has_layers, of every element at once
        near = (umin - 1e-12 <= cs.real) & (cs.real <= umax + 1e-12) & alive
        for i in near.nonzero()[0].tolist():
            try:
                bumps = _bumps(profile, complex(cs[i]), bounds, sign_ci,
                               None if layers is None else layers[i])
            except WindwavesError as exc:
                fail(i, exc)
                continue
            for lo, hi, a in bumps:
                tops.append((i, hi, a, -1))
                lows.append((i, lo, 0.0, -1))
    else:
        # each comparison is False for a NaN, as in _check_switch
        near = ~(np.abs(cs.imag) >= SWITCH_FACTOR * scales * (1.0 - 1e-9)) \
            & alive
        for i in near.nonzero()[0].tolist():
            try:
                _check_switch(profile, complex(cs[i]), float(scales[i]),
                              u_range)
            except WindwavesError as exc:
                fail(i, exc)
    live = alive.nonzero()[0]
    every = np.empty((4, live.size, len(bounds)))
    every[0], every[1], every[2], every[3] = live[:, None], bounds, 0.0, -1.0
    cuts = every.reshape(4, -1)
    if tops:  # else the bounds alone are in order
        cuts = np.concatenate((cuts, np.array(lows + tops).T), axis=1)
        if patches:
            i, lo, hi = np.transpose(patches)[:, None, :]
            x = cuts[1, :, None]
            cuts = cuts[:, ~((cuts[0, :, None] == i) & (lo < x) & (x < hi))
                        .any(axis=1)]
        # by element, then descending; the sort is stable, so a top comes
        # last of the copies of a repeated cut (an end at a break, or two
        # bumps' common end)
        cuts = cuts[:, np.lexsort((-cuts[1], cuts[0]))]
    owner, x, depth, joint = cuts
    # each segment runs from the last copy of a cut down to the next cut of
    # its element
    seg = ((owner[1:] == owner[:-1]) & (x[1:] != x[:-1])).nonzero()[0]
    joints = {}
    if matrices:
        joint = joint[seg]
        at = (joint >= 0.0).nonzero()[0]
        joints = dict(zip(at.tolist(), [matrices[int(j)] for j in joint[at]]))
    return owner[seg].astype(int), x[seg], x[seg + 1], depth[seg], joints


def _unscaled(v: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """``v`` e^log_scale: inf past the float range, never NaN (each part is
    scaled alone, and by halves, so that no finite product overflows)."""
    out = np.empty(np.shape(v), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(0.5 * log_scale)
        out.real, out.imag = (np.where(p == 0.0, 0.0, p * half * half)
                              for p in (v.real, v.imag))
    return out


def _first_mesh(top: np.ndarray, bot: np.ndarray, k: np.ndarray,
                depth: np.ndarray, joints: dict, owner: np.ndarray,
                start: Optional[dict]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The first mesh of segments from ``top`` down to ``bot``, as the
    segment of each step and the (2, steps) array of their starts and ends,
    in segment order.

    A joint (a patch's crossing) is one step.  A leg is cut into
    max(3 |k|, 2) equal steps per unit of its width: DOP853 meets tol 1e-10
    on e^{|k| x} at about |k| h = 1/3, and the wind's own scale is about 1.
    A bump's leg is cut also at s + |depth| sinh(v), v equally spaced by at
    most ``_BEND_STEP``, which grades the steps with the distance from the
    leg's middle s, its layer (see :func:`_bumps`).

    ``start`` maps an element (of ``owner``, the element of each segment)
    to the node parameters of a mesh, descending, such as an earlier shoot's
    final mesh: each leg of that element is cut at the nodes that lie
    strictly inside it instead, neither uniformly nor graded.
    """
    # past _MAX_STEPS the kernel refuses the element; every width is
    # positive, so each leg takes one step at least
    steps = np.minimum(np.ceil((top - bot) * np.fmax(3.0 * np.abs(k), 2.0)),
                       _MAX_STEPS + 1).astype(int)
    steps[list(joints)] = 1
    if start:
        warm = np.array([i in start for i in owner.tolist()], dtype=bool)
        steps[warm] = 1
        depth = np.where(warm, 0.0, depth)  # nor graded
        warm[list(joints)] = False  # a joint has no inside
    legs = depth.nonzero()[0]
    ends, reps = np.array([top, bot]), steps
    if legs.size:
        up, down, a = top[legs], bot[legs], np.abs(depth[legs])
        s = 0.5 * (up + down)
        lo, hi = np.arcsinh((down - s) / a), np.arcsinh((up - s) / a)
        # the graded steps of every leg in the same cut, which cuts each alone
        ends = np.concatenate((ends, [hi, lo]), axis=1)
        reps = np.concatenate((steps, np.ceil((hi - lo) / _BEND_STEP)
                               .astype(int)))
    i, cut, _ = _cut(ends, reps)
    n = steps.sum()
    seg, t = i[:n], cut[:, :n]
    # nodes added inside the segments, as (segment, node) arrays
    extra = []
    if legs.size:
        j, v = i[n:] - top.size, cut[0, n:]
        graded = s[j] + a[j] * np.sinh(v)
        # the leg's ends are nodes already
        inside = (v < hi[j]) & (graded > down[j])
        extra.append((legs[j][inside], graded[inside]))
    if start:
        extra.append(_inner_nodes(top, bot, owner, start, warm))
    if extra:
        seg = np.concatenate([seg, *(j for j, _ in extra)])
        t0 = np.concatenate([t[0], *(x for _, x in extra)])
        order = np.lexsort((-t0, seg))
        seg = seg[order]
        # each step ends where the next starts, or at its segment's bottom
        t = np.empty((2, seg.size))
        t[0], t[1] = t0[order], bot[seg]
        np.copyto(t[1, :-1], t[0, 1:], where=seg[1:] == seg[:-1])
    return seg, t


def _inner_nodes(top: np.ndarray, bot: np.ndarray, owner: np.ndarray,
                 start: dict, legs: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of ``start[owner[j]]`` strictly inside each leg j of the
    mask ``legs``, as (leg, node) arrays.

    The nodes of all elements are searched at once, under the key
    element + i (-node): numpy orders complex numbers by their real part,
    then their imaginary part, so the keys ascend, and no node is rounded.
    """
    elems = sorted(start)
    nodes = np.concatenate([start[e] for e in elems])
    key = np.empty(nodes.size, dtype=complex)
    key.real = np.array(elems).repeat([start[e].size for e in elems])
    key.imag = -nodes
    j = legs.nonzero()[0]
    ends = np.empty((2, j.size), dtype=complex)
    ends.real = owner[j]
    ends.imag = -top[j], -bot[j]
    first = key.searchsorted(ends[0], side="right")
    count = key.searchsorted(ends[1], side="left") - first
    pick = np.arange(count.sum()) + (first - count.cumsum() + count).repeat(
        count)
    return j.repeat(count), nodes[pick]


def _coefficient(profile: ShearProfile, c: np.ndarray, kk: np.ndarray,
                 lo: np.ndarray, width: np.ndarray, depth: np.ndarray):
    """``coeff(t, j)``: (U - c, path weight w or None, w q) at path
    parameters t of shape (stages, m) on segments j of shape (m,).

    ``c``, ``kk`` = k^2 and the bump depth of each segment hold one entry
    per segment.  A segment with depth 0 runs on the real axis, where w = 1
    and q = U''/(U - c) + k^2, with U at real altitudes.  A bent one runs
    along x(t) = t + i depth b(u), u = (t - lo)/width, where the
    parabola b = 4 u (1 - u) is 1 at the segment's middle, where its layer
    lies (see :func:`_bumps`), and vanishes at u = 0 and 1.  The equation in
    t is (y, y')' = x'(t) (y', q(x(t)) y), so w = x'.  Each step's values
    depend on its own t and segment alone.  The profile is evaluated without
    its domain check, which is the caller's (see :func:`_shoot`).

    ``coeff.curvature(du, w, wq, j)`` is w q_c, q_c = dq/dc = U''/(U - c)^2,
    from the values ``coeff`` gave: (w q - w k^2)/(U - c).
    """
    def on_axis(t, j):
        u, upp = profile._value_and_curvature(t)
        du = u - c[j]
        return du, upp / du + kk[j]

    width = np.where(width > 0.0, width, 1.0)  # joints are never evaluated
    # x = t + lift u (1 - u) and x' = 1 + tilt (1 - 2 u)
    lift = 4j * depth
    tilt = lift / width

    def along(t: np.ndarray, j: np.ndarray):
        u = (t - lo[j]) / width[j]
        dx = 1.0 + tilt[j] * (1.0 - 2.0 * u)
        uu, upp = profile._value_and_curvature(
            t + lift[j] * (u * (1.0 - u)))
        du = uu - c[j]
        return du, dx, dx * (upp / du + kk[j])

    bent = depth != 0.0

    def coeff(t: np.ndarray, j: np.ndarray):
        b = bent[j].nonzero()[0]
        if b.size == j.size:
            return along(t, j)
        # every step on the axis, then the bent ones overwritten: each
        # value depends on its own step alone
        du, q = on_axis(t, j)
        if not b.size:
            return du, None, q
        w = np.ones(t.shape, dtype=complex)
        du[:, b], w[:, b], q[:, b] = along(t[:, b], j[b])
        return du, w, q

    def curvature(du, w, wq, j):
        return (wq - (kk[j] if w is None else w * kk[j])) / du

    coeff.curvature = curvature
    return coeff


def _integrate(coeff, owner: np.ndarray, joints: dict, first: tuple,
               y: np.ndarray, tol: float, fail, nodes: Optional[dict],
               slopes: Optional[dict] = None):
    """Integrate each element's (y, y') from its lid state down its segments.

    Segment s belongs to element ``owner[s]``; an element's segments are
    consecutive and run down its column, and ``owner`` does not decrease.  A
    segment in ``joints`` maps the state by its fixed 2x2 matrix; any other
    is a leg of the equation ``coeff`` gives (see :func:`_coefficient`).
    ``first`` is the first mesh, the segment of each step and the (2, steps)
    array of their starts and ends, in segment order and down each segment
    (see :func:`_first_mesh`); the rounds below treat it alike wherever it
    came from.  Each step is a 2x2 DOP853 propagator, all built at once
    (:func:`_propagators`), and an element's states at its nodes are the
    prefix products of its steps (:func:`_chain`).  Each step whose DOP853
    error norm on the state the products give, at rtol ``tol`` and atol
    ``tol * 1e-3``, is >= 1 (or NaN) is cut into ceil(1 / factor) equal
    steps, factor being scipy's step-size factor, and the products and norms
    are redone, until no step of the element fails.  An element whose step
    would be cut below 10 ulp of its start is handed to ``fail(i, error)``.
    Each element's mesh and arithmetic depend on that element alone: the
    products are grouped by step index, and a batch is padded by steps of
    exactly I.

    ``y`` holds the lid states, one column per element.  Returns (y, log
    scale, sup |y|, min |U - c|, accepted points) per element: the state at
    the interface is y e^log_scale, NaN where the element failed; sup |y| is
    over the accepted points, in y's scale; the accepted points are the
    nodes, the lid included, and a joint adds one.  When ``nodes`` is a
    dict, ``nodes[i]`` is set to element i's (node parameters, states at the
    nodes, their log scales, error norm of each step) if it succeeds; the
    node parameters are what a later shoot starts from (see
    :func:`_first_mesh`).

    When ``slopes`` is a dict, ``slopes[i]`` is set to element i's
    d(y'/y)(0)/dc if it succeeds.  z = dy/dc has z = z' = 0 at the lid and
    (y z' - z y')' = q_c y^2 (Lagrange's identity, q_c = dq/dc), so the
    slope is -I/y(0)^2, I the integral of q_c y^2 down the column, and of
    w q_c y^2 dt on the path.  Every round builds each new step's
    quadrature form with its propagator (see :func:`_propagators`), also
    for a step a later round cuts, whose form is then not read; the round
    in which the element settles forms I from the forms of its steps at
    their start states, each state's scale taken relative to y(0)'s; a
    joint adds nothing.
    """
    n = y.shape[1]
    # scipy's floor on rtol: below it rounding alone fails the error test
    rtol, atol = max(tol, _RTOL_FLOOR), tol * 1e-3
    out_y = np.full((2, n), complex("nan"))
    out_scale, out_sup = np.zeros(n), np.zeros(n)
    out_dist, out_count = np.full(n, math.inf), np.zeros(n, dtype=int)
    # a lid state past _RESCALE starts rescaled; one that is not finite has
    # no finite step
    size = np.abs(y).max(axis=0)
    big = size > _RESCALE
    lid_scaled = big.any()  # else every scale below gains exactly 0
    if lid_scaled:
        lid_scale = np.where(big, np.log(size), 0.0)
        y = y / np.where(big, size, 1.0)
    seg, t = first
    elem = owner[seg]
    steps = np.bincount(elem, minlength=n)
    finite = np.isfinite(size)
    if not finite.all() or steps.max(initial=0) > _MAX_STEPS:
        for i in (~finite & (steps > 0)).nonzero()[0]:
            fail(i, _collapse())
        for i in (finite & (steps > _MAX_STEPS)).nonzero()[0]:
            fail(i, _too_many())
        steps[~finite | (steps > _MAX_STEPS)] = 0
        keep = steps[elem] > 0
        seg, t = seg[keep], t[:, keep]
    # one row per element that shoots, its steps consecutive
    rows = steps.nonzero()[0]
    counts = steps[rows]
    row = np.arange(rows.size).repeat(counts)
    # each step's propagator and error maps, and its quadrature form when
    # the slope is asked for (see :func:`_propagators`)
    quad = slopes is not None
    maps = np.zeros((3 + quad, 2, 2, seg.size), dtype=complex)
    dist = np.full(seg.size, math.inf)
    fresh = np.ones(seg.size, dtype=bool)
    for s, matrix in joints.items():
        maps[0][..., seg == s] = np.asarray(matrix)[..., None]
        fresh[seg == s] = False
    while seg.size:
        todo = fresh.nonzero()[0]
        for j in range(0, todo.size, _CHUNK):
            idx = todo[j:j + _CHUNK]
            t0, t1 = t[:, idx]
            maps[..., idx], dist[idx] = _propagators(coeff, t0, t0 - t1,
                                                     seg[idx], quad)
        # the rows' steps, padded by I
        heads = counts.cumsum() - counts
        col = np.arange(seg.size) - heads[row]
        width = counts.max()
        chain = np.empty((2, 2, rows.size, width), dtype=complex)
        chain[...] = _EYE[..., None]
        chain[:, :, row, col] = maps[0]
        # column 0 holds the lid's state, which no step precedes
        scales = np.zeros((rows.size, width + 1))
        _chain(chain, scales[:, 1:])
        if lid_scaled:
            scales += lid_scale[rows, None]
        lid = y[:, rows, None]
        states = np.concatenate((lid, _apply(chain, lid)), axis=2)
        start = states[:, row, col]
        norm = _error_norms(maps[:3], start, rtol, atol)
        # a state past a NaN step waits for that step's refinement; only a
        # failing step is cut
        failing = norm >= 1.0
        nan = np.isnan(norm)
        if nan.any():
            failing |= nan & np.isfinite(start).all(axis=0)
        bad = failing.nonzero()[0]
        settled = np.ones(rows.size, dtype=bool)
        dead = np.zeros(rows.size, dtype=bool)
        if bad.size:  # else every element settles, and nothing is cut
            factor = np.fmax(_MIN_FACTOR,
                             _SAFETY * norm[bad] ** _ERROR_EXPONENT)
            pieces = np.ceil(1.0 / factor)
            cuts = np.ones(seg.size, dtype=int)
            cuts[bad] = pieces
            top, bot = t[:, bad]
            collapse = (top - bot) / pieces < 10.0 * (
                top - np.nextafter(top, -np.inf))
            total = np.bincount(row, cuts)
            if collapse.any() or total.max() > _MAX_STEPS:
                dead[row[bad[collapse]]] = True
                for i in rows[dead]:
                    fail(i, _collapse())
                huge = ~dead & (total > _MAX_STEPS)
                for i in rows[huge]:
                    fail(i, _too_many())
                dead |= huge
            settled[row[bad]] = False
        done = settled.nonzero()[0]
        if done.size:
            i, last = rows[done], counts[done]
            out_y[:, i] = states[:, done, last]
            out_scale[i] = scales[done, last]
            grow = np.abs(states[0, done])
            ours = scales[done]
            if ours.any():  # else every factor below is exactly 1
                grow *= np.exp(ours - out_scale[i, None])
            out_sup[i] = np.where(np.arange(width + 1) <= last[:, None],
                                  grow, 0.0).max(axis=1)
            out_dist[i] = np.minimum.reduceat(dist, heads)[done]
            out_count[i] = last + 1
            if quad:
                # y^T Q y at each step's start state, in y(0)'s scale
                qy = _apply(maps[3], start)
                form = start[0] * qy[0] + start[1] * qy[1]
                if scales.any():
                    form *= np.exp(2.0 * (scales[row, col]
                                          - scales[row, counts[row]]))
                slope = -np.add.reduceat(form, heads)[done] \
                    / states[0, done, last] ** 2
                slopes.update(zip(i.tolist(), slope.tolist()))
            if nodes is not None:
                # row r's node parameters, its steps' starts and its last
                # step's end, lie at heads[r] + r on in one array
                at = np.empty(row.size + rows.size)
                at[np.arange(row.size) + row] = t[0]
                ends = heads + counts
                at[ends + np.arange(rows.size)] = t[1, ends - 1]
                for r, e, h, c in zip(done.tolist(), i.tolist(),
                                      heads[done].tolist(), last.tolist()):
                    nodes[e] = (at[h + r:h + r + c + 1], states[:, r, :c + 1],
                                scales[r, :c + 1], norm[h:h + c])
        settled |= dead
        if settled.all():
            break
        parent, t, split = _cut(t, np.where(settled[row], 0, cuts))
        seg, maps, dist = seg[parent], maps[..., parent], dist[parent]
        fresh = split > 1
        more = ~settled
        counts = total[more].astype(int)
        rows = rows[more]
        row = np.arange(rows.size).repeat(counts)
    return out_y, out_scale, out_sup, out_dist, out_count


def _collapse() -> NearSingularCoefficient:
    return NearSingularCoefficient(
        "integration failed: Required step size is less than spacing "
        "between numbers.")


def _too_many() -> NearSingularCoefficient:
    return NearSingularCoefficient(
        f"integration failed: more than {_MAX_STEPS} steps")


def _cut(t: np.ndarray, reps: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut each step, from t[0, i] down to t[1, i], into reps[i] equal
    steps (none where 0).  Returns the index of each new step's parent, the
    (2, steps) array of their starts and ends, and the count of pieces of
    the parent of each; a cut is the same float as the end of one step and
    the start of the next."""
    parent = np.arange(reps.size).repeat(reps)
    n = reps[parent]
    piece = np.arange(parent.size) - (reps.cumsum() - reps)[parent]
    t = t[:, parent]
    t[0] -= (piece / n) * (t[0] - t[1])
    np.copyto(t[1, :-1], t[0, 1:], where=(piece < n - 1)[:-1])
    return parent, t, n


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 2x2 matrices of ``a``, whose axes are (..., row, column,
    *v.shape[1:]), times the vectors of ``v``."""
    head = (slice(None),) * (a.ndim - v.ndim)
    return a[head + (0,)] * v[0] + a[head + (1,)] * v[1]


def _propagators(coeff, t0: np.ndarray, h: np.ndarray, seg: np.ndarray,
                 quad: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """DOP853's steps of (y, y')' = w (y', q y) from t0 down to t0 - h on
    segments seg, as matrices.

    The equation is linear in (y, y'), and w and q do not depend on it, so
    stage s of a step is a 2x2 matrix K_s, h w_s (Y_s[1], q_s Y_s[0]) with
    Y_s = I - sum_j A_sj K_j: the vector form of the step run on both
    columns of I at once.  Returns (steps, dist): steps (3, 2, 2, m) holds
    M, which maps the state at t0 to the state at t0 - h, and the maps E5
    and E3 of it to the order-5 and order-3 error estimates times h; dist
    is min |U - c| at the step's two ends.  A step of h = 0 is exactly I.

    Each weighted sum, of each Y_s and of M and both estimates together, is
    one pass of numpy's C einsum, which ``np.einsum`` calls when
    ``optimize`` is False, over the float view of the adjacent slots that
    hold its weighted stages: it adds the products term by term, in slot
    order, from +0, each element alone, so a step's bits do not depend on
    its chunk or its place in it, and are those of the sum over all stages
    in stage order: the slot order swaps only the first two nonzero terms,
    whose sum commutes, and a zero weight adds 0 times a finite part, which
    changes nothing (0 times inf only reaches a step whose norm is NaN
    anyway).  Where every term is -0 the sum is +0; every sum enters as I
    minus it or through |.|, so no result depends on the sign.  BLAS
    (``@``, ``np.dot``, ``tensordot``) is never used: OpenBLAS 0.3.31's
    dgemv fuses multiplies and adds, which moves the last bit of 20-65% of
    these sums, and a BLAS routine may block a sum by its place in the
    batch or split it between threads.

    With ``quad``, each step gains a fourth map, its quadrature form
    Q = sum_s b_s h w_s q_c,s r_s^T r_s, r_s the first row of Y_s and
    q_c = dq/dc (see :func:`_coefficient`): y^T Q y is DOP853's quadrature
    of the integral of w q_c y^2 over the step from its start state y, its
    stage values weighed as the solution's sum weighs its stages.  Q is one
    more such pass; the other maps do not change.
    """
    du, w, wq = coeff(t0 - _DOP_C * h, seg)
    scaled = np.empty((_DOP_STAGES, 2, 1, h.size), dtype=complex)
    scaled[:, 0, 0] = h if w is None else w * h
    scaled[:, 1, 0] = wq * h
    stages = np.empty((_DOP_STAGES, 2, 2, h.size), dtype=complex)
    # the real weights act on the real and imaginary parts alike
    parts = stages.view(float)
    y = np.empty(stages.shape[1:], dtype=complex)
    y_parts, swapped = y.view(float), y[::-1]
    if quad:  # the first row of each Y_s from _QUAD on
        rows = np.empty((2, _DOP_STAGES - _QUAD, h.size), dtype=complex)
    np.multiply(_EYE[::-1], scaled[0], out=stages[_SLOT[0]])
    for s, ((slot, span, weights), sc) in enumerate(
            zip(_STAGE_SUMS, scaled[1:]), 1):
        _einsum("j,j...->...", weights, parts[span], out=y_parts)
        np.subtract(_EYE, y, out=y)
        np.multiply(swapped, sc, out=stages[slot])
        if quad and s >= _QUAD:
            rows[:, s - _QUAD] = y[0]
    span, weights = _DOP_SUMS
    sums = np.empty((3 + quad, 2, 2, h.size), dtype=complex)
    _einsum("ej,j...->e...", weights, parts[span], out=sums[:3].view(float))
    np.subtract(_EYE, sums[0], out=sums[0])
    if quad:
        def wqc(stages):  # w q_c at the stages, of shape (m,) or (n, m)
            return coeff.curvature(du[stages], None if w is None
                                   else w[stages], wq[stages], seg)

        r0, r1 = rows
        forms = np.empty((2, 2, *r0.shape), dtype=complex)
        late = wqc(slice(_QUAD, None))
        wr0 = late * r0
        np.multiply(wr0, r0, out=forms[0, 0])
        np.multiply(wr0, r1, out=forms[0, 1])
        forms[1, 0] = forms[0, 1]
        np.multiply(late * r1, r1, out=forms[1, 1])
        form = sums[3]
        _einsum("j,abj...->ab...", _TABLEAU.B[_QUAD:_DOP_STAGES],
                forms.view(float), out=form.view(float))
        form[0, 0] += _TABLEAU.B[0] * wqc(0)
        form *= h
    return sums, np.fmin(np.abs(du[0]), np.abs(du[-1]))


def _error_norms(steps: np.ndarray, y: np.ndarray, rtol: float,
                 atol: float) -> np.ndarray:
    """scipy's DOP853 error norm of each step (M, E5, E3) of ``steps`` from
    its start state y.

    The estimates carry a factor h (see :func:`_propagators`), so the
    squared norms carry h^2, and scipy's |h| e5 / sqrt(2 (e5 + 0.01 e3)) is
    e5 / sqrt(2 (e5 + 0.01 e3)) in them.
    """
    moved = _apply(steps, y)  # the state at the step's end, and both errors
    sc = atol + np.maximum(np.abs(y), np.abs(moved[0])) * rtol
    e = np.abs(moved[1:] / sc) ** 2
    e5, e3 = e[:, 0] + e[:, 1]
    denom = e5 + 0.01 * e3
    # a NaN from an element that overflows must reject the step, not pass as 0
    return np.where(denom == 0.0, 0.0, e5 / np.sqrt(2.0 * denom))


def _chain(chain: np.ndarray, scale: np.ndarray) -> None:
    """Prefix products along the last axis of (2, 2, rows, steps) matrices,
    in place: step j becomes the product of steps j, j - 1, ..., 0, and
    ``scale[:, j]``, 0 on entry, the log of the factor divided out of it.

    Hillis & Steele (1986): in round d, the product of the 2^d steps that
    end at j takes the one of the 2^d steps before them, so the grouping of
    every product is fixed by j alone.  A product with a part past
    ``_RESCALE`` is divided by its largest part, whose log its scale gains.
    No product is looked at while the parts of every product are known to
    stay below ``_RESCALE``: with parts of at most b in every factor, 8 b^2
    bounds them, rounding included, and the bound starts from the steps.
    """
    width = chain.shape[-1]
    # fmax skips the NaN of a failed element, which is never rescaled
    bound = float(np.fmax.reduce(np.abs(chain.view(float)), axis=None))
    shift = 1
    while shift < width:
        later, earlier = chain[..., shift:], chain[..., :-shift]
        prod = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
        bound = 8.0 * bound * bound
        # until the bound passes _RESCALE, no product was rescaled, and
        # every scale is 0
        if not bound <= _RESCALE:
            logs = scale[:, shift:] + scale[:, :-shift]
            # a product's size is its largest real or imaginary part
            parts = np.abs(prod.view(float))
            if np.fmax.reduce(parts, axis=None) > _RESCALE:
                size = parts.max(axis=(0, 1)).reshape(*logs.shape, 2).max(
                    axis=-1)
                big = np.where(size > _RESCALE, size, 1.0)
                prod /= big
                logs += np.log(big)
            scale[:, shift:] = logs
        chain[..., shift:] = prod
        shift *= 2


def pwl_impedance_cascade(profile: ShearProfile, k: float,
                          c: complex) -> complex:
    """Closed-form impedance of a zero-curvature wind, linear between its
    kinks.

    z = y'/y is carried from the lid down: y'' = k^2 y inside each piece
    takes z to (z - |k| t)/(1 - z t/|k|) over a height d, t = tanh(|k| d),
    and y = 0 at the lid to -|k|/t; a kink takes z to z - [U']/(U - c).
    On an unbounded column the solution above the topmost kink is the
    decaying e^{-|k| x2}, z = -|k|.  No step grows with |k| d, so none
    overflows.  A node where y = 0 is carried through, and log y alongside
    z, so |y|^2, convex in each piece, is largest at a node: as on the
    kernel, |y(0)| < 1e-12 sup |y| raises
    ``DegenerateAtInterface``.  One rule at every kink, on any column: c
    within rounding of its speed U, |U - c| <= 1e-12 max(1, |U|), raises
    ``NearSingularCoefficient``, as does a c that is not finite.
    """
    return _cascade(profile, k, c)[0]


def _cascade(profile: ShearProfile, k: float, c: complex, init=None,
             at: Sequence[float] = ()) -> tuple[complex, complex, list]:
    """(z, log y) at the interface, and log y at each altitude of ``at``
    (-inf where y = 0), of :func:`pwl_impedance_cascade`, from the lid data
    ``init`` (y, y') if given (``InfiniteDomain`` on an unbounded column),
    else from y = 0 at the lid."""
    if not cmath.isfinite(c):
        raise _speed_not_finite()
    ak, jumps = abs(k), dict(profile.kinks())
    nodes = [*sorted({*jumps, *at}, reverse=True), 0.0]
    if math.isfinite(profile.h_plus):
        y, yp = (0.0, 1.0) if init is None else init
        # z None where y = 0, and then w is log y'
        z, w = (None, cmath.log(yp)) if y == 0.0 else (yp / y, cmath.log(y))
        nodes.insert(0, profile.h_plus)
    elif init is not None:
        raise InfiniteDomain("lid data need a finite air column")
    else:
        z, w = -ak, 0j
    x, logs = nodes[0], {}
    for node in nodes:
        if node < x:
            z, w, x = *_down(z, w, ak, x - node), node
        logs[node] = complex(-math.inf) if z is None else w
        if node in jumps:
            u = profile.value(node)
            if abs(u - c) <= 1e-12 * max(1.0, abs(u)):
                raise NearSingularCoefficient(
                    f"wave speed within rounding of the kink speed U({node})")
            if z is not None:
                z -= jumps[node] / (u - c)
    if z is None:
        raise DegenerateAtInterface("y(0) = 0: channel-type mode")
    sup = max(log.real for log in logs.values())
    _check_interface(1.0, math.exp(min(sup - w.real, 700.0)))
    return z, w, [logs[s] for s in at]


def _cascade_slope(profile: ShearProfile, k: float, c: complex
                   ) -> tuple[complex, complex]:
    """The closed form's impedance z and its slope dz/dc.

    U'' is a sum of jumps [U'] delta(x - s) at the kinks s, so the integral
    of q_c y^2 of :func:`_integrate` is the sum of [U'] y(s)^2/(U(s) - c)^2,
    and dz/dc = -(that sum)/y(0)^2.  z is bit for bit
    :func:`pwl_impedance_cascade`'s.
    """
    kinks = profile.kinks()
    z, log_y, at = _cascade(profile, k, c, at=[s for s, _ in kinks])
    return z, -sum((jump * cmath.exp(2.0 * (log_s - log_y))
                    / (profile.value(s) - c) ** 2
                    for (s, jump), log_s in zip(kinks, at)), 0j)


def _down(z, w: complex, ak: float, d: float) -> tuple:
    """(z, w) a height d down a piece of y'' = k^2 y, w = log y:
    y -> y cosh(|k| d) (1 - z t/|k|) and y' -> y cosh(|k| d) (z - |k| t),
    t = tanh(|k| d).  Where y = 0, z is None and w is log y'."""
    t = math.tanh(ak * d)
    log_cosh = ak * d + math.log1p(math.exp(-2.0 * ak * d)) - math.log(2.0)
    if z is None:
        return -ak / t, w + log_cosh + cmath.log(-t / ak)
    den = 1.0 - z * t / ak
    if den == 0.0:
        return None, w + log_cosh + cmath.log(z - ak * t)
    return (z - ak * t) / den, w + log_cosh + cmath.log(den)


def _lid_shoot(profile: ShearProfile, k, cs, tol: float, init
               ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Each (k, c) pair shot from the lid data ``init`` (y, y') to the
    interface, c itself also where Im c < 0: the states (y(0), y'(0)) as a
    (2, n) array, inf past the float range; the impedances y'(0)/y(0), which
    are not; and the errors by pair index, each failed pair NaN in both.

    The kernel shoots every pair in one :func:`_shoot` batch, and the state
    of each is the one it reaches in any batch of the kernel that gives it
    no start mesh; its impedance is numpy's quotient of that state, as in
    :func:`impedance_outcomes`.  A zero-curvature wind takes the closed
    form instead (:func:`_cascade`, carried from ``init``).
    """
    ks, cs = _pairs(k, cs)
    if profile.zero_curvature:
        states, errors = np.empty((2, cs.size), dtype=complex), {}
        imps = np.empty(cs.size, dtype=complex)
        for i, (kv, c) in enumerate(zip(ks.tolist(), cs.tolist())):
            try:
                z, log_y, _ = _cascade(profile, kv, c, init)
            except WindwavesError as exc:
                errors[i] = exc
                continue
            states[:, i] = _unscaled(
                np.array([1.0, z]) * np.exp(1j * log_y.imag), log_y.real)
            imps[i] = z
    else:
        y, log_scale, _, errors = _shoot(profile, ks, cs, tol, init)
        with np.errstate(invalid="ignore"):  # NaN / NaN for the failed pairs
            states, imps = _unscaled(y, log_scale), y[1] / y[0]
    failed = list(errors)
    states[:, failed] = imps[failed] = complex(math.nan, math.nan)
    return states, imps, errors


def impedance_outcomes(profile: ShearProfile, k, cs,
                       tol: float = _DEFAULT_TOL, *,
                       sign_ci: Optional[int] = None,
                       meshes: Optional[list] = None,
                       slopes: Optional[list] = None
                       ) -> tuple[np.ndarray, dict]:
    """Impedances y'(0)/y(0) of (k, c) pairs, ``k`` broadcast against ``cs``,
    and the error of each pair that failed.

    A pair with Im c < 0 is the mirror image of (k, conj c): its impedance
    is the conjugate of that pair's, bit for bit, and each distinct (k, c)
    with Im c >= 0 is computed once.  A zero-curvature wind, on any column,
    takes the closed form :func:`pwl_impedance_cascade` pair by pair, which
    on a wind without kinks is :func:`uniform_flow_impedance` bit for bit,
    and never enters the kernel.  Every other wind's pairs are shot in one
    batch of the kernel (:func:`_integrate`), whose DOP853 steps meet rtol
    ``tol`` and atol ``tol * 1e-3``; each pair's mesh and arithmetic are its
    own, so its impedance is bit for bit the one it gets alone, given its
    start mesh.  A failed pair's impedance is NaN in both parts, on either
    route, and ``errors`` maps its index to the pair's error
    (``InfiniteDomain`` for a pair shot on an unbounded column,
    ``NearSingularCoefficient`` for a c that is not finite); a caller that
    raises the first error in input order raises ``errors[min(errors)]``.

    ``meshes``, when given, holds per pair the node parameters its shoot
    starts from (see :func:`_first_mesh`), or None for the uniform and
    graded first mesh, and each entry is replaced by its pair's final node
    parameters, None where it failed or took a closed form: at a nearby wave
    speed that mesh passes the error test in one round of the kernel, and
    the final mesh passes it from any start.  A pair with Im c < 0 shares
    its mirror image's mesh; a repeated pair is shot once, from its first.

    ``slopes``, when given, is replaced by each pair's slope d(y'/y)(0)/dc,
    None where it failed: on the kernel, the quadrature of Lagrange's
    identity that its last round carries (see :func:`_integrate`); on the
    closed form, its sum over the kinks (see :func:`_cascade_slope`).  A
    pair with Im c < 0 gets the conjugate of its mirror image's slope.
    Asking for slopes changes no impedance, error or mesh.

    On a profile with ``complex_path``, every pair shoots along Lin's path,
    indented around the critical layers at Re c (see :func:`_bumps`).  A
    real c with critical layers then gets the limit Im c -> 0 from the side
    ``sign_ci`` (+1 or -1), which :func:`limiting_solution` also computes;
    without ``sign_ci`` such a pair is refused.

    Raises
    ------
    ValueError
        For a ``sign_ci`` other than +1, -1 or None, a wavenumber that is
        zero or not finite, ``k`` and ``cs`` that do not broadcast to a 1-d
        array, or a ``tol`` that is negative, infinite or NaN on a wind the
        kernel shoots.
    """
    if sign_ci not in (None, -1, 1):
        raise ValueError("sign_ci must be +1, -1 or None")
    ks, cs = _pairs(k, cs)
    below = cs.imag < 0.0
    # adding 0 turns an imaginary part of -0 into +0
    upper = cs + 0.0
    np.conjugate(upper, out=upper, where=below)
    # pair i is shot as the distinct pair which[i], the first occurrence of
    # each in input order (floats compare by value: -0 equals +0, and a NaN
    # equals nothing)
    shots, first, which = {}, [], []
    for i, pair in enumerate(zip(ks.tolist(), upper.tolist())):
        j = shots.setdefault(pair, len(first))
        if j == len(first):
            first.append(i)
        which.append(j)
    ks, cs = ks[first], upper[first]
    shot_slopes = [None] * cs.size
    if profile.zero_curvature:
        imps = np.full(cs.shape, complex(math.nan, math.nan))
        errors = {}
        shot = [None] * cs.size
        for i, (kv, c) in enumerate(zip(ks.tolist(), cs.tolist())):
            try:
                imps[i], shot_slopes[i] = _cascade_slope(profile, kv, c)
            except WindwavesError as exc:
                errors[i] = exc
    else:
        shot = None if meshes is None else [meshes[i] for i in first]
        y, _, _, errors = _shoot(
            profile, ks, cs, tol, sign_ci=sign_ci, meshes=shot,
            slopes=None if slopes is None else shot_slopes)
        with np.errstate(invalid="ignore"):  # NaN / NaN for the failed pairs
            imps = y[1] / y[0]
    if meshes is not None:
        meshes[:] = [shot[j] for j in which]
    if slopes is not None:
        slopes[:] = [shot_slopes[j] for j in which]
        for i in below.nonzero()[0].tolist():
            if slopes[i] is not None:
                slopes[i] = slopes[i].conjugate()
    imps = imps[which]
    np.conjugate(imps, out=imps, where=below)
    return imps, {i: errors[j] for i, j in enumerate(which) if j in errors}


def _layer_jumps(profile: ShearProfile, ks, cs, tol: float,
                 layers: Sequence[tuple[CriticalLayer, ...]],
                 meshes: list, slopes: Optional[list] = None
                 ) -> tuple[np.ndarray, list]:
    """:func:`impedance_outcomes` of real speeds, ``sign_ci`` +1, and the
    jumps W(above s) - W(below s) of W = Im y' conj(y) / |y(0)|^2 at each
    element's ``layers[i]``, NaN where it failed.  W runs from 0 at the lid
    to Im y*'(0), constant on the real axis between bumps, where the first
    node at or below two layers' midpoint lies, at the latest the lower
    bump's top.  ``slopes``, when given, is replaced by each element's
    slope of y*'(0) at c + i0 (see :func:`_shoot`)."""
    nodes: dict = {}
    y, log_scale, _, errors = _shoot(profile, *_pairs(ks, cs), tol,
                                     nodes=nodes, sign_ci=+1, layers=layers,
                                     meshes=meshes, slopes=slopes)
    with np.errstate(invalid="ignore"):  # NaN / NaN for the failed elements
        imps = y[1] / y[0]
    jumps = []
    for i, found in enumerate(layers):
        if i in errors:
            jumps.append([math.nan] * len(found))
            continue
        t, states, scales, _ = nodes[i]
        mids = [np.searchsorted(-t, -0.5 * (lower.position + upper.position))
                for lower, upper in zip(found, found[1:])]
        jumps.append(np.diff([imps[i].imag, *(_per_y0_squared(
            _w(states[:, n]), scales[n], y[0, i], log_scale[i])
            for n in mids), 0.0]))
    return imps, jumps


def _w(state: np.ndarray) -> float:
    return float((state[1] * state[0].conjugate()).imag)  # Im y' conj(y)


def _per_y0_squared(x: float, log_scale: float, y0: complex,
                    y0_log_scale: float) -> float:
    """x rel^2 / |y(0)|^2, x a product of two parts of a node's state, rel =
    e^(log_scale - y0_log_scale): x (rel^2 / |y(0)|^2) bit for bit unless
    that factor underflows, as powers of two split off first round nothing."""
    rel, e_rel = math.frexp(math.exp(min(log_scale - y0_log_scale, 300.0)))
    size, e_y = math.frexp(abs(y0))
    return math.ldexp(x * (rel * rel / size ** 2), 2 * (e_rel - e_y))


# ---------------------------------------------------------------------------
# Wronskian 4-vector system
# ---------------------------------------------------------------------------

@dataclass
class WronskianPath:
    """Sampled solution of the (u1, u2, u3, W) system, ascending in x2."""

    c: complex
    k: float
    x2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    w: np.ndarray
    dense: object = field(default=None, repr=False)

    def conservation_defect(self) -> float:
        """max |u2^2 + W^2 - u1 u3 - (initial value)| over the samples."""
        inv = self.u2**2 + self.w**2 - self.u1 * self.u3
        return float(np.max(np.abs(inv - inv[-1])))

    def state_sup(self) -> float:
        return float(max(np.max(np.abs(self.u1)), np.max(np.abs(self.u2)),
                         np.max(np.abs(self.u3)), np.max(np.abs(self.w))))

    def at(self, x: float) -> np.ndarray:
        """Dense-output evaluation (u1, u2, u3, W) at altitude x."""
        return self.dense(x)


def integrate_wronskian(profile: ShearProfile, k: float, c: complex,
                        tol: float = _DEFAULT_TOL, *,
                        init: Sequence[float] = (0.0, 0.0, 1.0, 0.0),
                        n_samples: int = 1025) -> WronskianPath:
    """Integrate the real geometric system for (|y|^2, dot, |y'|^2, cross).

    The initial data (0, 0, 1, 0) at the lid matches y = 0, y' = 1.  Along any
    solution u2^2 + W^2 - u1 u3 is conserved (zero for the standard data).
    """
    if profile.kinks():
        raise OrderUnavailable(
            "the Wronskian system needs pointwise U''; a wind with kinks "
            "only supports the derivative-jump formulation")
    h = profile.h_plus
    if not math.isfinite(h):
        raise InfiniteDomain("Wronskian integration needs a finite air column")

    # U'' = 0 leaves a zero-curvature wind's system regular at any c
    if not profile.zero_curvature:
        u_range = profile.u_bounds()
        _check_switch(profile, c, _speed_scale(c, u_range), u_range)
    cr, ci = c.real, c.imag

    def rhs(x, u):
        upp = profile.curvature(x)
        if upp == 0.0:  # no layer term, also where U = c
            a, b = k * k, 0.0
        else:
            du = profile.value(x) - cr
            denom = du * du + ci * ci
            a = k * k + upp * du / denom
            b = ci * upp / denom
        return [2.0 * u[1], a * u[0] + u[2], 2.0 * a * u[1] + 2.0 * b * u[3],
                b * u[0]]

    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (h, 0.0), np.asarray(init, dtype=float),
                    method="DOP853", rtol=tol, atol=tol * 1e-3,
                    dense_output=True)
    if not sol.success:  # pragma: no cover
        raise NearSingularCoefficient(f"integration failed: {sol.message}")

    xs = np.unique(np.concatenate([np.linspace(0.0, h, n_samples), sol.t]))
    vals = sol.sol(xs)
    return WronskianPath(c=c, k=k, x2=xs, u1=vals[0], u2=vals[1],
                         u3=vals[2], w=vals[3], dense=sol.sol)


# ---------------------------------------------------------------------------
# Limiting solution across critical layers
# ---------------------------------------------------------------------------

def _patch(profile: ShearProfile, layer: CriticalLayer, k: float,
           delta_cap: float, sign_ci: int
           ) -> tuple[float, np.ndarray, np.ndarray]:
    """The Frobenius patch that crosses one layer on [s - delta, s + delta].

    Its basis is phi1 = t + c2 t^2 + c3 t^3 (analytic, index 1) and
    phi2 = 1 + d2 t^2 + d3 t^3 + b_{-1} phi1 log|t| (index 0), where
    t = x2 - s and b_{-1} = U''(s)/U'(s), with U'(s) and U''(s) from the
    layer scan.  At the patch edge t = delta the truncated derivatives are
    off by O(b^4 t^3 log t), with b the coefficient scale, and the matched
    solution's error scales as delta^3: it falls ~7.6x per halving of delta.

    Returns delta, the basis matrix [[phi1, phi2], [phi1', phi2']] at
    t = delta, and the map of (y, y') from s + delta to s - delta: match
    (A+, B) at the upper edge, jump the analytic amplitude to
    A- = A+ - i sign_ci pi U''(s)/|U'(s)| B, and re-emit the state at the
    lower edge.  Raises SeriesRadiusTooSmall if delta <= 1e-12 h_plus.
    """
    s, u1, u2 = layer.position, layer.u_prime, layer.u_double_prime
    u3 = profile.derivative3(s)
    u4 = profile.derivative4(s)
    a1 = u2 / (2.0 * u1)
    a2 = u3 / (6.0 * u1)
    bm1 = u2 / u1
    b0 = (u3 - u2 * a1) / u1 + k * k
    b1 = (0.5 * u4 - u3 * a1 + u2 * (a1 * a1 - a2)) / u1
    c2 = 0.5 * bm1
    c3 = (bm1 * c2 + b0) / 6.0
    d2 = 0.5 * (b0 - 3.0 * bm1 * c2)
    d3 = (b1 + bm1 * d2 - 5.0 * bm1 * c3) / 6.0
    # shrink the patch until the truncation error is a few 1e-12 relative
    # (7e-4 left ~1e-9); below ~5e-5 the gain drowns in the rounding near
    # the singularity
    bscale = max(abs(bm1), abs(b0) ** 0.5, abs(b1) ** (1.0 / 3.0), abs(k),
                 1.0 / profile.h_plus)
    delta = min(delta_cap, 1e-4 / bscale)
    if delta <= 1e-12 * profile.h_plus:
        raise SeriesRadiusTooSmall(
            f"series radius {delta:g} collapsed at layer {s}")

    def basis(t: float) -> np.ndarray:
        phi1 = t * (1.0 + t * (c2 + t * c3))
        dphi1 = 1.0 + t * (2.0 * c2 + 3.0 * c3 * t)
        lg = math.log(abs(t))
        return np.array([[phi1, 1.0 + t * t * (d2 + d3 * t) + bm1 * phi1 * lg],
                         [dphi1, t * (2.0 * d2 + 3.0 * d3 * t)
                          + bm1 * (dphi1 * lg + phi1 / t)]], dtype=complex)

    upper = basis(delta)
    jump = np.array([[1.0, -1j * sign_ci * math.pi * u2 / abs(u1)],
                     [0.0, 1.0]])
    return delta, upper, basis(-delta) @ jump @ np.linalg.inv(upper)


@dataclass(frozen=True)
class LayerJump:
    """Per-layer record of the limiting solution (y*(0) = 1 normalization)."""

    position: float
    y_value: complex
    delta_yprime: complex
    u1: float
    w_above: float
    w_below: float


@dataclass
class LimitSolution:
    """The Im c -> 0 limit of the Rayleigh solution with layer jump data."""

    c_r: float
    sign_ci: int
    k: float
    layers: tuple[CriticalLayer, ...]
    impedance: complex
    jumps: tuple[LayerJump, ...]
    n_steps: int = 0

    def w_jump_defects(self) -> tuple[float, ...]:
        """Relative defect of W*(s+) - W*(s-) against the jump formula."""
        out = []
        for j, layer in zip(self.jumps, self.layers):
            formula = (self.sign_ci * math.pi * layer.u_double_prime * j.u1
                       / abs(layer.u_prime))
            measured = j.w_above - j.w_below
            denom = max(abs(formula), abs(measured), 1e-300)
            out.append(abs(measured - formula) / denom)
        return tuple(out)


def limiting_solution(profile: ShearProfile, k: float, c_r: float,
                      sign_ci: int, tol: float = _DEFAULT_TOL, *,
                      layers: tuple[CriticalLayer, ...] | None = None
                      ) -> LimitSolution:
    """Solve the Rayleigh equation in the limiting sense for real c_r.

    One element shot on the real axis by the column builder of the direct
    solver (:func:`_shoot`), with its coefficient and its breakpoints
    (spline knots), whose crossings are the layers' patches: each
    layer s_j is crossed on [s_j - delta, s_j + delta] by one joint, the
    two-solution Frobenius log-series with the branch fixed so that y'
    jumps by i sign_ci pi U''(s_j)/|U'(s_j)| y(s_j).  A patch is never cut
    at a break inside it.  The result is normalized to y*(0) = 1, so
    ``impedance`` equals y*'(0).  ``layers`` passes in the result of
    ``find_critical_points(profile, c_r)`` when the caller holds it already;
    the layers are scanned for otherwise.

    A zero-curvature wind, on any column, takes the closed form of
    :func:`pwl_impedance_cascade` at c_r itself instead, with ``n_steps``
    0: y'' = k^2 y off its kinks, so U''(s_j) = 0 at every layer, no W
    jumps, u1 = |y(s_j)/y(0)|^2, and a c_r at a kink speed is refused.

    Raises
    ------
    ValueError
        For a ``sign_ci`` other than +1 or -1, a wavenumber that is zero or
        not finite, or a ``tol`` that is negative, infinite or NaN on a wind
        the kernel shoots.
    InfiniteDomain
        If h_plus is not finite on a wind that is not zero-curvature.
    SeriesRadiusTooSmall
        If the series radius at a layer collapses (|k| too large).
    NearSingularCoefficient
        If a step collapses below the spacing of floats, the mesh needs
        more than 2^18 steps, or c_r is a kink speed.
    DegenerateAtInterface
        If |y(0)| < 1e-12 * sup |y| over the mesh (channel-type mode).
    """
    if sign_ci not in (-1, 1):
        raise ValueError("sign_ci must be +1 or -1")
    _check_wavenumber(k)
    h = profile.h_plus
    if not (math.isfinite(h) or profile.zero_curvature):
        raise InfiniteDomain("limiting solver needs a finite air column")
    if layers is None:
        layers = find_critical_points(profile, c_r)
    if profile.zero_curvature:
        z, log_y, at = _cascade(profile, k, complex(c_r),
                                at=[layer.position for layer in layers])
        # y is real for real c_r, up to one phase: W = Im y' conj y = 0
        ys = [cmath.exp(log_s - log_y) for log_s in at]
        jumps = tuple(LayerJump(layer.position, y, 0j, abs(y) ** 2, 0.0, 0.0)
                      for layer, y in zip(layers, ys))
        return LimitSolution(c_r=c_r, sign_ci=sign_ci, k=k, layers=layers,
                             impedance=complex(z), jumps=jumps)
    # the cap keeps each patch clear of its neighbours and the ends
    ends = sorted([0.0, *(layer.position for layer in layers), h])
    cap = min([0.05 * h] + [0.25 * (b - a) for a, b in zip(ends, ends[1:])])
    patches = [_patch(profile, layer, k, cap, sign_ci) for layer in layers]

    # each patch is crossed from s + delta to s - delta by one joint
    crossing = {layer.position + delta: (layer.position - delta, matrix)
                for layer, (delta, _, matrix) in zip(layers, patches)}
    nodes: dict = {}
    y, log_scale, n_steps, errors = _shoot(
        profile, np.array([float(k)]), np.array([float(c_r)]), tol,
        nodes=nodes, crossings=[crossing])
    _raise_first(errors)
    t, states, scales, _ = nodes[0]

    # normalize to y*(0) = 1 and assemble the layer records
    y0, yp0 = complex(y[0, 0]), complex(y[1, 0])
    jumps = []
    for layer, (delta, upper, matrix) in zip(layers, patches):
        # the state on the patch's upper edge, and its log-series amplitude B
        j = np.flatnonzero(t == layer.position + delta)[0]
        state = states[:, j]
        _, b_coef = np.linalg.solve(upper, state)
        # restore the node's scale relative to the interface value
        rel = math.exp(min(float(scales[j]) - float(log_scale[0]), 300.0))
        y_val = (b_coef / y0) * rel
        dyp = 1j * sign_ci * math.pi * (
            layer.u_double_prime / abs(layer.u_prime)) * y_val
        u1, w_above, w_below = (
            _per_y0_squared(x, scales[j], y0, log_scale[0])
            for x in (abs(b_coef) ** 2, _w(state), _w(matrix @ state)))
        jumps.append(LayerJump(layer.position, y_val, dyp, u1, w_above,
                               w_below))
    return LimitSolution(c_r=c_r, sign_ci=sign_ci, k=k, layers=layers,
                         impedance=yp0 / y0, jumps=tuple(jumps),
                         n_steps=int(n_steps[0]))


@dataclass
class ConvergenceReport:
    """Impedance convergence onto the limiting value as Im c -> 0."""

    c_r: float
    sign_ci: int
    k: float
    impedance_limit: complex
    ci_values: tuple[float, ...]
    impedances: tuple[complex, ...]
    errors: tuple[float, ...]
    slope: Optional[float]

    @property
    def monotone(self) -> bool:
        return all(a > b for a, b in zip(self.errors, self.errors[1:]))


def impedance_limit_check(profile: ShearProfile, k: float, c_r: float,
                          sign_ci: int, ci_sequence: Sequence[float],
                          tol: float = _DEFAULT_TOL) -> ConvergenceReport:
    """Compare direct impedances at c_r + i c_I against the limiting value.

    The direct impedances are one :func:`impedance_outcomes` batch, of which
    the error of the first failing c_I is raised.  ``ci_sequence`` must be
    positive and decreasing.  The fitted slope is the least-squares log-log
    rate; it is omitted when fewer than two points are supplied.
    """
    cis = [float(v) for v in ci_sequence]
    if any(v <= 0.0 for v in cis):
        raise ValueError("ci_sequence must be positive")
    if any(a <= b for a, b in zip(cis, cis[1:])):
        raise ValueError("ci_sequence must be decreasing")

    limit = limiting_solution(profile, k, c_r, sign_ci, tol)
    imps, failed = impedance_outcomes(
        profile, k, [complex(c_r, sign_ci * ci) for ci in cis], tol)
    _raise_first(failed)
    imps = imps.tolist()
    errs = [abs(imp - limit.impedance) for imp in imps]

    slope = None
    if len(cis) >= 2:
        lx = np.log(np.array(cis))
        ly = np.log(np.maximum(np.array(errs), 1e-300))
        slope = float(np.polyfit(lx, ly, 1)[0])

    return ConvergenceReport(c_r=c_r, sign_ci=sign_ci, k=k,
                             impedance_limit=limit.impedance,
                             ci_values=tuple(cis), impedances=tuple(imps),
                             errors=tuple(errs), slope=slope)
