"""Rayleigh-equation solvers on the air column.

The second-order problem

    -y'' + (U''/(U - c) + k^2) y = 0 on (0, h_plus),   y(h_plus) = 0

is integrated from the lid down to the interface with initial data
y(h_plus) = 0, y'(h_plus) = 1.  The single output consumed by the dispersion
relations is the interface impedance y'(0)/y(0), which is invariant under
rescaling of the initial data.

Three regimes are covered:

* ``impedance_outcomes``: many (k, c) pairs in one DOP853 step loop of
  elementwise numpy, each pair on its own step sizes.  On a profile that
  evaluates at complex altitudes (``complex_path``: tanh, tables) each pair
  shoots along Lin's path, indented into the complex plane around the
  critical layers at Re c on the side away from the singularity, so one
  solver covers Im c large down to Im c = 0+- (the limit, with the side
  given by ``sign_ci``).  Other curved profiles shoot on the real axis and
  are refused too close to a layer.  It is the one batch entry into the
  kernel; ``interface_impedance`` (one pair) and ``integrate_rayleigh`` (one
  element, with lid data and a trace) are the scalar entries.
* ``integrate_wronskian``: the real 4-vector (|y|^2, Re y'conj(y), |y'|^2,
  Im y'conj(y)) whose last component carries the destabilizing phase.
* ``limiting_solution``: the Im c -> 0 limit across critical layers on the
  real axis, shot on the kernel's one-element step loop between the layers
  and crossed with local log-series patches and the explicit derivative
  jump i sign(c_I) pi U''(s)/|U'(s)| y(s).  It gives the per-layer jump
  data, so it serves the growth constant wherever the path does not
  (profiles without ``complex_path``, two or more layers, a layer at an
  inflection point), and its impedance is an independent check of the
  indented path's.

The kernel rescales each element's state as it grows like e^{|k| x} (see
:func:`_advance`), so it runs at any |k| h+.  It, and with it the limiting
solver, needs numpy alone; ``integrate_wronskian`` steps on scipy's
``solve_ivp``, imported when it first runs.
"""
from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateAtInterface,
    InfiniteDomain,
    NearSingularCoefficient,
    OrderUnavailable,
    OutOfDomain,
    SeriesRadiusTooSmall,
    WindwavesError,
)
from .profiles import (
    CriticalLayer,
    CriticalLayerSet,
    PiecewiseLinearProfile,
    ShearProfile,
    TabulatedProfile,
    find_critical_points,
)

__all__ = [
    "RayleighSolution",
    "RayleighTrace",
    "WronskianPath",
    "LayerJump",
    "LimitSolution",
    "ConvergenceReport",
    "integrate_rayleigh",
    "integrate_wronskian",
    "limiting_solution",
    "impedance_limit_check",
    "interface_impedance",
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


def _u_range(profile: ShearProfile) -> Optional[tuple[float, float]]:
    """Sampled (min U, max U), or None for a profile that cannot be sampled."""
    try:
        return profile.u_bounds(513)
    except OutOfDomain:
        return None


def _speed_scale(profile: ShearProfile, c: complex,
                 u_range: Optional[tuple[float, float]]) -> float:
    if u_range is None:
        span = abs(profile.value(0.0))
    else:
        span = u_range[1] - u_range[0]
    return max(1.0, span, abs(c.real))


def _has_layers(u_range: Optional[tuple[float, float]], c_r: float) -> bool:
    # cheap range test; an exact scan only follows for real c
    if u_range is None:
        return False
    umin, umax = u_range
    return umin - 1e-12 <= c_r <= umax + 1e-12


def _check_switch(profile: ShearProfile, c: complex, scale: float,
                  u_range: Optional[tuple[float, float]]) -> None:
    """Refuse a real-axis solve too close to a critical-layer singularity."""
    ci = c.imag
    # Zero-curvature coefficients are identically k^2 and piecewise-linear
    # ones are regular inside every segment (only the kink speeds are
    # dangerous, and those are guarded at the jumps); elsewhere a critical
    # layer at Re c makes the coefficient singular.
    if profile.zero_curvature or isinstance(profile, PiecewiseLinearProfile) \
            or abs(ci) >= SWITCH_FACTOR * scale * (1.0 - 1e-9):
        return
    if abs(ci) > 0.0 and _has_layers(u_range, c.real):
        raise NearSingularCoefficient(
            f"|Im c|={abs(ci):g} below switch threshold "
            f"{SWITCH_FACTOR * scale:g}; use limiting_solution")
    if ci == 0.0 and len(find_critical_points(profile, c.real)) > 0:
        raise _real_speed_refused()


def _real_speed_refused() -> NearSingularCoefficient:
    return NearSingularCoefficient(
        "real wave speed with critical layers; use limiting_solution")


def _bumps(profile: ShearProfile, c: complex, scale: float,
           u_range: Optional[tuple[float, float]], bounds: list[float],
           sign_ci: Optional[int], layers: Optional[CriticalLayerSet] = None
           ) -> tuple[tuple[float, float, float, float], ...]:
    """The indentations (lo, hi, s, depth) of one element's shooting path.

    Lin's rule: the path x(t) = t + i depth b(t) passes each critical layer
    s at Re c on the side away from the singularity of the coefficient, at
    sign(depth) = -sign(c_I U'(s)), with c_I's sign taken from ``sign_ci``
    for a real c.  Each bump lives on the stretch [lo, hi] between the
    breakpoints, cut at the midpoints between adjacent layers, that holds
    its layer; it is pinned to the real axis at both ends, and |depth| is
    half the layer's distance to the nearer end or to the next complex root
    of U = Re c, whichever is less.  A layer gets no bump when the
    singularity already lies farther off the axis than the bump would reach.
    A real c's layers are scanned for unless ``layers`` holds them.
    Profiles without ``complex_path`` shoot on the real axis, where
    :func:`_check_switch` refuses a wave speed too close to a layer.
    """
    if not profile.complex_path:
        _check_switch(profile, c, scale, u_range)
        return ()
    ci = c.imag
    if not _has_layers(u_range, c.real):
        return ()
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
            out.append((lo, hi, s, -math.copysign(a, side * up)))
    return tuple(out)


def _kink_denominator(profile: ShearProfile, x: float, c: complex,
                      scale: float) -> complex:
    """U(x) - c at a kink, refused when the wave speed equals the kink speed."""
    denom = profile.value(x) - c
    if abs(denom) < 1e-12 * scale:
        raise NearSingularCoefficient(f"wave speed equals the kink speed U({x})")
    return denom


def _check_path(min_coeff_dist: float, scale: float) -> None:
    if min_coeff_dist < 1e-10 * scale:
        raise NearSingularCoefficient(
            f"min |U - c| = {min_coeff_dist:g} along the path")


def _check_interface(y0: complex, yp0: complex, sup_y: float) -> None:
    if abs(y0) < INTERFACE_FLOOR * max(sup_y, abs(yp0)):
        raise DegenerateAtInterface(
            f"|y(0)| = {abs(y0):g} vs sup |y| = {sup_y:g}: channel-type mode")


@dataclass
class RayleighTrace:
    """Sampled (x2, y, y') path of one solve, ordered by increasing x2."""

    x2: np.ndarray
    y: np.ndarray
    yp: np.ndarray

    def write_csv(self, path) -> None:
        """Dump the trace with the derived Wronskian quantities."""
        u1 = np.abs(self.y) ** 2
        u2 = np.real(self.yp * np.conj(self.y))
        u3 = np.abs(self.yp) ** 2
        w = np.imag(self.yp * np.conj(self.y))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x2,re_y,im_y,re_yp,im_yp,u1,u2,u3,w\n")
            for i in range(self.x2.size):
                row = (self.x2[i], self.y[i].real, self.y[i].imag,
                       self.yp[i].real, self.yp[i].imag,
                       u1[i], u2[i], u3[i], w[i])
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass
class RayleighSolution:
    """Interface data of one direct Rayleigh solve."""

    c: complex
    k: float
    y0: complex
    yp0: complex
    impedance: complex
    method: str = "direct"
    n_steps: int = 0
    trace: Optional[RayleighTrace] = None


def uniform_flow_impedance(k: float, h_plus: float) -> float:
    """y'(0)/y(0) for profiles with U'' = 0: -|k| coth(|k| h+), -> -|k| at inf."""
    ak = abs(k)
    if math.isinf(h_plus):
        return -ak
    return -ak / math.tanh(ak * h_plus)


def _segment_bounds(profile: ShearProfile) -> list[float]:
    """Integration breakpoints, descending from h_plus to 0."""
    pts = [profile.h_plus, 0.0]
    if isinstance(profile, PiecewiseLinearProfile):
        pts.extend(x for x, _ in profile.kinks() if 0.0 < x < profile.h_plus)
    elif isinstance(profile, TabulatedProfile):
        # U''' jumps at the spline knots, which the error estimate does not
        # see coming: stepping across them misses the tolerance 100-fold
        pts.extend(float(x) for x in profile.x2[1:-1])
    return sorted(set(pts), reverse=True)


def _kink_jump_map(profile: ShearProfile) -> dict[float, float]:
    if isinstance(profile, PiecewiseLinearProfile):
        return dict(profile.kinks())
    return {}


def integrate_rayleigh(profile: ShearProfile, k: float, c: complex,
                       tol: float = _DEFAULT_TOL, *,
                       init: tuple[complex, complex] = (0.0, 1.0),
                       want_trace: bool = False) -> RayleighSolution:
    """Integrate the Rayleigh equation from the lid down to the interface.

    The one-element case of the step loop of :func:`impedance_outcomes`:
    (y(0), y'(0)) is bit for bit the state its pair reaches in any batch.

    Parameters
    ----------
    profile : ShearProfile
        Wind profile on a finite column.
    k : float
        Wavenumber (nonzero).
    c : complex
        Wave speed.  Im c may vanish only when Re c has no critical layer.
        On a profile with ``complex_path`` the solve runs along Lin's
        indented path (see :func:`impedance_outcomes`) unless a trace is
        wanted.
    tol : float
        Relative tolerance of the adaptive integrator.
    init : pair of complex
        Initial data (y, y') at the lid; the default (0, 1) matches the
        normalization used throughout.  The impedance does not depend on it.
    want_trace : bool
        Record (x2, y, y') at every accepted point of the integrator.

    Returns
    -------
    RayleighSolution

    Raises
    ------
    InfiniteDomain
        If h_plus is not finite.
    NearSingularCoefficient
        If c is real and Re c a critical value, or, on the real axis, |Im c|
        is below the direct/limiting switch threshold while Re c is a critical
        value, or the coefficient becomes near-singular en route.
    DegenerateAtInterface
        If |y(0)| < 1e-12 * sup |y| (channel-type eigenfunction).
    """
    ks, cs = _pairs(k, [c])
    points = [] if want_trace else None
    y, log_scale, n_steps, errors = _shoot(profile, ks, cs, tol, init, points)
    _raise_first(errors)
    y0, yp0 = _unscaled(y[:, 0], log_scale[0]).tolist()
    trace = None
    if want_trace:
        # the points run down from the lid; a breakpoint appears once from
        # each side, which a kink jump sets apart
        x2, ys, yps = np.array(points[::-1]).T
        trace = RayleighTrace(x2=x2.real, y=ys, yp=yps)
    return RayleighSolution(c=c, k=k, y0=y0, yp0=yp0,
                            impedance=complex(y[1, 0]) / complex(y[0, 0]),
                            n_steps=int(n_steps[0]), trace=trace)


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


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5), shaped
# to weight a (stage, component, element) array.  The weighted stage sums are
# elementwise products and sums, so no BLAS call, and so no BLAS thread
# hand-off, sits in the step loop, and no element's arithmetic depends on
# another's.
_TABLEAU = _dop853_coefficients()
_DOP_STAGES = _TABLEAU.N_STAGES
# abscissae of stages 1 .. N_STAGES - 1; the last one is 1, the step's end
_DOP_C = _TABLEAU.C[1:_DOP_STAGES, None]
_DOP_A = [_TABLEAU.A[s, :s, None, None] for s in range(_DOP_STAGES)]
_DOP_B = _TABLEAU.B[:, None, None]
# the order-5 and order-3 error estimators, stacked
_DOP_E = np.stack((_TABLEAU.E5, _TABLEAU.E3))[:, :, None, None]
# scipy's step-size controller; the embedded error estimate is of order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_RESCALE = 1e100  # |(y, y')| past which _advance rescales an element


def _pairs(k, cs) -> tuple[np.ndarray, np.ndarray]:
    """Validated 1-d arrays of wavenumbers and wave speeds, broadcast together."""
    ks, cs = np.broadcast_arrays(np.asarray(k, dtype=float),
                                 np.asarray(cs, dtype=complex))
    if cs.ndim != 1:
        raise ValueError("k and cs must broadcast to a 1-d array")
    if np.any(ks == 0.0):
        raise ValueError("wavenumber k must be nonzero")
    return ks, cs


def _raise_first(errors: dict) -> None:
    """Raise the error of the first failed element in input order, if any."""
    if errors:
        raise errors[min(errors)]


def _shoot(profile: ShearProfile, ks: np.ndarray, cs: np.ndarray, tol: float,
           init=(0.0, 1.0), trace: Optional[list] = None,
           sign_ci: Optional[int] = None,
           layers: Optional[Sequence[CriticalLayerSet]] = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Shoot every (k, c) element from the lid data ``init`` to the interface.

    Returns ``(y, log_scale, n_steps, errors)``: (y(0), y'(0)) per element
    in the kernel's scale (see :func:`_advance`), NaN where the element
    failed; its accepted points; and, by element index, the error of each
    failed element.  Each element runs along its own path (see
    :func:`_bumps`, which takes ``sign_ci`` and element i's ``layers[i]``),
    cut into legs at the breakpoints and at the ends of its bumps, and leg j
    of every element is one :func:`_advance`.  When ``trace`` is a list, the
    (x2, y, y') of every accepted point of element 0 is appended to it; a
    trace samples the real column, so a traced solve is not indented.
    """
    if not math.isfinite(profile.h_plus):
        raise InfiniteDomain("direct integration needs a finite air column; "
                             "uniform-vorticity impedances have closed forms")
    n = cs.size
    y = np.empty((2, n), dtype=complex)
    y[0], y[1] = init

    alive = np.ones(n, dtype=bool)
    errors: dict[int, WindwavesError] = {}

    def fail(i: int, exc: WindwavesError) -> None:
        errors.setdefault(int(i), exc)
        alive[i] = False

    u_range = _u_range(profile)
    scales = [_speed_scale(profile, complex(c), u_range) for c in cs]
    bounds = _segment_bounds(profile)
    bumps = [()] * n
    for i, c in enumerate(cs):
        try:
            if trace is None:
                bumps[i] = _bumps(profile, complex(c), scales[i], u_range,
                                  bounds, sign_ci,
                                  None if layers is None else layers[i])
            else:
                _check_switch(profile, complex(c), scales[i], u_range)
        except WindwavesError as exc:
            fail(i, exc)

    track = not profile.zero_curvature
    kk = ks * ks
    coeff = _real_coeff(profile, cs, kk)
    log_scale = np.zeros(n)
    sup_y = np.abs(y[0])
    dist = np.full(n, math.inf)

    def watch(ok: np.ndarray, t: np.ndarray, u: Optional[np.ndarray]) -> None:
        if track:
            np.fmin(dist, np.abs(u - cs), out=dist, where=ok)
        if trace is not None and ok[0]:
            trace.append((t[0], *_unscaled(y[:, 0], log_scale[0])))

    n_steps = np.zeros(n, dtype=int)
    jumps = _kink_jump_map(profile)
    tops, bots, depth, peak = _legs(bounds, bumps)
    with np.errstate(all="ignore"):  # failed elements may overflow
        for top, bot, a, m in zip(tops, bots, depth, peak):
            if not np.count_nonzero(alive):
                break
            leg = coeff if not np.count_nonzero(a) else \
                _path_coeff(profile, cs, kk, bot, top - bot, m, a)
            n_steps += _advance(leg, top, bot, y, alive, fail, tol, log_scale,
                                sup_y, watch)
            for i in np.flatnonzero(alive & (top > bot)) if jumps else ():
                if bot[i] not in jumps:
                    continue
                try:
                    denom = _kink_denominator(profile, bot[i], complex(cs[i]),
                                              scales[i])
                except WindwavesError as exc:
                    fail(i, exc)
                    continue
                # y'(x-) = y'(x+) - [U'] y / (U - c)
                y[1, i] = y[1, i] - jumps[bot[i]] * y[0, i] / denom

    for i in np.flatnonzero(alive):
        try:
            _check_path(float(dist[i]), scales[i])
            _check_interface(complex(y[0, i]), complex(y[1, i]), float(sup_y[i]))
        except WindwavesError as exc:
            fail(i, exc)
    y[:, ~alive] = np.nan
    return y, log_scale, n_steps, errors


def _unscaled(v: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """``v`` e^log_scale: inf past the float range, never NaN (each part is
    scaled alone, and by halves, so that no finite product overflows)."""
    out = np.empty(np.shape(v), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(0.5 * log_scale)
        out.real, out.imag = (np.where(p == 0.0, 0.0, p * half * half)
                              for p in (v.real, v.imag))
    return out


def _legs(bounds: list[float], bumps: list[tuple]) -> tuple[np.ndarray, ...]:
    """Each element's legs, as (n_legs, n) arrays of tops, bottoms, bump
    depths and bump peaks (the layer's place in the leg, from 0 at the bottom
    to 1 at the top; 1/2 where the depth is 0).

    An element's breakpoints are ``bounds`` and the ends of its bumps; one
    with fewer legs than another ends on zero-length legs at 0.
    """
    n = len(bumps)
    cuts = [sorted(set(bounds).union(*[(lo, hi) for lo, hi, _, _ in b]),
                   reverse=True) for b in bumps]
    n_legs = max(len(c) for c in cuts) - 1
    tops, bots = np.zeros((n_legs, n)), np.zeros((n_legs, n))
    depth, peak = np.zeros((n_legs, n)), np.full((n_legs, n), 0.5)
    for i, (cut, bump) in enumerate(zip(cuts, bumps)):
        tops[:len(cut) - 1, i], bots[:len(cut) - 1, i] = cut[:-1], cut[1:]
        for lo, hi, s, a in bump:
            j = cut.index(hi)
            depth[j, i], peak[j, i] = a, (s - lo) / (hi - lo)
    return tops, bots, depth, peak


def _real_coeff(profile: ShearProfile, cs: np.ndarray, kk: np.ndarray):
    """``coeff`` of the real axis: U for the path guard (None where U'' = 0),
    no path weight, and q = U''/(U - c) + k^2 at real altitudes x of shape
    (..., n); q = k^2 inside the pieces of a piecewise-linear wind."""
    if profile.zero_curvature:
        return lambda x: (None, None, np.broadcast_to(kk, x.shape))
    if isinstance(profile, PiecewiseLinearProfile):
        return lambda x: (profile.value(x), None, np.broadcast_to(kk, x.shape))

    def coeff(x: np.ndarray):
        u, upp = profile.value_and_curvature(x)
        return u, None, upp / (u - cs) + kk

    return coeff


def _path_coeff(profile: ShearProfile, cs: np.ndarray, kk: np.ndarray,
                lo: np.ndarray, width: np.ndarray, peak: np.ndarray,
                depth: np.ndarray):
    """``coeff`` of a leg on which some elements are indented.

    Element i runs along x(t) = t + i depth_i b_i(u), u = (t - lo_i)/width_i,
    where b = (u/m)^p ((1-u)/(1-m))^q is 1 at the layer's place m and
    vanishes at u = 0 and 1.  The integers p = 1 <= q or q = 1 <= p, rounded
    from p/q = m/(1-m), put the bump's top within 4% of 1 and near m; as a
    polynomial, b is smooth up to the pinned ends, where a fractional power
    would spoil the step control.  The equation in t
    is (y, y')' = x'(t) (y', q(x(t)) y), so ``coeff`` returns U(x), the path
    weight x' and x' q.  Elements with depth 0 are evaluated at real t, so
    that their values do not depend on the others.
    """
    bent = depth != 0.0
    width = np.where(width > 0.0, width, 1.0)  # zero-length legs stand still
    p = np.fmax(1.0, np.round(peak / (1.0 - peak)))
    q = np.fmax(1.0, np.round((1.0 - peak) / peak))
    rv, rw = 1.0 / peak, 1.0 / (1.0 - peak)
    sv, sw = p * rv / width, q * rw / width
    lift = 1j * depth

    def coeff(t: np.ndarray):
        u = np.clip((t - lo) / width, 0.0, 1.0)
        v, w = u * rv, (1.0 - u) * rw
        # v^(p-1) w^(q-1) by exp and log (``**`` takes a faster route for a
        # one-element batch, which would change the last bit); the floor
        # keeps log finite at the pinned ends, where p - 1 or q - 1 may be 0
        vw = np.exp((p - 1.0) * np.log(np.fmax(v, 1e-300))
                    + (q - 1.0) * np.log(np.fmax(w, 1e-300)))
        b = vw * v * w
        db = vw * (sv * w - sw * v)
        x = t + lift * b
        dx = 1.0 + lift * db
        if bent.all():
            uu, upp = profile.value_and_curvature(x)
        else:
            uu = np.empty(t.shape, dtype=complex)
            upp = np.empty(t.shape, dtype=complex)
            uu[..., bent], upp[..., bent] = \
                profile.value_and_curvature(x[..., bent])
            uu[..., ~bent], upp[..., ~bent] = \
                profile.value_and_curvature(t[..., ~bent])
        return uu, dx, dx * (upp / (uu - cs) + kk)

    return coeff


def _advance(coeff, top: np.ndarray, bot, y: np.ndarray, alive: np.ndarray,
             fail, tol: float, log_scale: np.ndarray, sup_y: np.ndarray,
             watch=None) -> np.ndarray:
    """Step every live element of ``y`` from its ``top[i]`` down to ``bot[i]``.

    ``coeff(t)`` gives (U or None, w or None, w q) at path parameters t of
    shape (..., n), where w = x'(t) is the weight of the element's path
    (None on the real axis, where it is 1), and ``y`` holds (y, y') per
    element and is updated in place.  Each pass tries one DOP853 step of
    every element that is alive and short of its bottom, on the element's
    own step size; the others step by zero, so no array is ever compacted.
    An element whose step size collapses is handed to ``fail(i, error)``,
    which must clear ``alive[i]``.  An element whose (y, y') passes
    ``_RESCALE`` after a step is divided by its magnitude, whose log is added
    to ``log_scale[i]``: the true state is y e^log_scale.  ``sup_y`` is each
    element's largest accepted |y|, in y's scale.  ``watch(ok, t, u)`` is
    called with the elements that accepted a point, the parameters and U
    there: at the top, then after each pass.  Returns the accepted points per
    element, the start point included, as scipy's integrators count ``t``; an
    element with ``top[i] == bot[i]`` does not move and counts none.
    """
    n = y.shape[1]
    rtol, atol = tol, tol * 1e-3
    live = alive & (top > bot)
    t = np.array(top, dtype=float)
    u, w, wq = coeff(t)
    f = np.array([y[1] if w is None else w * y[1], wq * y[0]])  # at t
    n_steps = live.astype(int)
    if watch is not None:
        watch(live, t, u)
    stages = np.empty((_DOP_STAGES + 1, 2, n), dtype=complex)
    # (w, w q) at the stage abscissae: a stage derivative w (y', q y) is the
    # reversed stage state times them; w stays 1 on the real axis
    weights = np.ones((_DOP_STAGES - 1, 2, n), dtype=complex)
    h_abs = _initial_step(coeff, t, bot, y, f, live, rtol, atol)
    rejected = np.zeros(n, dtype=bool)
    while True:
        # scipy's controller: a retried step below min_step gives up, and a
        # new one starts at min_step or above (which a retried one that did
        # not give up already is)
        min_step = 10.0 * (t - np.nextafter(t, -np.inf))
        if np.count_nonzero(rejected):
            for i in np.flatnonzero(rejected & (h_abs < min_step)):
                fail(i, NearSingularCoefficient(
                    "integration failed: Required step size is less than "
                    "spacing between numbers."))
            live &= alive
        if not np.count_nonzero(live):
            return n_steps
        h_abs = np.fmax(h_abs, min_step)
        t_new = np.maximum(t - h_abs, bot)
        h = np.where(live, t - t_new, 0.0)
        y_new, f_new, u = _dop853_step(coeff, t, h, y, f, stages, weights)
        mag = np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(stages, mag, rtol, atol)
        ok = live & (err < 1.0)
        # err = 0 makes factor inf, which fmin caps at _MAX_FACTOR; a step
        # retried after a rejection may not grow; a NaN err (an overflow)
        # shrinks the step by _MIN_FACTOR, as in scipy
        factor = _SAFETY * err ** _ERROR_EXPONENT
        grow = np.fmin(_MAX_FACTOR, factor)
        np.fmin(grow, 1.0, out=grow, where=rejected)
        rejected = live ^ ok  # ok is a subset of live
        np.fmax(_MIN_FACTOR, factor, out=grow, where=rejected)
        h_abs = h * grow
        np.copyto(t, t_new, where=ok)
        np.copyto(y, y_new, where=ok)
        np.copyto(f, f_new, where=ok)
        np.maximum(sup_y, np.abs(y[0]), out=sup_y)
        # fmax skips the NaN of a trial step past the float range
        if np.fmax.reduce(mag, axis=None) > _RESCALE:
            peak = np.fmax(mag[0], mag[1])
            m = np.where(ok & (peak > _RESCALE), peak, 1.0)
            y /= m
            f /= m  # f is linear in y
            sup_y /= m
            log_scale += np.log(m)
        n_steps += ok
        if watch is not None:
            watch(ok, t, u)
        live &= t > bot


def _dop853_step(coeff, t: np.ndarray, h: np.ndarray, y: np.ndarray,
                 f: np.ndarray, stages: np.ndarray, weights: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One DOP853 step of (y, y')' = w (y', q y) from t down to t - h, per element.

    ``f`` is the derivative at t.  ``stages`` is filled with h times the
    stage derivatives, which spares a scaling per stage.  q does not depend
    on y, so the coefficient is evaluated at every stage abscissa at once.
    Returns the state and its derivative at t - h, and U(t - h).
    """
    u, w, weights[:, 1] = coeff(t - _DOP_C * h)
    if w is not None:
        weights[:, 0] = w
    scaled = weights * h
    np.multiply(f, h, out=stages[0])
    for s in range(1, _DOP_STAGES):
        acc = np.add.reduce(_DOP_A[s] * stages[:s], axis=0)
        np.subtract(y, acc, out=acc)
        np.multiply(acc[::-1], scaled[s - 1], out=stages[s])
    y_new = np.add.reduce(_DOP_B * stages[:-1], axis=0)
    np.subtract(y, y_new, out=y_new)
    # the last stage abscissa is t - h
    f_new = y_new[::-1] * weights[-1]
    np.multiply(f_new, h, out=stages[-1])
    return y_new, f_new, None if u is None else u[-1]


def _error_norm(stages, mag, rtol, atol) -> np.ndarray:
    """scipy's DOP853 error norm per element, ``mag`` max(|y|, |y_new|).

    The stages carry a factor h, so the squared norms carry h^2, and scipy's
    |h| e5 / sqrt(2 (e5 + 0.01 e3)) is e5 / sqrt(2 (e5 + 0.01 e3)) in them.
    """
    sc = atol + mag * rtol
    e = np.abs(np.add.reduce(_DOP_E * stages, axis=1) / sc) ** 2
    e5, e3 = e[:, 0] + e[:, 1]
    denom = e5 + 0.01 * e3
    # a NaN from an element that overflows must reject the step, not pass as 0
    return np.where(denom == 0.0, 0.0, e5 / np.sqrt(2.0 * denom))


def _rms(v: np.ndarray) -> np.ndarray:
    """Per-element RMS norm over the two state components."""
    return np.sqrt(0.5 * (np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2))


def _initial_step(coeff, t0, t_bound, y0, f0, live, rtol, atol) -> np.ndarray:
    """scipy's starting-step heuristic, per element (0 for the others).

    fmin and fmax ignore a NaN, so an element whose derivative overflows at
    the lid still gets a finite first step, and then fails the step control
    as it does in scipy.
    """
    interval = t0 - t_bound
    sc = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / sc), _rms(f0 / sc)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.where(live, np.fmin(h0, interval), 0.0)
    y1 = y0 - h0 * f0
    _, w1, wq1 = coeff(t0 - h0)
    dy1 = y1[1] if w1 is None else w1 * y1[1]
    d2 = _rms(np.stack((dy1 - f0[0], wq1 * y1[0] - f0[1])) / sc) / h0
    dmax = np.fmax(d1, d2)
    h1 = np.where(dmax <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / dmax) ** (-_ERROR_EXPONENT))
    return np.fmin(np.fmin(100.0 * h0, h1), interval)


def pwl_impedance_cascade(profile: PiecewiseLinearProfile, k: float,
                          c: complex) -> complex:
    """Closed-form impedance of a piecewise-linear profile.

    Each segment solves y'' = k^2 y exactly; interior kinks contribute the
    derivative jump -[U'] y / (U - c).  Works on unbounded columns, where the
    topmost segment carries the decaying solution e^{-|k| x2}.
    """
    ak = abs(k)
    kinks = sorted(((x, j) for x, j in profile.kinks()
                    if 0.0 < x < profile.h_plus), reverse=True)
    if math.isinf(profile.h_plus):
        if not kinks:
            return -ak
        x_top = kinks[0][0]
        y, yp = 1.0 + 0.0j, -ak + 0.0j
        start = x_top
    else:
        y, yp = 0.0j, 1.0 + 0.0j
        start = profile.h_plus

    def propagate(y, yp, x_from, x_to):
        dx = x_to - x_from  # negative going down
        ch, sh = math.cosh(ak * dx), math.sinh(ak * dx)
        return y * ch + yp * sh / ak, y * ak * sh + yp * ch

    x_cur = start
    for x_kink, du in kinks:
        if x_kink < x_cur:
            y, yp = propagate(y, yp, x_cur, x_kink)
            x_cur = x_kink
        denom = profile.value(x_kink) - c
        if denom == 0.0:
            raise NearSingularCoefficient("wave speed equals a kink speed")
        yp = yp - du * y / denom
        m = max(abs(y), abs(yp))
        if m > 1e100:  # impedance is scale-invariant
            y, yp = y / m, yp / m
    y, yp = propagate(y, yp, x_cur, 0.0)
    if y == 0.0:
        raise DegenerateAtInterface("y(0) = 0 in the piecewise cascade")
    return yp / y


def interface_impedance(profile: ShearProfile, k: float, c: complex,
                        tol: float = _DEFAULT_TOL) -> complex:
    """y'(0)/y(0) of one pair: :func:`impedance_outcomes` of [c], raising
    the pair's error."""
    imps, errors = impedance_outcomes(profile, k, [c], tol)
    _raise_first(errors)
    return complex(imps[0])


def impedance_outcomes(profile: ShearProfile, k, cs,
                       tol: float = _DEFAULT_TOL, *,
                       sign_ci: Optional[int] = None,
                       layers: Optional[Sequence[CriticalLayerSet]] = None
                       ) -> tuple[np.ndarray, dict]:
    """Impedances y'(0)/y(0) of (k, c) pairs, ``k`` broadcast against ``cs``,
    and the error of each pair that failed.

    Closed forms, where exact, are evaluated pair by pair: vorticity-free
    profiles (:func:`uniform_flow_impedance`) and piecewise-linear ones on an
    unbounded column (:func:`pwl_impedance_cascade`).  Every other pair is
    shot in one step loop of scipy's DOP853, at rtol ``tol`` and atol
    ``tol * 1e-3``, on a step size of its own (see :func:`_advance`); the
    arithmetic is elementwise, so a pair's impedance is bit for bit the one
    it gets alone.  A failed pair's impedance is NaN, and ``errors`` maps its index
    to the error :func:`interface_impedance` raises for it; a caller that
    raises the first error in input order raises ``errors[min(errors)]``.

    On a profile with ``complex_path``, every pair shoots along Lin's path,
    indented around the critical layers at Re c (see :func:`_bumps`).  A
    real c with critical layers then gets the limit Im c -> 0 from the side
    ``sign_ci`` (+1 or -1), which :func:`limiting_solution` also computes;
    without ``sign_ci`` such a pair is refused.  ``layers`` passes in, one
    per pair, ``find_critical_points(profile, Re c)`` when the caller holds
    it already; the path of a real c scans for its layers otherwise.

    Raises
    ------
    ValueError
        For a ``sign_ci`` other than +1, -1 or None, a zero wavenumber, or
        ``k`` and ``cs`` that do not broadcast to a 1-d array.
    InfiniteDomain
        If the pairs are shot and h_plus is not finite.
    """
    if sign_ci not in (None, -1, 1):
        raise ValueError("sign_ci must be +1, -1 or None")
    ks, cs = _pairs(k, cs)
    if profile.zero_curvature or (isinstance(profile, PiecewiseLinearProfile)
                                  and math.isinf(profile.h_plus)):
        imps = np.full(cs.shape, complex("nan"))
        errors = {}
        for i, (kv, c) in enumerate(zip(ks.tolist(), cs.tolist())):
            try:
                if profile.zero_curvature:
                    imps[i] = uniform_flow_impedance(kv, profile.h_plus)
                else:
                    imps[i] = pwl_impedance_cascade(profile, kv, c)
            except WindwavesError as exc:
                errors[i] = exc
        return imps, errors
    y, _, _, errors = _shoot(profile, ks, cs, tol, sign_ci=sign_ci,
                             layers=layers)
    with np.errstate(invalid="ignore"):  # NaN / NaN for the failed pairs
        return y[1] / y[0], errors


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
    if isinstance(profile, PiecewiseLinearProfile):
        raise OrderUnavailable(
            "the Wronskian system needs pointwise U''; piecewise-linear "
            "profiles only support the derivative-jump formulation")
    h = profile.h_plus
    if not math.isfinite(h):
        raise InfiniteDomain("Wronskian integration needs a finite air column")

    u_range = _u_range(profile)
    _check_switch(profile, c, _speed_scale(profile, c, u_range), u_range)
    cr, ci = c.real, c.imag

    def rhs(x, u):
        du = profile.value(x) - cr
        denom = du * du + ci * ci
        upp = profile.curvature(x)
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

@dataclass(frozen=True)
class _SeriesPatch:
    """Local Frobenius basis at a regular singular point of the equation.

    phi1 = t + c2 t^2 + c3 t^3 (analytic, index 1) and
    phi2 = 1 + d2 t^2 + d3 t^3 + b_{-1} phi1 log|t| (index 0), where
    t = x2 - s and b_{-1} = U''(s)/U'(s).  At the patch edge t = delta the
    truncated derivatives are off by O(b^4 t^3 log t), with b the
    coefficient scale, and the matched solution's error scales as delta^3:
    it falls ~7.6x per halving of delta.
    """

    s: float
    u_prime: float
    u_double_prime: float
    bm1: float
    c2: float
    c3: float
    d2: float
    d3: float
    delta: float

    def phi1(self, t: float) -> float:
        return t * (1.0 + t * (self.c2 + t * self.c3))

    def dphi1(self, t: float) -> float:
        return 1.0 + t * (2.0 * self.c2 + 3.0 * self.c3 * t)

    def phi2(self, t: float) -> float:
        return (1.0 + t * t * (self.d2 + self.d3 * t)
                + self.bm1 * self.phi1(t) * math.log(abs(t)))

    def dphi2(self, t: float) -> float:
        lg = math.log(abs(t))
        return (t * (2.0 * self.d2 + 3.0 * self.d3 * t)
                + self.bm1 * (self.dphi1(t) * lg + self.phi1(t) / t))

    def matrix(self, t: float) -> np.ndarray:
        return np.array([[self.phi1(t), self.phi2(t)],
                         [self.dphi1(t), self.dphi2(t)]], dtype=complex)


def _build_patch(profile: ShearProfile, layer: CriticalLayer, k: float,
                 delta_cap: float) -> _SeriesPatch:
    """The patch at one layer, with U'(s) and U''(s) from the layer scan."""
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
    return _SeriesPatch(s=s, u_prime=u1, u_double_prime=u2, bm1=bm1,
                        c2=c2, c3=c3, d2=d2, d3=d3, delta=delta)


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
    layers: CriticalLayerSet
    impedance: complex
    y0: complex
    yp0: complex
    jumps: tuple[LayerJump, ...]
    n_steps: int = 0
    method: str = "limiting"

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
                      layers: CriticalLayerSet | None = None) -> LimitSolution:
    """Solve the Rayleigh equation in the limiting sense for real c_r.

    Away from critical layers the real-coefficient equation is shot on the
    real axis by the kernel's one-element :func:`_advance`, which rescales
    the state as it grows, with the coefficient of the direct solver, in
    legs from the lid to the first patch, between patches and from the last
    patch to the interface, cut at the breakpoints of the direct solver
    (spline knots, kinks).  Each layer s_j is crossed on
    [s_j - delta, s_j + delta] with the two-solution Frobenius log-series,
    the branch fixed so that y' jumps by i sign_ci pi U''(s_j)/|U'(s_j)|
    y(s_j).  The result is normalized to y*(0) = 1, so ``impedance`` equals
    y*'(0).  ``layers`` passes in the result of
    ``find_critical_points(profile, c_r)`` when the caller holds it already;
    the layers are scanned for otherwise.

    This route gives the per-layer jump data (``jumps``), from which the
    growth constant is assembled wherever the indented path, which gives only
    the sum of the layer terms, does not serve: profiles without
    ``complex_path``, two or more layers, a layer at an inflection point, a
    layer term below the path's rounding.  The impedance alone is cheaper
    along Lin's indented path (:func:`impedance_outcomes` with ``sign_ci``),
    which is an independent check of this one.

    Raises
    ------
    SeriesRadiusTooSmall
        If the series radius at a layer collapses (|k| too large).
    DegenerateAtInterface
        If |y(0)| < 1e-12 * sup |y| over the legs (channel-type mode).
    """
    if sign_ci not in (-1, 1):
        raise ValueError("sign_ci must be +1 or -1")
    if k == 0.0:
        raise ValueError("wavenumber k must be nonzero")
    h = profile.h_plus
    if not math.isfinite(h):
        raise InfiniteDomain("limiting solver needs a finite air column")
    if layers is None:
        layers = find_critical_points(profile, c_r)
    # the cap keeps each patch clear of its neighbours and the column's ends
    ends = [0.0, *layers.positions, h]
    cap = min([0.05 * h] + [0.25 * (b - a) for a, b in zip(ends, ends[1:])])
    patches = [_build_patch(profile, layer, k, cap) for layer in layers]
    for patch in patches:
        if patch.delta <= 1e-12 * h:
            raise SeriesRadiusTooSmall(
                f"series radius {patch.delta:g} collapsed at layer {patch.s}")

    # the spans between the patches, from the lid down, cut at the breakpoints
    breaks = _segment_bounds(profile)
    edges = [h] + [x for p in reversed(patches)
                   for x in (p.s + p.delta, p.s - p.delta)] + [0.0]
    legs: list[tuple[float, float, Optional[_SeriesPatch]]] = []
    for m, (x_from, x_to) in enumerate(zip(edges[::2], edges[1::2])):
        cuts = sorted({x_from, x_to}.union(b for b in breaks if x_to < b < x_from),
                      reverse=True)
        legs += [(a, b, None) for a, b in zip(cuts, cuts[1:])]
        if m < len(patches):  # the patch crossed at the bottom of the span
            legs[-1] = (cuts[-2], cuts[-1], patches[-1 - m])

    coeff = _real_coeff(profile, np.array([c_r], dtype=float),
                        np.array([k * k], dtype=float))
    kinks = _kink_jump_map(profile)
    # the kink guard's speed scale; only kinked profiles need it sampled
    scale = _speed_scale(profile, complex(c_r), _u_range(profile)) \
        if kinks else 1.0
    y = np.array([[0.0], [1.0]], dtype=complex)  # (y, y') of the one element

    def fail(i: int, exc: WindwavesError) -> None:
        raise exc

    n_steps = 0
    log_scale = np.zeros(1)  # true state = stored state * exp(log_scale)
    sup_y = np.zeros(1)  # the largest |y| of all legs, in y's scale
    raw_jumps = []  # per-layer records with the scale at recording time
    with np.errstate(all="ignore"):
        for top, bot, patch in legs:
            n_steps += int(_advance(coeff, np.array([top]), bot, y,
                                    np.ones(1, bool), fail, tol, log_scale,
                                    sup_y)[0])
            if bot in kinks:
                denom = _kink_denominator(profile, bot, complex(c_r), scale)
                # y'(x-) = y'(x+) - [U'] y / (U - c)
                y[1] -= kinks[bot] * y[0] / denom
            if patch is None:
                continue
            state = y[:, 0]
            w_above = float(np.imag(state[1] * np.conj(state[0])))
            # match (A+, B) on the upper edge, jump the analytic amplitude,
            # re-emit the state on the lower edge
            a_plus, b_coef = np.linalg.solve(patch.matrix(patch.delta), state)
            a_minus = a_plus - 1j * sign_ci * math.pi * (
                patch.u_double_prime / abs(patch.u_prime)) * b_coef
            y[:, 0] = patch.matrix(-patch.delta) @ np.array([a_minus, b_coef])
            w_below = float(np.imag(y[1, 0] * np.conj(y[0, 0])))
            raw_jumps.append((patch, b_coef, w_above, w_below,
                              float(log_scale[0])))

    # normalize to y*(0) = 1 and assemble the layer records
    y0, yp0 = complex(y[0, 0]), complex(y[1, 0])
    _check_interface(y0, yp0, float(sup_y[0]))
    jumps = []
    for patch, b_coef, w_above, w_below, lsc in reversed(raw_jumps):
        # restore the recording-time scale relative to the interface value
        rel = math.exp(min(lsc - float(log_scale[0]), 300.0))
        y_val = (b_coef / y0) * rel
        dyp = 1j * sign_ci * math.pi * (
            patch.u_double_prime / abs(patch.u_prime)) * y_val
        rel2 = rel * rel / abs(y0) ** 2
        jumps.append(LayerJump(position=patch.s, y_value=y_val,
                               delta_yprime=dyp, u1=abs(b_coef) ** 2 * rel2,
                               w_above=w_above * rel2, w_below=w_below * rel2))
    return LimitSolution(c_r=c_r, sign_ci=sign_ci, k=k, layers=layers,
                         impedance=yp0 / y0, y0=1.0 + 0.0j, yp0=yp0 / y0,
                         jumps=tuple(jumps), n_steps=n_steps)


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
