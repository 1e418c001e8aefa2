"""Independent numerical oracles used by the test suite.

Everything here is deliberately built from different machinery than the
package under test: a fixed-step extrapolated-midpoint integrator of order 8
instead of the adaptive production integrator, scipy's own ``solve_ivp``
instead of the package's DOP853 step loop, scipy's ``CubicSpline`` instead
of the package's not-a-knot sweep for a table, plain bisection for roots,
textbook quadratic formulas for the closed-form dispersion relations.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from scipy.interpolate import CubicSpline

from windwaves.dispersion import FluidParams
from windwaves.eigensolver import find_root
from windwaves.errors import WindwavesError
from windwaves.profiles import (
    PiecewiseLinearProfile,
    TabulatedProfile,
    TanhProfile,
    find_critical_points,
)


def gbs_step(f, x0: float, y0: np.ndarray, big_h: float, n_sub: int) -> np.ndarray:
    """One modified-midpoint macro step with n_sub substeps (order 2, even)."""
    h = big_h / n_sub
    z0 = y0
    z1 = z0 + h * f(x0, z0)
    for i in range(1, n_sub):
        z0, z1 = z1, z0 + 2.0 * h * f(x0 + i * h, z1)
    return 0.5 * (z0 + z1 + h * f(x0 + big_h, z1))


def gbs_integrate(f, x0: float, x1: float, y0, n_macro: int = 400,
                  levels: int = 4) -> np.ndarray:
    """Fixed-step Gragg extrapolation integrator, effective order 2*levels.

    With levels=4 the local error is O(H^9), i.e. an 8th-order method.  The
    step count is fixed up front; there is no adaptive control, which keeps it
    independent of the production solver.
    """
    y = np.asarray(y0, dtype=complex)
    big_h = (x1 - x0) / n_macro
    subs = [2 * (j + 1) for j in range(levels)]
    for m in range(n_macro):
        xa = x0 + m * big_h
        table = [gbs_step(f, xa, y, big_h, n) for n in subs]
        # Richardson extrapolation in h^2 (Neville scheme)
        for j in range(1, levels):
            for i in range(levels - 1, j - 1, -1):
                r = (subs[i] / subs[i - j]) ** 2
                table[i] = table[i] + (table[i] - table[i - 1]) / (r - 1.0)
        y = table[-1]
    return y


def rayleigh_rhs(profile, k: float, c: complex):
    """Right-hand side of the first-order Rayleigh system [y, y']."""

    def f(x, y):
        x = min(max(x, 0.0), profile.h_plus)  # guard substep roundoff
        q = profile.curvature(x) / (profile.value(x) - c) + k * k
        return np.array([y[1], q * y[0]], dtype=complex)

    return f


def impedance_oracle(profile, k: float, c: complex, n_macro: int = 500) -> complex:
    """y'(0)/y(0) by the fixed-step order-8 integrator from (0, 1) at h_plus."""
    f = rayleigh_rhs(profile, k, c)
    y = gbs_integrate(f, profile.h_plus, 0.0, np.array([0.0, 1.0]), n_macro=n_macro)
    return complex(y[1] / y[0])


def scipy_impedance(profile, k: float, c: complex, tol: float) -> complex:
    """y'(0)/y(0) by scipy's DOP853 (rtol = tol, atol = 1e-3 tol) from (0, 1):
    the quotient of :func:`scipy_state`."""
    (y0, yp0), _, _ = scipy_state(profile, k, c, tol)
    return complex(yp0 / y0)


def scipy_state(profile, k: float, c: complex, tol: float,
                init=(0.0, 1.0), at=()):
    """(y(0), y'(0)), y at each altitude of ``at``, and log_scale, by scipy's
    DOP853 (rtol = tol, atol = 1e-3 tol) from the lid data ``init``: the
    true values are those returned times e^log_scale.

    One ``solve_ivp`` run per segment between h_plus, the kinks of a
    piecewise-linear profile, the interior knots of a tabulated one, the
    altitudes ``at`` and 0; at a kink y' jumps by -[U'] y / (U - c), [U']
    taken above minus below.  Each run starts from the state divided by its
    largest part, whose log log_scale gains, so no |k| h+ overflows.
    """
    pwl = isinstance(profile, PiecewiseLinearProfile)
    jumps, stops = {}, {profile.h_plus, 0.0, *at}
    if pwl:
        jumps = {x: du for x, du in profile.kinks() if 0.0 < x < profile.h_plus}
        stops.update(jumps)
    elif isinstance(profile, TabulatedProfile):
        stops.update(float(x) for x in profile.x2[1:-1])

    def f(x, y):
        q = k * k  # U'' = 0 between the kinks of a piecewise-linear profile
        if not pwl:
            q += profile.curvature(x) / (profile.value(x) - c)
        return [y[1], q * y[0]]

    y = np.array(init, dtype=complex)
    log_scale, values = 0.0, {}
    edges = sorted(stops, reverse=True)
    for top, bot in zip(edges, edges[1:]):
        size = np.abs(y).max()
        y, log_scale = y / size, log_scale + math.log(size)
        sol = solve_ivp(f, (top, bot), y, method="DOP853",
                        rtol=tol, atol=1e-3 * tol)
        assert sol.success, sol.message
        y = sol.y[:, -1].copy()
        values[bot] = (y[0], log_scale)
        if bot in jumps:
            y[1] -= jumps[bot] * y[0] / (profile.value(bot) - c)
    ys = [values[x][0] * math.exp(values[x][1] - log_scale) for x in at]
    return (complex(y[0]), complex(y[1])), ys, log_scale


def _complex_wind(profile):
    """(U, U'') at one complex altitude, from the profile's parameters."""
    if isinstance(profile, TanhProfile):
        um, d = profile.u_max, profile.d

        def wind(z):
            t = cmath.tanh(z / d)
            return um * t, -2.0 * um / d ** 2 * t * (1.0 - t * t)

        return wind
    if isinstance(profile, TabulatedProfile):
        # a spline of its own from the samples, its pieces by Horner's rule
        spline = CubicSpline(profile.x2, profile.u, bc_type="not-a-knot")
        xs, coef = spline.x, spline.c

        def wind(z):
            j = min(max(int(np.searchsorted(xs, z.real, side="right")) - 1, 0),
                    xs.size - 2)
            a, b, c, d = coef[:, j]
            t = z - xs[j]
            return ((a * t + b) * t + c) * t + d, 6.0 * a * t + 2.0 * b

        return wind
    raise TypeError(f"no complex evaluation for {profile!r}")


def contour_impedance_oracle(profile, k: float, c: complex, tol: float,
                             sign_ci: int | None = None) -> complex:
    """y'(0)/y(0) by scipy's DOP853 along a path indented around each layer.

    Lin's rule with a bump of its own: around each critical layer s at Re c
    the path is x(t) = t - i side a sin^2(pi (t - s + r) / (2 r)) on
    [s - r, s + r], side = sign(c_I U'(s)) (sign(sign_ci U'(s)) at c_I = 0),
    pinned to the real axis at both ends, with a = r/2 and r a quarter of the
    distance to the nearer of 0, h_plus, a spline knot and a neighbouring
    layer.  Along the bump, (y, y')' = x'(t) (y', q(x(t)) y) in t.  One
    ``solve_ivp`` run (rtol = tol, atol = 1e-3 tol) per piece between h_plus,
    the knots of a table, the bump ends and 0.  A tanh wind is evaluated by
    ``cmath``, a table by Horner's rule on a spline built here from its
    samples.  The layer positions come from the package's validated scan,
    :func:`find_critical_points`; a wrong one would show as a mismatch.
    """
    wind = _complex_wind(profile)
    stops = {profile.h_plus, 0.0}
    if isinstance(profile, TabulatedProfile):
        stops.update(float(x) for x in profile.x2[1:-1])
    layers = find_critical_points(profile, c.real)
    if layers and c.imag == 0.0 and sign_ci is None:
        raise ValueError("a real c with layers needs sign_ci")
    side = sign_ci if c.imag == 0.0 else math.copysign(1.0, c.imag)
    pos = [layer.position for layer in layers]
    bumps = {}  # bump start (its upper end) -> (s, r, signed depth)
    for j, layer in enumerate(layers):
        s = layer.position
        near = [abs(s - x) for x in stops]
        near += [0.5 * abs(s - o) for o in pos[:j] + pos[j + 1:]]
        r = 0.25 * min(near)
        bumps[s + r] = (s, r, -side * math.copysign(0.5 * r, layer.u_prime))
        stops.update((s - r, s + r))

    def real_rhs(x, y):
        u, upp = wind(complex(x))
        q = upp / (u - c) + k * k
        return [y[1], q * y[0]]

    def bump_rhs(s, r, a):
        def f(t, y):
            phase = math.pi * (t - s + r) / (2.0 * r)
            z = t + 1j * a * math.sin(phase) ** 2
            dz = 1.0 + 1j * a * math.pi / (2.0 * r) * math.sin(2.0 * phase)
            u, upp = wind(z)
            q = upp / (u - c) + k * k
            return [dz * y[1], dz * q * y[0]]
        return f

    y = np.array([0.0, 1.0], dtype=complex)
    edges = sorted(stops, reverse=True)
    for top, bot in zip(edges, edges[1:]):
        f = bump_rhs(*bumps[top]) if top in bumps else real_rhs
        sol = solve_ivp(f, (top, bot), y, method="DOP853",
                        rtol=tol, atol=1e-3 * tol)
        assert sol.success, sol.message
        y = sol.y[:, -1].copy()
    return complex(y[1] / y[0])


def bisect_root(f, a: float, b: float, n_iter: int = 200) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    assert (fa < 0.0) != (fb < 0.0), "oracle bracket must straddle the root"
    for _ in range(n_iter):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def spline_extremes(profile: TabulatedProfile) -> tuple[float, float]:
    """(min U, max U) of a table, taken at its knots and at the roots of U'
    of scipy's spline through the same samples."""
    turns = CubicSpline(profile.x2, profile.u).derivative().roots(extrapolate=False)
    inside = turns[(turns > 0.0) & (turns < profile.h_plus)]
    us = profile.value(np.concatenate((profile.x2, inside)))
    return float(us.min()), float(us.max())


def quadratic_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Roots of a*x^2 + b*x + c = 0 via the numerically careful formula."""
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    if (b.conjugate() * disc).real > 0.0:
        disc = -disc
    q = -0.5 * (b + disc)
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / a - r1
    return r1, r2


def miles_quadratic_coeffs(params, k: float, u0: float, up0: float,
                           impedance: complex) -> tuple[complex, complex, complex]:
    """Coefficients (in c) of the uniform-vorticity dispersion relation.

    Valid whenever the air profile has U'' = 0 so that y'(0) does not depend
    on c.  Derived by expanding the interface relation term by term:

        g(1-eps) + sigma k^2/rho-  + eps (u0-c)^2 y'(0) - c^2 |k| tanh(|k|h-)
          - eps up0 (u0-c) - eps c |k| u0 (1-tanh^2(|k|h-)) / (tanh(|k|h+)
          + eps tanh(|k|h-))  = 0
    """
    eps = params.rho_plus / params.rho_minus
    ak = abs(k)
    tm = 1.0 if math.isinf(params.h_minus) else math.tanh(ak * params.h_minus)
    tp = 1.0 if math.isinf(params.h_plus) else math.tanh(ak * params.h_plus)
    last = eps * ak * u0 * (1.0 - tm * tm) / (tp + eps * tm)
    a2 = eps * impedance - ak * tm
    a1 = -2.0 * eps * u0 * impedance + eps * up0 - last
    a0 = (params.g * (1.0 - eps) + params.sigma * k * k / params.rho_minus
          + eps * u0 * u0 * impedance - eps * up0 * u0)
    return a2, a1, a0


def two_stream_roots(params, k: float, u0: float, w0: float) -> tuple[complex, complex]:
    """Textbook vortex-sheet relation between two uniform streams (h = inf).

    rho+ (u0-c)^2 + rho- (w0-c)^2 = (g (rho- - rho+) + sigma k^2) / |k|
    """
    ak = abs(k)
    rp, rm = params.rho_plus, params.rho_minus
    rhs = (params.g * (rm - rp) + params.sigma * k * k) / ak
    a = rp + rm
    b = -2.0 * (rp * u0 + rm * w0)
    c0 = rp * u0 * u0 + rm * w0 * w0 - rhs
    return quadratic_roots(a, b, c0)


@dataclass(frozen=True)
class ShearRoots:
    """Roots of the constant-shear (vortex sheet + uniform vorticity) quadratic."""

    c_plus: complex
    c_minus: complex
    stable: bool

    def __iter__(self):
        return iter((self.c_plus, self.c_minus))


def closed_form_shear_roots(u0: float, mu: float, params: FluidParams,
                            k: float, im_tol: float = 1e-12) -> ShearRoots:
    """Wave speeds for U+ = u0 + mu x2 over quiescent deep water (h = inf).

        g(1-eps) + sigma k^2/rho- = eps (u0-c)^2 |k| + eps mu (u0-c) + c^2 |k|

    Stability holds iff both roots are real.
    """
    eps = params.epsilon
    ak = abs(k)
    a = (1.0 + eps) * ak
    b = -2.0 * eps * ak * u0 - eps * mu
    c0 = (eps * ak * u0 * u0 + eps * mu * u0
          - params.g * (1.0 - eps) - params.sigma * k * k / params.rho_minus)
    disc = b * b - 4.0 * a * c0
    sq = cmath.sqrt(complex(disc))
    r1 = (-b + sq) / (2.0 * a)
    r2 = (-b - sq) / (2.0 * a)
    if r1.real < r2.real:
        r1, r2 = r2, r1
    stable = abs(r1.imag) <= im_tol and abs(r2.imag) <= im_tol
    return ShearRoots(c_plus=r1, c_minus=r2, stable=stable)


def multistart_roots(residual: Callable[[complex], complex],
                     rectangle: tuple[float, float, float, float],
                     grid: int = 5, *, tol: float = 1e-11, scale: float = 1.0,
                     max_iter: int = 40) -> list[complex]:
    """Distinct converged roots inside a rectangle from a seed grid.

    Cross-check companion of
    :func:`~windwaves.eigensolver.root_counts`: on well-separated zero sets
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
