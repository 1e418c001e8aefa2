"""Dispersion-relation residuals whose zeros are eigenvalues -ikc.

Three routes are provided:

* ``residual_miles``: the quiescent-ocean relation coupling the interface
  impedance y'(0)/y(0) of the air column to the wave speed,

      g(1-eps) + sigma k^2/rho-  =  -eps (U+(0)-c)^2 y'(0)
          + c^2 |k| tanh(|k| h-) + eps U+'(0)(U+(0)-c)
          + eps c |k| U+(0)(1-tanh^2(|k| h-)) / (tanh(|k| h+) + eps tanh(|k| h-)).

* ``general_residuals``: the full two-fluid single-mode relation allowing a
  vortex sheet (U+(0) != U-(0)), a moving ocean and surface tension, under the
  normalization ik z = 1, at many (k, c) pairs; ``residual_general`` is its
  one-point case.  Both fluid columns reduce to homogeneous Rayleigh solves
  after absorbing the harmonic sheet potential, and each column of all the
  pairs is one batch of the kernel.

* closed forms: the Kelvin-Helmholtz onset threshold of a uniform stream
  (``kh_threshold``), and the piecewise-linear cubic with its rational
  impedance -k (c-alpha)/(c-beta) (``pwl_dispersion``).

All residuals are returned dimensional; root finders divide by g to make the
tolerance dimensionless.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IncompatibleDepths, RequiresSurfaceTension
from .profiles import ShearProfile
from .rayleigh import _check_wavenumber, _lid_shoot, _pairs, impedance_outcomes

__all__ = [
    "FluidParams",
    "KhThreshold",
    "PwlClosedForm",
    "ck",
    "residual_miles",
    "make_miles_residual",
    "miles_residuals",
    "residual_general",
    "general_residuals",
    "kh_threshold",
    "pwl_dispersion",
]


@dataclass(frozen=True)
class FluidParams:
    """Densities, gravity, surface tension and the two column depths (SI).

    ``tanh(|k| h)`` is taken as 1 for an unbounded column.  The derived ratio
    ``epsilon`` = rho_plus / rho_minus must lie in (0, 1): the air is lighter
    than the water.
    """

    rho_plus: float
    rho_minus: float
    g: float
    sigma: float = 0.0
    h_plus: float = math.inf
    h_minus: float = math.inf

    def __post_init__(self):
        # each comparison is False for a NaN
        if not (0.0 < self.rho_plus < self.rho_minus):
            raise ValueError("need 0 < rho_plus < rho_minus")
        if not self.sigma >= 0.0:
            raise ValueError("surface tension must be nonnegative")
        if not self.g > 0.0:
            raise ValueError("gravity must be positive")
        if not (self.h_plus > 0.0 and self.h_minus > 0.0):
            raise ValueError("depths must be positive (inf allowed)")

    @property
    def epsilon(self) -> float:
        return self.rho_plus / self.rho_minus

    def tanh_plus(self, k):
        return _column_tanh(k, self.h_plus)

    def tanh_minus(self, k):
        return _column_tanh(k, self.h_minus)


def _column_tanh(k, h: float):
    """tanh(|k| h) by math, or 1 for an unbounded column, per element of k."""
    if not np.ndim(k):
        return 1.0 if math.isinf(h) else math.tanh(abs(k) * h)
    return np.array([1.0 if math.isinf(h) else math.tanh(abs(v) * h)
                     for v in np.ravel(k).tolist()]).reshape(np.shape(k))


def ck(params: FluidParams, k: float, branch: int = +1) -> float:
    """Phase speed of the capillary-gravity wave beneath vacuum (eps = 0)."""
    _check_wavenumber(k)
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    ak = abs(k)
    val = math.sqrt((params.g + params.sigma * k * k / params.rho_minus)
                    / (ak * params.tanh_minus(k)))
    return branch * val


def residual_miles(c: complex, impedance: complex, params: FluidParams,
                   k: float, u0: float, up0: float) -> complex:
    """Quiescent-ocean dispersion residual; zero iff -ikc is an eigenvalue.

    Scalars give a Python complex; arrays ``c``, ``impedance`` and ``k`` of
    one shape give the array of the pairs' residuals.

    Parameters
    ----------
    c : complex
        Trial wave speed.
    impedance : complex
        y'(0) of the air column under the normalization y(0) = 1.
    u0, up0 : float
        Wind speed and shear at the interface, U+(0) and U+'(0).
    """
    eps = params.epsilon
    ak = abs(k)
    tm = params.tanh_minus(k)
    tp = params.tanh_plus(k)
    return (params.g * (1.0 - eps) + params.sigma * k * k / params.rho_minus
            + eps * (u0 - c) ** 2 * impedance
            - c * c * ak * tm
            - eps * up0 * (u0 - c)
            - eps * c * ak * u0 * (1.0 - tm * tm) / (tp + eps * tm))


def _miles_slope(c: complex, impedance: complex, slope: complex,
                 params: FluidParams, k: float, u0: float, up0: float
                 ) -> complex:
    """d/dc of :func:`residual_miles`, given ``slope``, the impedance's
    d(y'/y)(0)/dc; scalars or arrays as there."""
    eps = params.epsilon
    ak = abs(k)
    tm = params.tanh_minus(k)
    tp = params.tanh_plus(k)
    return (eps * (u0 - c) * ((u0 - c) * slope - 2.0 * impedance)
            - 2.0 * c * ak * tm + eps * up0
            - eps * ak * u0 * (1.0 - tm * tm) / (tp + eps * tm))


def _check_depth_consistency(profile: ShearProfile, params: FluidParams,
                             water: bool = False) -> None:
    """Refuse an air (or water) profile whose column is not the params' one."""
    hp, ha = (params.h_minus if water else params.h_plus), profile.h_plus
    # a NaN depth matches none
    if math.isinf(hp) != math.isinf(ha) or (
            math.isfinite(hp) and not abs(hp - ha) <= 1e-9 * max(1.0, hp)):
        raise ValueError("water depth mismatch between profile and params" if water
                         else f"air depth mismatch: params.h_plus={hp} vs profile.h_plus={ha}")


def make_miles_residual(profile: ShearProfile, params: FluidParams, k: float,
                        tol: float = 1e-10) -> Callable[[complex], complex]:
    """Wire the air-column impedance into the quiescent-ocean residual at k.

    The residual carries ``batch(cs) -> (values, errors)``, which is
    :func:`miles_residuals` at this k; the residual itself is the one-point
    batch, and raises its point's error.
    """
    _check_depth_consistency(profile, params)
    batch = functools.partial(miles_residuals, profile, params, k, tol=tol)

    def residual(c: complex) -> complex:
        vals, errors = batch([c])
        if errors:
            raise errors[0]
        return complex(vals[0])

    # a function attribute, so wrappers made with functools.wraps keep it
    residual.batch = batch
    return residual


def miles_residuals(profile: ShearProfile, params: FluidParams, k, cs,
                    tol: float = 1e-10, *, meshes: Optional[list] = None,
                    slopes: Optional[list] = None
                    ) -> tuple[np.ndarray, dict]:
    """Quiescent-ocean residuals of (k, c) pairs, ``k`` broadcast against ``cs``.

    The impedances of all pairs, whatever their k, come from one
    :func:`~windwaves.rayleigh.impedance_outcomes` call, and one
    :func:`residual_miles` evaluation over the arrays gives the residuals,
    so each value is the one its pair gets alone, given its start mesh.
    ``meshes``, one entry per pair, passes the start meshes in and the final
    meshes out, as :func:`~windwaves.rayleigh.impedance_outcomes` describes.
    ``slopes``, when given, is replaced by each pair's f'(c), None where it
    failed: the residual's closed-form c-derivative with the impedance's
    slope (see :func:`~windwaves.rayleigh.impedance_outcomes`); asking for
    it changes no value.
    Returns ``(values, errors)``: a failed pair's value is NaN, and
    ``errors`` maps its index to the pair's error.
    """
    _check_depth_consistency(profile, params)
    ks, cs = np.broadcast_arrays(np.asarray(k, dtype=float),
                                 np.asarray(cs, dtype=complex))
    imps, errors = impedance_outcomes(profile, ks, cs, tol, meshes=meshes,
                                      slopes=slopes)
    u0, up0 = profile.value(0.0), profile.slope(0.0)
    # a failed pair, such as one whose c is not finite, is NaN, silently
    with np.errstate(invalid="ignore", over="ignore"):
        vals = residual_miles(cs, imps, params, ks, u0, up0)
        if slopes is not None:
            dimps = np.array([math.nan if s is None else s for s in slopes],
                             dtype=complex)
            dvals = _miles_slope(cs, imps, dimps, params, ks, u0, up0)
            slopes[:] = [None if s is None else d
                         for s, d in zip(slopes, dvals.tolist())]
    return vals, errors


# ---------------------------------------------------------------------------
# General two-fluid residual (vortex sheet + moving ocean)
# ---------------------------------------------------------------------------

def residual_general(c: complex, params: FluidParams, k: float,
                     u_plus: ShearProfile,
                     u_minus: Optional[ShearProfile] = None,
                     tol: float = 1e-10) -> complex:
    """Full single-mode residual of the linearized two-fluid problem: the
    one-point batch of :func:`general_residuals`, raising its point's
    error."""
    vals, errors = general_residuals(params, k, [c], u_plus, u_minus, tol)
    if errors:
        raise errors[0]
    return complex(vals[0])


def general_residuals(params: FluidParams, k, cs, u_plus: ShearProfile,
                      u_minus: Optional[ShearProfile] = None,
                      tol: float = 1e-10) -> tuple[np.ndarray, dict]:
    """Full single-mode residuals of the linearized two-fluid problem at
    (k, c) pairs, ``k`` broadcast against ``cs``.

    The interface amplitude is normalized to ik z = 1.  ``u_minus`` follows
    the mirrored-column convention: it is a profile of the water speed as a
    function of depth below the interface (so the physical shear at the
    interface is -u_minus.slope(0)).  ``None`` means quiescent water, and
    a zero-curvature water profile without kinks is as calm.

    The sheet potential gamma is harmonic, so adding its vertical derivative
    to Y2 homogenizes both column problems; each column then needs only the
    standard Rayleigh solve from its wall:

        Y2'(0)|air   = imp_air  * (U+(0) - c) - k^2 gamma+(0)
        Y2'(0)|water = imp_water* (U-(0) - c) - k^2 gamma-(0)

    with imp_water = |k| tanh(|k| h-) for vorticity-free water (the explicit
    column solution) and a mirrored shoot from the wall otherwise.  The air
    columns of all pairs are one
    :func:`~windwaves.rayleigh.impedance_outcomes` call, and the water
    columns one shoot (:func:`_sheared_water_flux`), so each value is the
    one its pair gets alone.  Returns ``(values, errors)``: a failed pair's
    value is NaN, and ``errors`` maps its index to its error, the air
    column's where both columns fail.

    Raises
    ------
    ValueError
        For a column whose depth is not the params' one, a wavenumber that
        is zero or not finite, or ``k`` and ``cs`` that do not broadcast to
        a 1-d array.
    IncompatibleDepths
        If a column with interior vorticity is unbounded (no wall to shoot
        from).
    """
    _check_depth_consistency(u_plus, params)
    calm = u_minus is None or (u_minus.zero_curvature and not u_minus.kinks())
    if not calm:
        _check_depth_consistency(u_minus, params, water=True)
    ks, cs = _pairs(k, cs)
    if not math.isfinite(params.h_plus) and not u_plus.zero_curvature:
        raise IncompatibleDepths("unbounded air column with interior vorticity")
    if not (calm or math.isfinite(params.h_minus)):
        raise IncompatibleDepths("unbounded water column with interior vorticity")

    ak = np.abs(ks)
    rp, rm = params.rho_plus, params.rho_minus
    tp, tm = params.tanh_plus(ks), params.tanh_minus(ks)
    u0p = u_plus.value(0.0)
    up0p = u_plus.slope(0.0)
    u0m = u_minus.value(0.0) if u_minus is not None else 0.0
    # mirrored convention: d/dx2 = -d/d(depth) at the interface
    up0m = -u_minus.slope(0.0) if u_minus is not None else 0.0

    denom = rm * tp + rp * tm
    gamma0_p = rm * (u0m - u0p) / (ak * denom)
    gamma0_m = rp * (u0m - u0p) / (ak * denom)
    dgamma0_p = -ak * tp * gamma0_p
    dgamma0_m = ak * tm * gamma0_m
    mean_u = (rp * u0p * tm + rm * u0m * tp) / denom
    y2_0 = mean_u - cs

    imp_air, errors = impedance_outcomes(u_plus, ks, cs, tol)
    if not calm:
        y2p_water, water_errors = _sheared_water_flux(
            u_minus, params, ks, cs, gamma0_m, y2_0, tol)
        errors = water_errors | errors
    # a failed pair, such as one whose c is not finite, is NaN, silently
    with np.errstate(invalid="ignore", over="ignore"):
        y2p_air = imp_air * (u0p - cs) - ks * ks * gamma0_p
        if calm:
            y2p_water = ak * tm * y2_0
        bracket = (-(rp * (u0p - cs) * y2p_air - rm * (u0m - cs) * y2p_water)
                   + (rp * up0p - rm * up0m) * y2_0
                   - ks * ks * (u0p - u0m) * rp * gamma0_p
                   + rp * up0p * dgamma0_p - rm * up0m * dgamma0_m)
        return params.g * (rm - rp) + params.sigma * ks * ks - bracket, errors


def _sheared_water_flux(w: ShearProfile, params: FluidParams, k, cs,
                        gamma0_m, y2_0, tol: float
                        ) -> tuple[np.ndarray, dict]:
    """Y2'(0) of (k, c) pairs for a sheared water column by one mirrored
    homogeneous shoot, and the error of each pair whose shoot failed.

    In the depth variable xi = -x2 the auxiliary field W = Y2 + dgamma/dx2
    solves the Rayleigh equation with profile w(xi); the wall data combine the
    bottom condition on Y2 with the sheet potential's wall trace.  One shoot
    v of every pair from wall data (1, 0) runs under the guards of the
    direct solver (:func:`~windwaves.rayleigh._lid_shoot`), so a pair whose
    solve fails is NaN, with its error (``NearSingularCoefficient`` near a
    water critical layer or when the integrator gives up).
    """
    ak = np.abs(k)
    decay = np.exp(-ak * params.h_minus)  # sech = 2 decay/(1 + decay^2)
    # wall data in xi: W(hm) = A (unknown), dW/dxi(hm) = -k^2 gamma-(hm)
    # (Y2' = 0 at the wall in x2, and d/dx2 = -d/dxi)
    wp_wall = -(k * k) * gamma0_m * 2.0 * decay / (1.0 + decay * decay)
    # interface value in x2: W(0) = Y2(0) + dgamma/dx2(0) = y2_0 + |k| tm gamma0_m
    w_0 = y2_0 + ak * params.tanh_minus(k) * gamma0_m
    # the Wronskian of v and W is wp_wall at the wall and constant, so
    # W'(0) = W(0) v'(0)/v(0) + wp_wall/v(0), the last term 0 past the float range
    (v0, _), imps, errors = _lid_shoot(w, k, cs, tol, (1.0, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        w_xi0 = w_0 * imps + np.where(np.isfinite(np.abs(v0)), wp_wall / v0,
                                      0.0)
    # back to x2: dW/dx2 = -dW/dxi; Y2'(0) = W'(0)|x2 - k^2 gamma-(0)
    return -w_xi0 - k * k * gamma0_m, errors


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KhThreshold:
    """Kelvin-Helmholtz onset: the slowest unstable uniform wind."""

    u0_min: float
    k_crit: float

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.k_crit


def kh_threshold(params: FluidParams) -> KhThreshold:
    """The slowest uniform wind at marginal KH stability, in closed form.

    The marginal curve U0^2(k) = (rho+ + rho-)/(rho+ rho-) *
    [g (rho- - rho+)/k + sigma k] is least at k* = sqrt(g (rho- - rho+)/sigma),
    where U0^2 = (rho+ + rho-)/(rho+ rho-) * 2 sqrt(g sigma (rho- - rho+)).
    """
    if params.sigma <= 0.0:
        raise RequiresSurfaceTension(
            "sigma = 0: every positive wind is unstable at large k")
    rp, rm, g, sigma = params.rho_plus, params.rho_minus, params.g, params.sigma
    u0_sq = (rp + rm) / (rp * rm) * 2.0 * math.sqrt(g * sigma * (rm - rp))
    return KhThreshold(u0_min=math.sqrt(u0_sq),
                       k_crit=math.sqrt(g * (rm - rp) / sigma))


@dataclass(frozen=True)
class PwlClosedForm:
    """Cubic dispersion polynomial of the shear-then-uniform wind ramp.

    With sigma = 0 and both columns unbounded, the ramp's rational impedance
    y'(0) = -k (c-alpha)/(c-beta) turns the dispersion relation into

        f(c, eps) = (c - beta) (c^2 - eps mu c / k - g(1-eps)/k)
                    + eps c^2 (c - alpha) = 0

    for any ramp.  At eps = 0 its roots are beta and +-sqrt(g/k); the tuned
    ramp, beta = sqrt(g/k), has the double root that eps splits by
    O(sqrt(eps)).
    """

    mu: float
    x2_star: float
    k: float
    g: float
    epsilon: float
    u_star: float
    alpha: float
    beta: float
    #: cubic coefficients, highest power first
    coeffs: tuple[float, float, float, float]

    def f(self, c: complex, eps: Optional[float] = None) -> complex:
        eps = self.epsilon if eps is None else eps
        return ((c - self.beta) * (c * c - eps * self.mu * c / self.k
                                - self.g * (1.0 - eps) / self.k)
                + eps * c * c * (c - self.alpha))

    def impedance(self, c: complex) -> complex:
        return -self.k * (c - self.alpha) / (c - self.beta)


@dataclass(frozen=True)
class PwlDispersion:
    cubic: PwlClosedForm
    roots: tuple[complex, complex, complex]


def pwl_dispersion(mu: float, x2_star: float, params: FluidParams, k: float,
                   epsilon: Optional[float] = None) -> PwlDispersion:
    """Cubic analysis of the piecewise-linear ramp profile.

    Requires sigma = 0 and unbounded columns.  Roots come from the companion
    matrix of the cubic, polished by two Newton steps (robust near the eps = 0
    double root of the tuned ramp, beta = sqrt(g/k)).
    """
    if params.sigma != 0.0:
        raise ValueError("the ramp closed form requires sigma = 0")
    if not (math.isinf(params.h_plus) and math.isinf(params.h_minus)):
        raise ValueError("the ramp closed form requires unbounded columns")
    if mu <= 0.0 or x2_star <= 0.0:
        raise ValueError("need mu > 0 and x2_star > 0")
    eps = params.epsilon if epsilon is None else float(epsilon)

    ak = abs(k)
    u_star = mu * x2_star
    e2 = math.exp(-2.0 * ak * x2_star)
    alpha = u_star - mu / (2.0 * ak) * (1.0 + e2)
    beta = u_star - mu / (2.0 * ak) * (1.0 - e2)
    gk = params.g / ak

    a3 = 1.0 + eps
    a2 = -(eps * mu / ak + beta + eps * alpha)
    a1 = -gk * (1.0 - eps) + beta * eps * mu / ak
    a0 = beta * gk * (1.0 - eps)
    coeffs = (a3, a2, a1, a0)

    closed = PwlClosedForm(mu=mu, x2_star=x2_star, k=ak, g=params.g,
                           epsilon=eps, u_star=u_star, alpha=alpha, beta=beta,
                           coeffs=coeffs)

    roots = np.roots(coeffs)
    dpoly = np.polyder(np.array(coeffs))
    polished = []
    for r in roots:
        for _ in range(2):
            fp = np.polyval(dpoly, r)
            if fp != 0.0:
                r = r - np.polyval(np.array(coeffs), r) / fp
        polished.append(complex(r))
    polished.sort(key=lambda z: (round(z.real, 12), z.imag))
    return PwlDispersion(cubic=closed, roots=tuple(polished))
