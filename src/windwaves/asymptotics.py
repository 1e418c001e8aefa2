"""Small density-ratio expansion of the unstable wave speed.

Near eps = rho+/rho- = 0, the relevant root of the dispersion relation
bifurcates from c_k as c = c_k + eps c_1 + o(eps).  The residual of
:func:`~windwaves.dispersion.residual_miles` is -eps g at c_k, up to its
other O(eps) terms, and its c-derivative there is -2 c_k |k| tanh(|k| h-)
+ O(eps), so

    c_1 = f_I(0) y*'(0) - (g + U+'(0)(U+(0) - c_k)
          + c_k |k| U+(0) sech^2(|k| h-) / tanh(|k| h+)) / (2 c_k |k| tanh(|k| h-)),

with y*'(0) the limit impedance at c_k + i0 under y*(0) = 1
(:attr:`MilesAsymptotics.impedance`).  Only its
first term is complex.  Im c_1 is the growth constant c_sharp, which
collects the critical-layer contributions of the limiting Rayleigh solution:

    c_sharp = -pi f_I(0) sum_j U''(s_j) u1(s_j) / |U'(s_j)|,
    f_I(0)  = (U+(0) - c_k)^2 / (2 c_k |k| tanh(|k| h-)),

with u1 normalized to 1 at the interface.  c_sharp > 0 is the instability
predicate; layers at inflection points contribute nothing.  Re c_1, the
O(eps) shift of the phase speed, comes from Re y*'(0), the air's pressure in
phase with the surface, and from the real terms: the air's weight, the
interface shear, and, on water of finite depth, the interface speed.
:attr:`MilesAsymptotics.c1` carries c_1, and
:meth:`MilesAsymptotics.predicted_c` the seed c_k + eps c_1 that
:func:`~windwaves.eigensolver.scan_k` starts from.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

from .dispersion import (FluidParams, _check_depth_consistency, ck,
                         make_miles_residual)
from .eigensolver import root_counts, square_roots_real
from .errors import HypothesisViolated, NoCriticalLayer, WindwavesError
from .profiles import CriticalLayer, ShearProfile, find_critical_points
from .rayleigh import _has_layers, _layer_jumps, limiting_solution

__all__ = [
    "MilesAsymptotics",
    "LayerContribution",
    "StabilityCertificate",
    "f_I0",
    "miles_c_sharp",
    "growth_constants",
    "necessity_certificate",
]

#: the path resolves a layer whose jump of W is >= PATH_RESOLUTION tol |y*'(0)|
PATH_RESOLUTION = 1e3


def f_I0(profile: ShearProfile, params: FluidParams, k: float,
         branch: int = +1) -> float:
    """Leading derivative of the wave speed w.r.t. the scaled impedance.

    Equals (U+(0) - c_k)^2 / (2 c_k |k| tanh(|k| h-)); odd in the c_k branch.
    """
    c_k = ck(params, k, branch)
    u0 = profile.value(0.0)
    return (u0 - c_k) ** 2 / (2.0 * c_k * abs(k) * params.tanh_minus(k))


@dataclass(frozen=True)
class LayerContribution:
    position: float
    u_prime: float
    u_double_prime: float
    u1: float
    term: float  # -pi f_I0 U'' u1 / |U'|


@dataclass(frozen=True)
class MilesAsymptotics:
    """Growth-constant report for one (profile, params, k, branch)."""

    k: float
    branch: int
    c_k: float
    f_i0: float
    c_sharp: float
    layers: tuple[LayerContribution, ...]
    #: the bracket -c_k sum_j U'' u1 / |U'| whose sign decides instability
    predicate_bracket: float
    sufficient_signs_hold: bool
    #: y*'(0), the limit impedance at c_k + i0 under y*(0) = 1, from the
    #: route that gave c_sharp
    impedance: complex
    #: the first-order term c_1 of c = c_k + eps c_1 + o(eps); Im c_1 = c_sharp
    c1: complex

    @property
    def unstable(self) -> bool:
        return self.c_sharp > 0.0

    def predicted_c(self, eps: float) -> complex:
        """The wave speed to first order, c_k + eps c_1."""
        return self.c_k + eps * self.c1


def _sufficient_signs_hold(c_k: float, layers: tuple[CriticalLayer, ...]
                           ) -> bool:
    m = len(layers)
    vals = [c_k * layer.u_double_prime for layer in layers]
    if any(v > 0.0 for v in vals):
        return False
    strict = [j for j, v in enumerate(vals) if v < 0.0]
    return any(j >= m - 2 for j in strict)


def miles_c_sharp(profile: ShearProfile, params: FluidParams, k: float,
                  branch: int = +1, tol: float = 1e-10) -> MilesAsymptotics:
    """The growth constant at one wavenumber: :func:`growth_constants` of [k],
    which describes the indented-path and Frobenius routes.

    When the sufficient sign hypotheses (c_k U''(s_j) <= 0, strict at one of
    the top two layers) fail at a curved layer, a warning is issued and the
    sign of the assembled bracket remains the authoritative predicate.

    Raises
    ------
    NoCriticalLayer
        If c_k is outside the range of the wind profile; no unstable speed
        can then bifurcate from c_k at small eps.
    """
    results, errors = growth_constants(profile, params, [k], branch, tol)
    if errors:
        raise errors[0]
    return results[0]


def growth_constants(profile: ShearProfile, params: FluidParams, ks,
                     branch: int = +1, tol: float = 1e-10, *,
                     meshes: Optional[list] = None
                     ) -> tuple[list[Optional[MilesAsymptotics]], dict]:
    """The growth constant at every wavenumber of ``ks``.

    On a profile with ``complex_path`` (tanh, tables), every wavenumber is shot
    in one kernel batch at c_k + i0 along Lin's indented path, where, with
    y*(0) = 1, W = Im y' conj(y) jumps by pi U''(s) u1(s) / |U'(s)| at each
    layer s.  Those jumps give the layer terms wherever each is at least
    ``PATH_RESOLUTION`` tol |y*'(0)|, above the rounding of y*'(0); a layer at
    an inflection point never is.  Every other wavenumber (unresolved, its path
    failed, or a profile without ``complex_path``) takes the per-layer jumps of
    :func:`~windwaves.rayleigh.limiting_solution`.  Both agree to about the
    tolerance, down to a floor of a few 1e-12 that the Frobenius patch radius
    sets.  Each result's ``impedance`` is y*'(0) from its growth constant's
    route.  Returns ``(results, errors)``: a failed wavenumber's result is
    None, and ``errors`` maps its index to the error :func:`miles_c_sharp`
    raises there.  Each wavenumber that fails the sign hypotheses warns, naming
    the first caller outside the package.  ``meshes``, when given, holds one
    start mesh or None per wavenumber, as in
    :func:`~windwaves.rayleigh.impedance_outcomes`; each entry is replaced by
    the final mesh of its path shoot, None where it failed or had none.
    A profile whose column is not ``params.h_plus`` is a ValueError.
    """
    _check_depth_consistency(profile, params)
    ks = list(ks)
    results: list[Optional[MilesAsymptotics]] = [None] * len(ks)
    errors: dict[int, WindwavesError] = {}
    at_ck = {}  # index -> (c_k, layers)
    for i, k in enumerate(ks):
        try:
            at_ck[i] = _layers_at_ck(profile, params, k, branch)
        except WindwavesError as exc:
            errors[i] = exc
    rows = list(at_ck) if profile.complex_path else []
    shot = [None if meshes is None else meshes[i] for i in rows]
    path = {}  # index -> (u1 per layer, y*'(0) at c_k)
    if rows:
        imps, jumps = _layer_jumps(
            profile, [ks[i] for i in rows], [at_ck[i][0] for i in rows], tol,
            [at_ck[i][1] for i in rows], shot)
        for i, imp, row_jumps in zip(rows, imps, jumps):
            # a failed shoot's floor and jumps are NaN, and never pass
            floor = PATH_RESOLUTION * tol * abs(imp)
            pairs = list(zip(at_ck[i][1], row_jumps))
            if all(layer.u_double_prime != 0.0 and abs(jump) >= floor
                   for layer, jump in pairs):
                path[i] = ([jump * abs(layer.u_prime)
                            / (math.pi * layer.u_double_prime)
                            for layer, jump in pairs], complex(imp))
    if meshes is not None:
        meshes[:] = map(dict(zip(rows, shot)).get, range(len(ks)))
    for i, (c_k, layers) in at_ck.items():
        try:
            if i in path:
                u1s, impedance = path[i]
            else:
                limit = limiting_solution(profile, ks[i], c_k, +1, tol,
                                          layers=layers)
                u1s = [jump.u1 for jump in limit.jumps]
                impedance = limit.impedance
            results[i] = _assemble(profile, params, ks[i], branch, c_k,
                                   layers, u1s, impedance)
        except WindwavesError as exc:
            errors[i] = exc
    return results, errors


def _layers_at_ck(profile, params, k, branch):
    """c_k and its critical layers; warns when the sign hypotheses fail
    while some layer has U'' != 0 (with every layer term 0 they say nothing),
    naming the first frame outside the package."""
    c_k = ck(params, k, branch)
    layers = find_critical_points(profile, c_k)
    if len(layers) == 0:
        raise NoCriticalLayer(
            f"c_k = {c_k:g} outside the range of U: provably no "
            "bifurcation from c_k for small density ratio")
    if not _sufficient_signs_hold(c_k, layers) and any(
            layer.u_double_prime != 0.0 for layer in layers):
        level, frame = 1, sys._getframe()
        while frame.f_back is not None and \
                frame.f_globals.get("__package__") == __package__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            "sufficient sign hypotheses on c_k U'' fail; the assembled "
            "bracket still decides instability", stacklevel=level)
    return c_k, layers


def _assemble(profile, params, k, branch, c_k, layers, u1s,
              impedance) -> MilesAsymptotics:
    """Sum the per-layer terms of the growth constant, |y(s_j)|^2 = u1s[j],
    and form c_1 from the impedance y*'(0)."""
    fi0 = f_I0(profile, params, k, branch)
    contribs = []
    bracket = 0.0
    c_sharp = 0.0
    for layer, u1 in zip(layers, u1s):
        base = layer.u_double_prime * u1 / abs(layer.u_prime)
        term = -math.pi * fi0 * base
        bracket += -c_k * base
        c_sharp += term
        contribs.append(LayerContribution(
            position=layer.position, u_prime=layer.u_prime,
            u_double_prime=layer.u_double_prime, u1=u1, term=term))
    ak, tm = abs(k), params.tanh_minus(k)
    u0 = profile.value(0.0)
    real = (params.g + profile.slope(0.0) * (u0 - c_k)
            + c_k * ak * u0 * (1.0 - tm * tm) / params.tanh_plus(k))

    return MilesAsymptotics(
        k=k, branch=branch, c_k=c_k, f_i0=fi0, c_sharp=c_sharp,
        layers=tuple(contribs), predicate_bracket=bracket,
        sufficient_signs_hold=_sufficient_signs_hold(c_k, layers),
        impedance=impedance,
        c1=fi0 * impedance - real / (2.0 * c_k * ak * tm))


@dataclass(frozen=True)
class StabilityCertificate:
    """Off-axis root count near c_k for a profile without a critical layer."""

    k: float
    epsilon: float
    c_k: float
    margin: float
    search_radius: float
    count_upper: int
    count_lower: int
    #: "square" when one round decided, "rectangles" when the two
    #: rectangles were counted
    route: str

    @property
    def certified_stable_near_ck(self) -> bool:
        return self.count_upper == 0 and self.count_lower == 0


def necessity_certificate(profile: ShearProfile, params: FluidParams, k: float,
                          epsilon: float, search_radius: float, *,
                          branch: int = +1, n_boundary: int = 48,
                          im_floor: float = 1e-10,
                          rayleigh_tol: float = 1e-10) -> StabilityCertificate:
    """Certify that no off-axis eigenvalue sits near c_k at the given eps.

    Requires c_k outside the range of U, with the search radius capped at a
    quarter of the margin min |c_k - U| (the regime where real-axis
    confinement of nearby eigenvalues is guaranteed).  There U - c does not
    vanish for real c near c_k, so the Rayleigh equation is regular with real
    coefficients and the residual is real on the real axis.  The certificate
    first tries one round (:func:`~windwaves.eigensolver.square_roots_real`):
    one kernel batch shoots the contour of the square

        |Re c - c_k| <= radius,  |Im c| <= radius

    together with n_boundary + 1 real samples of [c_k - radius,
    c_k + radius].  When the winding number around the square equals the
    number of sign changes among the samples, every root in the square is
    real and simple, so both counts are 0 and ``route`` is "square".  That
    claim covers the whole square, |Im c| < im_floor included.

    Any other outcome (the two numbers differ, a sample value is not real or
    is at the contour's zero floor, or the round raises a
    :class:`~windwaves.errors.WindwavesError`) falls back to counting the
    roots in the two rectangles

        |Re c - c_k| <= radius,  im_floor <= +/- Im c <= radius

    in lockstep (:func:`~windwaves.eigensolver.root_counts`), and ``route``
    is "rectangles".  Only there does im_floor apply.  Their counts, and the
    error raised, are those of two separate
    :func:`~windwaves.eigensolver.root_counts` calls of one rectangle each.

    Raises
    ------
    HypothesisViolated
        If c_k lies in the range of U, or the radius exceeds the margin bound.
    """
    c_k = ck(params, k, branch)
    umin, umax = profile.u_bounds()
    if _has_layers((umin, umax), c_k):
        raise HypothesisViolated(
            f"c_k = {c_k:g} lies in the range of U = [{umin:g}, {umax:g}]")
    margin = min(abs(c_k - umin), abs(c_k - umax))
    # the margin is attained at a range endpoint since c_k is outside [umin, umax]
    if search_radius > 0.25 * margin * (1.0 + 1e-12):
        raise HypothesisViolated(
            f"search radius {search_radius:g} exceeds margin/4 = {0.25 * margin:g}")
    if search_radius <= im_floor:
        raise ValueError("search radius must exceed the imaginary floor")

    scaled = FluidParams(rho_plus=epsilon * params.rho_minus,
                         rho_minus=params.rho_minus, g=params.g,
                         sigma=params.sigma, h_plus=params.h_plus,
                         h_minus=params.h_minus)
    residual = make_miles_residual(profile, scaled, k, tol=rayleigh_tol)

    if square_roots_real(residual, c_k, search_radius, n_boundary):
        upper = lower = 0
        route = "square"
    else:
        lo, hi = c_k - search_radius, c_k + search_radius
        upper, lower = root_counts(
            residual, [(lo, hi, im_floor, search_radius),
                       (lo, hi, -search_radius, -im_floor)], n_boundary)
        route = "rectangles"
    return StabilityCertificate(k=k, epsilon=epsilon, c_k=c_k, margin=margin,
                                search_radius=search_radius,
                                count_upper=upper, count_lower=lower,
                                route=route)
