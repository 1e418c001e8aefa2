"""Small density-ratio expansion of the unstable wave speed.

Near eps = rho+/rho- = 0, the relevant root of the dispersion relation
bifurcates from c_k as c = c_k + eps c_1 + o(eps).  The residual of
:func:`~windwaves.dispersion.residual_miles` is -eps g at c_k, up to its
other O(eps) terms, and its c-derivative there is -2 c_k |k| tanh(|k| h-)
+ O(eps), so

    c_1 = f_I(0) y*'(0) - (g + U+'(0)(U+(0) - c_k)
          + c_k |k| U+(0) sech^2(|k| h-) / tanh(|k| h+)) / (2 c_k |k| tanh(|k| h-)),

with y*'(0) the limit impedance at c_k + i0 under y*(0) = 1.  Only its
first term is complex.  Im c_1 is the growth constant c_sharp, which
collects the critical-layer contributions of the limiting Rayleigh solution:

    c_sharp = -pi f_I(0) sum_j U''(s_j) u1(s_j) / |U'(s_j)|,
    f_I(0)  = (U+(0) - c_k)^2 / (2 c_k |k| tanh(|k| h-)),

with u1 normalized to 1 at the interface.  c_sharp > 0 is the instability
predicate; layers at inflection points contribute nothing.  Re c_1, the
O(eps) shift of the phase speed, comes from Re y*'(0), the air's pressure in
phase with the surface, and from the real terms: the air's weight, the
interface shear, and, on water of finite depth, the interface speed.
:func:`~windwaves.eigensolver.scan_k` takes all of eps c_1 by one Newton
step of the residual from c_k.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .dispersion import FluidParams, ck, make_miles_residual
from .eigensolver import root_counts, square_roots_real
from .errors import HypothesisViolated, NoCriticalLayer, WindwavesError
from .profiles import CriticalLayer, ShearProfile, find_critical_points
from .rayleigh import impedance_outcomes, limiting_solution

__all__ = [
    "MilesAsymptotics",
    "LayerContribution",
    "StabilityCertificate",
    "f_I0",
    "miles_c_sharp",
    "growth_constants",
    "unstable_band",
    "necessity_certificate",
]

#: the path resolves a layer term |Im y*'(0)| >= PATH_RESOLUTION tol |y*'(0)|
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

    @property
    def unstable(self) -> bool:
        return self.c_sharp > 0.0

    def predicted_c(self, eps: float) -> complex:
        """Leading-order unstable wave speed c_k + i eps c_sharp, without
        the real shift eps Re c_1."""
        return self.c_k + 1j * eps * self.c_sharp


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
    results, errors = _growth_constants(profile, params, [k], branch, tol)
    if errors:
        raise errors[0]
    return results[0]


def growth_constants(profile: ShearProfile, params: FluidParams, ks,
                     branch: int = +1, tol: float = 1e-10
                     ) -> tuple[list[Optional[MilesAsymptotics]], dict]:
    """The growth constant at every wavenumber of ``ks``.

    On a profile with ``complex_path`` (tanh, tables), the wavenumbers whose
    c_k has one critical layer s, with U''(s) != 0, are shot together in one
    kernel batch at the real speeds c_k along Lin's indented path, from the
    side Im c > 0 (:func:`~windwaves.rayleigh.impedance_outcomes`).  With
    y*(0) = 1, W*(0) = Im y*'(0) is the jump of W at the layer, so

        c_sharp = f_I0 Im y*'(0),   u1(s) = -Im y*'(0) |U'(s)| / (pi U''(s)).

    Every other wavenumber (other profiles, two or more layers, a layer at an
    inflection point, and a path row whose |Im y*'(0)| is below
    ``PATH_RESOLUTION`` tol |y*'(0)|, lost in the rounding of |y*'(0)|)
    takes :func:`~windwaves.rayleigh.limiting_solution`, whose per-layer
    jumps give the layer terms: Frobenius on the kernel, or, for a
    zero-curvature wind on any column, the closed form with no shoot
    (``n_steps`` 0), where every term is 0 and the limit impedance is exact.
    Where both apply, the path and Frobenius agree to about the tolerance,
    down to a floor of a few 1e-12 relative that the Frobenius patch radius
    sets; the path stays within a few 1e-12 of an independent contour shoot
    at tol 1e-12.  Returns ``(results, errors)``: a failed wavenumber's
    result is None, and ``errors`` maps its index to the error
    :func:`miles_c_sharp` raises there.  The sign-hypothesis warning is
    issued for each wavenumber that fails the hypotheses.
    """
    return _growth_constants(profile, params, ks, branch, tol)


def _growth_constants(profile, params, ks, branch, tol, shots=None):
    """The body of :func:`growth_constants`; both public functions call it
    directly, so that the warnings of :func:`_layers_at_ck` name their
    caller.  When ``shots`` is a dict, ``shots[i]`` is set to wavenumber
    i's final mesh along the path (None where not shot there or failed),
    for a later shoot at a nearby wave speed to start from (see
    :func:`~windwaves.rayleigh.impedance_outcomes`), and its limit
    impedance y*'(0) at c_k + i0 from the route of its growth constant
    (None where neither route succeeded)."""
    ks = list(ks)
    results: list[Optional[MilesAsymptotics]] = [None] * len(ks)
    errors: dict[int, WindwavesError] = {}
    at_ck = {}  # index -> (c_k, layers)
    for i, k in enumerate(ks):
        try:
            at_ck[i] = _layers_at_ck(profile, params, k, branch)
        except WindwavesError as exc:
            errors[i] = exc
    rows = [i for i, (_, layers) in at_ck.items() if profile.complex_path
            and len(layers) == 1 and layers[0].u_double_prime != 0.0]
    u1s = {}  # index -> |y*(s_j)|^2 per layer
    meshes, limits = {}, {}  # index -> final path mesh, y*'(0) at c_k
    if rows:
        shot = None if shots is None else [None] * len(rows)
        imps, failed = impedance_outcomes(
            profile, [ks[i] for i in rows], [at_ck[i][0] for i in rows],
            tol, sign_ci=+1, layers=[at_ck[i][1] for i in rows], meshes=shot)
        if shots is not None:
            meshes.update(zip(rows, shot))
        for j, i in enumerate(rows):
            if j in failed:
                errors[i] = failed[j]
                del at_ck[i]
                continue
            limits[i] = complex(imps[j])
            if abs(imps[j].imag) >= PATH_RESOLUTION * tol * abs(imps[j]):
                layer = at_ck[i][1][0]
                u1s[i] = [-imps[j].imag * abs(layer.u_prime)
                          / (math.pi * layer.u_double_prime)]
    for i, (c_k, layers) in at_ck.items():
        try:
            if i not in u1s:
                limit = limiting_solution(profile, ks[i], c_k, +1, tol,
                                          layers=layers)
                u1s[i] = [jump.u1 for jump in limit.jumps]
                limits[i] = limit.impedance
            results[i] = _assemble(profile, params, ks[i], branch, c_k,
                                   layers, u1s[i])
        except WindwavesError as exc:
            errors[i] = exc
    if shots is not None:
        shots.update((i, (meshes.get(i), limits.get(i)))
                     for i in range(len(ks)))
    return results, errors


def _layers_at_ck(profile, params, k, branch):
    """c_k and its critical layers; warns when the sign hypotheses fail
    while some layer has U'' != 0 (with every layer term 0 they say nothing).

    Called from :func:`_growth_constants`, which the public functions (and
    :func:`~windwaves.eigensolver.scan_k`) call directly, so that
    stacklevel 4 names their caller in the warning.
    """
    c_k = ck(params, k, branch)
    layers = find_critical_points(profile, c_k)
    if len(layers) == 0:
        raise NoCriticalLayer(
            f"c_k = {c_k:g} outside the range of U: provably no "
            "bifurcation from c_k for small density ratio")
    if not _sufficient_signs_hold(c_k, layers) and any(
            layer.u_double_prime != 0.0 for layer in layers):
        warnings.warn(
            "sufficient sign hypotheses on c_k U'' fail; the assembled "
            "bracket still decides instability", stacklevel=4)
    return c_k, layers


def _assemble(profile, params, k, branch, c_k, layers,
              u1s) -> MilesAsymptotics:
    """Sum the per-layer terms of the growth constant, |y(s_j)|^2 = u1s[j]."""
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

    return MilesAsymptotics(k=k, branch=branch, c_k=c_k, f_i0=fi0,
                            c_sharp=c_sharp, layers=tuple(contribs),
                            predicate_bracket=bracket,
                            sufficient_signs_hold=_sufficient_signs_hold(c_k, layers))


def unstable_band(profile: ShearProfile, params: FluidParams,
                  k_range: tuple[float, float], n_samples: int = 64,
                  branch: int = +1, tol: float = 1e-10) -> list[tuple[float, float]]:
    """Maximal k-intervals where the growth constant is positive.

    Samples c_sharp on a log grid over ``k_range`` with
    :func:`growth_constants`; a sample where c_k leaves the range of U (or
    the solver fails) counts as stable.  Sign changes are bracketed by
    bisection to relative width 1e-3, on the same function.
    """
    k_lo, k_hi = k_range
    if not (0.0 < k_lo < k_hi):
        raise ValueError("k_range must be positive and increasing")

    def sharps(ks: list[float]) -> list[float]:
        results, _ = growth_constants(profile, params, ks, branch, tol)
        return [-math.inf if r is None else r.c_sharp for r in results]

    def sharp(k: float) -> float:
        return sharps([k])[0]

    ks = [k_lo * (k_hi / k_lo) ** (i / (n_samples - 1)) for i in range(n_samples)]
    vals = sharps(ks)

    def refine(a: float, b: float) -> float:
        # bisect the predicate boundary between unstable a and stable b (or
        # vice versa)
        pa = sharp(a) > 0.0
        while (b - a) > 1e-3 * a:
            m = math.sqrt(a * b)
            if (sharp(m) > 0.0) == pa:
                a = m
            else:
                b = m
        return math.sqrt(a * b)

    bands: list[tuple[float, float]] = []
    start: Optional[float] = None
    for i, (k, v) in enumerate(zip(ks, vals)):
        pos = v > 0.0
        if pos and start is None:
            start = refine(ks[i - 1], k) if i > 0 else k
        elif not pos and start is not None:
            bands.append((start, refine(ks[i - 1], k)))
            start = None
    if start is not None:
        bands.append((start, ks[-1]))
    return bands


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
    :func:`~windwaves.eigensolver.count_roots` calls.

    Raises
    ------
    HypothesisViolated
        If c_k lies in the range of U, or the radius exceeds the margin bound.
    """
    c_k = ck(params, k, branch)
    umin, umax = profile.u_bounds()
    if umin - 1e-12 <= c_k <= umax + 1e-12:
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
