"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success (pytest shows them automatically on failure).
"""
import functools
import math
import time

import numpy as np
import pytest

from windwaves.asymptotics import miles_c_sharp, necessity_certificate
from windwaves.dispersion import (
    FluidParams,
    ck,
    kh_threshold,
    make_miles_residual,
    pwl_dispersion,
    residual_general,
    residual_miles,
)
from windwaves.eigensolver import continue_in_epsilon, find_root
from windwaves.profiles import (
    AnalyticProfile,
    ConstantProfile,
    LinearShearProfile,
    TanhProfile,
)
from windwaves.rayleigh import (
    impedance_limit_check,
    impedance_outcomes,
    integrate_wronskian,
    limiting_solution,
    uniform_flow_impedance,
)

from oracles import miles_quadratic_coeffs, quadratic_roots, two_stream_roots


def acceptance(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {num}] FAIL: {desc}", flush=True)
                raise
            print(f"[acceptance {num}] PASS: {desc}", flush=True)
            return result

        return inner

    return wrap


def params_with(**kw):
    base = dict(rho_plus=1.22, rho_minus=1000.0, g=9.8, sigma=0.0,
                h_plus=math.inf, h_minus=math.inf)
    base.update(kw)
    return FluidParams(**base)


TANH = TanhProfile(10.0, 1.0, 5.0)

PARABOLA = AnalyticProfile(
    f=lambda x: 4.0 * x * (1.0 - 0.5 * x),
    df=lambda x: 4.0 - 4.0 * x,
    d2f=lambda x: -4.0,
    d3f=lambda x: 0.0,
    d4f=lambda x: 0.0,
    h_plus=2.0,
    name="parabola",
)


@acceptance(1, "Kelvin-Helmholtz onset at 6.6 m/s and 0.017 m, under 1 s")
def test_acceptance_1_kh_threshold():
    t0 = time.perf_counter()
    p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.81, sigma=0.074)
    th = kh_threshold(p)
    elapsed = time.perf_counter() - t0
    assert abs(th.u0_min - 6.6) <= 0.05 * 6.6
    assert abs(th.wavelength - 0.017) <= 0.10 * 0.017
    assert elapsed < 1.0


@acceptance(2, "pipeline eigenvalues match quadratic-formula oracle to 1e-8 "
               "on the uniform/constant-shear grid, under 5 s")
def test_acceptance_2_closed_form_grid():
    t0 = time.perf_counter()
    cases = 0
    for kind in ("constant", "linear"):
        for sigma in (0.0, 0.074):
            for h_minus in (1.0, math.inf):
                for h_plus in (5.0, math.inf):
                    for k in (1.0, 2.5):
                        p = params_with(sigma=sigma, h_plus=h_plus,
                                        h_minus=h_minus)
                        if kind == "constant":
                            prof = ConstantProfile(5.0, h_plus=h_plus)
                        else:
                            prof = LinearShearProfile(2.0, 3.0, h_plus=h_plus)
                        u0 = prof.value(0.0)
                        up0 = prof.slope(0.0)

                        # oracle: exact impedance makes the relation quadratic
                        imp_exact = uniform_flow_impedance(k, h_plus)
                        a2, a1, a0 = miles_quadratic_coeffs(p, k, u0, up0,
                                                            imp_exact)
                        r1, r2 = quadratic_roots(a2, a1, a0)

                        # pipeline: ODE impedance where a column exists
                        if math.isfinite(h_plus):
                            imp_fn = lambda c, prof=prof, k=k: impedance_outcomes(
                                prof, k, [c], 1e-11)[0][0]
                        else:
                            imp_fn = lambda c, k=k, h=h_plus: complex(
                                uniform_flow_impedance(k, h))
                        residual = lambda c: residual_miles(
                            c, imp_fn(c), p, k, u0, up0)
                        for root in (r1, r2):
                            seed = root * (1.0 + 1e-4) + 1e-6
                            res = find_root(residual, seed, tol=1e-12,
                                            scale=p.g, k=k)
                            err = min(abs(res.c - r1), abs(res.c - r2))
                            assert err <= 1e-8 * max(1.0, abs(res.c)), (
                                kind, sigma, h_minus, h_plus, k, res.c, (r1, r2))
                        cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 20
    assert elapsed < 5.0


WRONSKIAN_GRID = [
    (TANH, 1.0, 3.0 + 0.01j),
    (TANH, 1.0, 3.0 + 1e-4j),
    (TANH, 2.0, 5.0 + 0.1j),
    (TANH, 0.5, 8.0 - 0.03j),
    (PARABOLA, 1.0, 1.5 + 0.02j),
    (PARABOLA, 3.0, 1.0 + 0.005j),
]


@acceptance(3, "Wronskian-system conservation law holds at every sample")
def test_acceptance_3_conservation_law():
    for prof, k, c in WRONSKIAN_GRID:
        path = integrate_wronskian(prof, k, c)
        bound = 1e-8 * (1.0 + path.state_sup() ** 2)
        assert path.conservation_defect() <= bound, (prof, k, c)


@acceptance(4, "dW/dx2 matches c_I U'' u1 / |U-c|^2 to 1e-6 relative")
def test_acceptance_4_wronskian_identity():
    c, k = 3.0 + 0.01j, 1.0
    path = integrate_wronskian(TANH, k, c, tol=1e-12)
    xs = np.linspace(0.1, 4.9, 481)
    h = 1e-5
    fd, rhs = [], []
    for x in xs:
        u1 = path.at(x)[0]
        rhs.append(c.imag * TANH.curvature(x) * u1 / abs(TANH.value(x) - c) ** 2)
        wm2, wm1, wp1, wp2 = (path.at(x - 2 * h)[3], path.at(x - h)[3],
                              path.at(x + h)[3], path.at(x + 2 * h)[3])
        fd.append((-wp2 + 8 * wp1 - 8 * wm1 + wm2) / (12 * h))
    fd = np.asarray(fd)
    rhs = np.asarray(rhs)
    scale = float(np.max(np.abs(rhs)))
    assert float(np.max(np.abs(fd - rhs))) <= 1e-6 * scale


@acceptance(5, "impedance converges to the limiting value, slope >= 0.8, "
               "under 10 s")
def test_acceptance_5_limit_convergence():
    t0 = time.perf_counter()
    report = impedance_limit_check(TANH, 1.0, 3.0, +1,
                                   [1e-3, 1e-4, 1e-5, 1e-6], tol=1e-12)
    elapsed = time.perf_counter() - t0
    assert report.monotone, report.errors
    assert report.slope is not None and report.slope >= 0.8, report.slope
    assert elapsed < 10.0


@acceptance(6, "limiting W* jump matches sign pi U'' u1 / |U'| to 1e-8 at "
               "both parabola layers")
def test_acceptance_6_jump_exactness():
    lim = limiting_solution(PARABOLA, 1.0, 1.5, +1, tol=1e-12)
    assert len(lim.jumps) == 2
    for defect in lim.w_jump_defects():
        assert defect <= 1e-8, lim.w_jump_defects()


@acceptance(7, "continuation growth matches eps c_sharp within 10% (eps=1e-3) "
               "and 3% (eps=1e-4), under 30 s")
def test_acceptance_7_miles_asymptotics():
    t0 = time.perf_counter()
    p = params_with(h_plus=5.0)
    k = 1.0
    asym = miles_c_sharp(TANH, p, k, tol=1e-11)
    assert asym.layers[0].u_double_prime < 0.0
    assert asym.c_sharp > 0.0

    eps_list = [1e-4, 3e-4, 1e-3]

    def family(eps):
        pe = params_with(rho_plus=eps * 1000.0, h_plus=5.0)
        return make_miles_residual(TANH, pe, k, tol=1e-11)

    seed = asym.predicted_c(eps_list[0])
    results = continue_in_epsilon(family, eps_list, seed, tol=1e-11,
                                  scale=p.g, k=k, dc_deps=1j * asym.c_sharp)
    devs = {}
    for eps, res in zip(eps_list, results):
        assert res.c.imag > 0.0
        devs[eps] = abs(res.c.imag / (eps * asym.c_sharp) - 1.0)
    elapsed = time.perf_counter() - t0
    assert devs[1e-3] <= 0.10, devs
    assert devs[1e-4] <= 0.03, devs
    assert devs[1e-4] < devs[3e-4] < devs[1e-3], devs
    assert elapsed < 30.0


@acceptance(8, "zero off-axis roots near c_k for a slow wind at eps in "
               "{1e-4, 1e-3}")
def test_acceptance_8_necessity():
    p = params_with(h_plus=5.0)
    k = 1.0
    slow = TanhProfile(1.5, 1.0, 5.0)
    c_k = ck(p, k)
    assert 1.5 * math.tanh(5.0) <= 0.5 * c_k
    margin = c_k - 1.5 * math.tanh(5.0)
    for eps in (1e-4, 1e-3):
        cert = necessity_certificate(slow, p, k, eps,
                                     search_radius=0.25 * margin,
                                     im_floor=1e-10)
        assert cert.count_upper == 0, (eps, cert)
        assert cert.count_lower == 0, (eps, cert)
        assert cert.route == "square", (eps, cert)


@acceptance(9, "ramp-profile growth scales like sqrt(eps) with the derived "
               "constant; cubic partial-derivative identities hold to 1e-10")
def test_acceptance_9_pwl_scaling():
    g, k, x2s = 9.8, 1.0, 1.0
    gamma0 = math.sqrt(g / k)
    bracket = 1.0 - (1.0 - math.exp(-2.0 * k * x2s)) / (2.0 * k * x2s)
    mu = gamma0 / bracket / x2s  # tunes beta to sqrt(g/k)
    want = math.sqrt(g * mu * math.exp(-2 * k * x2s)
                     / (2 * k * k * math.sqrt(g / k)))

    devs = []
    for eps in (1e-3, 1e-4, 1e-5):
        p = FluidParams(rho_plus=eps * 1000.0, rho_minus=1000.0, g=g)
        d = pwl_dispersion(mu, x2s, p, k)
        assert d.cubic.beta == pytest.approx(gamma0, rel=1e-12)
        im = max(r.imag for r in d.roots)
        devs.append(abs(im / math.sqrt(eps) - want) / want)
    assert devs[1] <= 0.02, devs          # eps = 1e-4
    assert devs[2] < devs[1] < devs[0], devs

    d = pwl_dispersion(mu, x2s, FluidParams(rho_plus=1.22, rho_minus=1000.0,
                                            g=g), k)
    f = d.cubic.f
    h = 1e-2 * gamma0
    d2c = (f(gamma0 + h, 0.0) - 2 * f(gamma0, 0.0) + f(gamma0 - h, 0.0)) / h**2
    de = (f(gamma0, 1e-4) - f(gamma0, -1e-4)) / 2e-4
    want_de = g * mu * math.exp(-2 * k * x2s) / k**2
    assert abs(d2c - 4.0 * gamma0) <= 1e-10 * 4.0 * gamma0
    assert abs(de - want_de) <= 1e-10 * want_de


@acceptance(10, "general residual agrees with the reduced relation (roots to "
                "1e-8) and with the two-stream vortex-sheet quadratic")
def test_acceptance_10_general_reduced_equivalence():
    # quiescent water, smooth wind: same root from both residuals
    p = params_with(sigma=0.01, h_plus=5.0, h_minus=2.0,
                    rho_plus=1.0)  # eps = 1e-3
    k = 1.0
    asym = miles_c_sharp(TANH, p, k, tol=1e-11)
    seed = asym.predicted_c(p.epsilon)

    res_miles = make_miles_residual(TANH, p, k, tol=1e-11)
    root_m = find_root(res_miles, seed, tol=1e-12, scale=p.g, k=k).c
    res_general = lambda c: residual_general(c, p, k, TANH, None, tol=1e-11)
    root_g = find_root(res_general, seed, tol=1e-12,
                       scale=p.g * p.rho_minus, k=k).c
    assert abs(root_g - root_m) <= 1e-8 * max(1.0, abs(root_m)), (root_m, root_g)

    # two uniform streams with a vortex sheet against the textbook quadratic
    p2 = params_with(rho_plus=300.0, sigma=0.05)
    u0, w0, k2 = 4.0, 1.0, 2.0
    air = ConstantProfile(u0)
    water = ConstantProfile(w0)
    res2 = lambda c: residual_general(c, p2, k2, air, water)
    for oracle_root in two_stream_roots(p2, k2, u0, w0):
        res = find_root(res2, oracle_root * (1.0 + 1e-4), tol=1e-12,
                        scale=p2.g * p2.rho_minus, k=k2)
        assert abs(res.c - oracle_root) <= 1e-8 * max(1.0, abs(oracle_root))
