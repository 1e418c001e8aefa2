import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windwaves import rayleigh
from windwaves.dispersion import (
    FluidParams,
    _column_tanh,
    _sheared_water_flux,
    ck,
    general_residuals,
    kh_threshold,
    make_miles_residual,
    pwl_dispersion,
    residual_general,
    residual_miles,
)
from windwaves.eigensolver import find_root, scan_k
from windwaves.errors import (
    IncompatibleDepths,
    NearSingularCoefficient,
    RequiresSurfaceTension,
)
from windwaves.profiles import (
    AnalyticProfile,
    ConstantProfile,
    LinearShearProfile,
    PiecewiseLinearProfile,
    TabulatedProfile,
    TanhProfile,
)
from windwaves.rayleigh import impedance_outcomes

from oracles import (
    closed_form_shear_roots,
    miles_quadratic_coeffs,
    quadratic_roots,
    two_stream_roots,
)

DEEP = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8, sigma=0.0)


def params_with(**kw):
    base = dict(rho_plus=1.22, rho_minus=1000.0, g=9.8, sigma=0.0,
                h_plus=math.inf, h_minus=math.inf)
    base.update(kw)
    return FluidParams(**base)


class TestFluidParams:
    def test_epsilon(self):
        assert DEEP.epsilon == pytest.approx(0.00122)

    def test_validation(self):
        with pytest.raises(ValueError):
            FluidParams(rho_plus=2.0, rho_minus=1.0, g=9.8)
        with pytest.raises(ValueError):
            FluidParams(rho_plus=1.0, rho_minus=2.0, g=9.8, sigma=-1.0)
        with pytest.raises(ValueError):
            FluidParams(rho_plus=1.0, rho_minus=2.0, g=9.8, h_plus=0.0)

    @pytest.mark.parametrize("h", [5.0, math.inf])
    def test_column_tanh_of_an_array_is_each_scalar_call(self, h):
        # repeated |k|, both signs, and a 2-d array keep their shape
        ks = np.array([[0.3, -0.3, 1.0, 7.5], [1e-3, 1.0, -40.0, 0.3]])
        got = _column_tanh(ks, h)
        assert got.shape == ks.shape
        want = [[_column_tanh(k, h) for k in row] for row in ks.tolist()]
        assert [[v.hex() for v in row] for row in got.tolist()] == \
            [[v.hex() for v in row] for row in want]


class TestCk:
    def test_deep_water_value(self):
        assert ck(params_with(), 1.0) == pytest.approx(math.sqrt(9.8), rel=1e-14)

    def test_identity_deep_sigma0(self):
        for k in (0.5, 1.0, 2.0, 7.0):
            c = ck(params_with(), k)
            assert c * c * abs(k) == pytest.approx(9.8, rel=1e-14)

    def test_branch_antisymmetry(self):
        assert ck(params_with(), 2.0, -1) == -ck(params_with(), 2.0, +1)

    @pytest.mark.parametrize("k", [0.0, math.nan, math.inf, -math.inf])
    def test_refuses_a_wavenumber_that_is_zero_or_not_finite(self, k):
        with pytest.raises(ValueError) as exc:
            ck(params_with(), k)
        assert str(exc.value) == "wavenumber k must be finite and nonzero"

    @given(k=st.floats(0.05, 50.0), sigma=st.floats(0.0, 0.2),
           hm=st.floats(0.5, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_is_eps0_root_of_residual(self, k, sigma, hm):
        p = params_with(sigma=sigma, h_minus=hm)
        c = ck(p, k)
        # at eps = 0 the impedance is irrelevant
        r = residual_miles(c, -abs(k), params_with(sigma=sigma, h_minus=hm,
                                                   rho_plus=1e-30 * 1000.0), k,
                           0.0, 0.0)
        # tiny epsilon stands in for the eps = 0 limit
        assert abs(r) <= 1e-9 * p.g


class TestResidualMiles:
    def test_kh_reduction_matches_quadratic(self):
        # uniform wind over deep water reduces to the KH quadratic
        p = params_with(sigma=0.03)
        u0, k = 5.0, 2.0
        for c in (1.0 + 0.5j, -2.0 + 0.1j, 3.3 - 0.4j):
            got = residual_miles(c, -abs(k), p, k, u0, 0.0)
            eps = p.epsilon
            want = (p.g * (1 - eps) + p.sigma * k**2 / p.rho_minus
                    - eps * abs(k) * (u0 - c) ** 2 - c**2 * abs(k))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_term_by_term_oracle_finite_depths(self):
        p = params_with(sigma=0.074, h_plus=5.0, h_minus=1.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        k = 1.0
        c = ck(p, k) + 0.01j
        [imp], errors = impedance_outcomes(prof, k, [c])
        assert errors == {}
        got = residual_miles(c, imp, p, k, prof.value(0.0), prof.slope(0.0))
        a2, a1, a0 = miles_quadratic_coeffs(p, k, prof.value(0.0),
                                            prof.slope(0.0), imp)
        want = a2 * c * c + a1 * c + a0
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_conjugation_symmetry_via_factory(self):
        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        res = make_miles_residual(prof, p, 1.0)
        c = 3.0 + 0.05j
        assert abs(res(c.conjugate()) - res(c).conjugate()) <= 1e-9 * abs(res(c))

    def test_scalar_residual_raises_its_points_error(self):
        # a real c with a critical layer needs the side of the limit
        res = make_miles_residual(TanhProfile(10.0, 1.0, 5.0),
                                  params_with(h_plus=5.0), 1.0)
        with pytest.raises(NearSingularCoefficient) as exc:
            res(3.0 + 0.0j)
        assert str(exc.value) == ("real wave speed with critical layers; use "
                                  "limiting_solution")

    def test_depth_mismatch_rejected(self):
        prof = TanhProfile(10.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            make_miles_residual(prof, params_with(h_plus=4.0), 1.0)


class TestKhThreshold:
    def test_physical_onset_values(self):
        p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.81, sigma=0.074)
        th = kh_threshold(p)
        # closed form: k* = sqrt(g drho / sigma), U0^2 = pref * 2 sqrt(g sigma drho)
        k_star = math.sqrt(9.81 * (1000.0 - 1.22) / 0.074)
        u0_star = math.sqrt((1001.22 / (1.22 * 1000.0))
                            * 2.0 * math.sqrt(9.81 * 0.074 * (1000.0 - 1.22)))
        assert th.k_crit == pytest.approx(k_star, rel=1e-6)
        assert th.u0_min == pytest.approx(u0_star, rel=1e-9)

    def test_threshold_shrinks_with_sigma(self):
        u_prev = math.inf
        for sigma in (0.1, 0.01, 0.001):
            p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.81, sigma=sigma)
            u = kh_threshold(p).u0_min
            assert u < u_prev
            u_prev = u

    def test_half_density_case_vs_formula(self):
        p = FluidParams(rho_plus=500.0, rho_minus=1000.0, g=9.81, sigma=0.074)
        th = kh_threshold(p)
        want = math.sqrt((1500.0 / 5e5) * 2.0 * math.sqrt(9.81 * 0.074 * 500.0))
        assert th.u0_min == pytest.approx(want, rel=1e-9)

    def test_sigma_zero_rejected(self):
        with pytest.raises(RequiresSurfaceTension):
            kh_threshold(DEEP)

    def test_double_root_at_threshold(self):
        p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.81, sigma=0.074)
        th = kh_threshold(p)
        roots = closed_form_shear_roots(th.u0_min, 0.0, p, th.k_crit)
        assert abs(roots.c_plus - roots.c_minus) <= 1e-4 * abs(roots.c_plus)

    @pytest.mark.parametrize("sigma, k_star, u0_star",
                             [(1e-9, 3.13e6, 0.0717), (1e-12, 9.90e7, 0.01275)])
    def test_minimum_beyond_any_bracket(self, sigma, k_star, u0_star):
        # k* = sqrt(g drho / sigma) lies past 1e6 rad/m at tiny sigma
        p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.81, sigma=sigma)
        th = kh_threshold(p)
        assert th.k_crit == pytest.approx(k_star, rel=3e-3)
        assert th.u0_min == pytest.approx(u0_star, rel=3e-3)

        def u0_sq(k):  # the marginal curve
            return (1001.22 / 1220.0) * (9.81 * (1000.0 - 1.22) / k + sigma * k)

        assert th.u0_min ** 2 == pytest.approx(u0_sq(th.k_crit), rel=1e-12)
        assert u0_sq(th.k_crit) < min(u0_sq(0.999 * th.k_crit),
                                      u0_sq(1.001 * th.k_crit))


class TestClosedFormShearRoots:
    def test_mu_zero_reduces_to_kh(self):
        p = params_with(sigma=0.02)
        u0, k = 6.0, 3.0
        got = closed_form_shear_roots(u0, 0.0, p, k)
        eps = p.epsilon
        a = (1 + eps) * k
        b = -2 * eps * k * u0
        c0 = eps * k * u0**2 - p.g * (1 - eps) - p.sigma * k**2 / p.rho_minus
        r1, r2 = quadratic_roots(a, b, c0)
        assert min(abs(got.c_plus - r1), abs(got.c_plus - r2)) <= 1e-12 * abs(r1)

    def test_no_vortex_sheet_always_stable(self):
        # U(0) = 0 with arbitrary shear: real roots for all 0 < eps <= 1
        for eps in (1e-4, 0.01, 0.3, 0.999):
            p = FluidParams(rho_plus=eps * 1000.0, rho_minus=1000.0, g=9.8)
            roots = closed_form_shear_roots(0.0, 37.0, p, 2.0)
            assert roots.stable

    def test_discriminant_oracle(self):
        p = params_with()
        u0, mu, k = 8.0, 5.0, 3.0
        got = closed_form_shear_roots(u0, mu, p, k)
        eps = p.epsilon
        a = (1 + eps) * k
        b = -2 * eps * k * u0 - eps * mu
        c0 = eps * k * u0**2 + eps * mu * u0 - p.g * (1 - eps)
        r1, r2 = quadratic_roots(a, b, c0)
        assert min(abs(got.c_plus - r1), abs(got.c_plus - r2)) <= 1e-12 * max(
            abs(r1), 1.0)
        assert min(abs(got.c_minus - r1), abs(got.c_minus - r2)) <= 1e-12 * max(
            abs(r2), 1.0)


class TestPwlDispersion:
    def setup_method(self):
        # beta tuned to sqrt(g/k): bracket = 1 - (1 - e^{-2 k x*})/(2 k x*)
        self.k = 1.0
        self.g = 9.8
        self.x2s = 1.0
        gamma0 = math.sqrt(self.g / self.k)
        bracket = 1.0 - (1.0 - math.exp(-2.0)) / 2.0
        self.mu = gamma0 / bracket / self.x2s

    def params(self, eps):
        return FluidParams(rho_plus=eps * 1000.0, rho_minus=1000.0, g=self.g)

    def test_beta_identity(self):
        d = pwl_dispersion(self.mu, self.x2s, self.params(1e-3), self.k)
        cubic = d.cubic
        want_beta = cubic.u_star * (1.0 - (1.0 - math.exp(-2 * self.k * self.x2s))
                                    / (2 * self.k * self.x2s))
        assert cubic.beta == pytest.approx(want_beta, rel=1e-14)
        assert cubic.beta == pytest.approx(math.sqrt(self.g / self.k), rel=1e-12)
        assert cubic.alpha < cubic.beta < cubic.u_star

    def test_eps0_double_root(self):
        d = pwl_dispersion(self.mu, self.x2s, self.params(1e-9), self.k,
                           epsilon=0.0)
        gamma0 = math.sqrt(self.g / self.k)
        close = sorted(abs(r - gamma0) for r in d.roots)
        assert close[0] <= 1e-7 and close[1] <= 1e-7  # double root split O(sqrt(eps))
        assert d.cubic.f(gamma0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_partial_derivative_identities_by_fd(self):
        d = pwl_dispersion(self.mu, self.x2s, self.params(1e-3), self.k)
        f = d.cubic.f
        gamma0 = math.sqrt(self.g / self.k)
        h = 1e-2 * gamma0
        d2c = (f(gamma0 + h, 0.0) - 2 * f(gamma0, 0.0) + f(gamma0 - h, 0.0)) / h**2
        de = (f(gamma0, 1e-4) - f(gamma0, -1e-4)) / 2e-4
        assert abs(d2c - 4.0 * gamma0) <= 1e-10 * 4.0 * gamma0
        want_de = self.g * self.mu * math.exp(-2 * self.k * self.x2s) / self.k**2
        assert abs(de - want_de) <= 1e-10 * want_de

    def test_growth_scales_like_sqrt_eps(self):
        want = math.sqrt(self.g * self.mu * math.exp(-2 * self.k * self.x2s)
                         / (2 * self.k**2 * math.sqrt(self.g / self.k)))
        prev_dev = math.inf
        for eps in (1e-2, 1e-3, 1e-4):
            d = pwl_dispersion(self.mu, self.x2s, self.params(eps), self.k)
            im = max(r.imag for r in d.roots)
            dev = abs(im / math.sqrt(eps) - want) / want
            assert dev < prev_dev
            prev_dev = dev
        assert prev_dev <= 0.02

    def test_cubic_impedance_matches_cascade(self):
        from windwaves.rayleigh import pwl_impedance_cascade
        d = pwl_dispersion(self.mu, self.x2s, self.params(1e-3), self.k)
        prof = PiecewiseLinearProfile.ramp(self.mu, self.x2s)
        for c in (2.0 + 0.3j, 4.0 - 0.1j):
            assert abs(d.cubic.impedance(c) - pwl_impedance_cascade(prof, self.k, c)
                       ) <= 1e-12 * abs(d.cubic.impedance(c))

    def test_roots_solve_miles_residual(self):
        # the cubic holds for any ramp, not only for the tuned one
        p = self.params(1e-3)
        for mu, k in ((self.mu, self.k), (10.0, 0.5), (5.0, 1.0), (3.0, 2.0)):
            d = pwl_dispersion(mu, self.x2s, p, k)
            for r in d.roots:
                resid = residual_miles(r, d.cubic.impedance(r), p, k, 0.0, mu)
                assert abs(resid) <= 1e-9 * p.g, (mu, k, r)

    def test_scan_k_on_the_unbounded_ramp_finds_a_cubic_root(self):
        # the untuned ramp mu 10, x2* 1 under the benchmark's fluids; at
        # k 900 the gap between the kinks is 900 wavelengths / 2 pi
        p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8)
        prof = PiecewiseLinearProfile.ramp(10.0, 1.0)
        ks = [0.5, 3.0, 900.0]
        curve = scan_k(prof, p, ks)
        for k, row in zip(ks, curve.entries):
            assert row.converged, row.message
            roots = pwl_dispersion(10.0, 1.0, p, k).roots
            assert min(abs(row.c - r) for r in roots) <= 1e-12 * abs(row.c), k

    def test_validation(self):
        with pytest.raises(ValueError):
            pwl_dispersion(self.mu, self.x2s, params_with(sigma=0.01), self.k)
        with pytest.raises(ValueError):
            pwl_dispersion(self.mu, self.x2s, params_with(h_minus=2.0), self.k)
        with pytest.raises(ValueError):
            pwl_dispersion(-1.0, self.x2s, params_with(), self.k)


class TestResidualGeneral:
    def test_unbounded_sheared_column_refused(self):
        # no wall to shoot from: the air column, then the water column
        p, c, k = params_with(), 3.0 + 0.3j, 1.0
        with pytest.raises(IncompatibleDepths, match="air column"):
            residual_general(c, p, k, TanhProfile(10.0, 1.0, math.inf))
        with pytest.raises(IncompatibleDepths, match="water column"):
            residual_general(c, p, k, ConstantProfile(5.0),
                             TanhProfile(1.0, 1.0, math.inf))

    @pytest.mark.parametrize("k", [0.0, math.nan, math.inf])
    def test_refuses_a_wavenumber_that_is_zero_or_not_finite(self, k):
        # before the sheet potential, whose 1/|k| divides by zero at k = 0
        p = params_with(h_plus=10.0)
        air = TanhProfile(10.0, 1.0, 10.0)
        for call in (lambda: residual_general(3.0 + 0.1j, p, k, air),
                     lambda: general_residuals(p, [1.0, k], [3.0 + 0.1j] * 2,
                                               air, ConstantProfile(0.3))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "wavenumber k must be finite and nonzero"

    def test_non_finite_speed_raises(self):
        # over calm water, and over a sheared ocean
        p = params_with(h_plus=5.0, h_minus=2.0)
        for c in (complex(math.nan, 0.0), complex(math.inf, 0.1)):
            for water in (None, TanhProfile(0.5, 0.5, 2.0)):
                with pytest.raises(NearSingularCoefficient,
                                   match="^wave speed is not finite$"):
                    residual_general(c, p, 1.0,
                                     ConstantProfile(3.0, h_plus=5.0), water)

    @pytest.mark.parametrize("air, water", [
        (TanhProfile(10.0, 1.0, 5.0), None),
        (TanhProfile(10.0, 1.0, 5.0), TanhProfile(0.5, 0.5, 2.0)),
        (ConstantProfile(4.0, h_plus=5.0),
         PiecewiseLinearProfile([0.0, 0.5], [0.3, 0.1], h_plus=2.0)),
        (PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, 0.0], h_plus=5.0),
         TanhProfile(0.5, 0.5, 2.0)),
    ], ids=["tanh-calm", "tanh-tanh", "uniform-pwl", "pwl-tanh"])
    def test_member_equals_its_one_point_residual(self, air, water):
        # failing pairs: a real speed with air layers, a water kink speed
        # (0.15) or a real speed with water layers, and a NaN speed; each
        # fails alone, with its one-point error
        p = params_with(sigma=0.074, h_plus=5.0, h_minus=2.0)
        ks = [0.3, 1.0, 3.0, 30.0, 1.0, 1.0, 1.0, 2.0]
        cs = [3.0 + 0.1j, 3.0 - 0.1j, 0.2 + 0.05j, 6.0 + 0.5j, 3.0 + 0.0j,
              0.15 + 0.0j, complex(math.nan, 0.0), 0.2 - 0.05j]
        vals, errors = general_residuals(p, ks, cs, air, water)
        assert 6 in errors and len(errors) < len(cs)
        for i, (k, c) in enumerate(zip(ks, cs)):
            if i in errors:
                assert np.isnan(vals[i])
                with pytest.raises(type(errors[i])) as exc:
                    residual_general(c, p, k, air, water)
                assert str(exc.value) == str(errors[i])
            else:
                one = residual_general(c, p, k, air, water)
                assert [one.real.hex(), one.imag.hex()] == \
                    [vals[i].real.hex(), vals[i].imag.hex()], i

    @pytest.mark.parametrize("air, water, calls", [
        (TanhProfile(10.0, 1.0, 5.0), TanhProfile(0.5, 0.5, 2.0), 2),
        (TanhProfile(10.0, 1.0, 5.0), None, 1),
        (TanhProfile(10.0, 1.0, 5.0), ConstantProfile(0.3, h_plus=2.0), 1),
        (PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, 0.0], h_plus=5.0),
         None, 0),
    ], ids=["sheared-ocean", "calm", "uniform-current", "pwl-calm"])
    def test_one_kernel_batch_per_column(self, monkeypatch, air, water,
                                         calls):
        p = params_with(h_plus=5.0, h_minus=2.0)
        seen = []
        integrate = rayleigh._integrate

        def spy(*args):
            seen.append(args)
            return integrate(*args)

        monkeypatch.setattr(rayleigh, "_integrate", spy)
        ks = np.linspace(0.5, 8.0, 12)
        vals, errors = general_residuals(p, ks, 3.0 + 0.1j, air, water)
        assert errors == {} and np.isfinite(vals).all()
        assert len(seen) == calls

    def test_find_root_takes_one_batch_per_column_per_round(self,
                                                            monkeypatch):
        # a sheared ocean: the start triple is one round and each Muller
        # step one more, each a batch of the air and one of the water
        from windwaves.asymptotics import miles_c_sharp

        p = params_with(h_plus=5.0, h_minus=2.0)
        air, water = TanhProfile(10.0, 1.0, 5.0), TanhProfile(0.5, 0.5, 2.0)
        seen = []
        integrate = rayleigh._integrate

        def spy(*args):
            seen.append(args)
            return integrate(*args)

        monkeypatch.setattr(rayleigh, "_integrate", spy)
        for k in (0.5, 1.0, 2.0):
            seed = miles_c_sharp(air, p, k).predicted_c(p.epsilon)
            residual = lambda c, k=k: residual_general(c, p, k, air, water)
            residual.batch = functools.partial(general_residuals, p, k,
                                               u_plus=air, u_minus=water)
            seen.clear()
            root = find_root(residual, seed, tol=1e-12,
                             scale=p.g * p.rho_minus, k=k)
            assert root.converged and root.c.imag > 0.0
            assert len(seen) == 2 * (1 + root.iterations)
            assert abs(residual_general(root.c, p, k, air, water)) <= \
                1e-10 * p.g * p.rho_minus

    def test_two_stream_matches_textbook_quadratic(self):
        p = params_with(rho_plus=300.0, sigma=0.05)
        k, u0, w0 = 2.0, 4.0, 1.0
        air = ConstantProfile(u0)
        water = ConstantProfile(w0)
        r1, r2 = two_stream_roots(p, k, u0, w0)
        for r in (r1, r2):
            assert abs(residual_general(r, p, k, air, water)) <= 1e-8 * p.g

    def test_kh_special_case(self):
        p = params_with(sigma=0.074)
        k, u0 = 3.0, 7.0
        air = ConstantProfile(u0)
        r1, r2 = two_stream_roots(p, k, u0, 0.0)
        for r in (r1, r2):
            assert abs(residual_general(r, p, k, air, None)) <= 1e-8 * p.g

    def test_equals_scaled_miles_for_quiescent_water(self):
        p = params_with(h_plus=5.0, h_minus=2.0, sigma=0.01)
        prof = TanhProfile(10.0, 1.0, 5.0)
        k = 1.0
        res_m = make_miles_residual(prof, p, k)
        for c in (3.0 + 0.2j, 1.0 - 0.4j, 5.0 + 1.0j):
            rg = residual_general(c, p, k, prof)
            rm = res_m(c)
            assert abs(rg - p.rho_minus * rm) <= 1e-8 * max(abs(rg), p.g)

    def test_sweep_roots_on_a_vortex_sheet_table(self):
        # U(0) = 2 over calm water: the sheet enters residual_miles through
        # its U+(0) terms and residual_general through the sheet potential
        p = params_with(h_plus=5.0)
        xs = np.linspace(0.0, 5.0, 200)
        prof = TabulatedProfile(xs, 2.0 + 8.0 * np.tanh(xs))
        for entry in scan_k(prof, p, [0.5, 0.8, 1.5]).entries:
            general = find_root(
                lambda c: residual_general(c, p, entry.k, prof), entry.c,
                tol=1e-12, scale=p.g * p.rho_minus, k=entry.k).c
            assert entry.converged and entry.c.imag > 0.0
            assert abs(general - entry.c) <= 1e-12 * abs(entry.c), entry

    def test_sheared_water_general_path_matches_closed_form(self):
        # constant water speed routed through the mirrored shoot must agree
        # with the explicit tanh column solution
        p = params_with(h_plus=5.0, h_minus=2.0)
        air = TanhProfile(10.0, 1.0, 5.0)
        w0 = 0.7
        water_closed = ConstantProfile(w0, h_plus=2.0)
        water_general = AnalyticProfile(
            f=lambda x: w0, df=lambda x: 0.0, d2f=lambda x: 0.0,
            d3f=lambda x: 0.0, d4f=lambda x: 0.0, h_plus=2.0, name="const")
        k, c = 1.0, 3.0 + 0.3j
        a = residual_general(c, p, k, air, water_closed)
        b = residual_general(c, p, k, air, water_general)
        assert abs(a - b) <= 1e-7 * max(abs(a), p.g)

    @pytest.mark.parametrize("k, c", [(0.5, 3.0 + 0.3j), (2.0, 0.3 + 0.05j),
                                      (20.0, 3.0 + 0.3j)])
    def test_sheared_water_flux_matches_two_basis_shoot(self, k, c):
        # one shoot and the Wronskian against the basis shoots from wall
        # data (1, 0) and (0, 1), combined to meet W(0) at the interface
        p = params_with(h_plus=5.0, h_minus=2.0)
        water = TanhProfile(0.5, 0.3, 2.0)
        gamma0_m, y2_0 = 0.4 - 0.1j, 1.5 + 0.2j
        [got], errors = _sheared_water_flux(water, p, k, [c], gamma0_m, y2_0,
                                            1e-12)
        assert errors == {}
        (v_y0, v_yp0), (u_y0, u_yp0) = (
            rayleigh._lid_shoot(water, k, [c], 1e-12, init)[0][:, 0]
            for init in ((1.0, 0.0), (0.0, 1.0)))
        wp_wall = -k * k * gamma0_m / math.cosh(k * 2.0)
        w_0 = y2_0 + k * math.tanh(k * 2.0) * gamma0_m
        a = (w_0 - wp_wall * u_y0) / v_y0
        want = -(a * v_yp0 + wp_wall * u_yp0) - k * k * gamma0_m
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_sheared_water_past_float_range_of_cosh(self):
        # |k| h- = 1000: the wall is e^-1000 away, so the residual is the one
        # of a 5 m column to rounding
        air = TanhProfile(10.0, 0.2, 1.0)
        k, c = 100.0, 0.3 + 0.01j
        res = [residual_general(c, params_with(h_plus=1.0, h_minus=hm), k,
                                air, TanhProfile(0.5, 0.3, hm))
               for hm in (10.0, 5.0)]
        assert cmath.isfinite(res[0])
        assert abs(res[0] - res[1]) <= 1e-9 * abs(res[1])

    def test_unbounded_vortical_air_rejected(self):
        prof = TanhProfile(10.0, 1.0, 5.0)
        p = params_with(h_plus=5.0)
        # air ok; water with vorticity on an unbounded column must fail
        water = AnalyticProfile(f=lambda x: 0.1 * x * x, df=lambda x: 0.2 * x,
                                d2f=lambda x: 0.2, h_plus=3.0, name="quad")
        with pytest.raises(ValueError):
            residual_general(2.0 + 0.5j, p, 1.0, prof, water)

    def test_conjugate_root_symmetry(self):
        # bit for bit over calm and sheared water, also where c has water
        # layers (tanh and piecewise-linear water below 0.5 m/s)
        p = params_with(h_plus=5.0, h_minus=2.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        cs = np.array([3.0 + 0.25j, 0.2 + 0.05j, 0.12 + 1e-4j, 6.0 + 0.5j])
        for water in (None, TanhProfile(0.5, 0.5, 2.0),
                      PiecewiseLinearProfile([0.0, 0.5], [0.3, 0.1],
                                             h_plus=2.0),
                      LinearShearProfile(0.3, -0.1, h_plus=2.0)):
            for k in (0.5, 1.0, 3.0):
                up, errors = general_residuals(p, k, cs, prof, water)
                dn, _ = general_residuals(p, k, cs.conj(), prof, water)
                assert errors == {}
                assert np.conj(up).view(float).tolist() == \
                    dn.view(float).tolist(), (water, k)
        a = residual_general(cs[0], p, 1.0, prof)
        b = residual_general(cs[0].conjugate(), p, 1.0, prof)
        assert b == a.conjugate()
