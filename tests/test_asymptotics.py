import math
import warnings

import numpy as np
import pytest

from windwaves.asymptotics import (
    f_I0,
    growth_constants,
    miles_c_sharp,
    necessity_certificate,
)
from windwaves.dispersion import FluidParams, ck
from windwaves.eigensolver import scan_k
from windwaves.errors import (
    HypothesisViolated,
    NearSingularCoefficient,
    NoCriticalLayer,
    WindwavesError,
)
from windwaves.profiles import (
    AnalyticProfile,
    ConstantProfile,
    LinearShearProfile,
    PiecewiseLinearProfile,
    TabulatedProfile,
    TanhProfile,
    find_critical_points,
)
from windwaves.rayleigh import (
    impedance_outcomes,
    limiting_solution,
    pwl_impedance_cascade,
)

from oracles import contour_impedance_oracle, spline_extremes


def params_with(**kw):
    base = dict(rho_plus=1.22, rho_minus=1000.0, g=9.8, sigma=0.0,
                h_plus=math.inf, h_minus=math.inf)
    base.update(kw)
    return FluidParams(**base)


TANH = TanhProfile(10.0, 1.0, 5.0)

X48 = np.linspace(0.0, 5.0, 48)
#: tanh48: 10 tanh x at 48 knots
TANH48 = TabulatedProfile(X48, 10.0 * np.tanh(X48))
#: jet48: 8 e x e^-x at the same knots, two layers for c in (0.73, 8)
JET48 = TabulatedProfile(X48, 8.0 * math.e * X48 * np.exp(-X48))
#: a speed whose one layer on tanh48 lies 1e-9 above knot 20
BESIDE_KNOT = float(TANH48.value(X48[20] + 1e-9))


def frobenius_c_sharp(profile, params, k, tol=1e-10):
    """c_sharp and the per-layer u1 assembled from the jumps of the Frobenius
    limiting solve, independently of the indented path."""
    c_k = ck(params, k)
    layers = find_critical_points(profile, c_k)
    limit = limiting_solution(profile, k, c_k, +1, tol, layers=layers)
    u1s = [jump.u1 for jump in limit.jumps]
    fi0 = f_I0(profile, params, k)
    c_sharp = sum(-math.pi * fi0 * layer.u_double_prime * u1
                  / abs(layer.u_prime) for layer, u1 in zip(layers, u1s))
    return c_sharp, u1s


def convex(kind):
    """U = 5 x^2 on [0, 2]: U'' > 0 at the layer, so with c_k > 0 the
    sufficient sign hypotheses fail.  The table takes the indented path, the
    analytic profile the Frobenius route."""
    if kind == "table":
        x = np.linspace(0.0, 2.0, 24)
        return TabulatedProfile(x, 5.0 * x * x)
    return AnalyticProfile(f=lambda x: 5.0 * x * x, df=lambda x: 10.0 * x,
                           d2f=lambda x: 10.0, d3f=lambda x: 0.0,
                           d4f=lambda x: 0.0, h_plus=2.0, name="convex")


class TestFI0:
    def test_quiescent_interface_value(self):
        # U+(0) = 0, deep water: f_I(0) = c_k/2
        p = params_with()
        c_k = math.sqrt(9.8)
        got = f_I0(TANH, p, 1.0)
        assert got == pytest.approx(c_k / 2.0, rel=1e-12)

    def test_vanishes_when_interface_matches_ck(self):
        p = params_with()
        c_k = ck(p, 1.0)
        prof = ConstantProfile(c_k)
        assert f_I0(prof, p, 1.0) == 0.0

    def test_odd_in_branch_for_quiescent_interface(self):
        p = params_with()
        assert f_I0(TANH, p, 1.0, -1) == pytest.approx(-f_I0(TANH, p, 1.0, +1),
                                                       rel=1e-12)


class TestMilesCSharp:
    def test_tanh_growth_constant_positive(self):
        p = params_with(h_plus=5.0)
        asym = miles_c_sharp(TANH, p, 1.0)
        assert len(asym.layers) == 1
        layer = asym.layers[0]
        assert layer.u_double_prime < 0.0
        assert asym.c_sharp > 0.0
        assert asym.unstable
        assert asym.sufficient_signs_hold
        # assembled from the layer term with u1(0) = 1
        want = -math.pi * asym.f_i0 * layer.u_double_prime * layer.u1 / abs(
            layer.u_prime)
        assert asym.c_sharp == pytest.approx(want, rel=1e-12)
        assert asym.predicted_c(1e-3).imag == pytest.approx(1e-3 * asym.c_sharp)

    def test_pure_shear_layer_contributes_nothing(self):
        # critical layer exists but U'' = 0 everywhere; the strict-sign
        # hypothesis of the sufficient criterion fails, but with every layer
        # term 0 the hypotheses say nothing: no warning
        p = params_with(h_plus=2.0)
        prof = LinearShearProfile(0.0, 5.0, h_plus=2.0)  # range [0, 10]
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            asym = miles_c_sharp(prof, p, 1.0)
        assert asym.c_sharp == 0.0
        assert not asym.unstable
        assert not asym.sufficient_signs_hold

    def test_no_critical_layer_raises(self):
        p = params_with(h_plus=5.0)
        with pytest.raises(NoCriticalLayer):
            miles_c_sharp(ConstantProfile(5.0, h_plus=5.0), p, 1.0)

    @staticmethod
    def jet_table():
        # 10 sin(0.9 pi x / 5) at nine knots: one interior maximum of the
        # spline, between the knots 2.5 and 3.125
        x = np.linspace(0.0, 5.0, 9)
        return TabulatedProfile(x, 10.0 * np.sin(0.9 * np.pi * x / 5.0))

    def test_two_layers_just_below_a_table_maximum(self):
        # c_k 1e-8 below the spline's maximum has two layers, and c_sharp
        # scales as the gap to the power 3/2: 1e-6 times its value at a gap
        # of 1e-4
        prof = self.jet_table()
        p = params_with()
        top = spline_extremes(prof)[1]
        wide = miles_c_sharp(prof, p, p.g / (top - 1e-4) ** 2)
        near = miles_c_sharp(prof, p, p.g / (top - 1e-8) ** 2)
        assert len(wide.layers) == len(near.layers) == 2
        assert near.c_sharp == pytest.approx(1e-6 * wide.c_sharp, rel=1e-2)
        assert near.c_sharp == pytest.approx(4.032e-13, rel=1e-2)

    def test_closer_to_a_table_maximum_is_not_called_layerless(self):
        # 1e-10 below the maximum the layers are still there: two terms, or
        # a typed failure of the shoot, but never "no critical layer"
        prof = self.jet_table()
        p = params_with()
        try:
            asym = miles_c_sharp(prof, p, p.g / (spline_extremes(prof)[1] - 1e-10) ** 2)
        except WindwavesError as exc:
            assert not isinstance(exc, NoCriticalLayer)
        else:
            assert len(asym.layers) == 2

    def test_negative_branch_recomputed_not_sign_flipped(self):
        # c_k < 0 lies outside the range of a one-signed wind: the negative
        # branch has its own layer set (here, none) rather than a mirrored
        # growth constant
        p = params_with(h_plus=5.0)
        assert miles_c_sharp(TANH, p, 1.0, +1).c_sharp > 0.0
        with pytest.raises(NoCriticalLayer):
            miles_c_sharp(TANH, p, 1.0, -1)

    def test_real_shift_scales_linearly_in_eps(self):
        # Re c(eps) - c_k = O(eps): fitted log-log slope close to 1
        from windwaves.dispersion import make_miles_residual
        from windwaves.eigensolver import continue_in_epsilon

        p = params_with(h_plus=5.0)
        k = 1.0
        asym = miles_c_sharp(TANH, p, k, tol=1e-11)
        eps_list = [1e-4, 3e-4, 1e-3]

        def family(eps):
            pe = params_with(rho_plus=eps * 1000.0, h_plus=5.0)
            return make_miles_residual(TANH, pe, k, tol=1e-11)

        results = continue_in_epsilon(family, eps_list, asym.predicted_c(1e-4),
                                      tol=1e-11, scale=p.g, k=k,
                                      dc_deps=1j * asym.c_sharp)
        shifts = [abs(r.c.real - asym.c_k) for r in results]
        slope = ((math.log(shifts[-1]) - math.log(shifts[0]))
                 / (math.log(eps_list[-1]) - math.log(eps_list[0])))
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_sign_hypothesis_warning(self):
        # U'' > 0 at the single layer with c_k > 0: sufficient signs fail
        p = params_with(h_plus=2.0)
        prof = AnalyticProfile(
            f=lambda x: 5.0 * x * x * (1.0 + 0.0 * x),
            df=lambda x: 10.0 * x,
            d2f=lambda x: 10.0,
            d3f=lambda x: 0.0,
            d4f=lambda x: 0.0,
            h_plus=2.0,
            name="convex",
        )
        with pytest.warns(UserWarning):
            asym = miles_c_sharp(prof, p, 1.0)
        assert asym.c_sharp < 0.0  # stabilizing layer
        assert not asym.sufficient_signs_hold


class TestGrowthConstants:
    KS = [0.05, 0.3, 0.8, 1.5, 3.0]  # c_k leaves the range of U at 0.05

    def test_one_k_equals_miles_c_sharp(self):
        # miles_c_sharp is the one-k case; the indented path and the
        # Frobenius route agree to ~1e-9
        p = params_with(h_plus=5.0)
        for k in self.KS[1:]:
            results, errors = growth_constants(TANH, p, [k])
            assert errors == {}
            got = results[0]
            assert got == miles_c_sharp(TANH, p, k)
            assert got.c_k == ck(p, k) and got.f_i0 == f_I0(TANH, p, k)
            assert [l.position for l in got.layers] == \
                [layer.position for layer in find_critical_points(TANH, got.c_k)]
            want, _ = frobenius_c_sharp(TANH, p, k)
            assert abs(got.c_sharp - want) <= 1e-8 * abs(want)

    def test_batch_matches_miles_c_sharp(self):
        p = params_with(h_plus=5.0)
        results, errors = growth_constants(TANH, p, self.KS, tol=1e-12)
        assert list(errors) == [0]
        assert isinstance(errors[0], NoCriticalLayer)
        with pytest.raises(NoCriticalLayer) as scalar:
            miles_c_sharp(TANH, p, self.KS[0], tol=1e-12)
        assert str(errors[0]) == str(scalar.value)
        assert results[0] is None
        for k, got in zip(self.KS[1:], results[1:]):
            assert got == miles_c_sharp(TANH, p, k, tol=1e-12)
            want, u1s = frobenius_c_sharp(TANH, p, k, tol=1e-12)
            # the Frobenius route's own error is ~1e-9 (1.07e-9 at k = 0.3);
            # an independent shoot holds the path to 1e-9
            assert abs(got.c_sharp - want) <= 1e-8 * abs(want)
            oracle = got.f_i0 * contour_impedance_oracle(
                TANH, k, complex(got.c_k), 1e-12, +1).imag
            assert abs(got.c_sharp - oracle) <= 1e-9 * abs(oracle)
            assert got.layers[0].u1 == pytest.approx(u1s[0], rel=1e-8)

    def test_each_wavenumber_scans_once(self, monkeypatch):
        # the path rows shoot with the layers found at c_k, as the Frobenius
        # rows solve with them, and the impedance does not change
        from windwaves import asymptotics, rayleigh

        scans = []

        def counted(profile, c_r):
            scans.append(c_r)
            return find_critical_points(profile, c_r)

        for module in (asymptotics, rayleigh):
            monkeypatch.setattr(module, "find_critical_points", counted)
        p = params_with(h_plus=5.0)
        ks = self.KS[1:]
        results, errors = growth_constants(TANH, p, ks)
        assert errors == {}
        assert len(scans) == len(ks)
        cks = [got.c_k for got in results]
        layers = [find_critical_points(TANH, c_k) for c_k in cks]
        given, _ = rayleigh.impedance_outcomes(TANH, ks, cks, sign_ci=+1,
                                               layers=layers)
        scanned, _ = rayleigh.impedance_outcomes(TANH, ks, cks, sign_ci=+1)
        assert len(scans) == 2 * len(ks)
        assert given.tobytes() == scanned.tobytes()

    def test_two_layers_take_the_frobenius_route(self):
        # the path gives only the sum of the layer terms
        x = np.linspace(0.0, 5.0, 48)
        jet = TabulatedProfile(x, 8.0 * math.e * x * np.exp(-x))
        p = params_with(h_plus=5.0)
        with pytest.warns(UserWarning, match="sufficient sign hypotheses"):
            results, errors = growth_constants(jet, p, [1.0])
            want = miles_c_sharp(jet, p, 1.0)
        assert errors == {}
        assert len(results[0].layers) == 2
        assert results[0] == want
        assert [l.u1 for l in want.layers] == frobenius_c_sharp(jet, p, 1.0)[1]

    def test_capillary_range_keeps_the_frobenius_sign(self):
        # around the capillary-gravity minimum (k ~ 364) |k| h+ runs to 5000;
        # at k 300 and 1000 Im y*'(0) sits below the rounding of |y*'(0)|,
        # and the rows take the Frobenius route
        p = params_with(h_plus=5.0, sigma=0.074)
        ks = [150.0, 300.0, 1000.0]
        results, errors = growth_constants(TANH, p, ks)
        assert errors == {}
        for k, got in zip(ks, results):
            want, _ = frobenius_c_sharp(TANH, p, k)
            assert want > 0.0 and got.unstable
            assert abs(got.c_sharp - want) <= 1e-8 * want

    def test_sign_hypothesis_warning(self):
        p = params_with(h_plus=2.0)
        with pytest.warns(UserWarning, match="sufficient sign hypotheses"):
            results, errors = growth_constants(convex("analytic"), p,
                                               [1.0, 2.0])
        assert errors == {}
        assert all(r.c_sharp < 0.0 and not r.sufficient_signs_hold
                   for r in results)

    @pytest.mark.parametrize("kind", ["analytic", "table"])
    @pytest.mark.parametrize("call", ["growth_constants", "miles_c_sharp",
                                      "scan_k"])
    def test_sign_hypothesis_warning_names_the_caller(self, call, kind):
        p = params_with(h_plus=2.0)
        with pytest.warns(UserWarning,
                          match="sufficient sign hypotheses") as record:
            if call == "growth_constants":
                results, errors = growth_constants(convex(kind), p, [1.0])
                assert errors == {} and results[0].c_sharp < 0.0
            elif call == "miles_c_sharp":
                assert miles_c_sharp(convex(kind), p, 1.0).c_sharp < 0.0
            else:
                scan_k(convex(kind), p, [1.0])
        assert [w.filename for w in record] == [__file__]

    def test_band_edge_in_one_batch(self):
        # c_k = U(h+) at k* = g / U(h+)^2: just below k* c_k leaves the
        # range of U, just above it the one layer near the top is unstable
        p = params_with(h_plus=5.0)
        k_star = p.g / TANH.value(5.0) ** 2
        results, errors = growth_constants(
            TANH, p, [k_star * (1.0 - 1e-2), k_star * (1.0 + 1e-2)])
        assert list(errors) == [0] and isinstance(errors[0], NoCriticalLayer)
        assert results[0] is None and results[1].c_sharp > 0.0

    def test_surface_tension_closes_both_ends(self):
        # with surface tension c_k^2 = g/k + sigma k / rho- returns above
        # U(h+) at large k: both roots of c_k = U(h+) end the unstable band;
        # a thin column keeps the large-k solves affordable
        p = params_with(sigma=50.0, h_plus=0.25)
        thin = TanhProfile(10.0, 0.05, 0.25)
        a, b = p.sigma / p.rho_minus, thin.value(0.25) ** 2
        root = math.sqrt(b * b - 4.0 * a * p.g)
        k_lo, k_hi = (b - root) / (2.0 * a), (b + root) / (2.0 * a)
        assert k_lo == pytest.approx(9.8 / 100.0, rel=1e-2)
        ks = [k_lo * (1.0 - 1e-2), k_lo * (1.0 + 1e-2), 100.0,
              k_hi * (1.0 + 1e-2)]
        results, errors = growth_constants(thin, p, ks)
        assert list(errors) == [0, 3]
        assert all(isinstance(exc, NoCriticalLayer) for exc in errors.values())
        assert results[1].c_sharp > 0.0 and results[2].c_sharp > 0.0

    def test_impedance_comes_from_the_route_of_c_sharp(self):
        # bit for bit: the path's limit at c_k + i0 on a one-layer row, the
        # Frobenius solve on a two-layer row, the closed form on a ramp
        p = params_with(h_plus=5.0)
        got, _ = growth_constants(TANH, p, [0.5, 1.5])
        for asym in got:
            want, _ = impedance_outcomes(TANH, asym.k, [asym.c_k],
                                         sign_ci=+1)
            assert asym.impedance == complex(want[0])
        with pytest.warns(UserWarning, match="sufficient sign hypotheses"):
            asym = miles_c_sharp(JET48, p, 1.0, tol=1e-12)
        assert len(asym.layers) == 2
        want = limiting_solution(JET48, 1.0, asym.c_k, +1, 1e-12)
        assert asym.impedance == want.impedance
        ramp = PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=5.0)
        asym = miles_c_sharp(ramp, p, 1.0)
        want = limiting_solution(ramp, 1.0, asym.c_k, +1)
        assert want.n_steps == 0 and asym.impedance == want.impedance
        assert asym.impedance == pytest.approx(
            pwl_impedance_cascade(ramp, 1.0, asym.c_k), rel=1e-14)

    def test_meshes_are_set_on_path_rows(self):
        # k 0.05 has no layer; the others take the path.  Each path mesh,
        # passed back in, starts a shoot that meets the same tolerance
        p = params_with(h_plus=5.0)
        meshes = [None] * len(self.KS)
        results, errors = growth_constants(TANH, p, self.KS, meshes=meshes)
        assert list(errors) == [0] and meshes[0] is None
        assert all(mesh is not None for mesh in meshes[1:])
        again, _ = growth_constants(TANH, p, self.KS, meshes=meshes)
        for got, want in zip(again[1:], results[1:]):
            assert abs(got.c_sharp - want.c_sharp) <= 1e-8 * want.c_sharp
        # the Frobenius and the closed-form routes shoot no path
        for profile in (JET48, PiecewiseLinearProfile.ramp(10.0, 1.0,
                                                           h_plus=5.0)):
            meshes = ["stale"] * 2
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                results, errors = growth_constants(profile, p, [1.0, 2.0],
                                                   meshes=meshes)
            assert errors == {} and meshes == [None, None]


class TestNecessityCertificate:
    def test_zero_offaxis_roots_for_slow_wind(self):
        p = params_with(h_plus=5.0)
        slow = TanhProfile(1.5, 1.0, 5.0)  # max U < 0.5 c_k at k = 1
        c_k = ck(p, 1.0)
        margin = c_k - 1.5 * math.tanh(5.0)
        cert = necessity_certificate(slow, p, 1.0, epsilon=1e-3,
                                     search_radius=0.25 * margin)
        assert cert.count_upper == 0
        assert cert.count_lower == 0
        assert cert.certified_stable_near_ck
        assert cert.margin == pytest.approx(margin, rel=1e-6)

    def test_radius_precondition(self):
        p = params_with(h_plus=5.0)
        slow = TanhProfile(1.5, 1.0, 5.0)
        with pytest.raises(HypothesisViolated):
            necessity_certificate(slow, p, 1.0, 1e-3, search_radius=2.0)

    def test_ck_in_range_rejected(self):
        p = params_with(h_plus=5.0)
        with pytest.raises(HypothesisViolated):
            necessity_certificate(TANH, p, 1.0, 1e-3, search_radius=0.1)


class TestLayerBesideAKnot:
    """A bump of Lin's path cannot cross a knot, so the path passes a layer
    1e-9 above one within 2.8e-10 of the singularity, and that pair fails
    alone.  ROADMAP item H turns this row into a Frobenius fallback."""

    def test_path_pair_fails_alone(self):
        imps, errors = impedance_outcomes(TANH48, [1.0, 1.3],
                                          [BESIDE_KNOT, 2.0], sign_ci=+1)
        assert list(errors) == [0] and np.isnan(imps[0])
        assert isinstance(errors[0], NearSingularCoefficient)
        assert str(errors[0]) == "min |U - c| = 2.75886e-10 along the path"
        alone, _ = impedance_outcomes(TANH48, 1.3, [2.0], sign_ci=+1)
        assert imps[1:].view(float).tolist() == alone.view(float).tolist()

    def test_growth_constant_row_fails_alone(self):
        p = params_with(h_plus=5.0)
        k_star = p.g / BESIDE_KNOT ** 2
        assert ck(p, k_star) == BESIDE_KNOT
        meshes = [None] * 3
        results, errors = growth_constants(TANH48, p, [0.5, k_star, 2.0],
                                           meshes=meshes)
        assert list(errors) == [1] and results[1] is None
        assert isinstance(errors[1], NearSingularCoefficient)
        assert [mesh is None for mesh in meshes] == [False, True, False]
        for i, k in ((0, 0.5), (2, 2.0)):
            alone, none = growth_constants(TANH48, p, [k])
            assert none == {} and repr(results[i]) == repr(alone[0])
