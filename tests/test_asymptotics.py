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
        p = params_with(h_plus=prof.h_plus)
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
        p = params_with(h_plus=prof.h_plus)
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

    def test_air_column_mismatch_raises_before_any_shoot(self, monkeypatch):
        # the growth constants, and the sweep they seed, refuse a profile on
        # another air column than the fluids' before the kernel runs
        from windwaves import rayleigh

        def kernel(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(rayleigh, "_integrate", kernel)
        p = params_with(h_plus=3.0)
        message = "air depth mismatch: params.h_plus=3.0 vs profile.h_plus=5.0"
        for call in (lambda: growth_constants(TANH, p, [0.3, 1.0]),
                     lambda: miles_c_sharp(TANH, p, 1.0),
                     lambda: scan_k(TANH, p, [1.0])):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

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
        scanned, _ = rayleigh.impedance_outcomes(
            TANH, ks, [got.c_k for got in results], sign_ci=+1)
        assert len(scans) == 2 * len(ks)
        assert [got.impedance for got in results] == scanned.tolist()

    def test_two_layers_take_the_path(self):
        # the jumps of W on the real axis between the bumps give each
        # layer's u1
        p = params_with(h_plus=5.0)
        with pytest.warns(UserWarning, match="sufficient sign hypotheses"):
            results, errors = growth_constants(JET48, p, [1.0])
            want = miles_c_sharp(JET48, p, 1.0)
        assert errors == {}
        assert len(results[0].layers) == 2
        assert results[0] == want
        for got, u1 in zip(want.layers, frobenius_c_sharp(JET48, p, 1.0)[1]):
            assert got.u1 == pytest.approx(u1, rel=1e-8)

    @pytest.mark.filterwarnings("ignore:sufficient sign hypotheses")
    def test_two_layer_rows_match_frobenius(self):
        # jet48 and the nine-knot sine jet, every layer >= 1e-3 from a knot
        p = params_with(h_plus=5.0)
        x9 = np.linspace(0.0, 5.0, 9)
        sine = TabulatedProfile(x9, 10.0 * np.sin(0.9 * np.pi * x9 / 5.0))
        checked = 0
        for profile, knots, ks in ((JET48, X48, np.linspace(0.3, 2.2, 14)),
                                   (sine, x9, np.linspace(0.15, 0.95, 12))):
            results, errors = growth_constants(profile, p, ks.tolist())
            assert errors == {}
            for k, got in zip(ks, results):
                gap = min(abs(layer.position - x) for layer in got.layers
                          for x in knots)
                if len(got.layers) != 2 or gap < 1e-3:
                    continue
                want, u1s = frobenius_c_sharp(profile, p, k)
                assert abs(got.c_sharp - want) <= 1e-9 * abs(want)
                for layer, u1 in zip(got.layers, u1s):
                    assert abs(layer.u1 - u1) <= 1e-8 * u1
                checked += 1
        assert checked >= 20

    @pytest.mark.filterwarnings("ignore:sufficient sign hypotheses")
    def test_limiting_solution_only_where_the_path_does_not_resolve(
            self, monkeypatch):
        # every row with a layer enters the one path batch; on jet48 the
        # upper layer's term falls below the path's resolution near k 2.3,
        # and only those rows, and every row of a profile without
        # complex_path, call limiting_solution
        from windwaves import asymptotics

        batches, limits = [], []
        jumps, limit = asymptotics._layer_jumps, asymptotics.limiting_solution

        def batched(profile, ks, *args):
            batches.append(list(ks))
            return jumps(profile, ks, *args)

        def limited(profile, k, *args, **kwargs):
            limits.append(k)
            return limit(profile, k, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "_layer_jumps", batched)
        monkeypatch.setattr(asymptotics, "limiting_solution", limited)
        p = params_with(h_plus=5.0)
        ks = [0.1, 0.5, 1.0, 2.0, 2.4, 2.6, 3.0]  # k 0.1: no layer
        results, errors = growth_constants(JET48, p, ks)
        assert list(errors) == [0]
        assert batches == [ks[1:]] and limits == [2.4, 2.6, 3.0]
        for k, got in zip(ks[4:], results[4:]):
            assert [l.u1 for l in got.layers] == \
                frobenius_c_sharp(JET48, p, k)[1]
        batches.clear(), limits.clear()
        with pytest.warns(UserWarning, match="sufficient sign hypotheses"):
            growth_constants(convex("analytic"), params_with(h_plus=2.0),
                             [1.0, 2.0])
        assert batches == [] and limits == [1.0, 2.0]

    def test_capillary_u1_below_the_float_range_of_its_factors(self):
        # on a thin column at k 1979.5, |y(s)/y(0)|^2 ~ 3e-257 while the
        # node's scale over the interface's, squared, and over |y(0)|^2 is
        # ~2e-423; the term stays on Frobenius, below the path's resolution.
        # u1 ~ e^(-2 |k| s), the interface's decaying solution at the layer
        p = params_with(sigma=50.0, h_plus=0.25)
        thin = TanhProfile(10.0, 0.05, 0.25)
        ks = [1500.0, 1800.0, 1979.5]
        results, errors = growth_constants(thin, p, ks)
        assert errors == {}
        got = results[-1]
        assert got.layers[0].u1 > 0.0 and got.c_sharp > 0.0 and got.unstable

        def defect(asym):
            layer = asym.layers[0]
            return abs(-math.log(layer.u1) / (2.0 * asym.k * layer.position)
                       - 1.0)

        assert defect(got) <= max(defect(r) for r in results[:-1])

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
        # bit for bit: the path's limit at c_k + i0 on a resolved row, one
        # layer or two, the Frobenius solve on an unresolved row, the closed
        # form on a ramp; one layer's u1 is -Im y*'(0) |U'| / (pi U'')
        p = params_with(h_plus=5.0)
        got, _ = growth_constants(TANH, p, [0.5, 1.5])
        for asym in got:
            want, _ = impedance_outcomes(TANH, asym.k, [asym.c_k],
                                         sign_ci=+1)
            assert asym.impedance == complex(want[0])
            layer = asym.layers[0]
            assert layer.u1 == -want[0].imag * abs(layer.u_prime) / (
                math.pi * layer.u_double_prime)
        with pytest.warns(UserWarning, match="sufficient sign hypotheses"):
            asym = miles_c_sharp(JET48, p, 1.0, tol=1e-12)
            far = miles_c_sharp(JET48, p, 2.6)
        assert len(asym.layers) == len(far.layers) == 2
        want, _ = impedance_outcomes(JET48, 1.0, [asym.c_k], 1e-12,
                                     sign_ci=+1)
        assert asym.impedance == complex(want[0])
        want = limiting_solution(JET48, 2.6, far.c_k, +1)
        assert far.impedance == want.impedance
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
        # jet48's rows take the path, one of them (k 2.6) only to fall back
        # to Frobenius; the closed form shoots no path
        meshes = [None] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            results, errors = growth_constants(JET48, p, [1.0, 2.6],
                                               meshes=meshes)
        assert errors == {} and all(mesh is not None for mesh in meshes)
        meshes = ["stale"] * 2
        results, errors = growth_constants(
            PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=5.0), p, [1.0, 2.0],
            meshes=meshes)
        assert errors == {} and meshes == [None, None]


class TestFirstOrderTerm:
    """c = c_k + eps c_1 + o(eps), with Im c_1 = c_sharp (Miles 1957)."""

    X200 = np.linspace(0.0, 5.0, 200)

    @pytest.mark.filterwarnings("ignore:sufficient sign hypotheses")
    @pytest.mark.parametrize("prof, k, fluids", [
        (TANH, 1.0, dict(sigma=0.074, h_minus=1.0)),
        # U(0) = 2: a vortex sheet at the interface
        (TabulatedProfile(X200, 2.0 + 8.0 * np.tanh(X200)), 0.8, {}),
        (JET48, 1.5, {}),  # two layers, c_sharp > 0
    ], ids=["tanh", "sheet200", "jet48"])
    def test_error_is_second_order_in_eps(self, prof, k, fluids):
        # |c - predicted_c(eps)| / (eps |c|) falls 10x per decade of eps
        from windwaves.dispersion import make_miles_residual
        from windwaves.eigensolver import find_root

        asym = miles_c_sharp(prof, params_with(h_plus=5.0, **fluids), k,
                             tol=1e-12)
        assert asym.c_sharp > 0.0
        errs = []
        for eps in (1.2e-3, 1.2e-4, 1.2e-5):
            p = params_with(rho_plus=eps * 1000.0, h_plus=5.0, **fluids)
            seed = asym.predicted_c(eps)
            assert seed == asym.c_k + eps * asym.c1
            root = find_root(make_miles_residual(prof, p, k, tol=1e-12), seed,
                             tol=1e-13, scale=p.g, k=k).c
            errs.append(abs(root - seed) / (eps * abs(root)))
        assert errs[0] < 1e-2
        for big, small in zip(errs, errs[1:]):
            assert 0.05 < small / big < 0.2, errs

    @pytest.mark.filterwarnings("ignore:sufficient sign hypotheses")
    @pytest.mark.parametrize("prof, k, route", [
        (TANH, 1.0, "path"),
        (JET48, 1.5, "path"),  # two layers
        (JET48, 2.6, "frobenius"),  # two layers the path does not resolve
        (convex("analytic"), 1.0, "frobenius"),
    ], ids=["tanh", "jet48-path", "jet48-frobenius", "analytic"])
    def test_imaginary_part_is_c_sharp(self, prof, k, route):
        # the sum of the layer terms against f_I0 Im y*'(0)
        p = params_with(h_plus=prof.h_plus)
        asym = miles_c_sharp(prof, p, k)
        if route == "path":
            want, _ = impedance_outcomes(prof, k, [asym.c_k], sign_ci=+1)
            assert asym.impedance == complex(want[0])
        else:
            want = limiting_solution(prof, k, asym.c_k, +1)
            assert asym.impedance == want.impedance
        assert asym.c_sharp != 0.0
        assert abs(asym.c1.imag - asym.c_sharp) <= 1e-10 * abs(asym.c_sharp)


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
    alone; its growth constant falls back to Frobenius."""

    def test_path_pair_fails_alone(self):
        imps, errors = impedance_outcomes(TANH48, [1.0, 1.3],
                                          [BESIDE_KNOT, 2.0], sign_ci=+1)
        assert list(errors) == [0] and np.isnan(imps[0])
        assert isinstance(errors[0], NearSingularCoefficient)
        assert str(errors[0]) == "min |U - c| = 2.75886e-10 along the path"
        alone, _ = impedance_outcomes(TANH48, 1.3, [2.0], sign_ci=+1)
        assert imps[1:].view(float).tolist() == alone.view(float).tolist()

    def test_growth_constant_row_falls_back_alone(self):
        p = params_with(h_plus=5.0)
        k_star = p.g / BESIDE_KNOT ** 2
        assert ck(p, k_star) == BESIDE_KNOT
        meshes = [None] * 3
        results, errors = growth_constants(TANH48, p, [0.5, k_star, 2.0],
                                           meshes=meshes)
        assert errors == {}
        assert [mesh is None for mesh in meshes] == [False, True, False]
        want = limiting_solution(TANH48, k_star, BESIDE_KNOT, +1)
        assert results[1].impedance == want.impedance
        assert [l.u1 for l in results[1].layers] == \
            [jump.u1 for jump in want.jumps]
        for i, k in ((0, 0.5), (2, 2.0)):
            alone, none = growth_constants(TANH48, p, [k])
            assert none == {} and repr(results[i]) == repr(alone[0])
