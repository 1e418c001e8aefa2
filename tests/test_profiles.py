import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windwaves import rayleigh
from windwaves.dispersion import FluidParams
from windwaves.eigensolver import scan_k
from windwaves.errors import DegenerateShear, EndpointCritical, OutOfDomain
from windwaves.profiles import (
    AnalyticProfile,
    ConstantProfile,
    LinearShearProfile,
    PiecewiseLinearProfile,
    ShearProfile,
    TabulatedProfile,
    TanhProfile,
    _not_a_knot,
    find_critical_points,
    load_tabulated,
)

from oracles import bisect_root, spline_extremes


def parabola_profile(h=2.0):
    # U = 4 x (1 - x/2): zero at both ends, maximum 2 at x = 1
    return AnalyticProfile(
        f=lambda x: 4.0 * x * (1.0 - 0.5 * x),
        df=lambda x: 4.0 - 4.0 * x,
        d2f=lambda x: -4.0,
        d3f=lambda x: 0.0,
        d4f=lambda x: 0.0,
        h_plus=h,
        name="parabola",
    )


class TestEvaluate:
    def test_constant(self):
        assert ConstantProfile(5.0).value(0.3) == 5.0

    def test_linear_slope(self):
        assert LinearShearProfile(0.0, 2.0).slope(0.7) == 2.0

    def test_tanh_curvature_at_origin(self):
        assert TanhProfile(10.0, 1.0, 5.0).curvature(0.0) == 0.0

    def test_out_of_domain(self):
        prof = TanhProfile(10.0, 1.0, 5.0)
        for method in (prof.value, prof.slope, prof.curvature):
            with pytest.raises(OutOfDomain):
                method(5.5)
            with pytest.raises(OutOfDomain):
                method(-0.1)

    def test_pwl_curvature_is_zero_inside_the_pieces(self):
        # U'' of a piecewise-linear wind is its kinks' point masses alone
        pwl = PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, -1.0],
                                     h_plus=4.2)
        assert pwl.zero_curvature
        assert pwl.curvature(0.5) == 0.0 and type(pwl.curvature(0.5)) is float
        xs = np.array([0.0, 0.5, 1.7, 3.0, 4.2])
        assert pwl.curvature(xs).tolist() == [0.0] * xs.size


class TestDerivatives:
    def test_tanh_derivatives_match_finite_differences(self):
        prof = TanhProfile(10.0, 0.7, 5.0)
        h = 1e-4  # second differences lose ~eps/h^2 to roundoff
        for x in (0.3, 1.1, 2.4):
            fd1 = (prof.value(x + h) - prof.value(x - h)) / (2 * h)
            fd2 = (prof.value(x + h) - 2 * prof.value(x) + prof.value(x - h)) / h**2
            fd3 = (prof.slope(x + h) - 2 * prof.slope(x) + prof.slope(x - h)) / h**2
            fd4 = (prof.curvature(x + h) - 2 * prof.curvature(x)
                   + prof.curvature(x - h)) / h**2
            assert prof.slope(x) == pytest.approx(fd1, rel=1e-7)
            assert prof.curvature(x) == pytest.approx(fd2, rel=1e-6, abs=1e-7)
            assert prof.derivative3(x) == pytest.approx(fd3, rel=1e-6, abs=1e-7)
            assert prof.derivative4(x) == pytest.approx(fd4, rel=1e-5, abs=1e-5)

    def test_generic_fd_fallback(self):
        prof = AnalyticProfile(
            f=lambda x: math.sin(x),
            df=lambda x: math.cos(x),
            d2f=lambda x: -math.sin(x),
            h_plus=3.0,
        )
        assert prof.derivative3(1.0) == pytest.approx(-math.cos(1.0), rel=1e-6)
        assert prof.derivative4(1.0) == pytest.approx(math.sin(1.0), rel=1e-4, abs=1e-5)


class TestPiecewiseLinear:
    def test_ramp_values(self):
        pwl = PiecewiseLinearProfile.ramp(2.0, 1.5, h_plus=math.inf)
        assert pwl.value(0.0) == 0.0
        assert pwl.value(1.0) == 2.0
        assert pwl.value(1.5) == 3.0
        assert pwl.value(10.0) == 3.0
        assert pwl.slope(0.2) == 2.0
        assert pwl.slope(2.0) == 0.0
        assert pwl.kinks() == [(1.5, -2.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearProfile([0.5], [1.0])
        with pytest.raises(ValueError):
            PiecewiseLinearProfile([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            PiecewiseLinearProfile([0.0, 2.0], [1.0, 0.0], h_plus=2.0)


class TestTabulated:
    def test_reproduces_nodes_and_is_c2(self):
        xs = np.linspace(0.0, 5.0, 17)
        us = 10.0 * np.tanh(xs)
        prof = TabulatedProfile(xs, us)
        for x, u in zip(xs, us):
            assert prof.value(float(x)) == pytest.approx(float(u), abs=1e-13)
        # second derivative continuous across interior nodes
        eps = 1e-7
        for x in xs[1:-1]:
            left = prof.curvature(float(x) - eps)
            right = prof.curvature(float(x) + eps)
            assert left == pytest.approx(right, abs=1e-4)

    def test_requires_four_samples(self):
        with pytest.raises(ValueError):
            TabulatedProfile([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            TabulatedProfile([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n, jitter", [(n, jitter) for n in (4, 5, 16, 64)
                                           for jitter in (0.0, 0.4)]
                             + [(2000, 0.4)])
    def test_matches_scipy_cubic_spline(self, n, jitter):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(n)
        xs = np.linspace(0.0, 5.0, n)
        xs[1:-1] += jitter * xs[1] * rng.uniform(-1.0, 1.0, n - 2)
        us = 10.0 * np.tanh(xs) + 0.1 * rng.standard_normal(n)
        prof = TabulatedProfile(xs, us)
        ref = CubicSpline(xs, us, bc_type="not-a-knot")
        # the knots, h_plus among them, and a grid between
        at = np.sort(np.concatenate((xs, np.linspace(0.0, 5.0, 1000)[1:-1])))
        got = (prof.value(at), [prof.slope(x) for x in at.tolist()],
               prof.curvature(at), [prof.derivative3(x) for x in at.tolist()])
        for order, values in enumerate(got):
            want = ref(at, order)
            err = np.max(np.abs(np.asarray(values) - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (order, err)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "wind.txt"
        path.write_text(
            "# altitude [m]   speed [m/s]\n"
            "0.0  0.0\n"
            "1.0  4.0   # inline comment\n"
            "2.0  6.0\n"
            "3.0  7.0\n"
            "4.5  7.5\n"
        )
        prof = load_tabulated(path)
        assert prof.h_plus == 4.5
        assert prof.value(2.0) == pytest.approx(6.0, abs=1e-12)

    def test_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 2 3\n2 4\n3 5\n")
        with pytest.raises(ValueError):
            load_tabulated(path)


class TestCriticalPoints:
    def test_nan_speed_refused(self):
        with pytest.raises(ValueError) as exc:
            find_critical_points(TanhProfile(10.0, 1.0, 5.0), math.nan)
        assert str(exc.value) == "c_r must be finite"

    def test_tanh_single_layer(self):
        prof = TanhProfile(10.0, 1.0, 5.0)
        target = 10.0 * math.tanh(1.0)
        layers = find_critical_points(prof, target)
        assert len(layers) == 1
        assert layers[0].position == pytest.approx(1.0, abs=1e-10)

    def test_linear_out_of_range(self):
        prof = LinearShearProfile(0.0, 2.0, h_plus=3.0)
        assert len(find_critical_points(prof, 7.0)) == 0

    def test_parabola_two_layers_vs_bisection_oracle(self):
        prof = parabola_profile()
        c_r = 1.5
        f = lambda x: 4.0 * x * (1.0 - 0.5 * x) - c_r
        s1 = bisect_root(f, 0.0, 1.0)
        s2 = bisect_root(f, 1.0, 2.0)
        layers = find_critical_points(prof, c_r)
        assert len(layers) == 2
        assert layers[0].position == pytest.approx(s1, abs=1e-12)
        assert layers[1].position == pytest.approx(s2, abs=1e-12)
        assert layers[0].u_prime == pytest.approx(4.0 - 4.0 * s1, rel=1e-10)
        assert layers[1].u_double_prime == -4.0

    def test_endpoint_critical(self):
        prof = TanhProfile(10.0, 1.0, 5.0)
        with pytest.raises(EndpointCritical):
            find_critical_points(prof, 0.0)
        with pytest.raises(EndpointCritical):
            find_critical_points(prof, 10.0 * math.tanh(5.0))

    def test_degenerate_at_parabola_max(self):
        with pytest.raises(DegenerateShear):
            find_critical_points(parabola_profile(), 2.0)

    def test_constant_profile_cases(self):
        assert len(find_critical_points(ConstantProfile(5.0), 7.0)) == 0
        with pytest.raises(DegenerateShear):
            find_critical_points(ConstantProfile(5.0), 5.0)

    def test_unbounded_linear(self):
        prof = LinearShearProfile(1.0, 2.0)
        layers = find_critical_points(prof, 7.0)
        assert tuple(layer.position for layer in layers) == (3.0,)

    @pytest.mark.parametrize("mu, c_r", [(0.0, 2.0), (2.0, 0.5)],
                             ids=["no-shear", "below-the-interface"])
    def test_unbounded_linear_without_layer(self, mu, c_r):
        # U = 1 + mu x2 on [0, inf) meets 2.0 nowhere, and 0.5 at x2 < 0
        assert len(find_critical_points(LinearShearProfile(1.0, mu), c_r)) == 0

    def test_unbounded_linear_degenerate_and_endpoint(self):
        with pytest.raises(DegenerateShear):
            find_critical_points(LinearShearProfile(1.0, 0.0), 1.0)
        # the layer at x2 = 5e-13 sits on the interface
        with pytest.raises(EndpointCritical):
            find_critical_points(LinearShearProfile(1.0, 2.0), 1.0 + 1e-12)

    def test_unbounded_zero_curvature_subclass_from_its_pieces(self):
        # a user's zero-curvature wind on [0, inf): U = 2 x2 up to its kink
        # at 1, then 1.5 + x2/2 on to infinity; its layers come from its
        # pieces, the top one's by Newton from the kink
        class Bent(ShearProfile):
            zero_curvature = True

            def value(self, x2):
                return np.minimum(2.0 * x2, 1.5 + 0.5 * x2)

            def slope(self, x2):
                return 2.0 if x2 < 1.0 else 0.5

            def curvature(self, x2):
                return 0.0 * x2

            def kinks(self):
                return [(1.0, -1.5)]

        for c_r, s in ((1.0, 0.5), (5.0, 7.0), (2.0 + 1e-9, 1.0 + 2e-9)):
            (layer,) = find_critical_points(Bent(), c_r)
            assert layer.position == pytest.approx(s, rel=1e-14)
            assert layer.u_double_prime == 0.0
        assert find_critical_points(Bent(), -1.0) == ()

    def test_unbounded_ramp(self):
        # U = 10 x2 up to the kink at 1, uniform above
        ramp = PiecewiseLinearProfile.ramp(10.0, 1.0)
        (layer,) = find_critical_points(ramp, 3.0)
        assert (layer.position, layer.u_prime) == (0.3, 10.0)
        assert find_critical_points(ramp, 11.0) == ()
        with pytest.raises(DegenerateShear, match="unbounded top piece"):
            find_critical_points(ramp, 10.0)
        with pytest.raises(EndpointCritical):
            find_critical_points(ramp, 1e-12)

    @given(
        u_max=st.floats(2.0, 50.0),
        d=st.floats(0.3, 3.0),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_layer_tolerance_invariant(self, u_max, d, frac):
        prof = TanhProfile(u_max, d, 5.0)
        c_r = frac * u_max * math.tanh(5.0 / d)
        try:
            layers = find_critical_points(prof, c_r)
        except (EndpointCritical, DegenerateShear):
            return
        for layer in layers:
            assert abs(prof.value(layer.position) - c_r) <= 1e-12 * max(1.0, abs(c_r))

    def test_roots_sorted_distinct(self):
        prof = parabola_profile()
        layers = find_critical_points(prof, 1.0)
        pos = tuple(layer.position for layer in layers)
        assert list(pos) == sorted(pos)
        assert all(b - a > 2.0 / 4096 for a, b in zip(pos, pos[1:]))


class ScalarGrid(ShearProfile):
    """A profile that answers an array of altitudes one float at a time."""

    def __init__(self, inner):
        self.inner = inner
        self.h_plus = inner.h_plus

    def value(self, x2):
        if isinstance(x2, np.ndarray):
            return np.array([self.inner.value(float(x)) for x in x2])
        return self.inner.value(x2)

    def slope(self, x2):
        return self.inner.slope(x2)

    def curvature(self, x2):
        return self.inner.curvature(x2)

    def path_layers(self, c_r):
        return self.inner.path_layers(c_r)


TABLE = TabulatedProfile(np.linspace(0.0, 5.0, 16),
                         10.0 * np.tanh(np.linspace(0.0, 5.0, 16)))
ARRAY_CASES = {
    "tanh": (TanhProfile(10.0, 1.0, 5.0), [1.0, 6.0, 9.5]),
    "table": (TABLE, [1.0, 6.0, 9.5]),
    "analytic": (parabola_profile(), [0.5, 1.5, 1.9]),
    "linear": (LinearShearProfile(1.0, 2.0, h_plus=3.0), [1.5, 4.0, 6.5]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_array_scan_matches_scalar_grid(name):
    prof, targets = ARRAY_CASES[name]
    for c_r in targets:
        got = find_critical_points(prof, c_r)
        want = find_critical_points(ScalarGrid(prof), c_r)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert abs(a.position - b.position) <= 1e-12
            assert a.u_prime == b.u_prime


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_array_evaluation_matches_scalar(name):
    prof, _ = ARRAY_CASES[name]
    xs = np.linspace(0.0, prof.h_plus, 37).reshape(37, 1) * np.ones(2)
    for method in (prof.value, prof.curvature):
        got = method(xs)
        assert got.shape == xs.shape
        want = [[method(float(x)) for x in row] for row in xs]
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
        assert type(method(1.0)) is float


def test_pwl_and_constant_array_evaluation():
    ramp = PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, 0.0], h_plus=4.0)
    xs = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 4.0])
    assert ramp.value(xs).tolist() == [ramp.value(float(x)) for x in xs]
    assert ConstantProfile(5.0).value(xs).tolist() == [5.0] * xs.size
    assert ConstantProfile(5.0).curvature(xs).tolist() == [0.0] * xs.size
    with pytest.raises(OutOfDomain):
        ramp.value(np.array([1.0, 4.5]))


def jet_table():
    """Nine knots of 10 sin(0.9 pi x / 5) on [0, 5]: one interior maximum,
    9.9995507187 at x2 2.77755, between the knots 2.5 and 3.125."""
    xs = np.linspace(0.0, 5.0, 9)
    return TabulatedProfile(xs, 10.0 * np.sin(0.9 * np.pi * xs / 5.0))


def oracle_roots(prof, c_r, n=20001):
    """Every root of U - c_r bracketed on a uniform grid of n points, by
    bisection."""
    xs = np.linspace(0.0, prof.h_plus, n)
    fs = prof.value(xs) - c_r
    f = lambda x: prof.value(x) - c_r
    cells = np.flatnonzero((fs[:-1] < 0.0) != (fs[1:] < 0.0)).tolist()
    return [bisect_root(f, float(xs[i]), float(xs[i + 1])) for i in cells]


def root_tol(c_r, u_prime):
    """1e-12, plus twice the width ulp(c_r) / |U'| over which the computed
    U - c_r can be zero: no finder that evaluates U in double precision
    places a root better than that, nor does the bisection oracle."""
    return 1e-12 + 2.0 * np.finfo(float).eps * abs(c_r) / abs(u_prime)


_X48 = np.linspace(0.0, 5.0, 48)
FINDER_CASES = {
    "tanh": TanhProfile(10.0, 1.0, 5.0),
    "table48": TabulatedProfile(_X48, 8.0 * math.e * _X48 * np.exp(-_X48)),
    "jet_table": jet_table(),
    "parabola": parabola_profile(),
    "ramp": PiecewiseLinearProfile.ramp(2.0, 1.0, h_plus=4.0),
    "pwl": PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, -1.0], h_plus=4.2),
}


class TestOneFinder:
    """``path_layers`` is the one critical-layer finder, and
    ``find_critical_points`` validates what it returns."""

    @pytest.mark.parametrize("name", sorted(FINDER_CASES))
    def test_positions_are_path_layers_and_match_bisection(self, name):
        prof = FINDER_CASES[name]
        umin, umax = prof.u_bounds()
        for c_r in np.linspace(umin, umax, 25)[1:-1].tolist():
            layers = find_critical_points(prof, c_r)
            assert [(l.position, l.u_prime) for l in layers] == \
                list(prof.path_layers(c_r))
            want = oracle_roots(prof, c_r)
            assert len(layers) == len(want) > 0
            for layer, s in zip(layers, want):
                assert abs(layer.position - s) <= root_tol(c_r, layer.u_prime)

    @pytest.mark.parametrize("gap", [1e-8, 1e-10])
    def test_two_layers_just_below_a_table_maximum(self, gap):
        prof = jet_table()
        c_r = spline_extremes(prof)[1] - gap
        layers = find_critical_points(prof, c_r)
        assert len(layers) == 2
        peak = 2.7775503577428085
        f = lambda x: prof.value(x) - c_r
        for layer, (a, b) in zip(layers, [(2.5, peak), (peak, 3.125)]):
            s = bisect_root(f, a, b)
            assert abs(layer.position - s) <= root_tol(c_r, layer.u_prime)

    def test_degenerate_at_the_exact_table_maximum(self):
        prof = jet_table()
        with pytest.raises(DegenerateShear):
            find_critical_points(prof, spline_extremes(prof)[1])

    def test_tanh_evaluates_a_handful_of_altitudes(self, monkeypatch):
        seen = []
        for name in ("value", "slope"):
            method = getattr(TanhProfile, name)

            def counted(self, x2, method=method):
                seen.append(np.size(x2))
                return method(self, x2)

            monkeypatch.setattr(TanhProfile, name, counted)
        layers = find_critical_points(TanhProfile(10.0, 1.0, 5.0), 7.0)
        assert len(layers) == 1
        assert 0 < sum(seen) <= 16

    def test_default_grid_evaluated_once_per_profile(self):
        calls = []

        def jet(x):  # 8 t e^(1 - t): peak 8 at t = 1
            calls.append(x)
            return 8.0 * x * math.exp(1.0 - x)

        prof = AnalyticProfile(
            f=jet, df=lambda x: 8.0 * (1.0 - x) * math.exp(1.0 - x),
            d2f=lambda x: 8.0 * (x - 2.0) * math.exp(1.0 - x), h_plus=4.0)
        first = find_critical_points(prof, 5.0)
        assert len(first) == 2
        assert find_critical_points(prof, 5.0) == first
        # one default grid of 4097 altitudes, and the polish's few
        assert len(calls) <= 4097 + 64

    @pytest.mark.parametrize("name", ["table48", "jet_table"])
    def test_table_bounds_are_the_spline_extremes(self, name):
        prof = FINDER_CASES[name]
        umin, umax = prof.u_bounds()
        want = spline_extremes(prof)
        assert umin == pytest.approx(want[0], rel=1e-15, abs=1e-15)
        assert umax == pytest.approx(want[1], rel=1e-15)
        us = prof.value(np.linspace(0.0, prof.h_plus, 100001))
        assert umin <= us.min() and us.max() <= umax


def former_pwl(nodes, slopes, u0):
    """U and U' by the former piecewise-linear formulas: node values
    accumulated one segment at a time, and U(node) + slope (x2 - node) on
    the segment found by a scalar scan."""
    vals = [u0]
    for i in range(1, len(nodes)):
        vals.append(vals[-1] + slopes[i - 1] * (nodes[i] - nodes[i - 1]))

    def segment(x):
        i = len(nodes) - 1
        while i > 0 and x < nodes[i]:
            i -= 1
        return i

    def value(x):
        i = segment(x)
        return vals[i] + slopes[i] * (x - nodes[i])

    return value, lambda x: slopes[segment(x)]


def former_spline(xs, us):
    """U and U' of a table by scalar Horner's rule on the not-a-knot
    coefficients, the piece found by a scalar scan of the knots."""
    coef = _not_a_knot(np.asarray(xs, float), np.asarray(us, float)).T.tolist()
    knots = [float(x) for x in xs]

    def piece(x):
        j = 0
        while j < len(coef) - 1 and x >= knots[j + 1]:
            j += 1
        return j

    def value(x):
        j = piece(x)
        a, b, c, d = coef[j]
        t = x - knots[j]
        return ((a * t + b) * t + c) * t + d

    def slope(x):
        j = piece(x)
        a, b, c, _ = coef[j]
        t = x - knots[j]
        return (3.0 * a * t + 2.0 * b) * t + c

    return value, slope


TABLE_XS = [0.0, 0.4, 1.1, 2.0, 3.2, 5.0]
TABLE_US = [0.0, 3.1, 6.0, 7.9, 8.3, 7.0]
#: each piecewise wind, U and U' by its former formulas, and altitudes,
#: its knots among them
PIECEWISE_CASES = {
    "constant": (ConstantProfile(5.0), (lambda x: 5.0, lambda x: 0.0),
                 [0.0, 0.3, 7.0, 1e6]),
    "constant_finite": (ConstantProfile(-1.5, h_plus=3.0),
                        (lambda x: -1.5, lambda x: 0.0), [0.0, 1.7, 3.0]),
    "linear": (LinearShearProfile(1.0, 2.0),
               (lambda x: 1.0 + 2.0 * x, lambda x: 2.0), [0.0, 0.3, 7.0, 1e6]),
    "linear_finite": (LinearShearProfile(0.3, -0.7, h_plus=4.0),
                      (lambda x: 0.3 + -0.7 * x, lambda x: -0.7),
                      [0.0, 0.1, 1.3, 4.0]),
    "pwl": (PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, -1.0], h_plus=4.2),
            former_pwl([0.0, 1.0, 2.5], [3.0, 1.0, -1.0], 0.0),
            [0.0, 0.3, 1.0, 1.7, 2.5, 3.3, 4.2]),
    "ramp": (PiecewiseLinearProfile.ramp(2.0, 1.5),
             former_pwl([0.0, 1.5], [2.0, 0.0], 0.0), [0.0, 0.7, 1.5, 9.0, 1e6]),
    "table": (TabulatedProfile(TABLE_XS, TABLE_US),
              former_spline(TABLE_XS, TABLE_US), TABLE_XS + [0.1, 1.5, 2.7, 4.9]),
}


class TestOnePiecewiseEvaluator:
    @pytest.mark.parametrize("name", sorted(PIECEWISE_CASES))
    def test_values_and_slopes_bit_for_bit(self, name):
        prof, (value, slope), xs = PIECEWISE_CASES[name]
        for x in xs:
            assert type(prof.value(x)) is float and prof.value(x) == value(x)
            assert type(prof.slope(x)) is float and prof.slope(x) == slope(x)
        assert prof.value(np.array(xs)).tolist() == [value(x) for x in xs]
        if prof.zero_curvature:
            assert prof.curvature(0.5) == 0.0 and type(prof.curvature(0.5)) is float
            assert prof.curvature(np.array(xs)).tolist() == [0.0] * len(xs)
        else:
            assert prof.curvature(np.array(xs)).tolist() == [
                prof.curvature(x) for x in xs]

    #: a 40-knot table, a ramp, a linear and a uniform wind on one column
    SCALAR_WINDS = {
        "table": TabulatedProfile(np.linspace(0.0, 5.0, 40),
                                  10.0 * np.tanh(np.linspace(0.0, 5.0, 40))),
        "ramp": PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=5.0),
        "linear": LinearShearProfile(0.3, -0.7, h_plus=5.0),
        "constant": ConstantProfile(-1.5, h_plus=5.0),
    }

    @pytest.mark.parametrize("name", sorted(SCALAR_WINDS))
    def test_float_altitude_is_the_array_element_bit_for_bit(self, name):
        # a float altitude is evaluated in Python floats, an array in numpy
        prof = self.SCALAR_WINDS[name]
        rng = np.random.default_rng(5)
        xs = np.concatenate((np.linspace(0.0, 5.0, 201), prof._knots,
                             rng.uniform(0.0, 5.0, 60)))
        bits = lambda values: [float(v).hex() for v in values]  # noqa: E731
        # U' by the former numpy evaluation of the piece's coefficients
        j = np.searchsorted(prof._knots[1:-1], xs, side="right")
        a, b, c, _ = prof._c[:, j]
        t = xs - prof._knots[j]
        slope = (3.0 * a * t + 2.0 * b) * t + c
        for method, want in ((prof.value, prof.value(xs)),
                             (prof.curvature, prof.curvature(xs)),
                             (prof.slope, slope)):
            got = [method(x) for x in xs.tolist()]
            assert all(type(v) is float for v in got)
            assert bits(got) == bits(want)
        pairs = [prof.value_and_curvature(x) for x in xs.tolist()]
        assert bits(u for u, _ in pairs) == bits(prof.value(xs))

    def test_flags_and_kinks(self):
        for name, (prof, _, _) in PIECEWISE_CASES.items():
            assert prof.zero_curvature == (name != "table")
            assert prof.complex_path == (name == "table")
        assert PIECEWISE_CASES["pwl"][0].kinks() == [(1.0, -2.0), (2.5, -2.0)]
        assert PIECEWISE_CASES["ramp"][0].kinks() == [(1.5, -2.0)]
        for name in ("constant", "linear_finite", "table"):
            assert PIECEWISE_CASES[name][0].kinks() == []

    def test_unbounded_winds_are_bounded_by_their_limits(self):
        assert ConstantProfile(5.0).u_bounds() == (5.0, 5.0)
        assert LinearShearProfile(1.0, 2.0).u_bounds() == (1.0, math.inf)
        assert LinearShearProfile(1.0, -2.0).u_bounds() == (-math.inf, 1.0)
        assert PiecewiseLinearProfile.ramp(2.0, 5.0).u_bounds() == (0.0, 10.0)

    def test_uniform_and_linear_winds_check_their_column(self):
        with pytest.raises(ValueError):
            ConstantProfile(5.0, h_plus=0.0)
        with pytest.raises(ValueError):
            LinearShearProfile(0.0, 2.0, h_plus=-2.0)
        with pytest.raises(OutOfDomain):
            LinearShearProfile(0.0, 2.0, h_plus=3.0).value(3.5)


class TestCollinearTable:
    """Samples on one line make a zero-curvature table: the constant-shear
    wind's closed form answers it."""

    TABLE = TabulatedProfile([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                             [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])

    def test_is_zero_curvature(self):
        assert self.TABLE.zero_curvature and not self.TABLE.complex_path
        assert self.TABLE.kinks() == []
        assert self.TABLE.u_bounds() == (0.0, 10.0)

    @pytest.mark.parametrize("k", [0.5, 1.2, 3.0])
    def test_impedance_matches_the_kernel(self, k):
        c = 3.0 + 0.2j
        [z], errors = rayleigh.impedance_outcomes(self.TABLE, k, [c])
        assert errors == {}
        assert z == rayleigh.uniform_flow_impedance(k, 5.0)
        # the kernel, which a zero-curvature wind never reaches on its own
        y, _, _, errors = rayleigh._shoot(self.TABLE, *rayleigh._pairs(k, [c]),
                                          1e-12)
        assert not errors
        assert abs(complex(y[1, 0] / y[0, 0]) - z) <= 1e-12 * abs(z)

    def test_sweep_rows_converge(self):
        params = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8, h_plus=5.0)
        ks = [0.5, 1.0, 2.0, 3.0]
        rows = scan_k(self.TABLE, params, ks).entries
        assert all(row.converged for row in rows), [row.message for row in rows]
        same = scan_k(LinearShearProfile(0.0, 2.0, h_plus=5.0), params, ks).entries
        assert [row.c for row in rows] == [row.c for row in same]
