import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windwaves.errors import (
    DegenerateAtInterface,
    EndpointCritical,
    InfiniteDomain,
    NearSingularCoefficient,
    OrderUnavailable,
    SeriesRadiusTooSmall,
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
from windwaves import rayleigh
from windwaves.rayleigh import (
    impedance_limit_check,
    impedance_outcomes,
    integrate_wronskian,
    limiting_solution,
    pwl_impedance_cascade,
    uniform_flow_impedance,
)

from oracles import (
    contour_impedance_oracle,
    impedance_oracle,
    scipy_impedance,
    scipy_state,
)

TANH = TanhProfile(10.0, 1.0, 5.0)

#: the same wind as an AnalyticProfile, which shoots on the real axis
REAL_AXIS_TANH = AnalyticProfile(
    f=lambda x: 10.0 * math.tanh(x), df=lambda x: 10.0 / math.cosh(x) ** 2,
    d2f=lambda x: -20.0 * math.tanh(x) / math.cosh(x) ** 2, h_plus=5.0,
    name="tanh")

X48 = np.linspace(0.0, 5.0, 48)
#: jet48: 8 e x e^-x at 48 knots on [0, 5], two layers for c in (0.73, 8)
JET48 = TabulatedProfile(X48, 8.0 * math.e * X48 * np.exp(-X48))

#: U rises at slope 3 to the kink x = 1, at slope 1 to the kink x = 2.5, and
#: is uniform above, up to h+ = 4: a zero-curvature wind, which never
#: reaches the kernel
KINKED = PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, 0.0], h_plus=4.0)
#: the same wind sampled at 17 knots, the kinks among them: a table, which
#: shoots on the kernel, its curvature sharp beside the knots 1 and 2.5
KINK_TABLE = TabulatedProfile(np.linspace(0.0, 4.0, 17),
                              KINKED.value(np.linspace(0.0, 4.0, 17)))


def impedance(profile, k, c, tol=1e-10):
    """One pair's impedance from ``impedance_outcomes``, its error raised."""
    imps, errors = impedance_outcomes(profile, k, [c], tol)
    rayleigh._raise_first(errors)
    return complex(imps[0])


def lid_shoot(profile, k, c, tol=1e-10, init=(0.0, 1.0)):
    """One pair shot from the lid data ``init``, c itself also where
    Im c < 0: its (y(0), y'(0)) and impedance, its error raised."""
    states, imps, errors = rayleigh._lid_shoot(profile, k, [c], tol, init)
    rayleigh._raise_first(errors)
    return complex(states[0, 0]), complex(states[1, 0]), complex(imps[0])


def n_steps(profile, k, c, tol=1e-10):
    """The accepted points of one pair's shoot on the kernel."""
    _, _, steps, errors = rayleigh._shoot(profile, *rayleigh._pairs(k, [c]),
                                          tol)
    rayleigh._raise_first(errors)
    return int(steps[0])


def final_mesh(profile, k, c, tol=1e-10, sign_ci=None, start=None):
    """The nodes of one pair's final mesh, down its path's parameter, and
    each step's DOP853 error norm on it, the shoot starting from the nodes
    ``start`` if given."""
    nodes = {}
    _, _, _, errors = rayleigh._shoot(profile, *rayleigh._pairs(k, [c]), tol,
                                      nodes=nodes, sign_ci=sign_ci,
                                      meshes=[start])
    rayleigh._raise_first(errors)
    t, _, _, norms = nodes[0]
    return t, norms


def ramp_with_channel_mode():
    # the shear-then-uniform ramp has a genuine channel mode: y(0) = 0 at
    # c = U* - mu sinh(k(h-x*)) sinh(k x*) / sinh(k h) (pole of y'(0)/y(0))
    mu, x2s, h = 5.0, 1.0, 4.0
    prof = PiecewiseLinearProfile.ramp(mu, x2s, h_plus=h)
    c = mu * x2s - mu * math.sinh(h - x2s) * math.sinh(x2s) / math.sinh(h)
    return prof, complex(c)


class TestDirectIntegration:
    def test_constant_profile_matches_coth(self):
        # closed form of -y'' + k^2 y = 0 with y(h)=0: impedance -k coth(k h)
        imp = impedance(ConstantProfile(5.0, h_plus=10.0), 2.0, 1.0 + 0.5j)
        expected = -2.0 / math.tanh(20.0)
        assert imp == pytest.approx(expected, rel=1e-9)
        assert abs(imp.imag) < 1e-9

    def test_linear_shear_same_closed_form(self):
        imp = impedance(LinearShearProfile(0.0, 2.0, h_plus=3.0), 1.5,
                        7.0 + 2.0j)
        assert imp == pytest.approx(-1.5 / math.tanh(4.5), rel=1e-9)

    def test_tanh_against_fixed_step_oracle(self):
        c = 3.0 + 0.1j
        imp = impedance(TANH, 1.0, c, tol=1e-11)
        ref = impedance_oracle(TANH, 1.0, c, n_macro=1600)
        assert abs(imp - ref) <= 1e-8 * abs(ref)

    def test_impedance_invariant_under_initial_rescaling(self):
        c = 3.0 + 0.05j
        *_, base = lid_shoot(TANH, 1.0, c)
        lam = 2.0 - 3.0j
        *_, scaled = lid_shoot(TANH, 1.0, c, init=(0.0, lam))
        assert abs(scaled - base) <= 1e-9 * abs(base)

    def test_conjugation_symmetry(self):
        # the lid shoot takes c itself, not its mirror image
        c = 2.5 + 0.3j
        *_, up = lid_shoot(TANH, 1.0, c)
        *_, dn = lid_shoot(TANH, 1.0, c.conjugate())
        assert abs(dn - up.conjugate()) <= 1e-11 * abs(up)

    def test_infinite_domain_rejected(self):
        # lid data need a lid, also on a wind with a closed form
        with pytest.raises(InfiniteDomain):
            lid_shoot(ConstantProfile(5.0), 1.0, 1.0 + 1.0j)

    def test_switch_threshold_enforced(self):
        # on the real axis; a profile with complex_path is indented instead
        with pytest.raises(NearSingularCoefficient):
            impedance(REAL_AXIS_TANH, 1.0, 3.0 + 1e-9j)
        with pytest.raises(NearSingularCoefficient):
            impedance(TANH, 1.0, 3.0 + 0.0j)

    @pytest.mark.parametrize("sign_ci", [None, 1, -1])
    def test_real_axis_refuses_real_speed_with_layers(self, sign_ci):
        # without complex_path no side of the layer is reached, so sign_ci
        # does not help
        imps, errors = impedance_outcomes(REAL_AXIS_TANH, 1.0, [3.0],
                                          sign_ci=sign_ci)
        assert np.isnan(imps[0]) and sorted(errors) == [0]
        assert isinstance(errors[0], NearSingularCoefficient)
        assert "real wave speed with critical layers" in str(errors[0])

    def test_indented_path_below_switch_threshold(self):
        c = 3.0 + 1e-9j
        got = impedance(TANH, 1.0, c, tol=1e-12)
        want = contour_impedance_oracle(TANH, 1.0, c, tol=1e-12)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_indented_step_count(self):
        # the real axis takes 156 points here: the layer sits 1.6e-5 off it
        steps = n_steps(TANH, 3.0, 1.8076 + 1.5778e-4j, tol=1e-10)
        assert steps <= 80
        assert n_steps(TANH, 3.0, 1.8076 + 1.5778e-4j, tol=1e-10) == steps

    def test_real_c_outside_range_is_fine(self):
        assert impedance(TANH, 1.0, 12.0 + 0.0j).imag == 0.0

    def test_degenerate_interface_detected(self):
        prof, c = ramp_with_channel_mode()
        with pytest.raises(DegenerateAtInterface):
            impedance(prof, 1.0, c, tol=1e-13)
        # c is real: the limiting solve meets the same interface guard
        with pytest.raises(DegenerateAtInterface):
            limiting_solution(prof, 1.0, c.real, +1, tol=1e-13)

    @pytest.mark.parametrize("profile", [KINK_TABLE, TabulatedProfile(
        np.linspace(0.0, 5.0, 16), 10.0 * np.tanh(np.linspace(0.0, 5.0, 16)))],
        ids=["kinked", "table"])
    def test_steps_count_the_final_mesh_nodes(self, profile):
        # one accepted point per node, the lid's included
        t, _ = final_mesh(profile, 1.2, 2.0 + 0.3j)
        assert n_steps(profile, 1.2, 2.0 + 0.3j) == t.size


class UnboundedSampling(TanhProfile):
    """A tanh wind whose range sampling fails with a programming error."""

    def u_bounds(self, n: int = 0):
        raise ValueError("broken u_bounds")


def test_u_bounds_error_propagates():
    # an error of u_bounds is a bug in the profile and must not switch the
    # near-singular guard off
    prof = UnboundedSampling(10.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="broken u_bounds"):
        impedance(prof, 1.0, 3.0 + 1e-9j)


class TestBatch:
    TABLE = TabulatedProfile(np.linspace(0.0, 5.0, 16),
                             10.0 * np.tanh(np.linspace(0.0, 5.0, 16)))
    EXP = AnalyticProfile(f=lambda x: 8.0 * (1.0 - math.exp(-x)),
                          df=lambda x: 8.0 * math.exp(-x),
                          d2f=lambda x: -8.0 * math.exp(-x),
                          h_plus=4.0, name="exp")

    def test_refuses_a_two_dimensional_batch(self):
        with pytest.raises(ValueError) as exc:
            impedance_outcomes(TANH, 1.0, np.full((2, 2), 3.0 + 0.05j))
        assert str(exc.value) == "k and cs must broadcast to a 1-d array"

    @pytest.mark.parametrize("profile", [TANH, TABLE, EXP, KINKED],
                             ids=["tanh", "table", "analytic", "kinked"])
    def test_matches_scalar_solves(self, profile):
        cs = [complex(re, im) for re in (1.0, 3.0, 6.0)
              for im in (-0.3, 0.05, 0.5)]
        # tol 1e-12 keeps both solves well inside the 1e-9 bound on every
        # profile; the spline knots are breakpoints of both paths
        imps, errors = impedance_outcomes(profile, 1.2, cs, tol=1e-12)
        assert errors == {}
        for c, imp in zip(cs, imps):
            want = scipy_impedance(profile, 1.2, c, tol=1e-12)
            assert abs(imp - want) <= 1e-9 * abs(want), c

    @pytest.mark.parametrize("profile", [TANH, TABLE, EXP, KINKED],
                             ids=["tanh", "table", "analytic", "kinked"])
    def test_per_element_k_matches_scalar_solves(self, profile):
        cs = [complex(re, im) for re in (1.0, 3.0, 6.0)
              for im in (-0.3, 0.05, 0.5)]
        ks = [0.4, 1.2, 2.5] * 3
        imps, errors = impedance_outcomes(profile, ks, cs, tol=1e-12)
        assert errors == {}
        for k, c, imp in zip(ks, cs, imps):
            want = scipy_impedance(profile, k, c, tol=1e-12)
            assert abs(imp - want) <= 1e-9 * abs(want), (k, c)

    @pytest.mark.parametrize("profile", [TANH, TABLE, EXP, KINK_TABLE],
                             ids=["tanh", "table", "analytic", "kinked"])
    def test_scalar_is_one_element_batch(self, profile):
        for c in (1.0 - 0.3j, 3.0 + 0.05j, 6.0 + 0.5j):
            y0, yp0, _ = lid_shoot(profile, 1.2, c)
            imps, _ = impedance_outcomes(profile, 1.2, [c])
            # no rescaling on this column, so y(0) and y'(0) are the batch's
            # state, and the batch's array division of them is its impedance
            assert imps[0] == np.divide([yp0], [y0])[0]

    @pytest.mark.parametrize("profile", [TANH, TABLE, EXP],
                             ids=["tanh", "table", "analytic"])
    def test_member_equals_solo_bitwise(self, profile):
        # the slopes too, and asking for them changes no impedance
        rng = np.random.default_rng(7)
        n = 12
        ks = rng.uniform(0.2, 3.0, n)
        cs = rng.uniform(1.0, 7.0, n) + 1j * rng.uniform(-0.5, 0.5, n)
        imps, errors = impedance_outcomes(profile, ks, cs)
        assert errors == {}
        slopes = [None] * n
        with_slopes, _ = impedance_outcomes(profile, ks, cs, slopes=slopes)
        assert with_slopes.view(float).tolist() == imps.view(float).tolist()
        for i in range(n):
            solo_slope = [None]
            solo, _ = impedance_outcomes(profile, ks[i], cs[i:i + 1],
                                         slopes=solo_slope)
            assert solo[0] == imps[i]
            assert solo_slope == [slopes[i]], i

    @pytest.mark.parametrize("table", [False, True], ids=["tanh", "table"])
    def test_solo_impedance_equals_batch_bitwise(self, table):
        # Im c > 0 on a curved wind: the batch's state, and numpy's quotient
        profile = _tanh_table(40) if table else TANH
        rng = np.random.default_rng(20)
        n = 40
        ks = rng.uniform(0.3, 3.0, n)
        cs = rng.uniform(0.5, 12.0, n) + 1j * 10.0 ** rng.uniform(-4.0, 0.0, n)
        imps, errors = impedance_outcomes(profile, ks, cs)
        assert errors == {}
        for k, c, imp in zip(ks.tolist(), cs.tolist(), imps.tolist()):
            assert lid_shoot(profile, k, c)[2] == imp, (k, c)

    def test_failing_member_leaves_the_others(self):
        cs = [3.0 + 0.2j, 3.0 + 1e-9j, 2.0 - 0.1j]
        imps, errors = impedance_outcomes(REAL_AXIS_TANH, [1.0, 1.0, 0.7], cs)
        assert list(errors) == [1]
        assert isinstance(errors[1], NearSingularCoefficient)
        assert np.isnan(imps[1])
        for i in (0, 2):
            solo, _ = impedance_outcomes(REAL_AXIS_TANH, [1.0, 1.0, 0.7][i],
                                         [cs[i]])
            assert imps[i] == solo[0]

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
    def test_table_meets_its_tolerance(self, batched):
        # the spline knots, where U''' jumps, are integration breakpoints
        cs = [complex(re, im) for re in (1.0, 3.0, 6.0)
              for im in (-0.3, 0.05, 0.5)]
        if batched:
            got, errors = impedance_outcomes(self.TABLE, 1.2, cs, tol=1e-10)
            assert errors == {}
        else:
            got = [impedance(self.TABLE, 1.2, c, tol=1e-10) for c in cs]
        for c, imp in zip(cs, got):
            ref = scipy_impedance(self.TABLE, 1.2, c, tol=1e-13)
            assert abs(imp - ref) <= 1e-9 * abs(ref), c

    @pytest.mark.parametrize("profile", [KINKED, TANH, REAL_AXIS_TANH],
                             ids=["kinked", "tanh", "real-axis-tanh"])
    def test_non_finite_speed_fails_alone(self, profile):
        # on the closed form and on the kernel, along Lin's path and on the
        # real axis, each in the batch and from lid data; the finite pairs
        # keep their bits
        cs = np.array([3.0 + 0.1j, complex(math.nan, 0.0), 2.0 - 0.05j,
                       complex(math.inf, 1.0), complex(3.0, math.inf),
                       complex(math.nan, math.nan)])
        bad = [1, 3, 4, 5]
        imps, errors = impedance_outcomes(profile, 1.0, cs)
        states, lid_imps, lid_errors = rayleigh._lid_shoot(
            profile, 1.0, cs, 1e-10, (0.0, 1.0))
        for failed, values in ((errors, [imps]),
                               (lid_errors, [*states, lid_imps])):
            assert sorted(failed) == bad
            for i in bad:
                assert type(failed[i]) is NearSingularCoefficient
                assert str(failed[i]) == "wave speed is not finite"
            for v in values:
                assert np.isnan(v[bad].view(float)).all()
        for i in (0, 2):
            solo, _ = impedance_outcomes(profile, 1.0, cs[i:i + 1])
            assert solo.view(float).tolist() == \
                imps[i:i + 1].view(float).tolist()
            one, one_imps, _ = rayleigh._lid_shoot(profile, 1.0, cs[i:i + 1],
                                                   1e-10, (0.0, 1.0))
            assert one.view(float).tolist() == \
                states[:, i:i + 1].view(float).tolist()
            assert one_imps.view(float).tolist() == \
                lid_imps[i:i + 1].view(float).tolist()

    def test_per_element_init(self):
        cs = [3.0 + 0.05j, 2.0 - 0.2j]
        base = [lid_shoot(TANH, 1.0, c) for c in cs]
        lam = 2.0 - 3.0j
        scaled = [lid_shoot(TANH, 1.0, c, init=init)
                  for c, init in zip(cs, [(0.0, lam), (0.0, 1.0)])]
        assert np.allclose([s[0] for s in scaled],
                           [lam * base[0][0], base[1][0]], rtol=1e-9)
        assert np.allclose([s[2] for s in scaled], [b[2] for b in base],
                           rtol=1e-9)

    def test_near_singular_member_raises_scalar_error(self):
        cs = [3.0 + 0.2j, 3.0 + 1e-9j, 12.0 + 0.0j]
        with pytest.raises(NearSingularCoefficient) as scalar:
            impedance(REAL_AXIS_TANH, 1.0, cs[1])
        _, errors = impedance_outcomes(REAL_AXIS_TANH, 1.0, cs)
        assert list(errors) == [1]
        assert type(errors[1]) is type(scalar.value)
        assert str(errors[1]) == str(scalar.value)

    def test_first_failure_in_input_order_wins(self):
        # the first of the residual batch's errors is its first failed point's
        from windwaves.dispersion import FluidParams, make_miles_residual

        prof, c_channel = ramp_with_channel_mode()
        kink_speed = complex(prof.value(1.0))
        params = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8,
                             h_plus=prof.h_plus)
        residual = make_miles_residual(prof, params, 1.0, tol=1e-13)
        _, errors = residual.batch([2.0 + 0.5j, c_channel, kink_speed])
        assert type(errors[min(errors)]) is DegenerateAtInterface
        _, errors = residual.batch([kink_speed, c_channel])
        assert type(errors[min(errors)]) is NearSingularCoefficient
        assert "kink speed" in str(errors[min(errors)])

    def test_overflowing_member_fails_like_scalar(self):
        # infinite lid data makes NaN on the first step; the NaN must fail
        # the element, not pass the error control as a zero error
        c, huge = 3.0 + 0.2j, (0.0, math.inf)
        with pytest.raises(NearSingularCoefficient, match="integration failed") \
                as scalar, np.errstate(all="ignore"):
            lid_shoot(TANH, 1.0, c, init=huge)
        # in either component
        with pytest.raises(NearSingularCoefficient) as other:
            lid_shoot(TANH, 1.0, c, init=huge[::-1])
        assert str(other.value) == str(scalar.value)

    def test_infinite_domain_rejected(self):
        with pytest.raises(InfiniteDomain):
            lid_shoot(ConstantProfile(5.0), 1.0, 1.0 + 1.0j)
        # only the closed forms reach an unbounded column; every pair shot
        # there fails alone
        imps, errors = impedance_outcomes(TanhProfile(10.0, 1.0, math.inf),
                                          1.0, [1.0 + 1.0j, 2.0 - 0.5j])
        assert np.isnan(imps).all()
        assert sorted(errors) == [0, 1]
        assert all(isinstance(e, InfiniteDomain) for e in errors.values())


#: a wind whose U'' has a double pole at x2 = 1 + sqrt 2, which no step
#: can cross (and no float node hits)
POLE = AnalyticProfile(f=lambda x: x, df=lambda x: 1.0,
                       d2f=lambda x: (x - 1.0 - math.sqrt(2.0)) ** -2,
                       h_plus=5.0, name="pole")


class TestKernel:
    """The mesh kernel: every accepted step passes DOP853's error test, and
    a batch member's mesh and arithmetic are its own."""

    @pytest.mark.parametrize("profile", [TANH, TestBatch.TABLE, KINK_TABLE],
                             ids=["tanh", "table", "kinked"])
    def test_mixed_batch_equals_solo_bitwise(self, profile):
        # k 150 needs ~50 times the steps of k 0.3, so the short meshes are
        # padded by steps of I in the batch's prefix products
        ks = [0.3, 150.0, 0.3, 150.0, 1.2]
        cs = [3.0 + 0.2j, 3.0 + 0.2j, 6.0 - 0.1j, 12.0 + 0.0j, 2.0 + 1e-3j]
        imps, errors = impedance_outcomes(profile, ks, cs)
        assert errors == {}
        for k, c, imp in zip(ks, cs, imps):
            solo, _ = impedance_outcomes(profile, k, [c])
            assert solo.view(float).tolist() == [imp.real, imp.imag]
        lengths = [final_mesh(profile, k, c)[0].size
                   for k, c in zip(ks, cs)]
        assert max(lengths) > 10 * min(lengths)

    @pytest.mark.parametrize("profile, k, c, sign_ci", [
        (TANH, 1.0, 3.0 + 0.05j, None),
        (TANH, 3.0, 1.8076 + 1.5778e-4j, None),  # a bump near the layer
        (TANH, 1.2, 3.0 + 0.0j, 1),  # the limit along the path
        (TANH, 300.0, 12.0 + 0.0j, None),  # past the float range
        (REAL_AXIS_TANH, 1.0, 3.0 + 1e-3j, None),
        (TestBatch.TABLE, 1.2, 6.0 + 0.0j, -1),
        (KINK_TABLE, 1.2, 2.0 - 0.3j, None),
    ], ids=["tanh", "bump", "limit", "large-k", "real-axis", "table",
            "kinked"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_every_step_passes_the_error_test(self, profile, k, c, sign_ci,
                                              tol):
        t, norms = final_mesh(profile, k, c, tol, sign_ci)
        assert t[0] == profile.h_plus and t[-1] == 0.0
        assert np.all(np.diff(t) <= 0.0)
        assert norms.size == t.size - 1
        assert np.all(norms < 1.0)
        if sign_ci is None:  # the accepted points are the nodes
            assert n_steps(profile, k, c, tol) == t.size

    @staticmethod
    def records(monkeypatch, profile, ks, cs, slopes=None, **kwargs):
        """Each element's whole kernel record, as bytes: its (y(0), y'(0)),
        log scale, sup |y|, min |U - c|, accepted points, node record (t,
        states, scales, norms) and error, from one ``_shoot`` batch; a
        ``slopes`` list passed in receives the elements' slopes."""
        out = []
        integrate = rayleigh._integrate

        def spy(*args):
            out.append(integrate(*args))
            return out[-1]

        monkeypatch.setattr(rayleigh, "_integrate", spy)
        nodes = {}
        y, log_scale, n_steps, errors = rayleigh._shoot(
            profile, np.array(ks, dtype=float), np.array(cs, dtype=complex),
            1e-10, nodes=nodes, slopes=slopes, **kwargs)
        monkeypatch.undo()
        [(_, _, sup_y, dist, _)] = out
        return [(y[:, i].tobytes(), log_scale[i].tobytes(),
                 sup_y[i].tobytes(), dist[i].tobytes(), n_steps[i].tobytes(),
                 tuple(a.tobytes() for a in nodes[i]) if i in nodes else None,
                 repr(errors.get(i)))
                for i in range(len(cs))]

    def test_member_record_equals_solo_bitwise(self, monkeypatch):
        # cold and warm starts, bumps, a pair on the real axis, a long mesh,
        # and pairs that fail before the kernel and in it; asking for the
        # slopes changes no record, and each slope is the solo one
        start = final_mesh(TANH, 1.0, 3.0 + 0.05j)[0]
        ks = [1.0, 1.0, 1.2, 1e9, 1.0, 150.0, 0.3]
        cs = [3.0 + 0.05j, 3.001 + 0.05j, 12.0, 12.0, 3.0, 3.0 + 0.2j,
              6.0 - 0.1j]
        meshes = [None, start, None, None, None, None, start]
        batch = self.records(monkeypatch, TANH, ks, cs, meshes=list(meshes))
        assert [r[-1] for r in batch].count("None") == 5
        slopes = []
        assert self.records(monkeypatch, TANH, ks, cs, slopes,
                            meshes=list(meshes)) == batch
        assert [s is None for s in slopes] == [r[-1] != "None" for r in batch]
        for i, (k, c, m) in enumerate(zip(ks, cs, meshes)):
            assert self.records(monkeypatch, TANH, [k], [c],
                                meshes=[m]) == [batch[i]], i
            solo = []
            self.records(monkeypatch, TANH, [k], [c], solo, meshes=[m])
            assert solo == [slopes[i]], i

        # certify-sized batches: pairs whose speeds lie above U, so that
        # their paths cannot bend, with odd pairs spread among them
        for profile, sign_ci, odd, failed in (
                # bumps, real speeds along the limit, and a pair refused in
                # the kernel
                (TANH, +1, [(1.2, 3.0 + 0.01j), (1.2, 3.0), (0.7, 6.0 + 0.05j),
                            (2.0, 9.0 + 0.002j), (1e9, 12.0), (1.2, 7.0)], 1),
                # on the real axis: pairs beside a layer, two refused before
                # the kernel (too near the axis, and a real speed with a
                # layer), and a real speed without one
                (REAL_AXIS_TANH, None, [(1.2, 3.0 + 0.05j), (1.2, 3.0 + 1e-9j),
                                        (0.7, 6.0), (1.2, 12.0),
                                        (2.0, 9.0 + 0.1j), (1.2, 7.0 + 0.2j)],
                 2)):
            ks = np.linspace(0.5, 3.0, 100).tolist()
            cs = (np.linspace(10.2, 14.0, 100)
                  + 1j * np.linspace(0.5, 0.01, 100)).tolist()
            for at, (k, c) in zip((0, 17, 50, 51, 83, 100), odd):
                ks.insert(at, k)
                cs.insert(at, c)
            batch = self.records(monkeypatch, profile, ks, cs,
                                 sign_ci=sign_ci)
            assert len(batch) - [r[-1] for r in batch].count("None") == failed
            for i, (k, c) in enumerate(zip(ks, cs)):
                assert self.records(monkeypatch, profile, [k], [c],
                                    sign_ci=sign_ci) == [batch[i]], (profile, i)

    def test_limiting_member_record_equals_solo_bitwise(self, monkeypatch):
        # the crossings of two limiting_solution shoots, two joints each,
        # between elements with none
        crossings = []
        shoot = rayleigh._shoot

        def spy(*args, **kwargs):
            crossings.extend(kwargs["crossings"])
            return shoot(*args, **kwargs)

        monkeypatch.setattr(rayleigh, "_shoot", spy)
        for k, c_r in ((1.0, 2.0), (2.0, 5.0)):
            limiting_solution(JET48, k, c_r, +1)
        monkeypatch.undo()
        ks, cs = [0.8, 1.0, 2.0, 1.5], [8.5, 2.0, 5.0, 9.0]
        crossings = [{}, *crossings, {}]
        assert [len(c) for c in crossings] == [0, 2, 2, 0]
        batch = self.records(monkeypatch, JET48, ks, cs, crossings=crossings)
        assert all(r[-1] == "None" for r in batch)
        for i in range(4):
            assert self.records(monkeypatch, JET48, ks[i:i + 1], cs[i:i + 1],
                                crossings=crossings[i:i + 1]) == [batch[i]]

    # (profile, k, c, the wave speed c0 whose final mesh the shoot starts
    # from, sign_ci of c0): c0 far off, with its layer, and so its bump's
    # ends, elsewhere, or nearby, as a Muller chain hands its meshes on
    STARTED = [
        (TANH, 1.0, 3.0 + 0.05j, 5.0 + 0.02j, None),
        (TANH, 1.0, 3.0 + 0.05j, 3.0003 + 0.0501j, None),
        (TANH, 3.0, 1.8076 + 1.5778e-4j, 1.8076 + 0.0j, 1),  # from a seed
        (TestBatch.TABLE, 1.2, 6.0 + 0.01j, 4.0 + 0.0j, 1),
        (TestBatch.TABLE, 1.2, 6.0 + 0.01j, 6.0006 + 0.01j, None),
        (KINK_TABLE, 1.2, 2.0 - 0.3j, 0.5 + 0.1j, None),
    ]
    STARTED_IDS = ["tanh-moved", "tanh-near", "tanh-seed", "table-moved",
                   "table-near", "kinked"]

    @pytest.mark.parametrize("profile, k, c, c0, sign_ci", STARTED,
                             ids=STARTED_IDS)
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_every_started_step_passes_the_error_test(self, profile, k, c,
                                                      c0, sign_ci, tol):
        start, _ = final_mesh(profile, k, c0, sign_ci=sign_ci)
        t, norms = final_mesh(profile, k, c, tol, start=start)
        assert t[0] == profile.h_plus and t[-1] == 0.0
        assert np.all(np.diff(t) <= 0.0)
        assert norms.size == t.size - 1
        assert np.all(norms < 1.0)

    @pytest.mark.parametrize("profile", [TANH, TestBatch.TABLE, KINK_TABLE],
                             ids=["tanh", "table", "kinked"])
    def test_started_pair_in_a_batch_equals_solo_bitwise(self, profile):
        start, _ = final_mesh(profile, 1.2, 3.0 + 0.1j)
        ks = [0.3, 1.2, 150.0, 1.2, 1.2]
        cs = [3.0 + 0.2j, 3.001 + 0.1j, 3.0 + 0.2j, 3.0 - 0.1j, 2.0 + 1e-3j]
        starts = [None, start, None, start, None]
        meshes = list(starts)
        imps, errors = impedance_outcomes(profile, ks, cs, meshes=meshes)
        assert errors == {}
        for k, c, s, imp, final in zip(ks, cs, starts, imps, meshes):
            solo_mesh = [s]
            solo, _ = impedance_outcomes(profile, k, [c], meshes=solo_mesh)
            assert solo.view(float).tolist() == [imp.real, imp.imag]
            assert solo_mesh[0].tolist() == final.tolist()
        # without a start mesh, a pair gets the bits it gets with no meshes
        cold, _ = impedance_outcomes(profile, ks, cs)
        assert [cold[i] for i in (0, 2, 4)] == [imps[i] for i in (0, 2, 4)]

    @pytest.mark.parametrize("profile, k, c, c0, sign_ci", STARTED[:-1],
                             ids=STARTED_IDS[:-1])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_started_shoot_agrees_with_cold(self, profile, k, c, c0, sign_ci,
                                            tol):
        # the worst case measured is 0.111 tol (tanh-moved at tol 1e-8), so
        # the bound 0.3 tol leaves a margin of 2.7; the kinked table, whose
        # curvature is sharp beside its knots, reaches 0.66 tol at 1e-12
        meshes = [final_mesh(profile, k, c0, tol, sign_ci)[0]]
        warm, _ = impedance_outcomes(profile, k, [c], tol, meshes=meshes)
        cold, _ = impedance_outcomes(profile, k, [c], tol)
        assert abs(warm[0] - cold[0]) <= 0.3 * tol * abs(cold[0])

    # (profile, c, the segment's lo, width and bump depth)
    CHUNKS = [
        (TANH, 3.0 + 1e-3j, 0.0, 2.0 * math.atanh(0.3), -0.1),
        (TANH, 3.0 + 0.2j, 0.0, 5.0, 0.0),
        (TestBatch.TABLE, 6.0 + 0.01j, 0.0, 5.0, 0.0),
    ]

    @staticmethod
    def per_term_steps(coeff, t0, h, seg):
        """(M, E) of DOP853's steps with each weighted sum taken term by
        term, in stage order from +0, each product rounded alone: the
        arithmetic of the kernel's stage sums, whatever routine takes them."""
        tab, eye = rayleigh._TABLEAU, np.eye(2, dtype=complex)[:, :, None]
        _, w, wq = coeff(t0 - rayleigh._DOP_C * h, seg)
        scaled = np.stack(np.broadcast_arrays(h if w is None else w * h,
                                              wq * h), axis=1)[:, :, None]
        parts = [(eye[::-1] * scaled[0]).view(float)]

        def weigh(weights):
            total = np.zeros(parts[0].shape)
            for weight, part in zip(weights, parts):
                total = total + weight * part
            return total.view(complex)

        for s in range(1, rayleigh._DOP_STAGES):
            parts.append(((eye - weigh(tab.A[s, :s]))[::-1]
                          * scaled[s]).view(float))
        m = eye - weigh(tab.B)
        parts.append((m[::-1] * scaled[-1]).view(float))
        return m, np.stack([weigh(tab.E5), weigh(tab.E3)])

    @pytest.mark.parametrize("profile, c, lo, width, depth", CHUNKS,
                             ids=["tanh-bump", "tanh-axis", "table"])
    @pytest.mark.parametrize("n", [1, 7, 1023, 1024, 1025])
    def test_propagators_do_not_depend_on_their_chunk(self, profile, c, lo,
                                                      width, depth, n):
        # the stage sums are elementwise: a step's (M, E, dist) is the same
        # bits built alone, in a chunk of n and at another offset, and
        # (M, E) those of sums taken term by term
        coeff = rayleigh._coefficient(
            profile, np.array([c]), np.array([1.44]), np.array([lo]),
            np.array([width]), np.array([depth]))
        t0 = lo + width - width * np.arange(n) / n
        h = t0 - np.r_[t0[1:], lo]
        seg = np.zeros(n, dtype=int)

        def steps(built, pick):
            return [tuple(a[..., i].tobytes() for a in built) for i in pick]

        together = steps(rayleigh._propagators(coeff, t0, h, seg), range(n))
        m, e = self.per_term_steps(coeff, t0, h, seg)
        stacked = np.concatenate((m[None], e))
        assert [step[0] for step in together] == [
            step[0] for step in steps((stacked,), range(n))]
        # three other steps sit before them
        shifted = rayleigh._propagators(
            coeff, np.r_[lo + width * np.array([0.9, 0.6, 0.3]), t0],
            np.r_[np.full(3, 0.1 * width), h], np.r_[np.zeros(3, int), seg])
        assert steps(shifted, range(3, n + 3)) == together
        alone = [steps(rayleigh._propagators(coeff, t0[i:i + 1], h[i:i + 1],
                                             seg[i:i + 1]), [0])[0]
                 for i in range(n)]
        assert alone == together

    def test_step_collapse_is_refused(self):
        with pytest.raises(NearSingularCoefficient,
                           match="Required step size is less than spacing"):
            impedance(POLE, 1.0, 20.0 + 1.0j)
        imps, errors = impedance_outcomes(POLE, 1.0, [20.0 + 1.0j, 20.0 - 1.0j])
        assert list(errors) == [0, 1] and np.all(np.isnan(imps))

    def test_mesh_is_bounded(self):
        # below scipy's floor on rtol the error test still passes: the mesh
        # does not grow without end
        imp = impedance(TANH, 1.0, 3.0 + 0.5j, tol=0.0)
        ref = impedance(TANH, 1.0, 3.0 + 0.5j, tol=1e-13)
        assert abs(imp - ref) <= 1e-12 * abs(ref)
        # a mesh past 2^18 steps is refused, not built
        imps, errors = impedance_outcomes(TANH, [1.0, 1e9], [12.0, 12.0])
        assert list(errors) == [1] and np.isfinite(imps[0])
        assert str(errors[1]) == "integration failed: more than 262144 steps"

    @pytest.mark.parametrize("profile", [
        ConstantProfile(4.0, h_plus=5.0), LinearShearProfile(0.0, 2.0, h_plus=3.0),
        PiecewiseLinearProfile.ramp(2.0, 1.0), KINKED, TANH,
        TestBatch.TABLE, TestBatch.EXP, REAL_AXIS_TANH],
        ids=["uniform", "linear", "unbounded-ramp", "kinked", "tanh", "table",
             "analytic", "real-axis-tanh"])
    def test_conjugate_speeds_give_conjugate_impedances_bitwise(self, profile):
        # and conjugate slopes
        ks = [0.4, 1.2, 2.5, 1.2]
        cs = np.array([3.0 + 0.2j, 1.0 + 1e-3j, 6.0 + 0.5j, 12.0 + 2.0j])
        up_slopes, dn_slopes, both_slopes = [], [], []
        up, errors = impedance_outcomes(profile, ks, cs, slopes=up_slopes)
        dn, _ = impedance_outcomes(profile, ks, cs.conj(), slopes=dn_slopes)
        assert errors == {}
        assert np.conj(up).view(float).tolist() == dn.view(float).tolist()
        assert [s.conjugate() for s in up_slopes] == dn_slopes
        # a batch of both shoots each pair once and gives the same bits
        both, _ = impedance_outcomes(profile, ks + ks, np.r_[cs, cs.conj()],
                                     slopes=both_slopes)
        assert both.view(float).tolist() == np.r_[up, dn].view(float).tolist()
        assert both_slopes == up_slopes + dn_slopes


class TestSlope:
    """d(y'/y)(0)/dc: the quadrature of Lagrange's identity that the
    kernel's last round carries, or the closed form's sum over its kinks,
    against a central difference of impedances at tol 1e-12."""

    TANH48 = TabulatedProfile(X48, 10.0 * np.tanh(X48))
    FINITE_RAMP = PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=5.0)
    UNBOUNDED_RAMP = PiecewiseLinearProfile.ramp(10.0, 1.0)
    #: the worst error measured over both tests is 1.2e-10 (tanh48 at
    #: k 0.5, c 2 + i0), mostly the difference's own: tol 1e-12 over the
    #: spacing 1e-4 |c|; the bound leaves a margin of 8
    BOUND = 1e-9

    @staticmethod
    def slope_and_difference(profile, k, c, **kwargs):
        slopes = [None]
        _, errors = impedance_outcomes(profile, k, [c], 1e-12, slopes=slopes,
                                       **kwargs)
        assert errors == {}
        # the four-point central difference, its truncation O(h^4)
        h = 1e-4 * abs(c)
        imps, errors = impedance_outcomes(
            profile, k, [c + h, c - h, c + 2.0 * h, c - 2.0 * h], 1e-12,
            **kwargs)
        assert errors == {}
        return slopes[0], (8.0 * (imps[0] - imps[1])
                           - (imps[2] - imps[3])) / (12.0 * h)

    @pytest.mark.parametrize("profile", [
        TANH, TANH48, JET48, FINITE_RAMP, UNBOUNDED_RAMP],
        ids=["tanh", "tanh48", "jet48", "finite-ramp", "unbounded-ramp"])
    @pytest.mark.parametrize("k, c", [(1.0, 3.0 + 0.3j), (2.0, 6.0 + 0.01j),
                                      (0.5, 2.0 + 0.05j)])
    def test_off_axis_slope_matches_central_difference(self, profile, k, c):
        slope, want = self.slope_and_difference(profile, k, c)
        assert abs(slope - want) <= self.BOUND * abs(want)

    @pytest.mark.parametrize("profile, n_layers", [
        (TANH, 1), (TANH48, 1), (JET48, 2)], ids=["tanh", "tanh48", "jet48"])
    @pytest.mark.parametrize("k, c_r", [(1.0, 3.0), (0.5, 2.0), (2.0, 6.0)])
    def test_slope_at_the_limit_matches_central_difference(
            self, profile, n_layers, k, c_r):
        # c_r + i0 along Lin's path, and its difference along the real axis
        assert len(find_critical_points(profile, c_r)) == n_layers
        slope, want = self.slope_and_difference(profile, k, complex(c_r),
                                                sign_ci=+1)
        assert abs(slope - want) <= self.BOUND * abs(want)

    @pytest.mark.parametrize("profile", [KINKED, TANH, REAL_AXIS_TANH],
                             ids=["kinked", "tanh", "real-axis-tanh"])
    def test_failed_pairs_have_no_slope(self, profile):
        slopes = []
        _, errors = impedance_outcomes(
            profile, 1.0, [3.0 + 0.1j, complex(math.inf, 1.0), 2.0 - 0.05j],
            slopes=slopes)
        assert list(errors) == [1]
        assert slopes[1] is None and None not in slopes[::2]
        unbounded = []
        _, errors = impedance_outcomes(TanhProfile(10.0, 1.0, math.inf), 1.0,
                                       [3.0 + 0.1j], slopes=unbounded)
        assert unbounded == [None] and isinstance(errors[0], InfiniteDomain)

    @pytest.mark.parametrize("h_plus", [3.0, math.inf])
    def test_wind_without_kinks_has_slope_zero(self, h_plus):
        # its impedance -|k| coth(|k| h+) does not depend on c
        slopes = []
        impedance_outcomes(ConstantProfile(4.0, h_plus=h_plus), [0.5, 2.0],
                           [3.0 + 0.2j, 2.0 - 0.1j], slopes=slopes)
        assert slopes == [0.0, 0.0]


class TestUniformImpedance:
    def test_finite_and_infinite(self):
        assert uniform_flow_impedance(2.0, 10.0) == pytest.approx(-2.0, abs=1e-12)
        assert uniform_flow_impedance(2.0, math.inf) == -2.0
        assert uniform_flow_impedance(-3.0, math.inf) == -3.0

    def test_dispatcher_uses_closed_form(self):
        assert impedance(ConstantProfile(4.0), 2.0, 1.0 + 1.0j) == -2.0

    @pytest.mark.parametrize("h_plus", [3.0, math.inf])
    def test_winds_without_kinks_match_it_bitwise(self, h_plus):
        # the channel guard is scale-free: no |k| is refused
        ks = [0.3, 1.0, 7.5, 60.0, 400.0, 1e12, 1e14]
        for profile in (ConstantProfile(4.0, h_plus=h_plus),
                        LinearShearProfile(1.0, 2.0, h_plus=h_plus),
                        PiecewiseLinearProfile([0.0], [2.0], h_plus=h_plus)):
            imps, errors = impedance_outcomes(profile, ks,
                                              [2.0 + 0.5j] * len(ks))
            assert errors == {}
            assert imps.tolist() == [uniform_flow_impedance(k, h_plus)
                                     for k in ks], profile

    @pytest.mark.parametrize("profile", [
        ConstantProfile(4.0, h_plus=5.0), PiecewiseLinearProfile.ramp(2.0, 1.0),
        TANH], ids=["uniform", "unbounded-ramp", "tanh"])
    def test_zero_wavenumber_refused_on_every_route(self, profile):
        with pytest.raises(ValueError, match="wavenumber k must be finite and "
                                             "nonzero"):
            impedance(profile, 0.0, 1.0 + 1.0j)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("profile", [
        ConstantProfile(4.0, h_plus=5.0), PiecewiseLinearProfile.ramp(2.0, 1.0),
        TANH], ids=["uniform", "unbounded-ramp", "tanh"])
    def test_non_finite_wavenumber_refused_on_every_route(self, profile, k):
        # refused before any shoot, as one batch's k or one pair's
        with pytest.raises(ValueError) as exc:
            impedance_outcomes(profile, k, [1.0 + 1.0j])
        assert str(exc.value) == "wavenumber k must be finite and nonzero"
        with pytest.raises(ValueError) as exc:
            impedance_outcomes(profile, [1.0, k], [3.0 + 0.1j, 1.0 + 1.0j])
        assert str(exc.value) == "wavenumber k must be finite and nonzero"
        if math.isfinite(profile.h_plus):
            with pytest.raises(ValueError) as exc:
                rayleigh._lid_shoot(profile, k, [1.0 + 1.0j], 1e-10,
                                    (1.0, 0.0))
            assert str(exc.value) == "wavenumber k must be finite and nonzero"


class TestPiecewiseLinear:
    def test_cascade_matches_ramp_rational_form(self):
        # y'(0) = -k (c - alpha)/(c - beta) for the shear-then-uniform ramp;
        # past k x2* ~ 710, cosh(k x2*) overflows, and z = y'/y does not
        mu, x2s = 5.0, 1.0
        prof = PiecewiseLinearProfile.ramp(mu, x2s)
        u_star = mu * x2s
        for k in (1.0, 800.0, 5000.0):
            alpha = u_star - mu / (2 * k) * (1 + math.exp(-2 * k * x2s))
            beta = u_star - mu / (2 * k) * (1 - math.exp(-2 * k * x2s))
            for c in (2.0 + 0.7j, 4.0 - 0.2j, 8.0 + 1e-3j):
                got = pwl_impedance_cascade(prof, k, c)
                want = -k * (c - alpha) / (c - beta)
                assert abs(got - want) <= 1e-12 * abs(want), (k, c)

    def test_cascade_carries_a_node_where_y_vanishes(self):
        # U = 3 at the kink x 2, whose jump 2/(3 - c) takes z = -coth 1 to
        # coth 1 at c = 3 - tanh 1: then y = 0 at the kink x 1, and below
        # it y = sinh(1 - x), so y'(0)/y(0) = -coth 1 whatever the jump at 1
        prof = PiecewiseLinearProfile([0.0, 1.0, 2.0], [1.0, 2.0, 0.0],
                                      h_plus=3.0)
        c = 3.0 - math.tanh(1.0)
        # the nearest float c at which y(1) = 0 exactly in the cascade
        for _ in range(64):
            z = -1.0 / math.tanh(1.0) + 2.0 / (3.0 - c)
            if 1.0 - z * math.tanh(1.0) == 0.0:
                break
            c = math.nextafter(c, math.inf if z * math.tanh(1.0) > 1.0
                               else -math.inf)
        assert 1.0 - z * math.tanh(1.0) == 0.0
        assert pwl_impedance_cascade(prof, 1.0, c) == -1.0 / math.tanh(1.0)
        near = impedance(prof, 1.0, complex(c), tol=1e-12)
        assert abs(near + 1.0 / math.tanh(1.0)) <= 1e-9

    def test_unbounded_ramp_at_its_kink_speed_fails_alone(self):
        # U(x2*) = mu x2* = 2: the kink's jump -[U'] y / (U - c) is singular
        prof = PiecewiseLinearProfile.ramp(2.0, 1.0)
        imps, errors = impedance_outcomes(prof, 1.0, [2.0, 1.0 + 0.5j])
        assert sorted(errors) == [0]
        assert isinstance(errors[0], NearSingularCoefficient)
        assert np.isnan(imps[0])
        assert imps[1] == pwl_impedance_cascade(prof, 1.0, 1.0 + 0.5j)

    def test_cascade_without_kinks_decays(self):
        prof = PiecewiseLinearProfile([0.0], [2.0])
        assert pwl_impedance_cascade(prof, -3.0, 1.0 + 0.5j) == -3.0

    @pytest.mark.parametrize("k", [10.0, 20.0])
    def test_cascade_renormalizes_past_1e100(self, k):
        # |y| grows by ~e^{25 k} between the kinks, past 1e100 at the lower
        # one; the cascade carries y'/y, which stays near -k
        nodes, slopes, c = [0.0, 25.0, 50.0], [1.0, 0.5, 0.0], 3.0 + 0.5j
        got = pwl_impedance_cascade(PiecewiseLinearProfile(nodes, slopes),
                                    k, c)
        # scipy, rescaled at each kink; h+ = 55 stands in for infinity:
        # e^{-10 k} is far below rounding
        want = scipy_impedance(
            PiecewiseLinearProfile(nodes, slopes, h_plus=55.0), k, c, 1e-12)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_ode_with_kink_jump_matches_rational_form(self):
        mu, x2s, k = 5.0, 1.0, 1.0
        prof = PiecewiseLinearProfile.ramp(mu, x2s, h_plus=30.0)
        u_star = mu * x2s
        alpha = u_star - mu / (2 * k) * (1 + math.exp(-2 * k * x2s))
        beta = u_star - mu / (2 * k) * (1 - math.exp(-2 * k * x2s))
        c = 3.0 + 0.4j
        # h = 30 stands in for infinity: e^{-2kh} ~ 1e-26
        want = -k * (c - alpha) / (c - beta)
        # scipy's shoot, which steps the kink's jump, and the closed form
        assert abs(scipy_impedance(prof, k, c, 1e-11) - want) <= 1e-8 * abs(want)
        imp = impedance(prof, k, c)
        assert abs(imp - want) <= 1e-12 * abs(want)
        # the closed form's, not a shoot's
        assert imp == pwl_impedance_cascade(prof, k, c)

    @pytest.mark.parametrize("h_plus", [5.0, math.inf],
                             ids=["finite", "unbounded"])
    @pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-13])
    def test_one_kink_speed_rule(self, h_plus, offset):
        # a c with |U - c| <= 1e-12 max(1, |U|) at a kink is refused on
        # every column; 1e-9 past the kink speed 10, the closed form answers
        prof = PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=h_plus)
        k, c = 1.0, 10.0 + 1e-9
        imps, errors = impedance_outcomes(prof, k, [10.0 + offset, c])
        assert sorted(errors) == [0]
        assert isinstance(errors[0], NearSingularCoefficient)
        assert "kink speed U(1.0)" in str(errors[0])
        if math.isinf(h_plus):
            alpha = 10.0 - 10.0 / (2 * k) * (1 + math.exp(-2 * k))
            beta = 10.0 - 10.0 / (2 * k) * (1 - math.exp(-2 * k))
            want = -k * (c - alpha) / (c - beta)
        else:
            want = scipy_impedance(prof, k, c, 1e-12)
        assert abs(imps[1] - want) <= 1e-10 * abs(want)

    def test_failed_pair_is_nan_in_both_parts_on_every_route(self):
        for profile, c in ((PiecewiseLinearProfile.ramp(2.0, 1.0), 2.0),
                           (KINKED, 3.0 + 0.0j),  # closed forms
                           (REAL_AXIS_TANH, 3.0 + 1e-9j),  # the kernel
                           (TanhProfile(10.0, 1.0, math.inf), 1.0 + 1.0j)):
            imps, errors = impedance_outcomes(profile, 1.0, [c, np.conj(c)])
            assert sorted(errors) == [0, 1], profile
            assert np.isnan(imps.real).all() and np.isnan(imps.imag).all()

    def test_state_from_lid_data_matches_scipy(self, monkeypatch):
        # the water's shoot starts from (1, 0): the closed form's state at
        # the interface, its log carried piece by piece, against scipy's
        def kernel(*args):
            raise AssertionError("a zero-curvature wind reached the kernel")

        ks = [0.5, 1.0, 2.0]
        cs = [2.0 + 0.3j, 3.5 - 0.2j, 1.0 + 1e-3j]
        with monkeypatch.context() as patch:
            patch.setattr(rayleigh, "_integrate", kernel)
            states, _, errors = rayleigh._lid_shoot(KINKED, ks, cs, 1e-10,
                                                    (1.0, 0.0))
        assert errors == {}
        for k, c, (got0, gotp0) in zip(ks, cs, states.T.tolist()):
            (y0, yp0), _, log_scale = scipy_state(KINKED, k, c, 1e-13,
                                                  init=(1.0, 0.0))
            y0, yp0 = y0 * math.exp(log_scale), yp0 * math.exp(log_scale)
            assert abs(got0 - y0) <= 1e-10 * abs(y0), (k, c)
            assert abs(gotp0 - yp0) <= 1e-10 * abs(yp0), (k, c)

    def test_limiting_u1_matches_scipy(self):
        # U'' = 0 at each layer: no jump, and u1 = |y(s)/y(0)|^2 of the
        # real shoot at c_r
        for k, c_r in ((0.5, 2.0), (1.0, 3.5), (2.0, 4.0)):
            lim = limiting_solution(KINKED, k, c_r, +1)
            s = [layer.position for layer in lim.layers]
            assert len(s) == 1 and lim.n_steps == 0
            (y0, yp0), ys, _ = scipy_state(KINKED, k, c_r, 1e-13, at=s)
            assert abs(lim.impedance - yp0 / y0) <= 1e-10 * abs(yp0 / y0)
            assert lim.jumps[0].u1 == pytest.approx(abs(ys[0] / y0) ** 2,
                                                    rel=1e-10)
            assert lim.jumps[0].delta_yprime == 0.0
            assert lim.w_jump_defects() == (0.0,)

    def test_channel_mode_guard_matches_scipy(self):
        # scipy's y(0) vanishes between two adjacent floats near c = 2.128
        # at k = 1: there the closed form refuses the channel mode, on every
        # route; 1e-6 away it answers, with scipy's impedance
        def y0(c):
            return scipy_state(KINKED, 1.0, c, 1e-13)[0][0].real

        lo, hi = 2.12, 2.14
        f_lo = y0(lo)
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if (y0(mid) < 0.0) == (f_lo < 0.0):
                lo = mid
            else:
                hi = mid
        for c in (lo, hi):
            with pytest.raises(DegenerateAtInterface):
                lid_shoot(KINKED, 1.0, c)
            with pytest.raises(DegenerateAtInterface):
                limiting_solution(KINKED, 1.0, c, +1)
            _, errors = impedance_outcomes(KINKED, 1.0, [c])
            assert isinstance(errors[0], DegenerateAtInterface)
        for c in (lo * (1.0 - 1e-6), hi * (1.0 + 1e-6)):
            want = scipy_impedance(KINKED, 1.0, c, 1e-13)
            got = impedance(KINKED, 1.0, c)
            assert abs(got - want) <= 1e-6 * abs(want)

    def test_no_zero_curvature_wind_reaches_the_kernel(self, monkeypatch):
        from windwaves.asymptotics import miles_c_sharp
        from windwaves.dispersion import FluidParams, residual_general
        from windwaves.eigensolver import scan_k

        def kernel(*args):
            raise AssertionError("a zero-curvature wind reached the kernel")

        monkeypatch.setattr(rayleigh, "_integrate", kernel)
        finite = PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=5.0)
        unbounded = PiecewiseLinearProfile.ramp(10.0, 1.0)
        for prof in (finite, unbounded, KINKED):
            params = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8,
                                 h_plus=prof.h_plus)
            _, errors = impedance_outcomes(prof, [0.5, 2.0],
                                           [3.5 + 0.2j, 2.0 - 0.1j])
            assert errors == {}
            for init in ((0.0, 1.0), (1.0, 0.0)):
                if math.isinf(prof.h_plus):
                    with pytest.raises(InfiniteDomain):
                        lid_shoot(prof, 1.0, 3.5 + 0.2j, init=init)
                else:
                    assert np.isfinite(lid_shoot(prof, 1.0, 3.5 + 0.2j,
                                                 init=init)).all()
            assert limiting_solution(prof, 1.0, 2.0, +1).n_steps == 0
            assert miles_c_sharp(prof, params, 1.0).c_sharp == 0.0
            curve = scan_k(prof, params, [0.5, 1.0, 2.0])
            assert all(row.converged for row in curve.entries), prof
            # the water, linear between its kinks, shoots from its bottom
            water = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8,
                                h_plus=prof.h_plus, h_minus=KINKED.h_plus)
            assert np.isfinite(residual_general(3.5 + 0.2j, water, 1.0, prof,
                                                KINKED))

    def test_wronskian_rejected_for_pwl(self):
        prof = PiecewiseLinearProfile.ramp(2.0, 1.0, h_plus=4.0)
        with pytest.raises(OrderUnavailable):
            integrate_wronskian(prof, 1.0, 1.0 + 0.5j)


class TestWronskian:
    def test_refuses_an_unbounded_column(self):
        with pytest.raises(InfiniteDomain) as exc:
            integrate_wronskian(TanhProfile(10.0, 1.0, math.inf), 1.0,
                                3.0 + 0.05j)
        assert str(exc.value) == ("Wronskian integration needs a finite air "
                                  "column")

    def test_conservation_zero(self):
        path = integrate_wronskian(TANH, 1.0, 3.0 + 0.05j)
        assert path.conservation_defect() <= 1e-8 * (1.0 + path.state_sup() ** 2)

    @pytest.mark.parametrize("c", [3.0 + 1e-9j, 3.0])
    def test_zero_curvature_at_a_layer(self, c):
        # U'' = 0 keeps the system regular where U = Re c (x = 1.5): no
        # switch refusal, and y = -sinh(k (h+ - x)) / k, so |y(0)|^2 =
        # sinh(3)^2 and W = 0
        path = integrate_wronskian(LinearShearProfile(0.0, 2.0, h_plus=3.0),
                                   1.0, c)
        assert path.conservation_defect() <= 1e-12 * (1.0 + path.state_sup() ** 2)
        u1, _, _, w = path.at(0.0)
        assert u1 == pytest.approx(math.sinh(3.0) ** 2, rel=1e-8)
        assert abs(w) <= 1e-8 * u1

    def test_zero_curvature_layer_on_a_node(self):
        # with U'' = 0 the steps do not depend on c, so a real c with
        # U = c at a node of the c = 3 run puts the layer on an evaluation
        # point, where U'' (U - c) / |U - c|^2 would be 0/0
        prof = LinearShearProfile(0.0, 2.0, h_plus=3.0)
        node = next(t for t in integrate_wronskian(prof, 1.0, 3.0).dense.ts
                    if 0.0 < t < 3.0)
        path = integrate_wronskian(prof, 1.0, complex(prof.value(node)))
        assert path.at(0.0)[0] == pytest.approx(math.sinh(3.0) ** 2, rel=1e-8)

    def test_consistency_with_rayleigh(self):
        c = 3.0 + 0.05j
        path = integrate_wronskian(TANH, 1.0, c)
        y0, yp0, _ = lid_shoot(TANH, 1.0, c)
        u1_0 = path.at(0.0)[0]
        w_0 = path.at(0.0)[3]
        assert u1_0 == pytest.approx(abs(y0) ** 2, rel=1e-8)
        assert w_0 == pytest.approx(float(np.imag(yp0 * np.conj(y0))),
                                    rel=1e-8)

    def test_w_derivative_identity(self):
        # dW/dx2 = c_I U'' u1 / |U - c|^2 (finite differences on dense output)
        c = 3.0 + 0.01j
        path = integrate_wronskian(TANH, 1.0, c, tol=1e-12)
        xs = np.linspace(0.2, 4.8, 231)
        h = 1e-5
        rhs_vals, fd_vals = [], []
        for x in xs:
            u1 = path.at(x)[0]
            rhs = c.imag * TANH.curvature(x) * u1 / abs(TANH.value(x) - c) ** 2
            wm2, wm1, wp1, wp2 = (path.at(x - 2 * h)[3], path.at(x - h)[3],
                                  path.at(x + h)[3], path.at(x + 2 * h)[3])
            fd = (-wp2 + 8 * wp1 - 8 * wm1 + wm2) / (12 * h)
            rhs_vals.append(rhs)
            fd_vals.append(fd)
        rhs_vals = np.array(rhs_vals)
        fd_vals = np.array(fd_vals)
        scale = np.max(np.abs(rhs_vals))
        assert np.max(np.abs(fd_vals - rhs_vals)) <= 1e-6 * scale


class TestLimitingSolution:
    def test_no_layers_matches_direct(self):
        lim = limiting_solution(TANH, 1.0, 12.0, +1)
        direct = impedance(TANH, 1.0, 12.0 + 0.0j)
        assert lim.jumps == ()
        assert abs(lim.impedance - direct) <= 1e-10 * abs(direct)
        assert lim.impedance.imag == 0.0

    def test_inflection_layer_gives_zero_jump(self):
        # U with a critical layer exactly at an inflection point
        s0, mu, gam = 1.5, 2.0, 0.4
        prof = AnalyticProfile(
            f=lambda x: mu * (x - s0) + gam * (x - s0) ** 3,
            df=lambda x: mu + 3 * gam * (x - s0) ** 2,
            d2f=lambda x: 6 * gam * (x - s0),
            d3f=lambda x: 6 * gam,
            d4f=lambda x: 0.0,
            h_plus=3.0,
            name="cubic",
        )
        lim = limiting_solution(prof, 1.0, 0.0, +1)
        assert len(lim.jumps) == 1
        assert abs(lim.jumps[0].delta_yprime) <= 1e-12
        assert abs(lim.impedance.imag) <= 1e-9

    def test_limit_against_small_ci_integration(self):
        lim = limiting_solution(TANH, 1.0, 3.0, +1, tol=1e-12)
        direct = impedance(TANH, 1.0, 3.0 + 1e-6j, tol=1e-12)
        # the two routes agree at the O(c_I^alpha) convergence rate
        assert abs(direct - lim.impedance) <= 5e-6
        assert lim.impedance.imag > 0.0

    def test_limit_imag_equals_w_formula(self):
        lim = limiting_solution(TANH, 1.0, 3.0, +1, tol=1e-12)
        layer = lim.layers[0]
        formula = -math.pi * layer.u_double_prime * lim.jumps[0].u1 / abs(layer.u_prime)
        assert lim.impedance.imag == pytest.approx(formula, rel=1e-8)

    def test_sign_flip(self):
        up = limiting_solution(TANH, 1.0, 3.0, +1)
        dn = limiting_solution(TANH, 1.0, 3.0, -1)
        assert abs(dn.impedance - up.impedance.conjugate()) <= 1e-9 * abs(up.impedance)

    def test_w_jump_identity_two_layers(self):
        prof = AnalyticProfile(
            f=lambda x: 4.0 * x * (1.0 - 0.5 * x),
            df=lambda x: 4.0 - 4.0 * x,
            d2f=lambda x: -4.0,
            d3f=lambda x: 0.0,
            d4f=lambda x: 0.0,
            h_plus=2.0,
            name="parabola",
        )
        lim = limiting_solution(prof, 1.0, 1.5, +1, tol=1e-12)
        assert len(lim.jumps) == 2
        for defect in lim.w_jump_defects():
            assert defect <= 1e-8

    def test_w_piecewise_constant_above_top_layer(self):
        lim = limiting_solution(TANH, 1.0, 3.0, +1)
        assert lim.jumps[0].w_above == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k, c_r", [(0.5, 3.0), (0.3, 5.0), (1.0, 3.0)])
    def test_patch_error_below_tolerance_floor(self, k, c_r):
        # the patch radius sets an error floor that tol cannot lower
        lim = limiting_solution(TANH, k, c_r, +1, tol=1e-13)
        imps, errors = impedance_outcomes(TANH, k, [c_r], 1e-13, sign_ci=+1)
        assert errors == {}
        assert abs(lim.impedance - imps[0]) <= 1e-11 * abs(imps[0])

    def test_renormalizes_past_direct_overflow(self):
        # no layer at c = 12; the solution grows like exp(|k| h+), which
        # passes the float range between k = 140 and 150 on this column
        direct = impedance(TANH, 140.0, 12.0 + 0.0j)
        lim = limiting_solution(TANH, 140.0, 12.0, +1).impedance
        assert abs(lim - direct) <= 1e-10 * abs(direct)
        ks = np.array([150.0, 300.0, 1000.0, 3000.0])
        imps, errors = impedance_outcomes(TANH, ks, [12.0] * 4)
        assert errors == {}
        assert np.all(np.abs(imps + ks) <= 1e-4)
        # the lid normalization is past the float range: inf, never NaN
        (y0, _), _, errors = rayleigh._lid_shoot(TANH, ks, [12.0] * 4, 1e-10,
                                                 (0.0, 1.0))
        assert errors == {}
        assert np.all(np.isneginf(y0.real) & (y0.imag == 0.0))
        lim = limiting_solution(TANH, 150.0, 12.0, +1).impedance
        assert lim.imag == 0.0
        assert abs(lim + 150.0) <= 1e-4

    @pytest.mark.parametrize("k, sign_ci, message", [
        (1.0, 0, "sign_ci must be +1 or -1"),
        (0.0, 1, "wavenumber k must be finite and nonzero"),
        (math.nan, 1, "wavenumber k must be finite and nonzero"),
        (-math.inf, 1, "wavenumber k must be finite and nonzero"),
    ], ids=["no_side", "zero_k", "nan_k", "infinite_k"])
    def test_refuses_a_side_or_wavenumber_it_cannot_use(self, k, sign_ci,
                                                        message):
        with pytest.raises(ValueError) as exc:
            limiting_solution(TANH, k, 3.0, sign_ci)
        assert str(exc.value) == message

    def test_series_radius_validation(self):
        # the radius shrinks like 1e-4 / |k| and collapses before any step
        with pytest.raises(SeriesRadiusTooSmall,
                           match="series radius 1e-13 collapsed"):
            limiting_solution(TANH, 1e9, 3.0, +1)

    @pytest.mark.parametrize("offset", [1e-7, -1e-7, 1e-5, -1e-5])
    @pytest.mark.parametrize("knot", [3, 5, 8])
    def test_patch_spanning_a_knot_matches_the_path(self, knot, offset):
        # the lower layer's patch spans the knot, which is no cut of it: a
        # patch cut there is off by up to 0.15 or fails
        c_r = float(JET48.value(X48[knot] + offset))
        lim = limiting_solution(JET48, 1.0, c_r, +1, tol=1e-12)
        imps, errors = impedance_outcomes(JET48, 1.0, [c_r], 1e-12, sign_ci=+1)
        assert errors == {}
        assert abs(lim.impedance - imps[0]) <= 1e-6 * abs(imps[0])

    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12])
    @pytest.mark.parametrize("knot", [3, 5, 8])
    def test_layer_at_a_knot_is_crossed(self, knot, offset):
        # too close to the knot for a bump of the path; the patch crosses it
        c_r = float(JET48.value(X48[knot] + offset))
        lim = limiting_solution(JET48, 1.0, c_r, +1, tol=1e-12)
        assert len(lim.jumps) == 2
        assert max(lim.w_jump_defects()) <= 1e-8

    #: U falls from 3 to 1 at the kink x = 1 and on to -1 at 2.5
    KINKED = PiecewiseLinearProfile([0.0, 1.0, 2.5], [3.0, 1.0, -1.0],
                                    h_plus=4.2)

    @pytest.mark.parametrize("offset", [1e-5, -1e-5, 1e-6, -1e-6, 1e-3])
    def test_kink_beside_a_layer_keeps_its_jump(self, offset):
        # the patch stops short of the kink, whose jump a patch spanning
        # it would drop: the limit then reads -0.97711, 26% off
        c_r = float(self.KINKED.value(1.0 + offset))
        lim = limiting_solution(self.KINKED, 1.0, c_r, +1, tol=1e-12)
        near = impedance(self.KINKED, 1.0, complex(c_r, 1e-10), tol=1e-12)
        assert abs(lim.impedance - near) <= 1e-6 * abs(near)

    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_layer_at_a_kink_is_refused(self, offset):
        # c_r within 1e-12 of the kink speed 3: the closed form's one rule
        c_r = float(self.KINKED.value(1.0 + offset))
        with pytest.raises(NearSingularCoefficient, match="kink speed U\\(1.0\\)"):
            limiting_solution(self.KINKED, 1.0, c_r, +1, tol=1e-12)


def _jet_derivative(n: int):
    # U = 8 (x/L) e^(1 - x/L) with L = 1, peaking at 8 m/s at x2 = 1:
    # d^n/dt^n t e^-t = (-1)^n (t - n) e^-t
    return lambda x: 8.0 * math.e * (-1) ** n * (x - n) * math.exp(-x)


#: a jet with no critical layer above 8 m/s, one below U(h+) = 0.73 m/s and
#: two in between
JET = AnalyticProfile(f=_jet_derivative(0), df=_jet_derivative(1),
                      d2f=_jet_derivative(2), d3f=_jet_derivative(3),
                      d4f=_jet_derivative(4), h_plus=5.0, name="jet")


#: the jet sampled at 48 altitudes: a table, so it shoots along the indented
#: path, with the same layer counts on the pairs of TestLimitingBatch
JET_TABLE = TabulatedProfile(np.linspace(0.0, 5.0, 48),
                             JET.value(np.linspace(0.0, 5.0, 48)))


def w_sum(lim):
    """W*(0) = Im y*'(0) from the per-layer jumps of a limiting solution.

    W* vanishes at the lid and jumps by sign pi U'' u1 / |U'| (above minus
    below) at each layer, so W*(0) is minus the sum of the jumps.
    """
    return -sum(lim.sign_ci * math.pi * layer.u_double_prime * jump.u1
                / abs(layer.u_prime) for layer, jump in zip(lim.layers, lim.jumps))


class TestLimitingBatch:
    """The limit Im c -> 0+- shot along the indented path, in one kernel
    batch, against the Frobenius ``limiting_solution``."""

    # (k, c_r) pairs; on the jet they hold 1, 2, 2, 2, 0 and 2 layers
    KS = [0.4, 1.2, 2.5, 1.0, 0.7, 1.7]
    CS = [0.5, 2.0, 4.0, 6.0, 9.0, 3.0]

    @staticmethod
    def assert_close(imp, lim, rel):
        # the impedance, and the jump data through W*(0) = Im y*'(0)
        assert abs(imp - lim.impedance) <= rel * abs(lim.impedance)
        assert abs(imp.imag - w_sum(lim)) <= rel * abs(lim.impedance)

    @pytest.mark.parametrize("profile", [TANH, TestBatch.TABLE, JET_TABLE],
                             ids=["tanh", "table", "jet"])
    def test_matches_scalar_limiting_solution(self, profile):
        imps, errors = impedance_outcomes(profile, self.KS, self.CS, 1e-12,
                                          sign_ci=+1)
        assert errors == {}
        for k, c, imp in zip(self.KS, self.CS, imps):
            self.assert_close(imp, limiting_solution(profile, k, c, +1,
                                                     tol=1e-12), 1e-9)

    def test_mixes_zero_one_and_two_layers(self):
        imps, errors = impedance_outcomes(JET_TABLE, self.KS, self.CS, 1e-12,
                                          sign_ci=-1)
        assert errors == {}
        lims = [limiting_solution(JET_TABLE, k, c, -1, tol=1e-12)
                for k, c in zip(self.KS, self.CS)]
        assert [len(lim.jumps) for lim in lims] == [1, 2, 2, 2, 0, 2]
        for imp, lim in zip(imps, lims):
            self.assert_close(imp, lim, 1e-9)

    @pytest.mark.parametrize("profile", [TANH, TestBatch.TABLE, JET_TABLE],
                             ids=["tanh", "table", "jet"])
    def test_member_equals_solo_bitwise(self, profile):
        imps, _ = impedance_outcomes(profile, self.KS, self.CS, sign_ci=+1)
        for k, c, imp in zip(self.KS, self.CS, imps):
            solo, _ = impedance_outcomes(profile, k, [c], sign_ci=+1)
            assert solo[0] == imp

    def test_failing_member_leaves_the_others(self):
        # c_r = U(0) = 0 is refused by the layer scan
        imps, errors = impedance_outcomes(TANH, [1.0, 0.5, 2.0],
                                          [3.0, 0.0, 6.0], sign_ci=+1)
        assert list(errors) == [1]
        assert isinstance(errors[1], EndpointCritical)
        assert np.isnan(imps[1])
        with pytest.raises(EndpointCritical):
            limiting_solution(TANH, 0.5, 0.0, +1)
        rest, _ = impedance_outcomes(TANH, [1.0, 2.0], [3.0, 6.0], sign_ci=+1)
        assert imps[[0, 2]].tolist() == rest.tolist()

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
    def test_table_meets_its_tolerance(self, batched):
        # the spline knots, where U''' jumps, end the legs of both routes
        for n in (16, 40):
            x = np.linspace(0.0, 5.0, n)
            table = TabulatedProfile(x, 10.0 * np.tanh(x))
            ks, cs = [1.2, 0.5, 2.5], [6.0, 3.0, 8.0]
            if batched:
                got, _ = impedance_outcomes(table, ks, cs, 1e-10, sign_ci=+1)
                ref, _ = impedance_outcomes(table, ks, cs, 1e-13, sign_ci=+1)
            else:
                got = [limiting_solution(table, k, c, +1, tol=1e-10).impedance
                       for k, c in zip(ks, cs)]
                ref = [limiting_solution(table, k, c, +1, tol=1e-13).impedance
                       for k, c in zip(ks, cs)]
            for k, c, imp, want in zip(ks, cs, got, ref):
                assert abs(imp - want) <= 1e-9 * abs(want), (n, k, c)

    def test_real_speed_needs_a_side(self):
        with pytest.raises(NearSingularCoefficient, match="real wave speed"):
            impedance(TANH, 1.0, 3.0 + 0.0j)
        with pytest.raises(ValueError, match="sign_ci"):
            impedance_outcomes(TANH, 1.0, [3.0], sign_ci=0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tol_must_be_finite_and_not_negative(self, tol):
        # a NaN error norm cuts every step down to 2^18 steps an element
        with pytest.raises(ValueError, match="tol must be finite"):
            impedance_outcomes(TANH, 1.0, [3.0 + 0.05j], tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            limiting_solution(TANH, 1.0, 3.0, +1, tol=tol)

    def test_infinite_domain_rejected(self):
        # only a zero-curvature wind has a closed form on [0, inf)
        with pytest.raises(InfiniteDomain):
            limiting_solution(TanhProfile(10.0, 1.0, math.inf), 1.0, 5.0, +1)


def _tanh_table(n: int) -> TabulatedProfile:
    x = np.linspace(0.0, 5.0, n)
    return TabulatedProfile(x, 10.0 * np.tanh(x))


#: tanh48: 10 tanh(x) at 48 knots on [0, 5]
TANH48 = _tanh_table(48)


class TestContourOracle:
    """The kernel's indented path against plain ``solve_ivp`` along a bump
    of the oracle's own, near the real axis and in the limit."""

    CIS = [1e-6, 1e-4, 1e-2, 0.3]
    CASES = [
        (TANH, [(0.3, 5.7), (1.0, 3.13), (3.0, 1.81)]),
        (TestBatch.TABLE, [(0.3, 5.7), (1.0, 3.13), (3.0, 1.81)]),
        (_tanh_table(40), [(0.3, 5.7), (1.0, 3.13), (3.0, 1.81)]),
        # one layer near the interface, and two
        (JET_TABLE, [(0.4, 0.5), (1.2, 2.0), (2.5, 6.0)]),
        # a layer at 0.05, inside the first knot interval of the table
        (TANH, [(1.0, 0.5), (3.0, 0.5)]),
        (TANH48, [(1.0, 0.5), (0.3, 9.9)]),
    ]

    @pytest.mark.parametrize("profile, pairs", CASES,
                             ids=["tanh", "table16", "table40", "jet",
                                  "tanh-low", "table48"])
    def test_kernel_matches_oracle(self, profile, pairs):
        for sign in (+1, -1):
            ks = [k for k, _ in pairs]
            cs = [complex(c, 0.0) for _, c in pairs]
            if sign > 0:
                ks += [k for k, _ in pairs for _ in self.CIS]
                cs += [complex(c, ci) for _, c in pairs for ci in self.CIS]
            imps, errors = impedance_outcomes(profile, ks, cs, 1e-12,
                                              sign_ci=sign)
            assert errors == {}
            for k, c, imp in zip(ks, cs, imps):
                want = contour_impedance_oracle(profile, k, c, 1e-12, sign)
                assert abs(imp - want) <= 1e-9 * abs(want), (k, c, sign)
                if c.imag == 0.0:
                    lim = limiting_solution(profile, k, c.real, sign,
                                            tol=1e-12).impedance
                    assert abs(imp - lim) <= 1e-9 * abs(lim), (k, c, sign)


class TestIndentation:
    """Each bump of Lin's path spans [s - 2a, s + 2a] around its layer s,
    a = |depth|, inside the layer's stretch; the rest of the column runs on
    the real axis."""

    @staticmethod
    def bumps(profile, c, sign_ci=None):
        bounds = sorted({profile.h_plus, 0.0, *profile._breaks}, reverse=True)
        return rayleigh._bumps(profile, c, bounds, sign_ci), bounds

    @staticmethod
    def segments(monkeypatch, profile, k, c, sign_ci=None):
        """(lo, width, depth) of each segment of one pair's shoot."""
        seen = []
        coefficient = rayleigh._coefficient

        def spy(profile, c, kk, lo, width, depth):
            seen.append(np.stack((lo, width, depth)))
            return coefficient(profile, c, kk, lo, width, depth)

        monkeypatch.setattr(rayleigh, "_coefficient", spy)
        imps, errors = impedance_outcomes(profile, k, [c], sign_ci=sign_ci)
        assert errors == {} and np.isfinite(imps[0])
        [segs] = seen
        return segs.T.tolist()

    # layers at 0.05 (by the interface), 2.65 (mid-column) and 4.95 (by the
    # lid)
    @pytest.mark.parametrize("c", [0.5 + 1e-3j, 9.9 + 1e-3j, 9.999 + 1e-6j,
                                   0.5, 9.9, 9.999])
    @pytest.mark.parametrize("profile", [TANH, TANH48], ids=["tanh", "tanh48"])
    def test_bump_spans_twice_its_depth(self, monkeypatch, profile, c):
        c = complex(c)
        sign_ci = None if c.imag else +1
        (bump,), bounds = self.bumps(profile, c, sign_ci)
        lo, hi, depth = bump
        [(s, _)] = profile.path_layers(c.real)
        below = max(b for b in bounds if b <= s)
        above = min(b for b in bounds if b >= s)
        a = abs(depth)
        assert a == 0.5 * min(s - below, above - s, profile.path_reach(s))
        # an end that reaches the stretch's is the stretch's end itself
        assert lo == (below if 2.0 * a == s - below else s - 2.0 * a)
        assert hi == (above if 2.0 * a == above - s else s + 2.0 * a)
        assert below <= lo < s < hi <= above
        # one bent segment, the bump; the others run on the real axis and,
        # with it, tile the column
        segs = self.segments(monkeypatch, profile, 1.0, c, sign_ci)
        assert [(x, x + w, d) for x, w, d in segs if d != 0.0] == [bump]
        tops = sorted(x + w for x, w, _ in segs)
        assert sorted(x for x, _, _ in segs)[1:] == tops[:-1]
        assert (min(x for x, _, _ in segs), tops[-1]) == (0.0, 5.0)

    @pytest.mark.parametrize("c_r", [7.999, 7.99, 4.0])
    def test_two_layers_bumps_do_not_overlap(self, monkeypatch, c_r):
        # at 7.999 both layers lie between knots 9 and 10, and their
        # stretches meet at the midpoint between them
        (low, high), _ = self.bumps(JET48, complex(c_r), +1)
        (s1, _), (s2, _) = JET48.path_layers(c_r)
        assert low[0] < s1 < low[1] <= high[0] < s2 < high[1]
        for (lo, hi, depth), s in ((low, s1), (high, s2)):
            assert abs(depth) == pytest.approx(0.25 * (hi - lo), rel=1e-12)
            assert 0.5 * (lo + hi) == pytest.approx(s, rel=1e-12)
        segs = self.segments(monkeypatch, JET48, 1.0, complex(c_r), +1)
        assert [(x, x + w, d) for x, w, d in segs if d != 0.0] == [high, low]

    def test_slot_weights_scatter_back_to_the_tableau(self):
        tab, n, slot = rayleigh._TABLEAU, rayleigh._DOP_STAGES, rayleigh._SLOT
        assert slot[slot].tolist() == list(range(n))

        def scatter(span, weights):
            # each stage's weight, 0 where its slot is left out
            dense = np.zeros(weights.shape[:-1] + (n,))
            dense[..., slot[span]] = weights
            return dense

        reads = 0
        for s, (span, weights) in enumerate(rayleigh._DOP_A, 1):
            assert np.all(slot[span] < s)  # built before stage s
            assert scatter(span, weights).tobytes() == tab.A[s, :n].tobytes()
            reads += weights.size
        assert len(rayleigh._DOP_A) == n - 1
        span, weights = rayleigh._DOP_SUMS
        b, e5, e3 = scatter(span, weights)
        assert b.tobytes() == tab.B.tobytes()
        # the last stage, at t0 - h, is left out: the estimators weigh it 0
        assert e5.tobytes() == tab.E5[:n].tobytes() and tab.E5[n] == 0.0
        assert e3.tobytes() == tab.E3[:n].tobytes() and tab.E3[n] == 0.0
        assert reads + weights.shape[1] == 62


#: profiles that shoot along the indented path
PATH_PROFILES = st.sampled_from([TANH, TestBatch.TABLE, _tanh_table(40)])


class TestMetamorphic:
    @given(profile=PATH_PROFILES, k=st.floats(0.3, 3.0),
           c_r=st.floats(0.5, 9.5), log_ci=st.floats(-6.0, -2.0))
    @settings(max_examples=12, deadline=None)
    def test_conjugate_speed_conjugate_residual(self, profile, k, c_r, log_ci):
        from windwaves.dispersion import FluidParams, make_miles_residual

        params = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.8,
                             h_plus=5.0)
        residual = make_miles_residual(profile, params, k, tol=1e-12)
        c = complex(c_r, 10.0 ** log_ci)
        up, dn = residual(c), residual(c.conjugate())
        assert abs(dn - up.conjugate()) <= 1e-9 * abs(up)

    @given(profile=PATH_PROFILES, k=st.floats(0.3, 3.0),
           c_r=st.floats(0.5, 9.5))
    @settings(max_examples=12, deadline=None)
    def test_limits_from_both_sides_are_conjugate(self, profile, k, c_r):
        up, _ = impedance_outcomes(profile, k, [c_r], 1e-12, sign_ci=+1)
        dn, _ = impedance_outcomes(profile, k, [c_r], 1e-12, sign_ci=-1)
        assert abs(dn[0] - up[0].conjugate()) <= 1e-9 * abs(up[0])

    @given(profile=PATH_PROFILES, k=st.floats(0.3, 3.0),
           c_r=st.floats(0.5, 9.5), log_ci=st.floats(-6.0, -2.0),
           log_mod=st.floats(-3.0, 3.0), arg=st.floats(-math.pi, math.pi))
    @settings(max_examples=12, deadline=None)
    def test_impedance_ignores_lid_scale(self, profile, k, c_r, log_ci,
                                         log_mod, arg):
        c = complex(c_r, 10.0 ** log_ci)
        lam = 10.0 ** log_mod * complex(math.cos(arg), math.sin(arg))
        *_, base = lid_shoot(profile, k, c, tol=1e-12)
        # lid data near the float range are rescaled, not overflowed
        for init in ((0.0, lam), (0.0, 1e308)):
            *_, scaled = lid_shoot(profile, k, c, tol=1e-12, init=init)
            assert abs(scaled - base) <= 1e-9 * abs(base)


class TestImpedanceLimitCheck:
    def test_regular_profile_slope_one(self):
        # no critical layer: smooth dependence on c_I, slope about 1
        report = impedance_limit_check(TANH, 1.0, 12.0, +1,
                                       [1e-2, 1e-3, 1e-4])
        assert report.slope == pytest.approx(1.0, abs=0.15)

    def test_single_point_has_no_slope(self):
        report = impedance_limit_check(TANH, 1.0, 12.0, +1, [1e-3])
        assert report.slope is None
        assert len(report.errors) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            impedance_limit_check(TANH, 1.0, 3.0, +1, [1e-3, 1e-2])
        with pytest.raises(ValueError):
            impedance_limit_check(TANH, 1.0, 3.0, +1, [-1e-3])
