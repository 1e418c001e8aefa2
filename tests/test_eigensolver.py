import cmath
import math

import numpy as np
import pytest

from windwaves import asymptotics, dispersion, eigensolver, rayleigh
from windwaves.asymptotics import necessity_certificate
from windwaves.dispersion import (
    FluidParams,
    ck,
    make_miles_residual,
    pwl_dispersion,
    residual_miles,
)
from windwaves.eigensolver import (
    NEUTRAL,
    UNSTABLE,
    EigenResult,
    ScanStrategy,
    _evaluator,
    _muller,
    _rounds,
    _winding,
    continue_in_epsilon,
    find_root,
    root_counts,
    scan_k,
)
from windwaves.errors import (
    BoundaryZero,
    BranchLost,
    NoConvergence,
    PhaseJumpUnresolved,
    WindwavesError,
)
from windwaves.profiles import ConstantProfile, TabulatedProfile, TanhProfile

from oracles import multistart_roots, quadratic_roots


X48 = np.linspace(0.0, 5.0, 48)
#: jet48: 8 e x e^-x at 48 knots on [0, 5], two layers for c in (0.73, 8)
JET48 = TabulatedProfile(X48, 8.0 * math.e * X48 * np.exp(-X48))


def params_with(**kw):
    base = dict(rho_plus=1.22, rho_minus=1000.0, g=9.8, sigma=0.0,
                h_plus=math.inf, h_minus=math.inf)
    base.update(kw)
    return FluidParams(**base)


def kh_residual(params, k, u0):
    eps = params.epsilon
    ak = abs(k)

    def residual(c):
        return (params.g * (1 - eps) + params.sigma * k * k / params.rho_minus
                - eps * ak * (u0 - c) ** 2 - c * c * ak)

    return residual


class TestFindRoot:
    def test_linear_residual_two_iterations(self):
        c0 = 1.3 - 0.7j
        res = find_root(lambda c: c - c0, 1.0 + 0.0j, tol=1e-13)
        assert abs(res.c - c0) <= 1e-12
        assert res.iterations <= 2

    def test_kh_quadratic_from_near_seed(self):
        p = params_with(rho_plus=300.0, sigma=0.05)
        k, u0 = 2.0, 4.0
        residual = kh_residual(p, k, u0)
        eps = p.epsilon
        a = -(eps + 1) * k
        b = 2 * eps * k * u0
        c0 = p.g * (1 - eps) + p.sigma * k * k / p.rho_minus - eps * k * u0**2
        r1, r2 = quadratic_roots(a, b, c0)
        root = max((r1, r2), key=lambda z: z.imag)
        res = find_root(residual, root * (1 + 1e-3), tol=1e-11, scale=p.g, k=k)
        assert abs(res.c - root) <= 1e-10 * abs(root)
        assert res.iterations <= 8
        assert res.growth_rate == pytest.approx(k * res.c.imag)

    def test_eps0_residual_never_reports_growth(self):
        p = params_with()
        k = 1.0
        c_k = ck(p, k)
        residual = lambda c: p.g - c * c * k  # the eps = 0 relation
        res = find_root(residual, c_k + 0.5j * c_k, tol=1e-11, scale=p.g)
        assert abs(res.c.imag) <= 1e-8 * abs(res.c.real)
        assert res.classification == NEUTRAL

    def test_no_convergence_reported(self):
        with pytest.raises(NoConvergence):
            find_root(lambda c: 1.0 + 0.0 * c, 0.0j, tol=1e-11, max_iter=10)

    def test_batch_residual_gives_the_pointwise_result(self):
        # the starting triple in one batch call, then one point per call,
        # and bit for bit the root of the scalar residual
        p = params_with(h_plus=5.0)
        k = 1.0
        residual = make_miles_residual(TanhProfile(10.0, 1.0, 5.0), p, k)
        calls = []

        def recorded(c):
            raise AssertionError("find_root must evaluate through .batch")

        def batch(cs):
            calls.append(len(cs))
            return residual.batch(cs)

        recorded.batch = batch
        seed = ck(p, k) + 0.01j
        got = find_root(recorded, seed, scale=p.g, k=k)
        assert calls[0] == 3 and calls[1:] == [1] * got.iterations
        pointwise = find_root(lambda c: residual(c), seed, scale=p.g, k=k)
        assert repr(got) == repr(pointwise)


class TestMullerKnownPair:
    """A Muller chain that starts from a known (c0, f(c0)) pair."""

    root, other = 1.0 + 0.2j, 5.0 - 1.0j

    def f(self, c):
        return (c - self.root) * (c - self.other)

    def run(self, seed, known):
        """The chain's result and the points it asked for, round by round."""
        rounds = []

        def evaluate(owners, zs):
            rounds.append(zs)
            return _evaluator(self.f)(owners, zs)

        chain = _muller(seed, tol=1e-12, max_iter=50, scale=1.0, k=None,
                        known=known)
        results, errors = _rounds(evaluate, [chain])
        assert not errors
        assert abs(results[0].c - self.root) <= 1e-12
        return results[0], rounds

    def test_secant_start_converges(self):
        c0, seed = 1.0 + 0.0j, 1.1 + 0.1j
        got, rounds = self.run(seed, (c0, self.f(c0)))
        # the seed alone, then the secant point from (c0, seed)
        f0, f1 = self.f(c0), self.f(seed)
        assert rounds[:2] == [[seed], [seed - f1 * (seed - c0) / (f1 - f0)]]
        assert [len(zs) for zs in rounds[2:]] == [1] * got.iterations

    def test_equal_values_take_the_triples_point(self):
        # f(c0) == f(seed) has no secant: the second point is seed + h0
        seed = 1.1 + 0.1j
        _, rounds = self.run(seed, (0.9 + 0.0j, self.f(seed)))
        assert rounds[:2] == [[seed], [seed + 1e-4 * abs(seed)]]

    def test_close_pair_keeps_the_triple(self):
        # within 1e-6 max(|c0|, 1) of c_init the pair is ignored
        seed = 1.1 + 0.1j
        _, rounds = self.run(seed, (seed - 0.9e-6 * abs(seed), 1.0 + 0.0j))
        h0 = 1e-4 * abs(seed)
        assert rounds[0] == [seed + h0, seed - h0, seed]


def batched(residual):
    """The residual behind a ``batch`` attribute only; a scalar call fails.
    ``batch`` returns ``(values, errors)``, each point's error caught."""
    calls = []

    def scalar(c):
        raise AssertionError("root_counts must evaluate through .batch")

    def batch(cs):
        calls.append(len(cs))
        vals, errors = [], {}
        for j, c in enumerate(cs):
            try:
                vals.append(residual(complex(c)))
            except WindwavesError as exc:
                vals.append(complex("nan"))
                errors[j] = exc
        return np.array(vals, dtype=complex), errors

    scalar.batch = batch
    scalar.calls = calls
    return scalar


def count_both(residual, rect, **kw):
    """root_counts of one rectangle, point by point and through ``.batch``;
    they must agree."""
    n = root_counts(residual, [rect], **kw)[0]
    wrapped = batched(residual)
    assert root_counts(wrapped, [rect], **kw)[0] == n
    return n


class TestCountRoots:
    def test_single_real_root_straddled(self):
        p = params_with(rho_plus=1e-6 * 1000.0)
        k = 1.0
        c_k = ck(p, k)
        residual = kh_residual(p, k, 5.0)
        n = count_both(residual, (c_k - 0.5, c_k + 0.5, -0.3, 0.3))
        assert n == 1

    def test_conjugate_pair_of_pwl_cubic(self):
        k, g = 1.0, 9.8
        gamma0 = math.sqrt(g / k)
        bracket = 1.0 - (1.0 - math.exp(-2.0)) / 2.0
        mu = gamma0 / bracket
        p = FluidParams(rho_plus=1.0, rho_minus=1000.0, g=g)
        d = pwl_dispersion(mu, 1.0, p, k)
        poly = np.array(d.cubic.coeffs)
        residual = lambda c: complex(np.polyval(poly, c))
        n = count_both(residual, (gamma0 - 0.5, gamma0 + 0.5, -0.5, 0.5))
        assert n == 2

    def test_empty_rectangle(self):
        residual = lambda c: (c - 1.0) * (c + 1.0)
        assert count_both(residual, (5.0, 6.0, -1.0, 1.0)) == 0

    def test_boundary_zero_detected(self):
        residual = lambda c: c - 1.0
        with pytest.raises(BoundaryZero):
            root_counts(residual, [(0.0, 1.0, -0.5, 0.5)])[0]
        with pytest.raises(BoundaryZero):
            root_counts(batched(residual), [(0.0, 1.0, -0.5, 0.5)])[0]

    def test_multiplicity_counted(self):
        residual = lambda c: (c - 0.3j) ** 2
        assert count_both(residual, (-1.0, 1.0, -1.0, 1.0)) == 2

    def test_two_real_roots_at_vanishing_eps(self):
        # the eps -> 0 relation g = c^2 |k| tanh(|k| h-) has exactly the two
        # real roots +-c_k in a rectangle straddling the axis
        p = params_with(rho_plus=1e-9 * 1000.0)
        k = 1.0
        residual = lambda c: residual_miles(c, -abs(k), p, k, 5.0, 0.0)
        c_k = ck(p, k)
        rect = (-2.0 * c_k, 2.0 * c_k, -c_k, c_k)
        assert count_both(residual, rect, n_boundary=96) == 2

    def test_count_matches_multistart(self):
        # winding number equals distinct Muller roots from a 5x5 seed grid
        p = params_with(rho_plus=300.0, sigma=0.05)
        k, u0 = 2.0, 4.0
        residual = kh_residual(p, k, u0)
        rect = (-4.0, 4.0, -2.0, 2.0)
        roots = multistart_roots(residual, rect, grid=5, scale=p.g)
        assert count_both(residual, rect, n_boundary=96) == len(roots) == 2

    def test_conjugate_seed_finds_conjugate_root(self):
        p = params_with(rho_plus=300.0, sigma=0.05)
        residual = kh_residual(p, 2.0, 4.0)
        up = find_root(residual, 0.5 + 0.5j, scale=p.g)
        dn = find_root(residual, 0.5 - 0.5j, scale=p.g)
        assert abs(dn.c - up.c.conjugate()) <= 1e-9 * abs(up.c)

    def test_one_batch_per_refinement_level(self):
        # a root 1e-10 below the bottom edge: the contour plus a few 16-way
        # levels, each one call, each flagged interval split into 15 points
        residual = batched(lambda c: c - (0.53 - 1e-10j))
        assert root_counts(residual, [(0.0, 1.0, 0.0, 1.0)],
                           n_boundary=8) == [0]
        assert residual.calls[0] == 32
        assert 1 < len(residual.calls) <= 1 + 48 // 4
        assert all(n % 15 == 0 for n in residual.calls[1:])

    @pytest.mark.parametrize("wrap", [lambda f: f, batched],
                             ids=["scalar", "batch"])
    def test_unresolved_phase_jump_at_max_levels(self, wrap):
        # sqrt jumps by pi across its branch cut on the negative axis
        residual = wrap(cmath.sqrt)
        with pytest.raises(PhaseJumpUnresolved, match="after 8 levels"):
            root_counts(residual, [(-2.0, -1.0, -1.0, 1.0)], max_levels=8)[0]


@pytest.mark.parametrize("u_max, d, k", [(0.5, 0.6, 0.5), (1.0, 1.0, 1.2),
                                         (1.5, 1.4, 2.0)])
def test_certificate_counts_match_pointwise_path(u_max, d, k):
    # the certificate decides in one round, and certify-stable's two
    # rectangles, with edges 1e-10 from the real root near c_k, counted point
    # by point agree with it
    eps, im_floor = 1.22e-3, 1e-10
    p = params_with(h_plus=5.0)
    prof = TanhProfile(u_max, d, 5.0)
    c_k = ck(p, k)
    radius = 0.25 * (c_k - u_max * math.tanh(5.0 / d))
    cert = necessity_certificate(prof, p, k, eps, radius, n_boundary=24,
                                 im_floor=im_floor)
    assert cert.route == "square"
    residual = make_miles_residual(prof, params_with(rho_plus=eps * 1000.0,
                                                     h_plus=5.0), k)
    pointwise = lambda c: residual(c)  # no .batch attribute
    lo, hi = c_k - radius, c_k + radius
    assert root_counts(pointwise, [(lo, hi, im_floor, radius)], 24)[0] \
        == cert.count_upper == 0
    assert root_counts(pointwise, [(lo, hi, -radius, -im_floor)], 24)[0] \
        == cert.count_lower == 0


def test_certificate_square_shoots_each_conjugate_pair_once(monkeypatch):
    # the square is symmetric about the real axis as exact conjugate pairs,
    # and a pair below the axis is shot as its conjugate: of the 4 n contour
    # points and n + 1 axis samples, 3 n are distinct
    from windwaves import rayleigh

    eps, k, n = 1.22e-3, 1.2, 24
    p = params_with(h_plus=5.0)
    prof = TanhProfile(1.0, 1.0, 5.0)
    radius = 0.25 * (ck(p, k) - math.tanh(5.0))
    contour = next(_winding((ck(p, k) - radius, ck(p, k) + radius, -radius,
                             radius), n, 8))
    assert {z.conjugate() for z in contour} == set(contour)
    sizes = []
    shoot = rayleigh._shoot

    def counted(profile, ks, cs, *args, **kwargs):
        sizes.append(cs.size)
        return shoot(profile, ks, cs, *args, **kwargs)

    monkeypatch.setattr(rayleigh, "_shoot", counted)
    cert = necessity_certificate(prof, p, k, eps, radius, n_boundary=n)
    assert cert.route == "square"
    assert sizes == [3 * n]


def test_certificate_one_batch_per_round(monkeypatch):
    # the certificate decides in one shoot of the square's contour and its
    # n + 1 axis samples; counted directly, the two rectangles run in
    # lockstep: one shoot holds both contours, and each later one the next
    # refinement level of both
    eps, im_floor, k, n = 1.22e-3, 1e-10, 1.2, 24
    p = params_with(h_plus=5.0)
    prof = TanhProfile(1.0, 1.0, 5.0)
    c_k = ck(p, k)
    radius = 0.25 * (c_k - math.tanh(5.0))
    residual = make_miles_residual(prof, params_with(rho_plus=eps * 1000.0,
                                                     h_plus=5.0), k)
    lo, hi = c_k - radius, c_k + radius
    rects = [(lo, hi, im_floor, radius), (lo, hi, -radius, -im_floor)]
    alone = []  # the batch sizes of each rectangle counted on its own
    for rect in rects:
        calls = []

        def recorded(c):
            raise AssertionError("root_counts must evaluate through .batch")

        def batch(cs, calls=calls):
            calls.append(len(cs))
            return residual.batch(cs)

        recorded.batch = batch
        assert root_counts(recorded, [rect], n)[0] == 0
        alone.append(calls)

    sizes = []
    shoot = dispersion.impedance_outcomes

    def counted(profile, k, cs, tol, **kwargs):
        sizes.append(len(cs))
        return shoot(profile, k, cs, tol, **kwargs)

    monkeypatch.setattr(dispersion, "impedance_outcomes", counted)
    cert = necessity_certificate(prof, p, k, eps, radius, n_boundary=n,
                                 im_floor=im_floor)
    assert cert.route == "square"
    assert sizes == [4 * n + n + 1]

    sizes.clear()
    assert root_counts(residual, rects, n) == [0, 0]
    levels = max(len(calls) for calls in alone) - 1
    assert all(len(calls) > 1 for calls in alone)  # both rectangles refine
    assert sizes[0] == 2 * 4 * n
    assert len(sizes) == 1 + levels
    assert sizes[1:] == [sum(calls[r] for calls in alone if r < len(calls))
                         for r in range(1, 1 + levels)]


def raises_on_axis(c, c_k, r):
    """A simple root at c_k + 0.1 r, and a residual error on the axis."""
    if c.imag == 0.0 and abs(c.real - c_k) < r:
        raise NoConvergence(f"no residual at {c}")
    return c - c_k - 0.1 * r


def mid_sample(c_k, r, n=48):
    """The middle axis sample of the certificate's square, bit for bit."""
    lo, hi = c_k - r, c_k + r
    return lo + (hi - lo) * (n // 2 / n)


@pytest.mark.parametrize("f, route", [
    (lambda c, c_k, r: (c - c_k + 0.45 * r) * (c - c_k - 0.1 * r)
     * (c - c_k - 0.7 * r), "square"),
    (lambda c, c_k, r: (c - c_k) ** 2 + (0.3 * r) ** 2, "rectangles"),
    (lambda c, c_k, r: (c - c_k - 0.2 * r) ** 2, "rectangles"),
    (lambda c, c_k, r: (c - c_k - r / 240) * (c - c_k - r / 120), "rectangles"),
    (lambda c, c_k, r: c - c_k - 0.1 * r + 1e-3j * r, "rectangles"),
    (raises_on_axis, "rectangles"),
    (lambda c, c_k, r: c - mid_sample(c_k, r), "rectangles"),
], ids=["three-simple-real-roots", "conjugate-pair", "double-real-root",
        "real-roots-closer-than-samples", "complex-on-axis", "axis-error",
        "zero-at-a-sample"])
def test_certificate_route_on_synthetic_residuals(monkeypatch, f, route):
    # one round decides only when every root in the square is real and
    # simple; any other residual gets the two rectangles' counts
    p, k, im_floor = params_with(h_plus=5.0), 1.0, 1e-10
    c_k = ck(p, k)
    r = 0.25 * (c_k - 1.5 * math.tanh(5.0))
    residual = batched(lambda c: f(c, c_k, r))
    monkeypatch.setattr(asymptotics, "make_miles_residual",
                        lambda *args, **kwargs: residual)
    lo, hi = c_k - r, c_k + r
    want = root_counts(residual, [(lo, hi, im_floor, r),
                                  (lo, hi, -r, -im_floor)], 48)
    cert = necessity_certificate(TanhProfile(1.5, 1.0, 5.0), p, k, 1e-3, r,
                                 im_floor=im_floor)
    assert cert.route == route
    assert [cert.count_upper, cert.count_lower] == want


def sqrt_left_fails(c):
    """sqrt, with a residual error left of Re c = -0.5."""
    if c.real < -0.5:
        raise NoConvergence(f"no residual at {c}")
    return cmath.sqrt(c)


class TestRootCounts:
    """:func:`root_counts` gives, rectangle by rectangle, what separate
    calls of one rectangle each give, counts and errors alike."""

    def cases(self):
        kh = kh_residual(params_with(rho_plus=300.0, sigma=0.05), 2.0, 4.0)
        k, g = 1.0, 9.8
        gamma0 = math.sqrt(g / k)
        mu = gamma0 / (1.0 - (1.0 - math.exp(-2.0)) / 2.0)
        poly = np.array(pwl_dispersion(mu, 1.0, FluidParams(
            rho_plus=1.0, rho_minus=1000.0, g=g), k).cubic.coeffs)
        p = params_with(rho_plus=1e-9 * 1000.0)
        c_k = ck(p, 1.0)
        yield kh, [(-4.0, 4.0, -2.0, 2.0), (-4.0, 4.0, 1e-3, 2.0),
                   (-4.0, 4.0, -2.0, -1e-3)], 64
        yield (lambda c: complex(np.polyval(poly, c)),
               [(gamma0 - 0.5, gamma0 + 0.5, -0.5, 0.5),
                (gamma0 - 0.5, gamma0 + 0.5, 1e-10, 0.5),
                (gamma0 + 0.1, gamma0 + 0.5, -0.5, 0.5)], 64)
        yield (lambda c: residual_miles(c, -1.0, p, 1.0, 5.0, 0.0),
               [(-2.0 * c_k, 2.0 * c_k, -c_k, c_k),
                (0.0, 2.0 * c_k, 1e-10, c_k), (0.0, 2.0 * c_k, -c_k, c_k)], 96)

    @pytest.mark.parametrize("wrap", [lambda f: f, batched],
                             ids=["scalar", "batch"])
    def test_lockstep_equals_sequential(self, wrap):
        for residual, rects, n in self.cases():
            alone = [root_counts(residual, [rect], n)[0] for rect in rects]
            assert root_counts(wrap(residual), rects, n) == alone
            assert len(set(alone)) > 1

    @pytest.mark.parametrize("wrap", [lambda f: f, batched],
                             ids=["scalar", "batch"])
    def test_first_failing_rectangle_raises(self, wrap):
        jump = (-0.4, -0.1, -1.0, 1.0)  # across sqrt's cut
        zero = (0.0, 1.0, -0.5, 0.5)    # sqrt(0) = 0 on the left edge
        broken = (-2.0, -1.0, -1.0, 1.0)  # every residual fails
        fine = (1.0, 2.0, -1.0, 1.0)
        residual = wrap(sqrt_left_fails)
        kw = dict(max_levels=8)
        with pytest.raises(PhaseJumpUnresolved, match="after 8 levels"):
            root_counts(sqrt_left_fails, [jump], **kw)[0]
        for first, error in [(jump, PhaseJumpUnresolved), (zero, BoundaryZero),
                             (broken, NoConvergence)]:
            for second in (jump, zero, broken, fine):
                with pytest.raises(error):
                    root_counts(residual, [first, second], **kw)
                with pytest.raises(error):
                    root_counts(residual, [fine, first, second], **kw)
        assert root_counts(residual, [fine, fine], **kw) == [0, 0]

    def test_failing_rectangle_costs_no_extra_call(self):
        # one batch call per round: the failing rectangle ends with its
        # error, the other refines from the same calls, and no rectangle is
        # evaluated again on its own
        def residual(c):  # a root 1e-10 below the fine rectangle
            if c.real < -0.5:
                raise NoConvergence(f"no residual at {c}")
            return c - (1.53 - 1e-10j)

        broken, fine, n = (-2.0, -1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 1.0), 8
        alone = batched(residual)
        assert root_counts(alone, [fine], n)[0] == 0
        assert len(alone.calls) > 1
        for rects in ([broken, fine], [fine, broken]):
            joint = batched(residual)
            with pytest.raises(NoConvergence):
                root_counts(joint, rects, n)
            assert joint.calls == [2 * 4 * n] + alone.calls[1:]

    def test_failed_rectangle_skips_its_later_points(self):
        # point by point, a rectangle's first failed point ends it, and its
        # other points are not evaluated
        calls = []

        def residual(c):
            calls.append(c)
            return sqrt_left_fails(c)

        with pytest.raises(NoConvergence):
            root_counts(residual, [(-2.0, -1.0, -1.0, 1.0),
                                   (1.0, 2.0, -1.0, 1.0)], 64)
        assert len(calls) == 1 + 4 * 64

    @pytest.mark.parametrize("wrap", [lambda f: f, batched],
                             ids=["scalar", "batch"])
    def test_bad_rectangle_raises_before_any_evaluation(self, wrap):
        def residual(c):
            raise AssertionError("a residual was evaluated")

        with pytest.raises(ValueError, match="positive extent"):
            root_counts(wrap(residual), [(0.0, 1.0, 0.0, 1.0),
                                         (0.0, 1.0, 1.0, 0.0)])


class TestContinueInEpsilon:
    def test_pwl_branch_tracks_cubic_roots(self):
        k, g = 1.0, 9.8
        gamma0 = math.sqrt(g / k)
        bracket = 1.0 - (1.0 - math.exp(-2.0)) / 2.0
        mu = gamma0 / bracket

        def family(eps):
            p = FluidParams(rho_plus=max(eps, 1e-12) * 1000.0,
                            rho_minus=1000.0, g=g)
            d = pwl_dispersion(mu, 1.0, p, k, epsilon=eps)
            poly = np.array(d.cubic.coeffs)
            return lambda c: complex(np.polyval(poly, c))

        eps_list = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
        d0 = pwl_dispersion(mu, 1.0, FluidParams(rho_plus=0.1, rho_minus=1000.0,
                                                 g=g), k, epsilon=eps_list[0])
        seed = max(d0.roots, key=lambda z: z.imag)
        results = continue_in_epsilon(family, eps_list, seed, scale=g, k=k)
        ims = [r.c.imag for r in results]
        assert all(b > a > 0.0 for a, b in zip(ims, ims[1:]))
        for eps, r in zip(eps_list, results):
            d = pwl_dispersion(mu, 1.0, FluidParams(rho_plus=0.1,
                                                    rho_minus=1000.0, g=g),
                               k, epsilon=eps)
            want = max(d.roots, key=lambda z: z.imag)
            assert abs(r.c - want) <= 1e-8 * abs(want)
        # growth scales like sqrt(eps)
        ratio = results[-1].c.imag / results[0].c.imag
        assert ratio == pytest.approx(math.sqrt(eps_list[-1] / eps_list[0]),
                                      rel=0.05)

    def test_kh_below_threshold_stays_real(self):
        p0 = params_with(sigma=0.074)
        k, u0 = 300.0, 3.0  # below the ~6.6 m/s onset

        def family(eps):
            p = FluidParams(rho_plus=eps * 1000.0, rho_minus=1000.0, g=9.8,
                            sigma=0.074)
            return kh_residual(p, k, u0)

        c_seed = ck(p0, k)
        # stays below onset for eps <= 1e-3 (the threshold shrinks with eps)
        results = continue_in_epsilon(family, [1e-4, 3e-4, 1e-3], c_seed,
                                      scale=9.8, k=k)
        for r in results:
            assert abs(r.c.imag) < 1e-12 * max(1.0, abs(r.c.real))

    def test_branch_lost_raised(self):
        def family(eps):
            return lambda c: 1.0 + 0.0 * c  # no roots anywhere

        with pytest.raises(BranchLost):
            continue_in_epsilon(family, [1e-4, 1e-3], 1.0 + 0.0j, max_iter=8)

    def test_eps_must_ascend(self):
        with pytest.raises(ValueError):
            continue_in_epsilon(lambda e: (lambda c: c), [1e-3, 1e-4], 0.0j)


class TestScanK:
    def test_uniform_wind_below_threshold_all_stable(self):
        p = FluidParams(rho_plus=1.22, rho_minus=1000.0, g=9.81, sigma=0.074)
        prof = ConstantProfile(3.0)
        curve = scan_k(prof, p, [50.0, 200.0, 363.0, 800.0])
        assert all(e.converged for e in curve.entries)
        assert all(e.classification == NEUTRAL for e in curve.entries)
        assert [e.k for e in curve.entries] == sorted(e.k for e in curve.entries)

    def test_tanh_band_matches_growth_constant_sign(self):
        from windwaves.asymptotics import miles_c_sharp
        from windwaves.errors import NoCriticalLayer

        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        ks = [0.05, 0.12, 0.3, 1.0, 3.0]
        curve = scan_k(prof, p, ks, ScanStrategy(rayleigh_tol=1e-10))
        for entry in curve.entries:
            try:
                expected_unstable = miles_c_sharp(prof, p, entry.k).c_sharp > 0.0
            except NoCriticalLayer:
                expected_unstable = False
            assert entry.converged, entry.message
            assert (entry.classification == UNSTABLE) == expected_unstable, entry
            assert entry.c.imag >= 0.0

    @pytest.mark.parametrize("L, V", [(2.0, 1.0), (1.0, 3.0), (0.5, 2.5)])
    def test_dimensional_scaling(self, L, V):
        # x2 -> L x2, U -> V U, g -> V^2 g / L, sigma -> V^2 L sigma and
        # k -> k / L leave the problem unchanged in scaled units: c -> V c
        ks = [0.3, 0.8, 1.5, 3.0]
        p = params_with(h_plus=5.0, sigma=0.07)
        scaled = params_with(h_plus=5.0 * L, sigma=0.07 * V * V * L,
                             g=9.8 * V * V / L)
        base = scan_k(TanhProfile(10.0, 1.0, 5.0), p, ks)
        moved = scan_k(TanhProfile(10.0 * V, L, 5.0 * L), scaled,
                       [k / L for k in ks])
        for a, b in zip(base.entries, moved.entries):
            assert a.converged and b.converged, (a, b)
            want = V * a.c
            assert abs(b.c - want) <= 1e-9 * abs(want), (a, b)
            assert abs(b.c.imag - want.imag) <= 1e-8 * abs(want.imag), (a, b)

    def test_converged_row_is_its_chains_result(self):
        p = params_with(h_plus=5.0)
        curve = scan_k(TanhProfile(10.0, 1.0, 5.0), p, [0.3, 1.0, 3.0])
        for entry in curve.entries:
            assert isinstance(entry, EigenResult)
            assert entry.converged and entry.message == "", entry
            assert entry.iterations >= 1
            assert entry.growth_rate == entry.k * entry.c.imag

    def test_no_layer_anywhere_gives_stable_sweep(self):
        p = params_with()
        prof = ConstantProfile(0.5)  # max U far below every c_k in the range
        curve = scan_k(prof, p, [0.5, 1.0, 2.0])
        assert curve.unstable_ks() == []

    def test_validation(self):
        p = params_with()
        with pytest.raises(ValueError):
            scan_k(ConstantProfile(1.0), p, [])

    @staticmethod
    def scalar_chain(prof, p, k, strategy=ScanStrategy()):
        # the per-k Muller chain of a sweep, on the scalar residual
        from windwaves.asymptotics import miles_c_sharp
        from windwaves.errors import WindwavesError

        seed = complex(ck(p, k))
        try:
            seed += 1j * p.epsilon * max(miles_c_sharp(prof, p, k).c_sharp, 0.0)
        except WindwavesError:
            pass
        residual = make_miles_residual(prof, p, k, tol=strategy.rayleigh_tol)
        return find_root(residual, seed, tol=strategy.tol,
                         max_iter=strategy.max_iter, scale=p.g, k=k)

    def test_lockstep_matches_per_k_find_root(self):
        # find_root starts from the triple; a sweep row with a growth
        # constant starts from its seed shoot at c_k and a secant step
        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        ks = [0.05, 0.12] + np.linspace(0.3, 3.0, 12).tolist()
        curve = scan_k(prof, p, ks)
        for entry in curve.entries:
            want = self.scalar_chain(prof, p, entry.k).c
            if want.imag < 0.0:
                want = want.conjugate()
            assert abs(entry.c - want) <= 1e-9 * abs(want), entry

    @staticmethod
    def shot_sizes(monkeypatch):
        """The number of wave speeds in each residual round, as it grows."""
        sizes = []
        shoot = dispersion.impedance_outcomes

        def counted(profile, k, cs, tol, **kwargs):
            sizes.append(len(cs))
            return shoot(profile, k, cs, tol, **kwargs)

        monkeypatch.setattr(dispersion, "impedance_outcomes", counted)
        return sizes

    @staticmethod
    def chain_seeds(monkeypatch):
        """The seed of each Muller chain, by its k."""
        seeds = {}
        muller = eigensolver._muller

        def recorded(c_init, **kwargs):
            seeds[kwargs["k"]] = c_init
            return muller(c_init, **kwargs)

        monkeypatch.setattr(eigensolver, "_muller", recorded)
        return seeds

    def test_seeded_rows_start_from_the_seed_alone(self, monkeypatch):
        # the seed stage's limit impedance gives each seeded row its residual
        # at c_k, so its first round shoots the seed alone
        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        ks = np.linspace(0.3, 3.0, 12).tolist()
        sizes = self.shot_sizes(monkeypatch)
        curve = scan_k(prof, p, ks)
        assert all(e.converged for e in curve.entries)
        assert sizes[0] == len(ks)
        swept = sum(sizes)
        sizes.clear()
        for k in ks:  # find_root starts from the triple
            self.scalar_chain(prof, p, k)
        assert swept <= 0.8 * sum(sizes)

    def test_rows_without_a_secant_start_from_the_triple(self, monkeypatch):
        sizes = self.shot_sizes(monkeypatch)
        prof = TanhProfile(10.0, 1.0, 5.0)
        # c_k = 14 at k 0.05 is above U's maximum: no seed stage
        curve = scan_k(prof, params_with(h_plus=5.0), [0.05, 0.3, 1.0])
        assert all(e.converged for e in curve.entries)
        assert sizes[0] == 3 + 1 + 1
        # at eps 1e-6, the Newton step from c_k is 1.0e-7 c_k at k 3, below
        # the spacing guard 1e-6 c_k
        sizes.clear()
        seeds = self.chain_seeds(monkeypatch)
        p = params_with(h_plus=5.0, rho_plus=1e-3)
        curve = scan_k(prof, p, [3.0])
        assert abs(seeds[3.0] - ck(p, 3.0)) < 1e-6 * ck(p, 3.0)
        assert curve.entries[0].converged
        assert sizes[0] == 3

    @pytest.mark.filterwarnings("ignore:sufficient sign hypotheses")
    @pytest.mark.parametrize("us", [
        lambda x: 10.0 * np.tanh(x),
        lambda x: 8.0 * math.e * x * np.exp(-x),  # c_sharp < 0 near k 0.55
    ], ids=["tanh48", "table48"])
    def test_table_rows_match_find_root(self, us):
        # as test_lockstep_matches_per_k_find_root, on 48-knot tables;
        # a row fails where find_root fails
        xs = np.linspace(0.0, 5.0, 48)
        prof = TabulatedProfile(xs, us(xs))
        p = params_with(h_plus=5.0)
        curve = scan_k(prof, p, np.linspace(0.3, 3.0, 12).tolist())
        for entry in curve.entries:
            try:
                want = self.scalar_chain(prof, p, entry.k).c
            except WindwavesError:
                assert not entry.converged, entry
                continue
            if want.imag < 0.0:
                want = want.conjugate()
            assert entry.converged, entry
            assert abs(entry.c - want) <= 1e-9 * abs(want), entry

    @pytest.mark.filterwarnings("ignore:sufficient sign hypotheses")
    @pytest.mark.parametrize("prof, k_min", [
        (TanhProfile(10.0, 1.0, 5.0), 0.3),
        (TanhProfile(8.0, 0.6, 5.0), 0.3),
        (JET48, 0.7),  # two layers: the growth constants take Frobenius
    ], ids=["tanh(10,1,5)", "tanh(8,0.6,5)", "jet48"])
    def test_newton_seed_is_one_muller_step_from_the_root(self, monkeypatch,
                                                           prof, k_min):
        # the Newton step from c_k carries the O(eps) real shift of the root
        # as well as i eps c_sharp, so the secant point and one Muller step
        # converge
        seeds = self.chain_seeds(monkeypatch)
        curve = scan_k(prof, params_with(h_plus=5.0),
                       np.linspace(k_min, 3.0, 12).tolist())
        for entry in curve.entries:
            assert entry.converged and entry.iterations == 1, entry
            assert abs(seeds[entry.k] - entry.c) <= 5e-5 * abs(entry.c), entry

    def test_tanh_sweep_takes_four_kernel_calls(self, monkeypatch):
        # the growth constants' shoot at c_k, the seeds, the secant points
        # and one Muller step
        calls = []
        integrate = rayleigh._integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(rayleigh, "_integrate", counted)
        curve = scan_k(TanhProfile(10.0, 1.0, 5.0), params_with(h_plus=5.0),
                       np.linspace(0.3, 3.0, 12).tolist())
        assert all(e.converged for e in curve.entries)
        assert len(calls) == 4

    def test_band_edge_verdicts_do_not_depend_on_the_unit_of_speed(self):
        # U -> lam U and g -> lam^2 g at fixed lengths take every c to lam c;
        # +-3% around k* = g / U(h+)^2 the rows go from no layer to Im c
        # near the threshold 1e-8 |c|
        lam = 0.01
        prof = TanhProfile(10.0, 1.0, 5.0)
        k_star = 9.8 / prof.value(5.0) ** 2
        ks = np.linspace(0.97 * k_star, 1.03 * k_star, 121).tolist()
        base = scan_k(prof, params_with(h_plus=5.0), ks)
        small = scan_k(TanhProfile(10.0 * lam, 1.0, 5.0),
                       params_with(h_plus=5.0, g=9.8 * lam * lam), ks)
        both = [(a, b) for a, b in zip(base.entries, small.entries)
                if a.converged and b.converged]
        assert len(both) >= 110
        assert {a.classification for a, _ in both} == {UNSTABLE, NEUTRAL}
        for a, b in both:
            assert a.classification == b.classification, (a, b)

    def test_muller_rounds_start_from_the_chain_mesh(self, monkeypatch):
        # the kernel runs one _chain per refinement round
        rounds = []
        chain, integrate = rayleigh._chain, rayleigh._integrate

        def counted_chain(*args):
            rounds[-1] += 1
            return chain(*args)

        def counted_integrate(*args, **kwargs):
            rounds.append(0)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(rayleigh, "_chain", counted_chain)
        monkeypatch.setattr(rayleigh, "_integrate", counted_integrate)
        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        ks = [0.3, 0.9, 1.5, 3.0]
        asymptotics.growth_constants(prof, p, ks)
        seed = list(rounds)
        rounds.clear()
        curve = scan_k(prof, p, ks)
        assert all(e.converged for e in curve.entries)
        # the seed shoot starts cold; each Muller round, from its chain's
        # last mesh, passes the error test at once
        assert len(seed) == 1 and rounds[0] == seed[0] > 1
        assert len(rounds) > 2 and rounds[1:] == [1] * (len(rounds) - 1)

    def test_repeated_sweep_is_bitwise_equal(self):
        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        ks = [0.3, 0.9, 1.5, 3.0]
        first, again = scan_k(prof, p, ks), scan_k(prof, p, ks)
        assert [repr(e) for e in first.entries] == \
            [repr(e) for e in again.entries]

    def test_unbounded_curved_column_fails_every_row(self):
        # every pair of the lockstep round fails, and each row says why
        curve = scan_k(TanhProfile(10.0, 1.0, math.inf), params_with(), [0.5, 1.0])
        assert [e.converged for e in curve.entries] == [False, False]
        assert all("finite air column" in e.message for e in curve.entries)

    def test_failed_row_reports_scalar_message(self):
        from windwaves.asymptotics import miles_c_sharp
        from windwaves.errors import EndpointCritical, WindwavesError

        p = params_with(h_plus=5.0)
        prof = TanhProfile(10.0, 1.0, 5.0)
        # c_k = U(h+): the layer scan refuses the seed, and the starting
        # triple puts a real wave speed on a critical layer
        k_bad = p.g / prof.value(5.0) ** 2
        with pytest.raises(WindwavesError) as scalar:
            self.scalar_chain(prof, p, k_bad)
        with pytest.raises(EndpointCritical) as seed:
            miles_c_sharp(prof, p, k_bad)
        good = [0.3, 1.0, 3.0]
        curve = scan_k(prof, p, good + [k_bad])
        alone = scan_k(prof, p, good)
        bad = [e for e in curve.entries if e.k == k_bad]
        assert len(bad) == 1 and not bad[0].converged
        assert bad[0].message == f"{scalar.value} (seed: {seed.value})"
        rest = [e for e in curve.entries if e.k != k_bad]
        assert [(e.k, e.c) for e in rest] == [(e.k, e.c) for e in alone.entries]

    def test_capillary_rows_converge_past_direct_overflow(self):
        # past |k| h+ ~ 700 the seed's direct shoot passes the float range,
        # which the kernel's rescaling absorbs
        p = params_with(h_plus=5.0, sigma=0.074)
        ks = [150.0, 300.0, 1000.0]
        curve = scan_k(TanhProfile(10.0, 1.0, 5.0), p, ks)
        assert [e.k for e in curve.entries] == ks
        assert all(e.converged and e.message == "" for e in curve.entries)
        assert all(e.c.imag > 0.0 for e in curve.entries)
