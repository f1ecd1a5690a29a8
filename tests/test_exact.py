import math

import mpmath
import numpy as np
import pytest

from cqduffing import OscillatorParams, State, StepControl, equilibria, integrate
from cqduffing.core import acceleration, energy
from cqduffing.elliptic import jacobi_sn_cn_dn
from cqduffing.exact import (
    CnSolution,
    HomoclinicOrbit,
    closed_form_branches,
    cn_ansatz_residuals,
    eval_cn_solution,
    eval_homoclinic,
    homoclinic_orbit,
    solve_cn_coefficients,
)
from cqduffing.melnikov import melnikov
from conftest import fd_first_derivative, ode_residual_fd

SQ2 = math.sqrt(2.0)
SQ33 = math.sqrt(33.0)

# closed-form constants of the two reference problems
EX2 = {"a": -1.0, "b": 2.0, "c": 3.0, "x0": 1.0,
       "lam": 4 - 3 * SQ2, "mu": 12 * SQ2 - 17, "omega": 3 * SQ2, "m": (3 - 2 * SQ2) / 6}
EX1 = {"a": 1.0, "b": 1.0, "c": 1.0, "x0": 1.0,
       "lam": (SQ33 - 9) / 12, "mu": 0.0, "omega": (3 + SQ33) / 12, "m": (11 - SQ33) / 4}


def reference_trajectory(a, b, c, x0, t_end):
    p = OscillatorParams(a, b, c, epsilon=0)
    return integrate(lambda t, x, v: acceleration(p, t, x, v), State(0.0, x0, 0.0),
                     t_end, StepControl(abs_tol=1e-12, rel_tol=1e-12))


class TestCoefficientSolve:
    def test_quintic_softening_closed_values(self):
        sol = solve_cn_coefficients(EX2["a"], EX2["b"], EX2["c"], EX2["x0"])
        assert sol.lam == pytest.approx(EX2["lam"], abs=1e-8)
        assert sol.mu == pytest.approx(EX2["mu"], abs=1e-8)
        assert sol.omega_cn == pytest.approx(EX2["omega"], abs=1e-8)
        assert sol.m == pytest.approx(EX2["m"], abs=1e-8)

    def test_quintic_hardening_closed_values(self):
        sol = solve_cn_coefficients(EX1["a"], EX1["b"], EX1["c"], EX1["x0"])
        assert sol.lam == pytest.approx(EX1["lam"], abs=1e-10)
        assert sol.mu == pytest.approx(EX1["mu"], abs=1e-10)
        assert sol.omega_cn == pytest.approx(EX1["omega"], abs=1e-10)
        assert sol.m == pytest.approx(EX1["m"], abs=1e-10)
        res = cn_ansatz_residuals(1, 1, 1, 1, sol.lam, sol.mu, sol.omega_cn, sol.m)
        assert np.abs(res).max() < 1e-10

    def test_linear_limit(self):
        # b = c = 0 collapses to x0 cos(sqrt(-a) t); the shape constants are
        # nearly unidentifiable there (flat residual directions), so the
        # functional agreement is the sharp assertion
        sol = solve_cn_coefficients(-1.0, 0.0, 0.0, 0.5)
        assert sol.m == pytest.approx(0.0, abs=1e-4)
        assert sol.lam == pytest.approx(0.0, abs=1e-4)
        assert sol.mu == pytest.approx(0.0, abs=1e-4)
        assert sol.omega_cn == pytest.approx(1.0, abs=1e-4)
        for t in (0.3, 1.7, 5.1):
            assert eval_cn_solution(sol, t) == pytest.approx(0.5 * math.cos(t), abs=1e-8)

    def test_small_amplitude_tends_to_linear(self):
        sol = solve_cn_coefficients(-1.0, 1.0, 0.0, 1e-3)
        assert sol.omega_cn == pytest.approx(1.0, abs=1e-5)
        assert abs(sol.m) < 1e-5 and abs(sol.lam) < 1e-5 and abs(sol.mu) < 1e-5

    def test_zero_x0_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            solve_cn_coefficients(1, 1, 1, 0.0)

    def test_no_root_is_diagnosed(self):
        # a saddle-side start with positive energy has no bounded cn orbit
        with pytest.raises(ValueError, match="no elliptic-ansatz root") as exc:
            solve_cn_coefficients(1.0, 0.0, -1.0, 2.0)
        assert "branch residuals after Gauss-Newton: general " in str(exc.value)


class TestEvalCnSolution:
    def test_initial_value(self):
        sol = solve_cn_coefficients(**{k: EX2[k] for k in ("a", "b", "c", "x0")})
        assert eval_cn_solution(sol, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_matches_integration_softening(self):
        sol = solve_cn_coefficients(EX2["a"], EX2["b"], EX2["c"], EX2["x0"])
        T = sol.period
        ref = reference_trajectory(EX2["a"], EX2["b"], EX2["c"], EX2["x0"], 2 * T)
        errs = [abs(eval_cn_solution(sol, t) - ref.eval(t)[0])
                for t in np.linspace(0, 2 * T, 301)]
        assert max(errs) < 1e-6

    def test_matches_integration_hardening(self):
        sol = solve_cn_coefficients(EX1["a"], EX1["b"], EX1["c"], EX1["x0"])
        T = sol.period
        ref = reference_trajectory(1, 1, 1, 1, 2 * T)
        errs = [abs(eval_cn_solution(sol, t) - ref.eval(t)[0])
                for t in np.linspace(0, 2 * T, 301)]
        assert max(errs) < 1e-6

    def test_periodicity(self):
        sol = solve_cn_coefficients(EX2["a"], EX2["b"], EX2["c"], EX2["x0"])
        T = sol.period
        for t in (0.0, 0.37, 1.91):
            assert eval_cn_solution(sol, t + T) == pytest.approx(eval_cn_solution(sol, t), abs=1e-9)

    def test_ansatz_residual_random_admissible(self, rng):
        # closed orbits around a center exist for a < 0 near the origin
        count = 0
        while count < 6:
            a = -rng.uniform(0.3, 2.0)
            b = rng.uniform(-1.5, 1.5)
            c = rng.uniform(-1.0, 1.0)
            x0 = rng.uniform(0.1, 0.7)
            try:
                sol = solve_cn_coefficients(a, b, c, x0)
            except ValueError:
                continue
            count += 1
            ts = np.linspace(0.05, min(sol.period, 10.0), 40)
            resid = ode_residual_fd(a, b, c, lambda t: eval_cn_solution(sol, t), ts)
            assert resid < 1e-5, (a, b, c, x0)


class TestClosedFormBranches:
    def test_hardening_both_biquadratic_rows(self):
        branches = [br for br in closed_form_branches(1, 1, 1, 1) if br.family == "mu0"]
        assert len(branches) == 2
        for br in branches:
            assert br.residual < 1e-8

    def test_softening_reproduces_reference_root(self):
        branches = closed_form_branches(-1, 2, 3, 1)
        good = [br for br in branches if br.residual < 1e-8]
        assert any(abs(br.lam - EX2["lam"]) < 1e-10 and abs(br.m - EX2["m"]) < 1e-10
                   for br in good)

    def test_linear_equation_has_one_exact_row(self):
        # b = c = 0 zeroes the mu = 0 discriminant: its double root is one row
        rows = [(br.lam, br.mu, br.omega_cn, br.m, br.residual)
                for br in closed_form_branches(-1.0, 0.0, 0.0, 1.0)]
        assert rows == [(0.0, 0.0, 1.0, 0.0, 0.0)]


SQ3 = math.sqrt(3.0)


class TestDegenerateLimits:
    """The roots where a branch formula meets a zero discriminant or a zero
    denominator, each the limit of its own family."""

    def constants(self, sol):
        return sol.lam, sol.mu, sol.omega_cn, sol.m

    @pytest.mark.parametrize("a, x0", [(-1.0, 0.5), (-2.5, 1.5)])
    def test_linear_limit_is_exact(self, a, x0):
        sol = solve_cn_coefficients(a, 0.0, 0.0, x0)
        assert self.constants(sol) == (0.0, 0.0, -a, 0.0)
        assert eval_cn_solution(sol, 0.7) == x0 * math.cos(math.sqrt(-a) * 0.7)

    def test_zero_discriminant_double_root(self):
        # 16ac + 3b^2 - 4bc x0^2 - 4c^2 x0^4 = 0: the two mu = 0 rows coincide
        a, b, c, x0 = 0.5, 1.0, 1.5, 1.0
        [br] = closed_form_branches(a, b, c, x0)
        assert (br.lam, br.mu, br.omega_cn, br.m, br.residual) == (-0.5, 0.0, 1.0, 0.0, 0.0)
        sol = solve_cn_coefficients(a, b, c, x0)
        assert self.constants(sol) == (-0.5, 0.0, 1.0, 0.0)
        ts = np.linspace(0.05, 2 * sol.period, 40)
        assert ode_residual_fd(a, b, c, lambda t: eval_cn_solution(sol, t), ts) < 1e-5

    @pytest.mark.parametrize("a, b, c, lam", [(0.5, 1.0, 0.0, 0.0), (0.5, 0.0, 1.5, -0.5),
                                              (1.5, 2.0, 1.5, -0.25)])
    def test_separatrix_start_is_the_sech_orbit(self, a, b, c, lam):
        # 6a - 3b x0^2 - 2c x0^4 = 0 at x0 = 1: the start is on the zero-energy
        # level, m tends to 1 and the period is infinite
        sol = solve_cn_coefficients(a, b, c, 1.0)
        assert self.constants(sol) == (lam, 0.0, a, 1.0)
        assert sol.period == math.inf
        orb = homoclinic_orbit(a, b, c, "sech", +1)
        assert orb.x0 == 1.0 and orb.lam == lam
        for t in np.linspace(-6.0, 6.0, 25):
            assert eval_cn_solution(sol, t) == eval_homoclinic(orb, t)[0]

    @pytest.mark.parametrize("c, x0", [(1.0, 0.5), (1.5, 1.0), (0.7, 1.3)])
    def test_pure_quintic(self, c, x0):
        # a = b = 0: the mu != 0 family's rate and parameter are 0/0
        want = (2 - 4 / SQ3, 4 * SQ3 - 7, c * x0 ** 4 / SQ3, (2 - SQ3) / 4)
        [br] = closed_form_branches(0.0, 0.0, c, x0)
        assert (br.lam, br.mu, br.omega_cn, br.m) == want
        assert br.residual <= 1e-14
        sol = solve_cn_coefficients(0.0, 0.0, c, x0)
        assert self.constants(sol) == pytest.approx(want, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("a, b, c, x0, want", [
        (0.0, 2e-72, 1.0, 1.0, (2 - 4 / SQ3, 4 * SQ3 - 7, 1 / SQ3, (2 - SQ3) / 4)),
        (0.5, 1.0, 1e-72, 1.0, (0.0, 0.0, 0.5, 1.0)),
        (-1.0, 0.0, 1e-72, 1.0, (0.0, 0.0, 1.0, 0.0)),
        (0.5, 1.0, 1.500000000000001, 1.0, (-0.5, 0.0, 1.0, 0.0)),  # discriminant -1.1e-14
    ])
    def test_within_rounding_of_a_limit(self, a, b, c, x0, want):
        # the branch formulas cancel to noise here, and the limit gives the root
        sol = solve_cn_coefficients(a, b, c, x0)
        assert self.constants(sol) == pytest.approx(want, abs=1e-12)

    def test_softening_pure_quintic_has_no_root(self):
        with pytest.raises(ValueError, match="no elliptic-ansatz root found .*; "
                                             "branch residuals after Gauss-Newton: general "):
            solve_cn_coefficients(0.0, 0.0, -1.0, 0.5)

    def test_no_branch_is_named(self):
        with pytest.raises(ValueError, match="after Gauss-Newton: none, since no closed-form "
                                             "branch applies"):
            solve_cn_coefficients(0.0, 0.0, 0.0, 1.0)


class TestPublishedHardeningParameters:
    """Audit of the printed parameter set (lam = (3+sqrt3)/6,
    omega = 1 + 1/sqrt3, modulus-like argument sqrt3 - 1) for the
    hardening problem x'' - x + x^3 + x^5 = 0, x(0) = 1: it fails the
    initial condition, so the numerically solved set above is the one
    shipped; this regression documents the discrepancy."""

    LAM_P = (3 + math.sqrt(3)) / 6
    OMEGA_P = 1 + 1 / math.sqrt(3)
    M_P = math.sqrt(3) - 1

    def eval_printed(self, t, m):
        cn = jacobi_sn_cn_dn(math.sqrt(self.OMEGA_P) * t, m)[1]
        return math.sqrt(self.LAM_P) * cn / math.sqrt(1 + self.LAM_P * cn * cn)

    def test_printed_form_fails_initial_condition(self):
        for m in (self.M_P, self.M_P ** 2):  # parameter and modulus readings
            x0 = self.eval_printed(0.0, m)
            assert abs(x0 - 1.0) > 0.3
            assert x0 == pytest.approx(0.664, abs=2e-3)

    def test_printed_omega_not_a_branch_root(self):
        branches = closed_form_branches(1, 1, 1, 1)
        assert all(abs(br.omega_cn - self.OMEGA_P) > 0.5 for br in branches)


SECH_X0 = math.sqrt((-3 + math.sqrt(57)) / 4)
SECH_LAM = (SECH_X0**2 - 2) / (4 - SECH_X0**2)


class TestHomoclinicOrbit:
    def test_pulse_reference_values(self):
        orb = homoclinic_orbit(1, 1, 1, "sech", +1)
        assert orb.k == 1.0
        assert orb.x0 == pytest.approx(SECH_X0, rel=1e-14)
        assert orb.x0 == pytest.approx(1.06652, abs=1e-5)
        assert orb.lam == pytest.approx(SECH_LAM, rel=1e-14)
        assert orb.lam == pytest.approx(-0.30132, abs=1e-5)
        assert orb.A == pytest.approx(SECH_X0 * math.sqrt(1 + SECH_LAM), rel=1e-14)

    def test_pulse_decays_to_origin(self):
        orb = homoclinic_orbit(1, 1, 1, "sech", +1)
        for t in (-30.0, 30.0):
            x, v = eval_homoclinic(orb, t)
            assert abs(x) < 1e-10 and abs(v) < 1e-10

    def test_kink_endpoints_are_equilibria(self):
        a, b, c = -1.0, -3.0, 1.0
        orb = homoclinic_orbit(a, b, c, "tanh", -1)
        eqs = [e.x for e in equilibria(OscillatorParams(a, b, c)) if e.x > 0]
        x_inf = eval_homoclinic(orb, 60.0)[0]
        assert min(abs(x_inf - e) for e in eqs) < 1e-8
        assert abs(orb.x0 - x_inf) < 1e-8

    def test_pulse_past_the_cosh_overflow(self):
        # cosh(sqrt(k) t) overflows past sqrt(k) |t| ~ 710: the orbit is at the origin
        orb = homoclinic_orbit(1, 1, 0.2, "sech", +1)
        for t in (720.0, -720.0, 1e300):
            assert eval_homoclinic(orb, t) == (0.0, 0.0)

    def test_pulse_peak_state(self):
        orb = homoclinic_orbit(1, 1, 1, "sech", +1)
        x, v = eval_homoclinic(orb, 0.0)
        assert x == pytest.approx(orb.A / math.sqrt(1 + orb.lam), rel=1e-14)
        assert v == 0.0

    def test_kink_center_state_and_slope(self):
        orb = homoclinic_orbit(-1, -3, 1, "tanh", -1)
        x, v = eval_homoclinic(orb, 0.0)
        assert x == 0.0
        assert v == pytest.approx(orb.A * math.sqrt(orb.k), rel=1e-14)
        v_fd = fd_first_derivative(lambda t: eval_homoclinic(orb, t)[0], 0.0)
        assert v == pytest.approx(v_fd, abs=1e-8)

    def test_analytic_velocity_matches_fd(self, rng):
        for kind, args, sign in (("sech", (1, 1, 1), 1), ("tanh", (-1, -3, 1), -1),
                                 ("tanh", (-1, -3, 0.0), -1)):
            orb = homoclinic_orbit(*args, kind, sign)
            for t in rng.uniform(-3, 3, 12):
                x, v = eval_homoclinic(orb, t)
                v_fd = fd_first_derivative(lambda s: eval_homoclinic(orb, s)[0], t)
                assert v == pytest.approx(v_fd, abs=1e-8)

    def test_pulse_on_zero_energy_set(self):
        p = OscillatorParams(1, 1, 1)
        orb = homoclinic_orbit(1, 1, 1, "sech", +1)
        for t in np.linspace(-6, 6, 61):
            x, v = eval_homoclinic(orb, t)
            assert abs(energy(p, x, v)) < 1e-10

    def test_kink_conserves_saddle_level_energy(self):
        # the kink family rides the level set of its end points, which is
        # NOT the zero set: E(x0, 0) = -b x0^4/4 - c x0^6/3 after using the
        # equilibrium relation, nonzero for every nondegenerate orbit
        a, b, c = -1.0, -3.0, 1.0
        p = OscillatorParams(a, b, c)
        orb = homoclinic_orbit(a, b, c, "tanh", -1)
        level = energy(p, orb.x0, 0.0)
        assert abs(level) > 0.01
        for t in np.linspace(-6, 6, 61):
            x, v = eval_homoclinic(orb, t)
            assert abs(energy(p, x, v) - level) < 1e-10

    def test_cubic_limit_pulse(self):
        orb = homoclinic_orbit(1.0, 1.0, 0.0, "sech", +1)
        assert orb.lam == 0.0
        assert orb.A == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_softening_cubic_kink(self):
        # x'' = -x + x^3: the kink tanh(t/sqrt2) between the saddles at +-1
        # (Guckenheimer & Holmes, section 4.5)
        orb = homoclinic_orbit(-1, -1, 0, "tanh", -1)
        assert (orb.A, orb.k, orb.lam) == (1.0, 0.5, 0.0)
        for t in np.linspace(-10, 10, 201):
            x, v = eval_homoclinic(orb, t)
            u = t / SQ2
            assert abs(x - math.tanh(u)) <= 1e-15
            assert abs(v - 1.0 / (math.cosh(u) ** 2 * SQ2)) <= 1e-15
        p = OscillatorParams(-1, -1, 0, delta=0.1, omega=1.4)
        want = 2.0 / (3.0 * math.pi * 1.4) * math.sinh(math.pi * 1.4 / SQ2)
        assert want == 1.695898164684314
        assert abs(melnikov(orb, p).threshold_ratio - want) <= 4 * math.ulp(want)

    def test_guard_errors_name_the_inequality(self):
        with pytest.raises(ValueError, match="a > 0"):
            homoclinic_orbit(-1, 1, 1, "sech", +1)
        with pytest.raises(ValueError, match="b\\^2 \\+ 4ac"):
            homoclinic_orbit(-1, 1, 1, "tanh", +1)
        with pytest.raises(ValueError, match="x0\\^2 = inf is not positive and finite"):
            homoclinic_orbit(-1, -3, 0.0, "tanh", +1)
        with pytest.raises(ValueError, match="k ="):
            homoclinic_orbit(-1, -3, 1, "tanh", +1)

    def test_ode_residual_random_admissible(self, rng):
        # moderate-amplitude orbits: the h = 1e-5 second difference carries
        # ~4 eps |x| / h^2 = 1e-5 |x| of roundoff, so x0 is capped near 1
        found = {"sech": 0, "tanh": 0}
        while min(found.values()) < 10:
            a = rng.uniform(-2, 2)
            b = rng.uniform(-2, 2)
            c = rng.uniform(-2, 2)
            for kind in ("sech", "tanh"):
                if found[kind] >= 10:
                    continue
                for sign in (1, -1):
                    try:
                        orb = homoclinic_orbit(a, b, c, kind, sign)
                    except ValueError:
                        continue
                    if orb.x0 > 1.2 or not 0.05 <= orb.k <= 4.0 or orb.lam < -0.9:
                        continue
                    ts = np.linspace(-4, 4, 33) / max(math.sqrt(orb.k), 0.3)
                    resid = ode_residual_fd(a, b, c,
                                            lambda t: eval_homoclinic(orb, t)[0], ts)
                    assert resid < 1e-5, (a, b, c, kind, sign)
                    found[kind] += 1
                    break


def _roots_60_digits(qa, qb, qc):
    """{sign: (-qb + sign s)/(2 qa)} at 60 digits for the real finite roots of
    qa u^2 + qb u + qc = 0; at qa = 0 the root that stays finite, -qc/qb."""
    with mpmath.workdps(60):
        qa, qb, qc = map(mpmath.mpf, (qa, qb, qc))
        if qa == 0:
            return {} if qb == 0 else {1 if qb > 0 else -1: -qc / qb}
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return {}
        return {sign: (-qb + sign * mpmath.sqrt(disc)) / (2 * qa) for sign in (1, -1)}


@pytest.mark.parametrize("c", [0.0, 1e-6, -1e-6, 1e-10, -1e-10, 1e-12, -1e-12, 0.2, -0.2, 1.0, -1.0])
@pytest.mark.parametrize("a, b", [(1, 1), (-1, -1), (-1, -2.5), (2, 0.5), (-1, -3),
                                  (1, 0.0), (1, -0.0), (-1, 0.0), (-1, -0.0)])
def test_roots_match_60_digit_roots(a, b, c):
    def rel_err(x, u):
        with mpmath.workdps(60):
            return float(abs(x - mpmath.sqrt(u)) / mpmath.sqrt(u))

    # rest points: x^2 is each positive root of c u^2 + b u - a = 0
    want = sorted(u for u in _roots_60_digits(c, b, -a).values() if u > 0)
    got = [e.x for e in equilibria(OscillatorParams(a, b, c)) if e.x > 0.0]
    assert len(got) == len(want)
    for x, u in zip(got, want):
        assert rel_err(x, u) <= 4e-16, (x, u)
    # each family's x0^2 is its sign's root of its quadratic in u = x^2
    for kind, quadratic in (("sech", (2 * c, 3 * b, -6 * a)), ("tanh", (c, b, -a))):
        roots = _roots_60_digits(*quadratic)
        for sign in (1, -1):
            try:
                orb = homoclinic_orbit(a, b, c, kind, sign)
            except ValueError as err:
                if "x0^2 = " in str(err):
                    assert not roots.get(sign, 0) > 0, (kind, sign, err)
                continue
            assert rel_err(orb.x0, roots[sign]) <= 4e-16, (kind, sign, orb)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: HomoclinicOrbit(A=1.0, k=1.0, lam=0.0, kind="cn"),
                 "kind must be 'sech' or 'tanh'", id="orbit-kind"),
    pytest.param(lambda: HomoclinicOrbit(A=1.0, k=0.0, lam=0.0, kind="sech"),
                 "rate k must be positive", id="orbit-rate"),
    pytest.param(lambda: homoclinic_orbit(1.0, 1.0, 0.2, "sech", sign=0),
                 "sign must be", id="sign"),
    pytest.param(lambda: homoclinic_orbit(1.0, 1.0, 0.2, "cn"),
                 "kind must be 'sech' or 'tanh'", id="unknown-kind"),
    pytest.param(lambda: HomoclinicOrbit(A=1.0, k=math.inf, lam=0.1, kind="sech"),
                 "rate k must be positive and finite, got inf", id="orbit-rate-inf"),
    pytest.param(lambda: HomoclinicOrbit(A=math.nan, k=1.0, lam=0.1, kind="sech"),
                 "A=nan and lam=0.1 must be finite", id="orbit-amplitude-nan"),
    pytest.param(lambda: HomoclinicOrbit(A=1.0, k=1.0, lam=math.inf, kind="tanh"),
                 "A=1.0 and lam=inf must be finite", id="orbit-lam-inf"),
    pytest.param(lambda: homoclinic_orbit(math.nan, 1.0, 0.2, "sech"),
                 "a=nan, b=1.0 and c=0.2 must be finite", id="orbit-a-nan"),
    pytest.param(lambda: homoclinic_orbit(1.0, 1.0, math.inf, "tanh"),
                 "a=1.0, b=1.0 and c=inf must be finite", id="orbit-c-inf"),
    pytest.param(lambda: solve_cn_coefficients(1.0, 1.0, 1.0, math.nan),
                 "a=1.0, b=1.0, c=1.0 and x0=nan must be finite", id="cn-x0-nan"),
    pytest.param(lambda: solve_cn_coefficients(1.0, math.inf, 1.0, 1.0),
                 "b=inf, c=1.0 and x0=1.0 must be finite", id="cn-b-inf"),
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()
