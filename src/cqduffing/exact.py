"""Closed-form solutions of the unperturbed oscillator x'' = a x - b x^3 - c x^5.

Periodic orbits take the elliptic form

    x(t) = x0 sqrt(1 + lam + mu) cn(sqrt(w) t, m)
           / sqrt(1 + lam cn^2(sqrt(w) t, m) + mu cn^4(sqrt(w) t, m)),

whose shape constants (lam, mu, w, m) satisfy a five-equation algebraic
system (the cn^0..cn^8 coefficients of the substituted ansatz).  Its roots
come from two closed-form branch families, mu = 0 and mu != 0, and their
degenerate limits; damped Gauss-Newton polishes each branch root, and the
polished root is returned.  Separatrix orbits come in a pulse (sech) and a
kink (tanh) family with explicit amplitude/rate/shape formulas; their
turning points are roots of quadratics in u = x^2, solved by
`core._quadratic_roots` in the forms that do not cancel, which hold at
c = 0 too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import _quadratic_roots
from .elliptic import _reciprocal, cn_period, jacobi_sn_cn_dn

__all__ = [
    "CnSolution",
    "BranchCandidate",
    "HomoclinicOrbit",
    "cn_ansatz_residuals",
    "closed_form_branches",
    "solve_cn_coefficients",
    "eval_cn_solution",
    "homoclinic_orbit",
    "eval_homoclinic",
]

_RESIDUAL_TOL = 1e-10  # a polished branch root's largest coefficient residual


@dataclass(frozen=True)
class CnSolution:
    """Shape constants of the elliptic closed form for one i.v.p.
    x(0) = x0, x'(0) = 0."""

    x0: float
    lam: float
    mu: float
    omega_cn: float  # squared-argument rate: cn argument is sqrt(omega_cn) t
    m: float         # elliptic parameter (m = k^2 convention)

    def __post_init__(self) -> None:
        if 1.0 + self.lam + self.mu <= 0.0:
            raise ValueError(f"invalid cn solution: 1 + lam + mu = {1 + self.lam + self.mu} <= 0")
        if self.omega_cn <= 0.0:
            raise ValueError(f"invalid cn solution: omega_cn = {self.omega_cn} <= 0")
        if _den_min(self.lam, self.mu) <= 0.0:
            raise ValueError("invalid cn solution: denominator not positive on cn in [-1, 1]")

    @property
    def period(self) -> float:
        """Period of x(t): the cn period at parameter m over sqrt(omega_cn)."""
        return cn_period(self.m) / math.sqrt(self.omega_cn)


@dataclass(frozen=True)
class BranchCandidate:
    """A closed-form branch root with its algebraic-system residual.

    Branches are returned whenever their guard inequalities hold, even if
    they cannot be promoted to a valid CnSolution (negative rate, sign
    changes in the denominator); solve_cn_coefficients polishes each one
    and keeps those that converge to a valid root.
    """

    lam: float
    mu: float
    omega_cn: float
    m: float
    residual: float
    family: str  # "mu0" (biquadratic, mu = 0) | "general"


def _den_min(lam: float, mu: float) -> float:
    """min over s = cn^2 in [0, 1] of 1 + lam s + mu s^2."""
    cands = [1.0, 1.0 + lam + mu]
    if mu != 0.0:
        s_star = -lam / (2.0 * mu)
        if 0.0 < s_star < 1.0:
            cands.append(1.0 + lam * s_star + mu * s_star * s_star)
    return min(cands)


def cn_ansatz_residuals(a: float, b: float, c: float, x0: float,
                        lam: float, mu: float, w: float, m: float) -> np.ndarray:
    """The five cn^{0,2,4,6,8} coefficients that must vanish for the
    elliptic ansatz to solve x'' - a x + b x^3 + c x^5 = 0."""
    x2 = x0 * x0
    x4 = x2 * x2
    r0 = -a - w + 2 * m * w - 3 * lam * w + 3 * m * lam * w
    r2 = (-2 * a * lam - 2 * m * w + 2 * lam * w - 4 * m * lam * w
          - 10 * mu * w + 10 * m * mu * w + b * x2 * (1 + lam + mu))
    r4 = (-a * lam * lam - 2 * a * mu + m * lam * w + 10 * mu * w
          - 20 * m * mu * w - lam * mu * w + m * lam * mu * w
          + b * lam * x2 * (1 + lam + mu)
          + c * x4 * (1 + lam + mu) ** 2)
    r6 = -mu * (2 * a * lam - 10 * m * w - 2 * lam * w + 4 * m * lam * w
                - 2 * mu * w + 2 * m * mu * w - b * x2 * (1 + lam + mu))
    r8 = -mu * (a * mu - 3 * m * lam * w + mu * w - 2 * m * mu * w)
    return np.array([r0, r2, r4, r6, r8])


def _mu0_branches(a: float, b: float, c: float, x0: float) -> list[tuple[float, float, float, float]]:
    """Biquadratic closed forms with mu = 0: two sign rows of (w, m, lam), one at a double root."""
    x2, x4 = x0 * x0, x0 ** 4
    disc = x4 * (16 * a * c + 3 * b * b - 4 * b * c * x2 - 4 * c * c * x4)
    # a discriminant within rounding of zero (8 ulps of its terms) is a double root
    if disc < -2.0 ** -49 * x4 * (16 * abs(a * c) + 3 * b * b + 4 * abs(b * c) * x2 + 4 * c * c * x4):
        return []
    den1 = 6 * a - 3 * b * x2 - 2 * c * x4
    den2 = a - b * x2 - c * x4
    if den1 == 0.0 and den2 != 0.0:
        # a start on the zero-energy level, where -2 den2 = 4a - b x0^2: m is
        # 0/0 and tends to 1, the sech orbit of homoclinic_orbit
        return [((b * x2 - 2 * a) / (-2.0 * den2), 0.0, a, 1.0)]
    if den1 * den2 == 0.0:  # a zero, or a product that underflows
        return []
    sd = math.sqrt(3.0) * math.sqrt(max(disc, 0.0))
    out = []
    for s in (1.0, -1.0) if disc > 0.0 else (1.0,):
        w = (-12 * a + 9 * b * x2 + 6 * c * x4 + s * sd) / 12.0
        m = (x2 * (3 * b + 2 * c * x2) * (-b * x2 + 2 * c * x4 + s * sd)
             - 4 * a * (4 * c * x4 + s * sd)) / (4.0 * den1 * den2)
        lam = (-3 * b * x2 - 6 * c * x4 + s * sd) / (12.0 * -den2)
        out.append((lam, 0.0, w, m))
    return out


def _general_branches(a: float, b: float, c: float, x0: float) -> list[tuple[float, float, float, float]]:
    """Four-sign closed forms with mu != 0; (w, m) follow from (lam, mu)."""
    x2, x4 = x0 * x0, x0 ** 4
    dsc = (6 * a - 3 * b * x2 - 2 * c * x4) * (a - b * x2 - c * x4)
    if dsc <= 0.0:
        return []
    den = 16 * a * c + 3 * b * b - 4 * b * c * x2 - 4 * c * c * x4
    if den == 0.0:
        return []
    if a == 0.0 and b == 0.0:
        # pure quintic: wden and mden vanish identically, and the row with
        # s_l = -s_m = -sign(c) tends to this root
        r3 = math.sqrt(3.0)
        return [(2.0 - 4.0 / r3, 4.0 * r3 - 7.0, c * x4 / r3, (2.0 - r3) / 4.0)]
    sq = 2.0 * math.sqrt(6.0) * math.sqrt(dsc)
    out = []
    for s_l, s_m in product((1.0, -1.0), repeat=2):
        lam = (2 * (3 * b + 2 * c * x2) * (-12 * a + 9 * b * x2 + 6 * c * x4 + s_l * sq)
               / (3 * x2 * -den))
        mu = ((96 * a * a + x4 * (51 * b * b - 112 * a * c) - 144 * a * b * x2
               + 76 * b * c * x0 ** 6 + 28 * c * c * x0 ** 8
               + s_m * 2.0 * sq * (4 * a - 3 * b * x2 - 2 * c * x4)) / (x4 * den))
        wden = 6 * lam * (lam + 1) + 10 * mu + 2
        mden = 2 * a * (lam * (3 * lam + 4) - 5 * mu + 1) - b * (3 * lam + 2) * x2 * (lam + mu + 1)
        if wden == 0.0 or mden == 0.0:
            continue
        w = (b * (3 * lam + 2) * x2 * (lam + mu + 1) - 2 * a * (lam * (3 * lam + 4) - 5 * mu + 1)) / wden
        m = (2 * a * (lam * (3 * lam + 2) - 5 * mu) - b * (3 * lam + 1) * x2 * (lam + mu + 1)) / mden
        out.append((lam, mu, w, m))
    return out


def closed_form_branches(a: float, b: float, c: float, x0: float) -> list[BranchCandidate]:
    """All closed-form branch roots whose guards hold, annotated with the
    algebraic-system residual.  An empty list just means no branch applies.
    A term of a, b x0^2, c x0^4 below the rounding of the largest counts as
    zero, so that inputs within rounding of a degenerate limit take it."""
    x2 = x0 * x0
    terms = (abs(a), abs(b) * x2, abs(c) * x2 * x2)
    abc = [0.0 if t <= 2.0 ** -52 * max(terms) else v for v, t in zip((a, b, c), terms)]
    out = []
    for family, raw in (("mu0", _mu0_branches(*abc, x0)), ("general", _general_branches(*abc, x0))):
        for lam, mu, w, m in raw:
            if not all(map(math.isfinite, (lam, mu, w, m))):
                continue
            resid = float(np.abs(cn_ansatz_residuals(a, b, c, x0, lam, mu, w, m)).max())
            out.append(BranchCandidate(lam, mu, w, m, resid, family))
    return out


def _gauss_newton(a, b, c, x0, theta0):
    """Damped Gauss-Newton on the five residuals over (lam, mu, w, m)."""
    theta = np.asarray(theta0, dtype=float)

    def res(th):
        return cn_ansatz_residuals(a, b, c, x0, *th)

    r = res(theta)
    best = float(np.abs(r).max())
    for _ in range(200):
        J = np.empty((5, 4))
        for j in range(4):
            h = 1e-7 * max(1.0, abs(theta[j]))
            tp = theta.copy()
            tp[j] += h
            J[:, j] = (res(tp) - r) / h
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        lam_damp = 1.0
        for _ in range(40):
            cand = theta + lam_damp * step
            rc = res(cand)
            if np.abs(rc).max() < best:
                theta, r, best = cand, rc, float(np.abs(rc).max())
                break
            lam_damp *= 0.5
        else:
            break
        if best < 1e-12 or np.abs(lam_damp * step).max() < 1e-15:
            break
    return theta, best


def solve_cn_coefficients(a: float, b: float, c: float, x0: float) -> CnSolution:
    """Numerically solved shape constants for x(0) = x0, x'(0) = 0.

    Each closed-form branch is polished by Gauss-Newton; among the
    branches that converge to a valid root, prefers m in [0, 1] and the
    smallest |lam| + |mu|.  Raises ValueError, listing each branch's
    residual, when none does.
    """
    if not all(map(math.isfinite, (a, b, c, x0))):
        raise ValueError(f"a={a}, b={b}, c={c} and x0={x0} must be finite")
    if x0 == 0.0:
        raise ValueError("x0 must be nonzero (the ansatz normalizes by x0)")
    roots: list[CnSolution] = []
    diagnostics: list[str] = []
    for br in closed_form_branches(a, b, c, x0):
        theta, resid = _gauss_newton(a, b, c, x0, (br.lam, br.mu, br.omega_cn, br.m))
        diagnostics.append(f"{br.family} {resid:.3g}")
        if resid >= _RESIDUAL_TOL:
            continue
        lam, mu, w, m = map(float, theta)
        try:
            sol = CnSolution(x0, lam, mu, w, m)
        except ValueError:
            continue
        # coefficient residuals act on the ansatz divided by den^{5/2}; a
        # nearly vanishing denominator can turn tiny coefficients into an
        # O(1) pointwise defect, so bound the amplified residual too
        amplified = resid * abs(x0) * math.sqrt(1.0 + lam + mu) / _den_min(lam, mu) ** 2.5
        if amplified >= 1e-8 * max(1.0, abs(a), abs(b) * x0 * x0, abs(c) * x0 ** 4):
            continue
        if not any(abs(sol.lam - r.lam) < 1e-8 and abs(sol.mu - r.mu) < 1e-8
                   and abs(sol.omega_cn - r.omega_cn) < 1e-8 for r in roots):
            roots.append(sol)
    if not roots:
        tried = ", ".join(diagnostics) or "none, since no closed-form branch applies"
        raise ValueError(f"no elliptic-ansatz root found for (a={a}, b={b}, c={c}, x0={x0}); "
                         f"branch residuals after Gauss-Newton: {tried}")
    roots.sort(key=lambda r: (not (0.0 <= r.m <= 1.0), abs(r.lam) + abs(r.mu)))
    return roots[0]


def eval_cn_solution(sol: CnSolution, t: float) -> float:
    """x(t) of the elliptic closed form; x(0) = x0 by construction."""
    cn = jacobi_sn_cn_dn(math.sqrt(sol.omega_cn) * t, sol.m)[1]
    cn2 = cn * cn
    num = sol.x0 * math.sqrt(1.0 + sol.lam + sol.mu) * cn
    return num / math.sqrt(1.0 + sol.lam * cn2 + sol.mu * cn2 * cn2)


@dataclass(frozen=True)
class HomoclinicOrbit:
    """Separatrix orbit A f(sqrt(k) t) / sqrt(1 + lam f^2), f = sech or tanh.

    The pulse (sech) kind decays to the origin as |t| -> inf; the kink
    (tanh) kind connects the rest points -+ A/sqrt(1+lam).
    """

    A: float
    k: float
    lam: float
    kind: str  # "sech" | "tanh"

    def __post_init__(self) -> None:
        if self.kind not in ("sech", "tanh"):
            raise ValueError(f"kind must be 'sech' or 'tanh', got {self.kind!r}")
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"rate k must be positive and finite, got {self.k}")
        if not (math.isfinite(self.A) and math.isfinite(self.lam)):
            raise ValueError(f"A={self.A} and lam={self.lam} must be finite")

    @property
    def x0(self) -> float:
        """Turning point (sech) or end point magnitude (tanh): A/sqrt(1+lam)."""
        return self.A / math.sqrt(1.0 + self.lam)


def homoclinic_orbit(a: float, b: float, c: float, kind: str, sign: int = 1) -> HomoclinicOrbit:
    """Separatrix orbit of one family; raises naming the violated guard.

    x0^2 is the root (-B + sign sqrt(B^2 - 4AC))/(2A) of a quadratic
    A u^2 + B u + C = 0 in u = x^2, taken in the forms that do not cancel:
    sech kind: 2c u^2 + 3b u - 6a = 0, the zero-energy turning point,
               k = a, lam = (b x0^2 - 2a)/(4a - b x0^2); needs a > 0.
    tanh kind: c u^2 + b u - a = 0, the rest points' equation,
               k = (-b x0^2 - 2c x0^4)/2, lam = -2c x0^2 / (3(b + 2c x0^2)).
    At c = 0 the + root of the pulse is 2a/b and the - root of the kink
    a/b, the cubic orbits; the other root is infinite there and refused.
    """
    if not all(map(math.isfinite, (a, b, c))):
        raise ValueError(f"a={a}, b={b} and c={c} must be finite")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if kind == "sech":
        if a <= 0.0:
            raise ValueError(f"sech orbit needs a > 0 (rate k = a), got a={a}")
        quadratic, disc_name = (2.0 * c, 3.0 * b, -6.0 * a), "48ac + 9b^2"
    elif kind == "tanh":
        quadratic, disc_name = (c, b, -a), "b^2 + 4ac"
    else:
        raise ValueError(f"kind must be 'sech' or 'tanh', got {kind!r}")
    disc, x2_plus, x2_minus = _quadratic_roots(*quadratic)
    if not disc > 0.0:
        raise ValueError(f"{kind} orbit guard violated: {disc_name} = {disc} <= 0")
    x2 = x2_plus if sign == 1 else x2_minus
    if not 0.0 < x2 < math.inf:
        raise ValueError(f"{kind} orbit guard violated: x0^2 = {x2} is not positive and finite")
    if kind == "sech":
        k, num, den, den_name = a, b * x2 - 2.0 * a, 4.0 * a - b * x2, "4a - b x0^2"
    else:
        k = 0.5 * (-b * x2 - 2.0 * c * x2 * x2)
        if k <= 0.0:
            raise ValueError(f"tanh orbit guard violated: k = (-b x0^2 - 2c x0^4)/2 = {k} <= 0")
        num, den, den_name = -2.0 * c * x2, 3.0 * (b + 2.0 * c * x2), "b + 2c x0^2"
    if den == 0.0:
        raise ValueError(f"{kind} orbit guard violated: {den_name} = 0")
    lam = num / den
    if 1.0 + lam <= 0.0:
        raise ValueError(f"{kind} orbit guard violated: 1 + lam = {1 + lam} <= 0")
    return HomoclinicOrbit(A=math.sqrt(x2) * math.sqrt(1.0 + lam), k=k, lam=lam, kind=kind)


def eval_homoclinic(orbit: HomoclinicOrbit, t: float) -> tuple[float, float]:
    """(x, v) on the orbit at time t, with the analytic velocity."""
    rk = math.sqrt(orbit.k)
    if orbit.kind == "sech":
        s = _reciprocal(math.cosh, rk * t)
        den = 1.0 + orbit.lam * s * s
        x = orbit.A * s / math.sqrt(den)
        v = -orbit.A * rk * math.tanh(rk * t) * s / den ** 1.5
        return x, v
    u = math.tanh(rk * t)
    den = 1.0 + orbit.lam * u * u
    x = orbit.A * u / math.sqrt(den)
    sech2 = 1.0 - u * u
    v = orbit.A * rk * sech2 / den ** 1.5
    return x, v
