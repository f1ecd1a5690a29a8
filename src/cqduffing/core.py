"""Parameter/state types and conservative diagnostics for the driven
cubic-quintic oscillator

    x'' - a x + b x^3 + c x^5 = eps * (gamma cos(omega t) - delta x').

The unperturbed (eps = 0) system is Hamiltonian with energy
E = v^2/2 - a x^2/2 + b x^4/4 + c x^6/6; its equilibria live here, with
`_quadratic_roots`, the one root solve of the quadratics in u = x^2 that
give them and the separatrix turning points of `exact.homoclinic_orbit`.

The conservative force `_restoring` and the force kernel :func:`acceleration`
built on it work on floats and on numpy arrays; in the cubic case c = 0 the
force takes no c term, so a diverging run reads inf where 0 * inf made NaN.
:meth:`Trajectory.eval` takes one time or an array of times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OscillatorParams",
    "State",
    "Trajectory",
    "EnergyReport",
    "Equilibrium",
    "acceleration",
    "equilibria",
    "energy",
    "energy_report",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Coefficients of the driven equation.

    a: linear stiffness (1/time^2), sign as written above (a > 0 makes the
       origin a saddle of the unperturbed flow).
    b: cubic coefficient, c: quintic coefficient.
    delta: damping, gamma: forcing amplitude, omega: forcing frequency,
    epsilon: perturbation scale multiplying both damping and forcing.
    """

    a: float
    b: float
    c: float
    delta: float = 0.0
    gamma: float = 0.0
    omega: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        vals = (self.a, self.b, self.c, self.delta, self.gamma, self.omega, self.epsilon)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite oscillator parameter in {vals}")
        if self.epsilon * self.gamma != 0.0 and self.omega <= 0.0:
            raise ValueError("omega must be > 0 when forcing is active (epsilon*gamma != 0)")


@dataclass(frozen=True)
class State:
    """Phase-space sample (time, displacement, velocity); all three finite."""

    t: float
    x: float
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x) and math.isfinite(self.v)):
            raise ValueError(f"non-finite initial state {self}")


def _is_count(n, least: int = 0) -> bool:
    """Whether n is an int or a numpy integer of at least least."""
    return isinstance(n, (int, np.integer)) and n >= least


class Trajectory:
    """Time-ordered (t, x, v) knots from an integrator.

    When per-knot accelerations are available (all integrators in
    :mod:`cqduffing.odeint` record them), the trajectory is densely
    evaluable at arbitrary times inside its span through two-point quintic
    Hermite interpolation of x (velocity is the interpolant's derivative).
    """

    def __init__(
        self,
        t: np.ndarray,
        x: np.ndarray,
        v: np.ndarray,
        accel: np.ndarray | None = None,
        metadata: dict | None = None,
    ) -> None:
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if not (t.shape == x.shape == v.shape) or t.ndim != 1 or t.size < 1:
            raise ValueError("t, x, v must be equal-length 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        for name, arr in (("t", t), ("x", x), ("v", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in trajectory array {name!r}")
        self.t = t
        self.x = x
        self.v = v
        self.accel = None if accel is None else np.asarray(accel, dtype=float)
        self.metadata = dict(metadata or {})

    def __len__(self) -> int:
        return self.t.size

    def eval(self, t):
        """The one dense read: interpolated (x, v) at time t inside the span, as
        arrays for an array t and two floats for a float or numpy-scalar t."""
        if self.accel is None:
            raise ValueError("trajectory has no acceleration knots; dense output unavailable")
        kt, ts = self.t, np.asarray(t, dtype=float)
        outside = ~((kt[0] - 1e-12 <= ts) & (ts <= kt[-1] + 1e-12))  # NaN counts as outside
        if outside.any():
            raise ValueError(f"t={ts[outside][0]} outside trajectory span [{kt[0]}, {kt[-1]}]")
        if kt.size == 1:
            x, v = np.full(ts.shape, self.x[0]), np.full(ts.shape, self.v[0])
        else:
            i = np.clip(np.searchsorted(kt, ts, side="right") - 1, 0, kt.size - 2)
            h = kt[i + 1] - kt[i]
            x, v = _hermite5((ts - kt[i]) / h, h, self.x[i], self.v[i], self.accel[i],
                             self.x[i + 1], self.v[i + 1], self.accel[i + 1])
        return (x, v) if isinstance(t, np.ndarray) else (float(x), float(v))


def _hermite5(s, h, x0, v0, a0, x1, v1, a1):
    """Quintic two-point Hermite interpolation on normalized s in [0, 1].

    Matches value, first and second derivative at both endpoints; returns
    (x(s), x'(s)/h), i.e. the interpolated displacement and velocity.
    Works elementwise on numpy arrays of s and of the knot values.
    """
    c3, c4, c5 = _hermite5_coeffs(h, x0, v0, a0, x1, v1, a1)
    s2 = s * s
    x = x0 + h * v0 * s + 0.5 * h * h * a0 * s2 + s2 * s * (c3 + s * (c4 + s * c5))
    return x, _hermite5_velocity(s, h, v0, a0, c3, c4, c5)


def _hermite5_coeffs(h, x0, v0, a0, x1, v1, a1):
    """The upper coefficients (c3, c4, c5) of the interval's quintic in the
    monomial form p(s) = x0 + h v0 s + h^2 a0 s^2/2 + c3 s^3 + c4 s^4 + c5 s^5."""
    r = x1 - x0 - h * v0 - 0.5 * h * h * a0
    q = h * (v1 - v0) - h * h * a0
    w = h * h * (a1 - a0)
    return 10.0 * r - 4.0 * q + 0.5 * w, -15.0 * r + 7.0 * q - w, 6.0 * r - 3.0 * q + 0.5 * w


def _hermite5_velocity(s, h, v0, a0, c3, c4, c5):
    """x'(s)/h of the interval's quintic: the interpolated velocity."""
    s2 = s * s
    return (h * v0 + h * h * a0 * s + s2 * (3.0 * c3 + s * (4.0 * c4 + 5.0 * s * c5))) / h


@dataclass(frozen=True)
class EnergyReport:
    """Energy constant K of a run plus the sampled energy series."""

    K: float
    series: np.ndarray  # shape (n, 2): columns (t, E)

    @property
    def max_drift(self) -> float:
        return float(np.abs(self.series[:, 1] - self.K).max())


@dataclass(frozen=True)
class Equilibrium:
    """Rest point of the unperturbed flow with its linearization type."""

    x: float
    kind: str  # "center" | "saddle" | "degenerate"


def _restoring(p: OscillatorParams, x):
    """Conservative force a x - b x^3 - c x^5 for float or array x.  Keep the
    order of operations: Poincare sections, bifurcation data and the
    Euler-Maruyama paths of `sde._em_step` depend on its rounding.  Where c
    is 0 (-0.0 too) it takes no c term: ((c x) x^2) x^2 is +-0 where x^2 is
    finite, which moves only the sign of a zero, and NaN (0 * inf) where x^2
    overflows, where the cubic force is +-inf."""
    x2 = x * x
    f = p.a * x - p.b * x * x2
    return f - p.c * x * x2 * x2 if p.c else f


def acceleration(p: OscillatorParams, t: float, x, v):
    """Right-hand side a x - b x^3 - c x^5 + eps (gamma cos(omega t) - delta v)
    for float t and float or array x, v."""
    return _restoring(p, x) + p.epsilon * (p.gamma * math.cos(p.omega * t) - p.delta * v)


def _stiffness(p: OscillatorParams, x: float) -> float:
    """d/dx of the conservative force a x - b x^3 - c x^5."""
    x2 = x * x
    return p.a - 3.0 * p.b * x2 - 5.0 * p.c * x2 * x2


def _classify(p: OscillatorParams, x: float) -> str:
    # eigenvalues of the eps=0 linearization are +-sqrt(stiffness)
    st = _stiffness(p, x)
    if st > 0.0:
        return "saddle"
    if st < 0.0:
        return "center"
    return "degenerate"


def _quadratic_roots(qa: float, qb: float, qc: float) -> tuple[float, float, float]:
    """The discriminant d = qb^2 - 4 qa qc of qa u^2 + qb u + qc = 0 and its
    roots u_+ and u_-, u_sign = (-qb + sign sqrt(d))/(2 qa), taken as q/qa and
    qc/q with q = -(qb + sign(qb) sqrt(d))/2, the forms that do not cancel
    (Numerical Recipes, section 5.6).  sign(qb) follows a signed zero, so
    that the q/qa root is the one picked by sign(qb) at qb = -0.0 as well.
    Both roots are NaN for d < 0, and a root infinite at qa = 0 is inf."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return disc, math.nan, math.nan
    sgn = math.copysign(1.0, qb)
    q = -0.5 * (qb + sgn * math.sqrt(disc))
    big = q / qa if qa != 0.0 else math.inf  # the root (-qb - sgn sqrt(d))/(2 qa)
    small = qc / q if disc > 0.0 else big  # q != 0 once d > 0
    return (disc, small, big) if sgn > 0.0 else (disc, big, small)


def equilibria(p: OscillatorParams) -> list[Equilibrium]:
    """Real rest points of x'' = a x - b x^3 - c x^5, classified by the
    sign structure of the linearization, sorted by displacement.  Off the
    origin, x^2 is a positive finite root of c u^2 + b u - a = 0."""
    roots = [0.0]
    for x2 in _quadratic_roots(p.c, p.b, -p.a)[1:]:
        if 0.0 < x2 < math.inf:  # x2 == 0 is the origin, already listed; inf is no root
            r = math.sqrt(x2)
            roots.extend([r, -r])
    roots = sorted(set(roots))
    return [Equilibrium(x, _classify(p, x)) for x in roots]


def energy(p: OscillatorParams, x, v):
    """E = v^2/2 - a x^2/2 + b x^4/4 + c x^6/6 (scalar or array)."""
    x2 = x * x
    return v * v / 2.0 - p.a * x2 / 2.0 + p.b * x2 * x2 / 4.0 + p.c * x2 * x2 * x2 / 6.0


def energy_report(p: OscillatorParams, traj: Trajectory) -> EnergyReport:
    """Energy series along a trajectory; K is the initial energy."""
    E = energy(p, traj.x, traj.v)
    series = np.column_stack([traj.t, E])
    return EnergyReport(K=float(E[0]), series=series)
