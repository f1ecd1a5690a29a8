"""Jacobi elliptic functions sn/cn/dn and the complete integral K, built on
the arithmetic-geometric mean with the descending Landen recursion.

Convention: the second argument is the PARAMETER m = k^2, so
cn(u, 0) = cos(u) and cn(u, 1) = sech(u).  Arguments outside [0, 1] are
mapped back in with the reciprocal-parameter (m > 1) and imaginary-modulus
(m < 0) transformations, so any finite real m is accepted.
"""
from __future__ import annotations

import math

__all__ = ["jacobi_sn_cn_dn", "complete_k", "cn_period"]

_MAX_ITER = 32
_AGM_TOL = 1e-15
_M_ONE_CUTOFF = 1.0 - 1e-12  # above this the hyperbolic limit is more accurate


def complete_k(m: float) -> float:
    """Complete elliptic integral K(m) = pi / (2 agm(1, sqrt(1-m))), 0 <= m < 1."""
    if not math.isfinite(m):
        raise ValueError(f"non-finite parameter m={m}")
    if m < 0.0 or m >= 1.0:
        raise ValueError(f"complete_k requires 0 <= m < 1, got m={m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _reciprocal(fn, arg: float) -> float:
    """1 / fn(arg) for the growing cosh or sinh; 0.0, its limit, where fn overflows."""
    try:
        return 1.0 / fn(arg)
    except OverflowError:
        return 0.0


def _sn_cn_dn_basic(u: float, m: float) -> tuple[float, float, float]:
    """AGM/Landen evaluation for 0 <= m < 1 after range reduction of u."""
    if m == 0.0:
        return math.sin(u), math.cos(u), 1.0
    # range-reduce u into [0, K] using the quarter-period symmetries
    K = complete_k(m)
    sign_sn = 1.0
    if u < 0.0:
        u, sign_sn = -u, -1.0
    u = math.fmod(u, 4.0 * K)
    sign_cn = 1.0
    if u > 2.0 * K:
        u = 4.0 * K - u
        sign_sn = -sign_sn
    if u > K:
        u = 2.0 * K - u
        sign_cn = -1.0
    # descending Landen ladder
    a = [1.0]
    c = [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    n = 0
    while abs(c[n]) > _AGM_TOL * a[n] and n < _MAX_ITER:
        an = 0.5 * (a[n] + b)
        c.append(0.5 * (a[n] - b))
        b = math.sqrt(a[n] * b)
        a.append(an)
        n += 1
    phi = (2.0 ** n) * a[n] * u
    for j in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, c[j] / a[j] * math.sin(phi)))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    # dn > 0 for every real u when m < 1, so the identity is sign-safe
    # (the quotient form cos(phi_0)/cos(phi_1 - phi_0) is 0/0 at u = K)
    dn = math.sqrt(max(1.0 - m * sn * sn, 0.0))
    return sign_sn * sn, sign_cn * cn, dn


def jacobi_sn_cn_dn(u: float, m: float) -> tuple[float, float, float]:
    """(sn, cn, dn) at argument u, parameter m (any finite real m)."""
    if not (math.isfinite(u) and math.isfinite(m)):
        raise ValueError(f"non-finite elliptic argument u={u}, m={m}")
    if m >= _M_ONE_CUTOFF:
        if m <= 1.0 + 1e-12:
            sech = _reciprocal(math.cosh, u)
            return math.tanh(u), sech, sech
        # reciprocal-parameter transformation, m > 1
        mu = 1.0 / m
        v = u * math.sqrt(m)
        sn, cn, dn = _sn_cn_dn_basic(v, mu)
        rm = math.sqrt(m)
        return sn / rm, dn, cn
    if m < 0.0:
        # imaginary-modulus transformation
        mm = -m
        mu = mm / (1.0 + mm)
        g = math.sqrt(1.0 + mm)
        sn, cn, dn = _sn_cn_dn_basic(u * g, mu)
        return sn / (g * dn), cn / dn, 1.0 / dn
    return _sn_cn_dn_basic(u, m)


def cn_period(m: float) -> float:
    """Real period of u -> cn(u, m); infinite in the hyperbolic limit m = 1."""
    if not math.isfinite(m):
        raise ValueError(f"non-finite parameter m={m}")
    if m >= _M_ONE_CUTOFF and m <= 1.0 + 1e-12:
        return math.inf
    if m > 1.0:
        # cn(u, m) = dn(u sqrt(m), 1/m), and dn has period 2K
        return 2.0 * complete_k(1.0 / m) / math.sqrt(m)
    if m < 0.0:
        # cn(u, m) = cd(u sqrt(1-m), -m/(1-m)), and cd has period 4K
        mm = -m
        return 4.0 * complete_k(mm / (1.0 + mm)) / math.sqrt(1.0 + mm)
    return 4.0 * complete_k(m)
