"""Independent numpy oracle for per-group MCV estimates.

It shares no code with ``mcvtests``.  c comes straight from the definitions
(rr: sqrt(det(S)^(1/d) / m'm), vv: sqrt(tr S / m'm), vn: (m' S^-1 m)^(-1/2),
az: sqrt(m' S m) / m'm, with S the divisor-n covariance).  The delta-method
variance is the plug-in variance of the influence values

    var_c = Var_n(g_m . x_i + x_i' G x_i),

where G is the gradient of c with respect to the raw second moment
M2 = E[x x'] and g_m its gradient with respect to the mean at fixed M2.  This
equals the package's (s/4) * a M a' quadratic form without building the
d^2 x d^2 fourth-moment matrix.
"""

from __future__ import annotations

import numpy as np

VARIANTS = ("rr", "vv", "vn", "az")


def mcv_and_variance(variant: str, x: np.ndarray) -> tuple[float, float, float, float]:
    """(c, b, var_c, var_b) for one group of rows ``x``."""
    n, d = x.shape
    m = x.mean(axis=0)
    xc = x - m
    s = xc.T @ xc / n
    s = 0.5 * (s + s.T)
    q = float(m @ m)
    if variant == "rr":
        _, logdet = np.linalg.slogdet(s)
        c = float(np.exp(logdet / (2 * d)) / np.sqrt(q))
        g_s = c * np.linalg.inv(s) / (2 * d)
        g_fixed = -c * m / q
    elif variant == "vv":
        tr = float(np.trace(s))
        c = float(np.sqrt(tr / q))
        g_s = np.eye(d) / (2 * c * q)
        g_fixed = -tr * m / (c * q * q)
    elif variant == "vn":
        u = np.linalg.solve(s, m)
        c = float((m @ u) ** -0.5)
        g_s = 0.5 * c**3 * np.outer(u, u)
        g_fixed = -(c**3) * u
    elif variant == "az":
        sm = s @ m
        quad = float(m @ sm)
        c = float(np.sqrt(quad) / q)
        g_s = np.outer(m, m) / (2 * c * q * q)
        g_fixed = sm / (c * q * q) - 2 * quad * m / (c * q**3)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # dS = dM2 - dm m' - m dm', so the mean gradient at fixed M2 picks up -2 G m.
    g_m = g_fixed - 2.0 * g_s @ m
    influence = x @ g_m + np.einsum("ij,jk,ik->i", x, g_s, x)
    var_c = float(np.mean((influence - influence.mean()) ** 2))
    return c, 1.0 / c, var_c, var_c / c**4


def close(got: float, want: float, rtol: float) -> bool:
    return bool(np.isfinite(got)) and abs(got - want) <= rtol * abs(want)
