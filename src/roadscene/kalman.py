"""Closed-form Kalman steps for kinematic blocks that share one covariance.

A block is a chain (value[, rate[, acceleration]]) over m axes that follow
the same model and noise, so they share one symmetric n x n covariance `p`
(n <= 3).  Its state is flat and derivative-major: `state[k * m + i]` is
the k-th derivative on axis i, e.g. [x, y, vx, vy, ax, ay].  Each axis's
value is observed as a scalar, so no matrix inverse is needed; `p` is
computed on and above the diagonal and mirrored, so it stays exactly
symmetric.  Plain floats: at n <= 3 a numpy call costs more than the math.
"""

from __future__ import annotations

from typing import Sequence

Cov = tuple[tuple[float, ...], ...]


def kf_predict_step(state: Sequence[float], p: Cov, t: float,
                    q: Cov) -> tuple[Sequence[float], Cov]:
    """Advance every axis of a block by t; `q` is the process noise."""
    n = len(p)
    if n == 1:
        return state, ((p[0][0] + q[0][0],),)
    m = len(state) // n
    out = list(state)
    if n == 2:
        (a, b), (_, d) = p
        for i in range(m):
            out[i] += t * state[m + i]
        bd = b + t * d
        p01 = bd + q[0][1]
        return out, ((a + t * (b + bd) + q[0][0], p01), (p01, d + q[1][1]))
    (a, b, c), (_, d, e), (_, _, f) = p
    h = 0.5 * t * t
    for i in range(m):
        v, w = state[m + i], state[2 * m + i]
        out[i] = state[i] + t * v + h * w
        out[m + i] = v + t * w
    # rows of F P, then (F P) F^T on and above the diagonal
    r00 = a + t * b + h * c
    r01 = b + t * d + h * e
    r02 = c + t * e + h * f
    r12 = e + t * f
    p01 = r01 + t * r02 + q[0][1]
    p02 = r02 + q[0][2]
    p12 = r12 + q[1][2]
    return out, ((r00 + t * r01 + h * r02 + q[0][0], p01, p02),
                 (p01, d + t * e + t * r12 + q[1][1], p12),
                 (p02, p12, f + q[2][2]))


def kf_update_step(state: Sequence[float], p: Cov, z: Sequence[float],
                   r: float) -> tuple[list[float], Cov]:
    """Fold in z[i], an observation of axis i's value with variance r.

    The innovation variance is the scalar p[0][0] + r, and the k-th
    derivative's gain is p[k][0] / (p[0][0] + r) on every axis.
    """
    n, m = len(p), len(z)
    s = p[0][0] + r
    out = list(state)
    if n == 1:
        (a,), = p
        ka = a / s
        for i, zi in enumerate(z):
            out[i] += ka * (zi - state[i])
        return out, ((a - ka * a,),)
    if n == 2:
        (a, b), (_, d) = p
        ka, kb = a / s, b / s
        for i, zi in enumerate(z):
            inn = zi - state[i]
            out[i] += ka * inn
            out[m + i] += kb * inn
        p01 = b - ka * b
        return out, ((a - ka * a, p01), (p01, d - kb * b))
    (a, b, c), (_, d, e), (_, _, f) = p
    ka, kb, kc = a / s, b / s, c / s
    for i, zi in enumerate(z):
        inn = zi - state[i]
        out[i] += ka * inn
        out[m + i] += kb * inn
        out[2 * m + i] += kc * inn
    p01, p02, p12 = b - ka * b, c - ka * c, e - kb * c
    return out, ((a - ka * a, p01, p02), (p01, d - kb * b, p12),
                 (p02, p12, f - kc * c))
