"""Closed-form Kalman steps for the BEV filter's constant-acceleration block.

The chain (value, rate, acceleration) on both BEV axes, which share one
symmetric 3x3 covariance `p`; the state is derivative-major,
[x, y, vx, vy, ax, ay].  Each value is observed as a scalar, so no matrix
inverse is needed; `p` is computed on and above the diagonal and mirrored,
so it stays exactly symmetric.  Plain floats: at this size a numpy call
costs more than the math.
"""

from __future__ import annotations

from typing import Sequence

Cov = tuple[tuple[float, ...], ...]


def kf_predict_step(state: Sequence[float], p: Cov, t: float,
                    q: Cov) -> tuple[list[float], Cov]:
    """Advance both axes by t; `q` is the process noise."""
    x, y, vx, vy, ax, ay = state
    (a, b, c), (_, d, e), (_, _, f) = p
    h = 0.5 * t * t
    out = [x + t * vx + h * ax, y + t * vy + h * ay,
           vx + t * ax, vy + t * ay, ax, ay]
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
    """Fold in z = (zx, zy), each axis's value observed with variance r.

    The innovation variance is the scalar p[0][0] + r, and the k-th
    derivative's gain is p[k][0] / (p[0][0] + r) on both axes.
    """
    x, y, vx, vy, ax, ay = state
    zx, zy = z
    (a, b, c), (_, d, e), (_, _, f) = p
    s = a + r
    ka, kb, kc = a / s, b / s, c / s
    ix, iy = zx - x, zy - y
    out = [x + ka * ix, y + ka * iy, vx + kb * ix, vy + kb * iy,
           ax + kc * ix, ay + kc * iy]
    p01, p02, p12 = b - ka * b, c - ka * c, e - kb * c
    return out, ((a - ka * a, p01, p02), (p01, d - kb * b, p12),
                 (p02, p12, f - kc * c))
