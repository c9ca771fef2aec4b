"""What fieldnorms' estimators share: the estimate record, the stencil weights
of Delta_h^M, the step samples at scale t and the one dyadic seminorm sum.
The generic grid estimator over boxes is the test oracle in tests/oracles.py."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .slowly_varying import PsiDescriptor, psi_dyadic

LN2 = math.log(2.0)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    resolution: float
    t_levels: int
    h_samples: int


def _stencil_coeffs(M: int) -> list[float]:
    """Weights (-1)^(M-i) C(M, i) of f(x + i h), i = 0..M, in Delta_h^M f(x)."""
    return [((-1.0) ** (M - i)) * math.comb(M, i) for i in range(M + 1)]


def default_h_set(ndim: int, t: float) -> list:
    """Canonical step samples at scale t.

    One dimension: +-t, +-3t/4, +-t/2.  Two dimensions: 8 directions uniform
    on the circle at radii t and t/2.
    """
    if ndim == 1:
        return [t, -t, 0.75 * t, -0.75 * t, 0.5 * t, -0.5 * t]
    if ndim == 2:
        hs = []
        for radius in (t, 0.5 * t):
            for k in range(8):
                ang = 2.0 * math.pi * k / 8.0
                hs.append(np.array([radius * math.cos(ang), radius * math.sin(ang)]))
        return hs
    raise ValueError(f"no default step set for dimension {ndim}")


def _dyadic_seminorm(omega, desc: PsiDescriptor, s: float, q: float, j_max: int) -> float:
    """Dyadic discretization of the generalized Besov seminorm from the
    modulus omega(t): terms 2^(js) Psi(2^-j) omega(2^-j) for j = 0..j_max.

    For q < inf the t-integral against dt/t turns into a sum with weight ln 2
    per dyadic level; for q = inf, a max.
    """
    terms = [(2.0 ** (j * s)) * psi_dyadic(desc, j) * omega(2.0 ** (-j))
             for j in range(j_max + 1)]
    if math.isinf(q):
        return max(terms)
    return (math.fsum(term**q for term in terms) * LN2) ** (1.0 / q)
