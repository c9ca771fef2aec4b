"""Finite differences, grid L^p quasi-norms, moduli of smoothness, and the
generalized Besov seminorm (the classical one at Psi == 1).

All grid estimates are lower bounds for the true quantities: the sup over
|h| <= t is sampled at finitely many directions and the L^p integral uses a
midpoint rule.  Experiments compare trends, never absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .slowly_varying import PsiDescriptor, psi_dyadic

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def inflate(self, amount: float) -> "Box":
        return Box(tuple(a - amount for a in self.lo), tuple(b + amount for b in self.hi))


@dataclass(frozen=True)
class BoxDomain:
    """Finite union of axis-aligned boxes with a uniform grid resolution."""

    boxes: tuple[Box, ...]
    resolution: float

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")

    @property
    def ndim(self) -> int:
        return self.boxes[0].ndim if self.boxes else 0

    def inflate(self, amount: float) -> "BoxDomain":
        return BoxDomain(tuple(b.inflate(amount) for b in self.boxes), self.resolution)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    resolution: float
    t_levels: int
    h_samples: int


def _stencil_coeffs(M: int) -> list[float]:
    """Weights (-1)^(M-i) C(M, i) of f(x + i h), i = 0..M, in Delta_h^M f(x)."""
    return [((-1.0) ** (M - i)) * math.comb(M, i) for i in range(M + 1)]


def finite_diff(f, M: int, h, x) -> np.ndarray:
    """M-th forward difference with step h at points x.

    x has shape (n, N) for N >= 2 or (n,) in one dimension; f must accept the
    same shape.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    x_arr = np.asarray(x, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    out = None
    for i, coef in enumerate(_stencil_coeffs(M)):
        term = coef * np.asarray(f(x_arr + i * h_arr))
        out = term if out is None else out + term
    return out


def _box_grid(box: Box, resolution: float) -> list[np.ndarray]:
    axes = []
    for lo, hi in zip(box.lo, box.hi):
        ncells = max(1, int(math.ceil((hi - lo) / resolution - 1e-9)))
        axes.append(lo + (np.arange(ncells) + 0.5) * resolution)
    return axes


def _box_lp_pow(f, p: float, box: Box, resolution: float) -> float:
    """integral over box of |f|^p by the midpoint rule, as a float."""
    axes = _box_grid(box, resolution)
    ndim = len(axes)
    if ndim == 1:
        vals = np.asarray(f(axes[0]))
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(f(pts))
    cell = resolution**ndim
    return float(np.sum(np.abs(vals) ** p)) * cell


def lp_quasinorm(f, p: float, domain: BoxDomain) -> float:
    """(sum over midpoint grid cells |f(center)|^p * cell volume)^(1/p)."""
    if not (0 < p and math.isfinite(p)):
        raise ValueError(f"p must be positive and finite, got {p}")
    if not domain.boxes:
        return 0.0
    total = math.fsum(_box_lp_pow(f, p, b, domain.resolution) for b in domain.boxes)
    return total ** (1.0 / p)


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


def modulus(f, M: int, p: float, t: float, domain: BoxDomain) -> float:
    """max over h in default_h_set of ||Delta_h^M f||_Lp over the domain
    inflated by M*t.

    A lower bound for the true sup over |h| <= t, converging as the step
    sample refines.
    """
    if not 0 < t <= 1:
        raise ValueError(f"t must lie in (0,1], got {t}")
    inflated = domain.inflate(M * t)
    best = 0.0
    for h in default_h_set(domain.ndim, t):
        val = lp_quasinorm(lambda x: finite_diff(f, M, h, x), p, inflated)
        best = max(best, val)
    return best


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


def seminorm(
    f,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    domain: BoxDomain,
    j_max: int,
) -> NormEstimate:
    """Grid estimate of the generalized Besov seminorm, t_j = 2^-j for
    j = 0..j_max.  With Psi == 1 this is exactly the classical seminorm."""
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    value = _dyadic_seminorm(lambda t: modulus(f, M, p, t, domain), desc, s, q, j_max)
    h_samples = len(default_h_set(domain.ndim, 1.0))
    return NormEstimate(value, domain.resolution, t_levels=j_max + 1, h_samples=h_samples)


def besov_norm(
    f,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    domain: BoxDomain,
    j_max: int,
) -> NormEstimate:
    """L^p quasi-norm plus the generalized seminorm, metadata merged."""
    semi = seminorm(f, desc, s, p, q, M, domain, j_max)
    return replace(semi, value=lp_quasinorm(f, p, domain) + semi.value)
