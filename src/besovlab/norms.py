"""Finite differences, grid L^p quasi-norms, moduli of smoothness, and the
classical / generalized Besov seminorms.

All grid estimates are lower bounds for the true quantities: the sup over
|h| <= t is sampled at finitely many directions and the L^p integral uses a
midpoint rule.  Experiments compare trends, never absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import Box, BoxDomain
from .slowly_varying import PsiDescriptor, constant, psi_dyadic

LN2 = math.log(2.0)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    resolution: float
    t_levels: int
    h_samples: int


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
    for i in range(M + 1):
        term = ((-1.0) ** (M - i)) * math.comb(M, i) * np.asarray(f(x_arr + i * h_arr))
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


def modulus(f, M: int, p: float, t: float, domain: BoxDomain, h_set=None) -> float:
    """max over h in h_set of ||Delta_h^M f||_Lp over the domain inflated by M*t.

    A lower bound for the true sup over |h| <= t, converging as h_set refines.
    """
    if not 0 < t <= 1:
        raise ValueError(f"t must lie in (0,1], got {t}")
    if h_set is None:
        h_set = default_h_set(domain.ndim, t)
    if not h_set:
        raise ValueError("h_set must be nonempty")
    inflated = domain.inflate(M * t)
    best = 0.0
    for h in h_set:
        val = lp_quasinorm(lambda x: finite_diff(f, M, h, x), p, inflated)
        best = max(best, val)
    return best


def seminorm(
    f,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    domain: BoxDomain,
    j_max: int,
    h_set_fn=None,
    resolution_schedule=None,
) -> NormEstimate:
    """Dyadic discretization of the generalized Besov seminorm.

    t_j = 2^-j for j = 0..j_max; for q < inf the t-integral against dt/t turns
    into a sum with weight ln 2 per dyadic level; for q = inf, a max.  With
    Psi == 1 this is exactly the classical Besov seminorm.
    """
    if not M > s:
        raise ValueError(f"M > s required, got M={M}, s={s}")
    terms = []
    h_count = 0
    finest = domain.resolution
    for j in range(j_max + 1):
        t = 2.0 ** (-j)
        dom = domain
        if resolution_schedule is not None:
            dom = domain.with_resolution(resolution_schedule(j))
        finest = min(finest, dom.resolution)
        h_set = h_set_fn(dom.ndim, t) if h_set_fn is not None else default_h_set(dom.ndim, t)
        h_count = max(h_count, len(h_set))
        omega = modulus(f, M, p, t, dom, h_set)
        terms.append((2.0 ** (j * s)) * psi_dyadic(desc, j) * omega)
    if math.isinf(q):
        value = max(terms)
    else:
        value = (math.fsum(term**q for term in terms) * LN2) ** (1.0 / q)
    return NormEstimate(value=value, resolution=finest, t_levels=j_max + 1, h_samples=h_count)


def besov_norm(
    f,
    desc: PsiDescriptor,
    s: float,
    p: float,
    q: float,
    M: int,
    domain: BoxDomain,
    j_max: int,
    h_set_fn=None,
    resolution_schedule=None,
) -> NormEstimate:
    """L^p quasi-norm plus the generalized seminorm, metadata merged."""
    semi = seminorm(f, desc, s, p, q, M, domain, j_max, h_set_fn, resolution_schedule)
    lp = lp_quasinorm(f, p, domain)
    return NormEstimate(
        value=lp + semi.value,
        resolution=semi.resolution,
        t_levels=semi.t_levels,
        h_samples=semi.h_samples,
    )


def classical_seminorm(f, s, p, q, M, domain, j_max, **kw) -> NormEstimate:
    """Psi == 1 path; same formula as the generalized seminorm by construction."""
    return seminorm(f, constant(1.0), s, p, q, M, domain, j_max, **kw)
