"""Global experiment parameters and the derived exponents sigma_p and kappa."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

INF = math.inf
N = 2  # the plane: f lives on R^N, its partial maps on R^(N-1)


def sigma_p(p: float, N: int) -> float:
    """Threshold N*(1/p - 1)_+ below which the smoothness s must not fall."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return N * max(1.0 / p - 1.0, 0.0)


def exact_kappa(p: float, q: float) -> Fraction:
    """The exponent with 1/kappa = 1/p - 1/q on the exact rationals of the
    doubles p < q: pq / (q - p), or p when q = inf."""
    return Fraction(p) if math.isinf(q) else Fraction(p) * Fraction(q) / (Fraction(q) - Fraction(p))


def kappa(p: float, q: float) -> float:
    """exact_kappa(p, q) correctly rounded; +inf when p == q or past the double range."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if q < p:
        # The summability condition degenerates for q <= p (the function is
        # merely required to be bounded); callers handle that case themselves.
        raise ValueError(f"kappa requires p <= q, got p={p}, q={q}")
    try:
        return float(exact_kappa(p, q))
    except (OverflowError, ZeroDivisionError):  # past the double range, or p == q
        return INF


@dataclass(frozen=True)
class Params:
    """Immutable experiment configuration (p, q, s, M, L) in the plane N = 2.

    kappa and sigma_p are always derived, never stored or read from input.
    L defaults to the midpoint of its admissible interval (0, 1 - p/q).
    """

    p: float
    q: float
    s: float
    M: int
    L: float | None = None

    def __post_init__(self):
        if self.L is None and 0 < self.p < self.q:
            object.__setattr__(self, "L", 0.5 * (1.0 - self.p / self.q))

    @property
    def sigma_p(self) -> float:
        return sigma_p(self.p, N)

    @property
    def kappa(self) -> float:
        return kappa(self.p, self.q)


def validate(params: Params) -> list[str]:
    """Every violated hypothesis (empty when the config is usable):
    0 < p <= q with p finite, s > sigma_p, an integer M > s, and
    0 < L < 1 - p/q when p < q; p = q suits the commands that build no blocks."""
    v: list[str] = []
    if not params.p > 0:
        v.append(f"p must be positive, got {params.p}")
    if math.isinf(params.p):
        v.append("p = inf rejected in experiment configurations")
    if not params.p <= params.q:
        v.append(f"p <= q fails: p={params.p}, q={params.q}")
    if 0 < params.p < INF and not params.s > params.sigma_p:
        v.append(f"s > sigma_p fails: s={params.s}, sigma_p={params.sigma_p}")
    if not isinstance(params.M, int) or params.M < 1:
        v.append(f"M must be an integer >= 1, got {params.M}")
    elif not params.M > params.s:
        v.append(f"M > s fails: M={params.M}, s={params.s}")
    if 0 < params.p < params.q:
        bound = 1.0 - params.p / params.q
        if params.L is None or not 0 < params.L < bound:
            v.append(f"L < 1 - p/q fails: L={params.L}, 1 - p/q={bound}")
    return v


def _is_number(value) -> bool:
    """A JSON number; True == 1 in Python, so a boolean is excluded by name."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def as_float(value, name: str) -> float:
    """A real config field as a float: a string or boolean is rejected."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def as_int(value, name: str) -> int:
    """A counting config field as an int: 2.0 reads as 2; 2.5, a string or a boolean is rejected."""
    if type(value) is int:  # the common case, read once per key of each blocks.json level
        return value
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return int(value)


def params_from_dict(cfg: dict) -> Params:
    """Build Params from a JSON config object with keys {p, q, s, M, L}.

    Each is a JSON number; q may also be the string "inf"."""
    return Params(
        p=as_float(cfg["p"], "p"),
        q=INF if cfg["q"] == "inf" else as_float(cfg["q"], "q"),  # strict JSON has no infinity
        s=as_float(cfg["s"], "s"),
        M=as_int(cfg["M"], "M"),
        L=as_float(cfg["L"], "L") if cfg.get("L") is not None else None,
    )


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
