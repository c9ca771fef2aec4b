"""Catalog of admissible weight functions on (0,1] and their summability check.

The catalog works in closed form at dyadic points t = 2^-j so experiments at
depth j = 1000 never have to materialize t itself (which would underflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .params import as_float, as_int, exact_kappa

LN2 = math.log(2.0)

CONSTANT = "constant"
LOG_POWER = "log-power"
ITERATED_LOG_POWER = "iterated-log-power"
TABULATED = "tabulated"

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PsiDescriptor:
    """Symbolic description of a positive weight function on (0,1].

    Families:
      constant              Psi(t) = c
      log-power             Psi(t) = (1 - ln t)^(-b)
      iterated-log-power    Psi(t) = (1 - ln t)^(-b) * (1 + ln(1 - ln t))^(-b2)
      tabulated             values given at t = 2^-j only
    """

    family: str
    b: float = 0.0
    b2: float = 0.0
    c: float = 1.0
    table: tuple[tuple[int, float], ...] = ()
    _first_value: dict = field(init=False, repr=False, compare=False)  # j -> value, O(1) lookups

    def __post_init__(self):
        object.__setattr__(self, "_first_value", dict(reversed(self.table)))
        if self.family not in (CONSTANT, LOG_POWER, ITERATED_LOG_POWER, TABULATED):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == CONSTANT and not self.c > 0:
            raise ValueError("constant family requires c > 0")
        if self.family in (LOG_POWER, ITERATED_LOG_POWER) and self.b < 0:
            raise ValueError("log-power families require b >= 0")
        if self.family == TABULATED:
            for j, value in self.table:
                if not value > 0:
                    raise ValueError(f"tabulated value at j={j} must be positive")


def constant(c: float = 1.0) -> PsiDescriptor:
    return PsiDescriptor(CONSTANT, c=c)


def log_power(b: float) -> PsiDescriptor:
    return PsiDescriptor(LOG_POWER, b=b)


def iterated_log_power(b: float, b2: float) -> PsiDescriptor:
    return PsiDescriptor(ITERATED_LOG_POWER, b=b, b2=b2)


def tabulated(pairs) -> PsiDescriptor:
    return PsiDescriptor(TABULATED, table=tuple((int(j), float(v)) for j, v in pairs))


def table_depth(desc: PsiDescriptor) -> float:
    """Largest J with Psi(2^-j) known for every j = 0..J.

    inf for the closed-form families; -1 for a table without j = 0.
    """
    if desc.family != TABULATED:
        return math.inf
    return next(j for j in count() if j not in desc._first_value) - 1


def _table_lookup(desc: PsiDescriptor, j: int) -> float:
    if j not in desc._first_value:
        raise ValueError(f"tabulated descriptor has no entry for j={j}")
    return desc._first_value[j]


def _log_psi_from_ell(desc: PsiDescriptor, ell: float) -> float:
    """ln Psi(t) as a function of ell = -ln t >= 0."""
    if desc.family == CONSTANT:
        return math.log(desc.c)
    if desc.family == LOG_POWER:
        return -desc.b * math.log1p(ell)
    if desc.family == ITERATED_LOG_POWER:
        return -desc.b * math.log1p(ell) - desc.b2 * math.log1p(math.log1p(ell))
    raise ValueError("tabulated family has no closed form")


def psi_dyadic(desc: PsiDescriptor, j: int) -> float:
    """Psi(2^-j) in closed form (never forms 2^-j, so deep j cannot underflow)."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if desc.family == TABULATED:
        return _table_lookup(desc, j)
    if desc.family == CONSTANT:
        return desc.c
    return math.exp(_log_psi_from_ell(desc, j * LN2))


def psi_dyadic_log(desc: PsiDescriptor, j: int) -> float:
    """ln Psi(2^-j), for power computations that must stay in log space."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if desc.family == TABULATED:
        return math.log(_table_lookup(desc, j))
    return _log_psi_from_ell(desc, j * LN2)


def _extreme_levels(desc: PsiDescriptor, J: int):
    """Levels j <= J that include where Psi(2^-j) is least and largest.
    ln Psi(2^-j) = -b x - b2 ln(1 + x) with x = ln(1 + j ln 2) is monotone in
    j for b2 >= 0, else concave in x with its top at x = -b2/b - 1."""
    if desc.family == TABULATED:
        return range(J + 1)
    levels = {0, J}
    if desc.family == ITERATED_LOG_POWER and desc.b2 < 0 < desc.b:
        x = -desc.b2 / desc.b - 1.0
        if 0.0 < x < math.log1p(J * LN2):
            top = math.expm1(x) / LN2
            levels |= {math.floor(top), min(math.ceil(top), J)}
    return levels


def weight_in_range(desc: PsiDescriptor, kappa: float, J: int) -> bool:
    """Whether Psi(2^-j) and, for finite kappa, (J + 1) Psi(2^-j)^kappa (which
    bounds the running sums S_j) are positive finite doubles at every
    j = 0..J.  Powers are monotone, so only _extreme_levels are read."""
    try:
        values = [psi_dyadic(desc, j) for j in _extreme_levels(desc, J)]
        if math.isfinite(kappa):
            values += [(J + 1) * v**kappa for v in values]
    except OverflowError:
        return False
    return all(0.0 < v < math.inf for v in values)


def summability_partial(desc: PsiDescriptor, kappa: float, J: int) -> float:
    """Partial sum over j = 0..J of Psi(2^-j)^kappa (not raised to 1/kappa)."""
    if not (kappa > 0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return math.fsum(psi_dyadic(desc, j) ** kappa for j in range(J + 1))


def classify_condition(desc: PsiDescriptor, p: float, q: float) -> str:
    """Classify the summability condition sum_j Psi(2^-j)^kappa < inf, with
    1/kappa = 1/p - 1/q.

    Exact p-series / Bertrand-series criterion for catalog families, decided
    on the exact rationals of the doubles: exact_kappa(p, q), the rational
    that params.kappa rounds, times b (and b2) against 1, so the call is
    right at the boundary where a float product rounds to 1.  The boundary
    exponent 1 classifies as violated (harmonic-type divergence).  Tabulated input is honestly
    inconclusive: finite data cannot settle convergence.
    """
    if not 0 < p <= q:
        raise ValueError(f"the condition needs 0 < p <= q, got p={p}, q={q}")
    if desc.family == TABULATED:
        return INCONCLUSIVE
    if p == q:
        # kappa = inf: Psi only needs to be bounded, which every catalog
        # family is on (0,1].
        return SATISFIED
    if desc.family == CONSTANT:
        return VIOLATED
    kappa = exact_kappa(p, q)
    bk = Fraction(desc.b) * kappa
    # iterated-log-power at bk = 1: the Bertrand series criterion
    if bk > 1 or bk == 1 and desc.family == ITERATED_LOG_POWER and Fraction(desc.b2) * kappa > 1:
        return SATISFIED
    return VIOLATED


def slow_variation_deviation(desc: PsiDescriptor, j_max: int) -> float:
    """Max over j in {j_max//2, ..., j_max} of |Psi(2^-(j+1))/Psi(2^-j) - 1|.

    Small values certify approximate slow variation at depth j_max.  The ratio
    Psi(t/2)/Psi(t) is tested along t = 2^-j -> 0+, the fine-scale reading of
    the defining limit at r = 1/2.
    """
    if desc.family == TABULATED:
        ratio = lambda j: _table_lookup(desc, j + 1) / _table_lookup(desc, j)
    else:
        ratio = lambda j: math.exp(_log_psi_from_ell(desc, j * LN2 + LN2) - _log_psi_from_ell(desc, j * LN2))
    return max(abs(ratio(j) - 1.0) for j in range(j_max // 2, j_max + 1))


def psi_from_dict(cfg: dict) -> PsiDescriptor:
    """Build a descriptor from the JSON sub-object `psi`."""
    family = cfg["family"]
    if family == CONSTANT:
        return constant(as_float(cfg.get("c", 1.0), "c"))
    if family == LOG_POWER:
        return log_power(as_float(cfg["b"], "b"))
    if family == ITERATED_LOG_POWER:
        return iterated_log_power(as_float(cfg["b"], "b"), as_float(cfg.get("b2", 0.0), "b2"))
    if family == TABULATED:
        return tabulated((as_int(j, "table j"), as_float(v, "table value")) for j, v in cfg["table"])
    raise ValueError(f"unknown psi family {family!r}")
