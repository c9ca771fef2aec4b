"""The verdicts of each report: one table of rules (RULES), keyed by report name.

Verdicts are pure functions of the rows and the configuration.  Every cell is
read through int or float, and float(repr(x)) == x, so the CSVs give the run's
verdicts.  "Divergent" means strict growth past DIAG_THRESHOLD, never infinity.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from typing import NamedTuple

from .slowly_varying import SATISFIED, classify_condition

DIAG_THRESHOLD = 2.5


def _series(rows, kind: str) -> list[tuple[int, float]]:
    """The (J, value) pairs of the rows of `kind`, in order of J, then of the rows."""
    return sorted(((int(r["J"]), float(r["value"])) for r in rows if r["kind"] == kind), key=lambda p: p[0])


def _by_probe(rows, kind: str) -> dict[float, dict[int, float]]:
    """{probe: {J: value}} over the rows of `kind`."""
    out: dict[float, dict[int, float]] = {}
    for r in rows:
        if r["kind"] == kind:
            out.setdefault(float(r["probe"]), {})[int(r["J"])] = float(r["value"])
    return out


def _least(rows, _config) -> dict[str, float]:
    """The least diagnostic over the probes at each depth, in order of depth."""
    out: dict[str, float] = {}
    for J, v in _series(rows, "diagnostic"):
        out[str(J)] = min(out.get(str(J), math.inf), v)
    return out


def _ends(rows, kind: str) -> dict[str, float] | None:
    """The `kind` bound at its least and largest depth, by depth; None with fewer than two rows."""
    pts = _series(rows, kind)
    return {str(J): v for J, v in (pts[0], pts[-1])} if len(pts) > 1 else None


def _mixed_norm_gap(rows, config) -> float:
    """|v2 - v1| / v1 over the mixed norms at the last two J.mixed depths."""
    by_J = dict(reversed(_series(rows, "mixed_norm")))  # the first row at each J
    for J in config.J_mixed[-2:]:
        if J not in by_J:
            raise KeyError(f"no mixed_norm row at J={J}")
    v1, v2 = (by_J[J] for J in config.J_mixed[-2:])
    return abs(v2 - v1) / v1 if v1 else math.inf


def _norm2d_rise(rows, _config) -> float | None:
    """(v2 - v1) / v1, signed, over the last two 2-D norms; None with fewer."""
    norms = [v for _, v in _series(rows, "norm2d")]
    if len(norms) < 2:
        return None
    v1, v2 = norms[-2:]
    return (v2 - v1) / v1 if v1 else math.inf  # a field with no active level has norm 0


def _divergent(least: dict[str, float], line: float) -> bool:
    """Strict growth across the last three depths, ending past line."""
    last = list(least.values())[-3:]
    return bool(last) and all(a < b for a, b in zip(last, last[1:])) and last[-1] > line


def _lemma_calls(rows, lines: tuple[float, float]) -> dict:
    """The lemma's three-way call at each m: convergent where the relative Cauchy tail over the
    largest doubling pair (n, 2n) on record is under the first line, else divergent where a
    partial sum passes the second, else inconclusive."""
    by_m: dict[float, list[tuple[int, float]]] = {}
    for r in rows:
        by_m.setdefault(float(r["m"]), []).append((int(r["n"]), float(r["partial_sum"])))
    out = {}
    for m, pts in sorted(by_m.items()):
        pts.sort()
        values = dict(pts)
        n = max((n for n in values if 2 * n in values), default=None)
        tail = None if n is None else (values[2 * n] - values[n]) / values[2 * n]
        exceeds = next((n for n, v in pts if v > lines[1]), None)
        verdict = ("convergent-at-scale" if tail is not None and tail < lines[0]
                   else "inconclusive" if exceeds is None else "divergent-at-scale")
        out[f"m={m:g}"] = {"verdict": verdict, "relative_tail": tail, "exceeds_10_by_n": exceeds}
    return out


def _strict_growth(rows, _line) -> dict:
    """Strict growth with depth at every probe, and the share of probes with it; {} without rows."""
    strict = []
    for by_J in _by_probe(rows, "pm_seminorm").values():
        values = [by_J[J] for J in sorted(by_J)]
        strict.append(all(a < b for a, b in zip(values, values[1:])))
    return {"pm_seminorm_increasing_all_probes": all(strict),
            "pm_seminorm_increasing_probe_fraction": sum(strict) / len(strict)} if strict else {}


def _pm_growth_where_covered(rows, _line) -> dict:
    """Partial-map growth along each probe's coverage set.

    A level whose on-window contains floor(2^j y) has positive weight at y and
    an x1-support disjoint from the other levels', so it adds a positive term
    to every modulus sum.  Hence across consecutive depths (J, J'] the
    seminorm at y never decreases, and rises strictly where the exact coverage
    count at y rises.  The converse need not hold: an atom reaches two cells
    past its on-cell, so a level can raise the seminorm at y without covering
    it.  Every interval must hold at least one covered rise, so the verdict is
    never vacuously true.  No keys without pm_seminorm and pm_coverage rows.
    """
    pm, cov = _by_probe(rows, "pm_seminorm"), _by_probe(rows, "pm_coverage")
    if not (pm and cov):
        return {}
    depths = sorted({J for by_J in pm.values() for J in by_J})
    ok = len(depths) >= 2
    covered_rises: dict[str, int] = {}
    for a, b in zip(depths, depths[1:]):
        count = 0
        for y, by_J in pm.items():
            rise = by_J[a] < by_J[b]
            ok = ok and by_J[a] <= by_J[b]
            if cov[y][b] > cov[y][a]:
                ok = ok and rise
                count += rise
        covered_rises[f"({a}, {b}]"] = count
        ok = ok and count > 0
    return {"pm_seminorm_grows_where_covered": bool(ok), "pm_seminorm_covered_rises": covered_rises}


class Rule(NamedTuple):
    """One verdict: its key, the claim it serves, its kind and how it is made.  A "threshold"
    rule writes bool(compare(value, line)) at key and the value at echo, and a "config" rule
    the value at key, where value = read(rows, config) and None writes nothing.  A
    "structured" rule writes the object compare(rows, line), whose keys key and echo name as globs."""

    key: str
    claim: str
    kind: str
    read: Callable | None
    line: object = None
    compare: Callable | None = None
    echo: str | None = None


_CONDITION = Rule("condition_classification", "which side of the summability boundary Psi lies on",
                  "config", lambda rows, c: classify_condition(c.psi, c.params.p, c.params.q))
_DIVERGENT = Rule("diagnostic_divergent", "the exact sup diagnostic grows without bound", "threshold",
                  _least, DIAG_THRESHOLD, _divergent, "min_diagnostic_by_depth")
_PLATEAU = Rule("forced_bound_plateau", "the diagnostic's forced lower bound S_J^(L/p) levels off",
                "threshold", lambda rows, _: _ends(rows, "forced_bound"), 1.05,
                lambda ends, line: [*ends.values()][-1] <= [*ends.values()][0] * line, "forced_bound_values")

# Without diagnostic rows the sequence report writes diagnostic_divergent
# false and min_diagnostic_by_depth {}, while the pathology report leaves both out.
RULES: dict[str, tuple[Rule, ...]] = {
    "lemma_le": (
        Rule("m=*", "Lemma LE: sum_j u_j / (u_1 + ... + u_j)^m converges for m > 1 and diverges for m <= 1",
             "structured", None, (1e-3, 10.0), _lemma_calls),
    ),
    "sequence": (
        Rule("mixed_norm_cauchy", "the blocks' mixed norm stays bounded", "threshold",
             _mixed_norm_gap, 0.05, operator.lt, "mixed_norm_relative_gap"),
        _DIVERGENT,
        _PLATEAU,
        _CONDITION,
        Rule("note", "a control run, with the condition satisfied, expects no divergence", "config",
             lambda rows, config: "control run: condition satisfied, divergence not expected"
             if _CONDITION.read(rows, config) == SATISFIED else None),
    ),
    "pathology": (
        Rule("norm2d_saturates", "the field's 2-D Besov norm stays bounded", "threshold",
             _norm2d_rise, 0.10, operator.lt, "norm2d_relative_increase"),
        Rule("pm_seminorm_increasing_all_probes", "the partial-map seminorm grows at every y-probe "
             "(false by design: see README, Tests)", "structured", None, None, _strict_growth,
             "pm_seminorm_increasing_probe_fraction"),
        Rule("pm_seminorm_grows_where_covered", "the partial maps lose (s, Psi)-smoothness", "structured",
             None, None, _pm_growth_where_covered, "pm_seminorm_covered_rises"),
        _DIVERGENT._replace(read=lambda rows, config: _least(rows, config) or None),
        _PLATEAU._replace(key="control_bound_plateau", claim="the control Psi's bound S_J^(L/p) levels off",
                          read=lambda rows, _: _ends(rows, "control_bound"), echo="control_bound_values"),
        _CONDITION,
        Rule("control_classification", "the control Psi satisfies the condition", "config",
             lambda rows, c: c.control_psi and classify_condition(c.control_psi, c.params.p, c.params.q)),
        Rule("caveat", "what the verdicts do not claim", "config",
             lambda rows, config: "finite probe sample: almost-everywhere statements about y are not "
             "addressed; divergence means monotone growth past the threshold, not infinity"),
    ),
}


def evaluate(name: str, rows: list[dict], config) -> dict:
    """The verdicts of report `name`: each rule of RULES[name] on its rows and ExperimentConfig."""
    out = {}
    for key, _claim, kind, read, line, compare, echo in RULES[name]:
        if kind == "structured":
            out.update(compare(rows, line))
        elif (value := read(rows, config)) is None:
            continue
        elif kind == "threshold":
            out[key], out[echo] = bool(compare(value, line)), value
        else:
            out[key] = value
    return out
