"""Experiment drivers reproducing the construction's logical arc at desk scale.

Two-tier evidence: exact sequence diagnostics go deep (J up to
sequences.MAX_SEQ_DEPTH = 2^15, O(J) memory), grid norm estimates stay
shallow (J up to fieldnorms.grid_depth_cap, 15 for M = 2).  Each recorded
row states which tier produced it; the rule table of `verdicts` judges them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import fieldnorms, sequences, verdicts
from .atoms import AtomicField
from .params import N, Params, as_float, as_int, params_from_dict, validate
from .reporting import write_csv, write_json, write_svg_lines
from .slowly_varying import PsiDescriptor, psi_from_dict, table_depth, weight_in_range
from .verdicts import DIAG_THRESHOLD

LEMMA_CHECKPOINTS = (1, 2, 3, 5, 10, 12, 20, 50, 100, 1_000, 10_000, 20_000, 100_000, 200_000, 1_000_000)
# Settings with one value.  A config may name each, at that value only.
FIXED_SETTINGS = {"N": N, "d": 1, "grid.res_scale": 1.0, "diag_threshold": DIAG_THRESHOLD, "emit_svg": True}
MAX_PROBES = 127
# Largest lemma.n_max.  The suite streams the series in chunks of 2^16 terms,
# so its memory does not grow with n_max: at this cap five m take about 0.35 s
# and 32 MB of VmHWM in all, 2 MB above the resident size before the suite.
MAX_LEMMA_N = 10**7


class ConfigError(ValueError):
    """Raised when an experiment configuration fails validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    params: Params
    psi: PsiDescriptor
    J_norm: tuple[int, ...] = (6, 8, 10)
    J_seq: tuple[int, ...] = (64, 512, 4096)
    J_mixed: tuple[int, ...] = (32, 64)
    x_probes: int = 64
    y_probes: int = 16
    lemma_m: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0)
    lemma_n_max: int = 1_000_000
    control_psi: PsiDescriptor | None = None

    def __post_init__(self):
        # the input gate: every violation in one ConfigError, then the depth checks
        problems = validate(self.params)
        # J_mixed needs two depths for its Cauchy test; run_pathology takes
        # the extremes of the others
        for name, least in (("J_norm", 1), ("J_seq", 1), ("J_mixed", 2)):
            vals = getattr(self, name)
            if list(vals) != sorted(set(vals)):
                problems.append(f"{name} must be strictly increasing, got {vals}")
            elif len(vals) < least:
                problems.append(f"{name} needs at least {least} entries, got {vals}")
            elif vals[0] < 1:
                problems.append(f"{name} entries must be >= 1, got {vals}")
        for name in ("x_probes", "y_probes"):
            # the probes are 1 + i/count + 1/128, which reach 2 at count = 128
            count = getattr(self, name)
            if not 1 <= count <= MAX_PROBES:
                problems.append(f"{name} must lie in 1..{MAX_PROBES}, got {count}")
        if not all(math.isfinite(m) for m in self.lemma_m):
            problems.append(f"lemma.m entries must be finite, got {self.lemma_m}")
        if not 1 <= self.lemma_n_max <= MAX_LEMMA_N:
            problems.append(f"lemma.n_max must lie in 1..{MAX_LEMMA_N}, got {self.lemma_n_max}")
        if problems:
            raise ConfigError("; ".join(problems))
        self.check_grid_depth(max(self.J_norm))
        self.check_depth(self.deepest)

    def check_grid_depth(self, J: int) -> None:
        """Reject a grid-tier depth J above fieldnorms.grid_depth_cap."""
        cap = fieldnorms.grid_depth_cap(self.params.M)
        if J > cap:
            raise ConfigError(f"grid-tier depth {J} is above the grid-tier cap {cap}")

    def check_depth(self, J: int) -> None:
        """Reject a depth J below 1, above sequences.MAX_SEQ_DEPTH, past a
        tabulated psi, or where psi leaves slowly_varying.weight_in_range,
        before any block is built."""
        if J < 1:
            raise ConfigError(f"--J must be >= 1, got {J}")
        if J > sequences.MAX_SEQ_DEPTH:
            raise ConfigError(f"depth {J} is above the block cap {sequences.MAX_SEQ_DEPTH}")
        for name, psi in (("psi", self.psi), ("control_psi", self.control_psi)):
            if psi is not None and table_depth(psi) < J:
                raise ConfigError(f"tabulated {name} covers j = 0..{table_depth(psi)}, the run reads j = 0..{J}")
            if psi is not None and not weight_in_range(psi, self.params.kappa, J):
                raise ConfigError(f"{name}: Psi(2^-j) or (J + 1) Psi(2^-j)^kappa leaves the positive doubles at a j <= {J}")

    def blocks(self, J: int) -> sequences.BlockSequence:
        """The rearranged block sequence at depth J, after check_depth; it needs p < q."""
        self.check_depth(J)
        if not self.params.p < self.params.q:
            raise ConfigError(f"the construction needs p < q, got p={self.params.p}, q={self.params.q}")
        return sequences.rearrange(sequences.build_lambda_blocks(self.psi, self.params, J))

    @property
    def deepest(self) -> int:
        """The deepest level any report of this configuration reads."""
        return max(self.J_norm + self.J_seq + self.J_mixed)


def _typed(value, kind: type, key: str):
    """value, which must be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be {'an object' if kind is dict else 'a list'}, got {json.dumps(value)}")
    return value


def _weight(value, key: str) -> PsiDescriptor:
    """The weight of the object value, with psi_from_dict's complaint named by key."""
    _typed(value, dict, key)
    try:
        return psi_from_dict(value)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def config_from_dict(cfg: dict) -> ExperimentConfig:
    """ExperimentConfig from a parsed JSON object; any malformed field raises
    ConfigError.  J, probes, lemma, grid and psi are objects, control_psi an
    object or null, and J.norm, J.seq, J.mixed and lemma.m lists."""
    try:
        params = params_from_dict(cfg)
        j_cfg, probes, lemma = (_typed(cfg.get(key, {}), dict, key) for key in ("J", "probes", "lemma"))
        control = cfg.get("control_psi")
        kwargs = dict(
            params=params,
            psi=_weight(cfg.get("psi"), "psi"),
            control_psi=None if control is None else _weight(control, "control_psi"),
        )
        for key in ("norm", "seq", "mixed"):
            if key in j_cfg:
                kwargs[f"J_{key}"] = tuple(as_int(j, f"J.{key}") for j in _typed(j_cfg[key], list, f"J.{key}"))
        for key in ("x", "y"):
            if key in probes:
                kwargs[f"{key}_probes"] = as_int(probes[key], f"probes.{key}")
        if "m" in lemma:
            kwargs["lemma_m"] = tuple(as_float(m, "lemma.m") for m in _typed(lemma["m"], list, "lemma.m"))
        if "n_max" in lemma:
            kwargs["lemma_n_max"] = as_int(lemma["n_max"], "lemma.n_max")
        for key, fixed in FIXED_SETTINGS.items():
            *parents, leaf = key.split(".")
            node = cfg
            for parent in parents:
                node = _typed(node.get(parent, {}), dict, parent)
            value = node.get(leaf, fixed)
            # True == 1 in Python: a bool must not pass for 1.0, nor 1 for true
            if value != fixed or isinstance(value, bool) != isinstance(fixed, bool):
                raise ConfigError(f"{key} is fixed at {json.dumps(fixed)}, got {json.dumps(value)}")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**kwargs)


def x_probe_points(count: int) -> list[float]:
    """Equispaced probes in [1,2), offset by 1/128 off dyadic cell boundaries:
    the doubles nearest 1 + i/count + 1/128, each one int true division."""
    return [(128 * (count + i) + count) / (128 * count) for i in range(count)]


@dataclass
class Report:
    name: str
    fieldnames: list[str]
    rows: list[dict]
    verdicts: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lemma LE partial-sum suite


_LEMMA_CHUNK = 1 << 16  # terms per chunk of lemma_le_unit_partials: 0.5 MB a column


def lemma_le_unit_partials(m: float, checkpoints) -> list[float]:
    """lemma_le_partials(np.ones(n), m, n)[n_i - 1] (tests/oracles.py) at each
    checkpoint n_i, bitwise, in memory that does not grow with n.

    With u = 1 the running sum U_j is exactly j (for j < 2^53).  The series
    is summed chunk by chunk, each chunk's cumsum starting from the partial
    sum carried over, so the additions happen in numpy's sequential order.
    """
    if min(checkpoints) < 1:
        raise ValueError(f"checkpoints must be >= 1, got {min(checkpoints)}")
    n_max, values, total = max(checkpoints), {}, 0.0
    for lo in range(0, n_max, _LEMMA_CHUNK):
        hi = min(lo + _LEMMA_CHUNK, n_max)
        U = np.arange(lo + 1, hi + 1, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):  # U**m past the double range: a term of 0 or inf
            terms = 1.0 / U**m
        partials = np.cumsum(np.concatenate([[total], terms]))  # partials[i] = S_(lo + i)
        values.update((n, float(partials[n - lo])) for n in checkpoints if lo < n <= hi)
        total = partials[-1]
    return [values[n] for n in checkpoints]


def run_lemma_le(config: ExperimentConfig) -> Report:
    rows = []
    n_max = config.lemma_n_max
    checkpoints = sorted({n for n in LEMMA_CHECKPOINTS if n <= n_max} | {n_max})
    for m in config.lemma_m:
        partials = lemma_le_unit_partials(m, checkpoints)
        rows.extend({"m": m, "n": n, "partial_sum": v} for n, v in zip(checkpoints, partials))
    return Report("lemma_le", ["m", "n", "partial_sum"], rows, verdicts.evaluate("lemma_le", rows, config))


# ---------------------------------------------------------------------------
# Sequence experiment (Lemma LE:main at desk scale)


ROW_COLUMNS = ("kind", "tier", "J", "probe", "value")


def _row(kind: str, tier: str, J: int, probe, value: float) -> dict:
    """One row of the sequence and pathology reports, keyed by ROW_COLUMNS."""
    return {"kind": kind, "tier": tier, "J": J, "probe": probe, "value": value}


@dataclass(frozen=True)
class ExactTier:
    """The exact tier of one configuration, shared by its sequence and
    pathology reports: the level_table of the rearranged blocks at
    config.deepest, and the sup_diagnostic and coverage_count rows over
    J_seq and the x-probes, from one covering_profile on that table.  Blocks
    are built prefix-stable (running sums and cursor), so every value read
    at a depth J equals one from blocks built at J."""

    table: sequences.LevelTable
    diagnostics: list[dict]
    coverage: list[dict]


def exact_tier(config: ExperimentConfig) -> ExactTier:
    table = sequences.level_table(config.blocks(config.deepest), config.psi, config.params)
    probes = x_probe_points(config.x_probes)
    profiles = sequences.covering_profile(table, config.psi, config.params.p, probes, config.J_seq)
    diagnostics, coverage = [], []
    for d, J in enumerate(config.J_seq):
        for x, profile in zip(probes, profiles):
            diagnostic, count = profile[d]
            diagnostics.append(_row("diagnostic", "exact", J, x, diagnostic))
            coverage.append(_row("coverage", "exact", J, x, float(count)))
    return ExactTier(table, diagnostics, coverage)


def _mixed_norm_row(exact: ExactTier, J: int) -> dict:
    return _row("mixed_norm", "exact", J, None, exact.table.partial[J])


def _bound_row(kind: str, J: int, S_J: float, params: Params) -> dict:
    """S_J^(L/p), the diagnostic's forced lower bound over covered levels."""
    return _row(kind, "exact", J, None, S_J ** (params.L / params.p))


def run_sequence_experiment(config: ExperimentConfig, exact: ExactTier | None = None) -> Report:
    params = config.params
    if exact is None:
        exact = exact_tier(config)
    rows = [_mixed_norm_row(exact, J) for J in sorted(set(config.J_mixed) | set(config.J_seq))]
    rows.extend(exact.coverage)
    rows.extend(exact.diagnostics)
    for J in (min(config.J_seq), max(config.J_seq)):
        rows.append(_bound_row("forced_bound", J, exact.table.S[J], params))
    return Report("sequence", list(ROW_COLUMNS), rows, verdicts.evaluate("sequence", rows, config))


# ---------------------------------------------------------------------------
# Pathology run (flagship)


def run_pathology(config: ExperimentConfig, exact: ExactTier | None = None) -> Report:
    params, desc = config.params, config.psi
    if exact is None:
        exact = exact_tier(config)
    blocks = exact.table.blocks
    rows = []
    j_max = max(config.J_norm)  # common t-depth so the sweep compares like with like
    for J in config.J_norm:
        field = AtomicField(params, blocks, J)
        est = fieldnorms.field_besov_norm(field, j_max)
        rows.append(_row("norm2d", "grid", J, None, est.value))
        rows.append(_mixed_norm_row(exact, J))
    y_probes = x_probe_points(config.y_probes)
    coverage = sequences.covering_profile(exact.table, desc, params.p, y_probes, config.J_norm)
    for d, J in enumerate(config.J_norm):
        field = AtomicField(params, blocks, J)
        for y, profile in zip(y_probes, coverage):
            est = fieldnorms.pm_seminorm(field, y, desc, j_max)
            rows.append(_row("pm_seminorm", "grid", J, y, est.value))
            rows.append(_row("pm_coverage", "exact", J, y, float(profile[d][1])))
    rows.extend(exact.diagnostics)
    if config.control_psi is not None:
        S = sequences.build_S(config.control_psi, params.kappa, max(config.J_seq))
        for J in (min(config.J_seq), max(config.J_seq)):
            rows.append(_bound_row("control_bound", J, S[J - 1], params))
    return Report("pathology", list(ROW_COLUMNS), rows, verdicts.evaluate("pathology", rows, config))


# ---------------------------------------------------------------------------
# Emission


def emit_report(report: Report, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    csv_path, verdict_path, svg_path = (
        out / f"{report.name}{suffix}" for suffix in (".csv", "_verdicts.json", "_trends.svg"))
    write_csv(csv_path, report.fieldnames, report.rows)
    write_json(verdict_path, report.verdicts)
    write_svg_lines(svg_path, _trend_series(report), title=report.name)
    return [csv_path, verdict_path, svg_path]


def _trend_series(report: Report) -> dict[str, list[tuple[float, float]]]:
    if report.name == "lemma_le":
        series: dict[str, list[tuple[float, float]]] = {}
        for row in report.rows:
            series.setdefault(f"m={float(row['m']):g}", []).append((float(row["n"]), float(row["partial_sum"])))
        return series
    pts = {kind: sorted((int(r["J"]), float(r["value"])) for r in report.rows if r["kind"] == kind)
           for kind in ("mixed_norm", "norm2d")}
    pts["min_diagnostic"] = list(report.verdicts.get("min_diagnostic_by_depth", {}).items())
    return {kind: [(float(J), v) for J, v in line] for kind, line in pts.items() if line}


def verdicts_from_csv_rows(name: str, rows: list[dict], config: ExperimentConfig) -> dict:
    """A report's verdicts, the configuration's keys included, from its read_csv rows."""
    return verdicts.evaluate(name, rows, config)
