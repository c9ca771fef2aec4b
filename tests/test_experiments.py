import fnmatch
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from besovlab import experiments, sequences, verdicts
from besovlab.cli import main
from besovlab.experiments import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    emit_report,
    run_lemma_le,
    run_pathology,
    run_sequence_experiment,
    verdicts_from_csv_rows,
    x_probe_points,
)
from besovlab.params import Params, load_config
from besovlab.reporting import read_csv
from besovlab.slowly_varying import constant, log_power


def small_config(**overrides):
    base = dict(
        params=Params(p=1.0, q=2.0, s=1.5, M=2, L=0.25),
        psi=constant(1.0),
        J_norm=(4, 6),
        J_seq=(16, 32, 64),
        J_mixed=(16, 32),
        x_probes=16,
        y_probes=4,
        lemma_m=(0.5, 2.0),
        lemma_n_max=5000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def sequence_verdicts(rows, config=None):
    return verdicts.evaluate("sequence", rows, config or small_config())


def pathology_verdicts(rows):
    return verdicts.evaluate("pathology", rows, small_config())


class TestConfig:
    def test_from_dict_full(self):
        cfg = config_from_dict(
            {
                "N": 2, "d": 1, "p": 1, "q": 2, "s": 1.5, "M": 2, "L": 0.25,
                "psi": {"family": "constant", "c": 1.0},
                "control_psi": {"family": "log-power", "b": 1.0},
                "J": {"norm": [6, 8], "seq": [64, 512], "mixed": [32, 64]},
                "probes": {"x": 32, "y": 8},
                "lemma": {"m": [1.0], "n_max": 100},
                "grid": {"res_scale": 1.0},
                "diag_threshold": 2.5,
                "emit_svg": True,
            }
        )
        assert cfg.J_norm == (6, 8)
        assert cfg.control_psi == log_power(1.0)
        assert cfg.x_probes == 32

    def test_rejects_unsorted_depths(self):
        with pytest.raises(ConfigError):
            small_config(J_seq=(64, 16))

    def test_rejects_block_depth_above_cap(self):
        with pytest.raises(ConfigError, match="block cap"):
            small_config(J_seq=(16, 32, sequences.MAX_SEQ_DEPTH + 1))
        with pytest.raises(ConfigError, match="block cap"):
            small_config(J_mixed=(16, sequences.MAX_SEQ_DEPTH + 1))

    def test_gate_lists_every_violation(self):
        params = Params(p=1.0, q=2.0, s=1.5, M=1, L=0.9)
        with pytest.raises(ConfigError) as err:
            small_config(params=params, x_probes=0)
        for fragment in ("M > s fails", "L < 1 - p/q fails", "x_probes must lie"):
            assert fragment in str(err.value)

    def test_grid_depth_cap(self):
        assert small_config(J_norm=(4, 15)).J_norm == (4, 15)
        with pytest.raises(ConfigError, match="grid-tier cap 15"):
            small_config(J_norm=(4, 16))

    def test_rejects_invalid_exponents(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"N": 2, "d": 1, "p": 3, "q": 2, "s": 1.5, "M": 2,
                 "psi": {"family": "constant"}}
            )

    def test_probe_points_avoid_dyadic_boundaries(self):
        for x in x_probe_points(64):
            assert 1 <= x < 2
            # denominator is a power of two but the offset keeps the point
            # off every cell boundary above the offset's own scale
            for j in range(7):
                assert (x * (1 << j)) % 1 != 0

    @pytest.mark.parametrize("count", [1, 10, 12, 64, 100, 127])
    def test_probe_points_are_the_doubles_the_rows_report(self, count):
        """The exact tier measures at each probe and reports it as a double:
        one point, the double nearest 1 + i/count + 1/128."""
        probes = x_probe_points(count)
        assert all(type(x) is float for x in probes)
        assert probes == [float(1 + Fraction(i, count) + Fraction(1, 128)) for i in range(count)]


class TestLemmaLE:
    def test_verdict_split(self):
        report = run_lemma_le(small_config())
        assert report.verdicts["m=0.5"]["verdict"] == "divergent-at-scale"
        assert report.verdicts["m=2"]["verdict"] in ("convergent-at-scale", "inconclusive")

    def test_rows_are_partial_sums_at_checkpoints(self):
        report = run_lemma_le(small_config(lemma_m=(1.0,), lemma_n_max=100))
        values = {r["n"]: r["partial_sum"] for r in report.rows}
        assert values[100] == pytest.approx(sum(1.0 / j for j in range(1, 101)), rel=1e-12)

    def test_verdicts_pure_function_of_rows(self):
        config = small_config()
        report = run_lemma_le(config)
        assert verdicts.evaluate("lemma_le", report.rows, config) == report.verdicts

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
    def test_flagship_suite_peak_memory_stays_small(self):
        """run_lemma_le on the flagship config in a fresh process: the peak
        resident size after the suite (VmHWM) exceeds the resident size
        before it (VmRSS) by less than 16 MB."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _LEMMA_MEMORY_PROBE, str(root / "configs" / "flagship.json")],
                              env=env, check=True, capture_output=True, text=True, timeout=300)
        assert int(done.stdout) < 16 * 1024, f"lemma suite raised the peak by {done.stdout.strip()} kB"


_LEMMA_MEMORY_PROBE = """
import json, sys
from besovlab.experiments import config_from_dict, run_lemma_le

def status_kb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

config = config_from_dict(json.loads(open(sys.argv[1]).read()))
before = status_kb("VmRSS")
run_lemma_le(config)
print(status_kb("VmHWM") - before)
"""


def _exact_oracle(row, config):
    """The per-depth oracle of an exact-tier row, on blocks built at its J."""
    params, psi, J = config.params, config.psi, row["J"]
    blocks = sequences.rearrange(sequences.build_lambda_blocks(psi, params, J))
    kind = row["kind"]
    if kind == "mixed_norm":
        return sequences.mixed_norm(blocks, params.p, params.q, J)
    if kind in ("coverage", "pm_coverage"):
        return float(sequences.coverage_count(blocks, Fraction(row["probe"]), J))
    if kind == "diagnostic":
        return sequences.sup_diagnostic(blocks, psi, params.p, Fraction(row["probe"]), J)
    weight = {"forced_bound": psi, "control_bound": config.control_psi}[kind]
    return float(sequences.build_S(weight, params.kappa, J)[-1]) ** (params.L / params.p)


class TestSequenceExperiment:
    def test_flagship_small(self):
        report = run_sequence_experiment(small_config())
        assert report.verdicts["condition_classification"] == "violated"
        kinds = {r["kind"] for r in report.rows}
        assert kinds == {"mixed_norm", "coverage", "diagnostic", "forced_bound"}

    def test_control_run_notes_expectation(self):
        report = run_sequence_experiment(small_config(psi=log_power(1.0)))
        assert report.verdicts["condition_classification"] == "satisfied"
        assert "note" in report.verdicts

    def test_exact_rows_equal_builds_at_their_own_depth(self):
        # the shared exact tier is built once, at config.deepest
        config = small_config(control_psi=log_power(1.0))
        exact = experiments.exact_tier(config)
        assert exact.table.blocks.J == config.deepest == 64
        rows = run_sequence_experiment(config, exact).rows + run_pathology(config, exact).rows
        checked = [row for row in rows if row["tier"] == "exact"]
        assert {row["kind"] for row in checked} == {
            "mixed_norm", "coverage", "pm_coverage", "diagnostic", "forced_bound", "control_bound",
        }
        for row in checked:
            assert row["value"] == _exact_oracle(row, config), row

    def test_covering_walk_rows_equal_the_oracles_on_the_flagship_probes(self):
        """exact_tier reads every depth's diagnostic and coverage count off one
        covering walk per probe; each equals its per-depth oracle."""
        root = Path(__file__).resolve().parent.parent
        config = config_from_dict(load_config(root / "configs" / "flagship.json"))
        exact = experiments.exact_tier(config)
        probes = x_probe_points(config.x_probes)
        expected_probes = [float(x) for J in config.J_seq for x in probes]
        for kind, rows in (("diagnostic", exact.diagnostics), ("coverage", exact.coverage)):
            assert [row["probe"] for row in rows] == expected_probes
            assert {row["kind"] for row in rows} == {kind}
        p, psi = config.params.p, config.psi
        for diagnostic, coverage, x in zip(exact.diagnostics, exact.coverage, probes * len(config.J_seq)):
            J = diagnostic["J"]
            assert diagnostic["value"] == sequences.sup_diagnostic(exact.table.blocks, psi, p, x, J)
            assert coverage["value"] == float(sequences.coverage_count(exact.table.blocks, x, J))

    def test_exact_tier_builds_no_jbit_integer(self, monkeypatch):
        """The flagship's exact tier reads each level's count and start as a
        mantissa and a shift, never as the j-bit integers BlockLevel.n and
        .start build."""
        def jbit(lvl):
            raise AssertionError(f"a j-bit integer built at level {lvl.j}")

        config = config_from_dict(load_config(Path(__file__).resolve().parent.parent / "configs" / "flagship.json"))
        monkeypatch.setattr(sequences.BlockLevel, "n", property(jbit))
        monkeypatch.setattr(sequences.BlockLevel, "start", property(jbit))
        exact = experiments.exact_tier(config)
        table = exact.table
        assert len(table.S) == len(table.gamma) == len(table.average) == len(table.partial) == config.deepest + 1

    def test_verdicts_recomputable(self):
        config = small_config()
        report = run_sequence_experiment(config)
        again = sequence_verdicts(report.rows, config)
        for key, value in again.items():
            assert report.verdicts[key] == value


class TestPathology:
    def test_rejects_invalid_params(self):
        with pytest.raises(ConfigError):
            run_pathology(small_config(params=Params(p=1.0, q=2.0, s=2.5, M=2, L=0.25)))

    def test_rejects_unsupported_dimensions(self):
        base = {"p": 1, "q": 2, "s": 1.5, "M": 2, "L": 0.25, "psi": {"family": "constant"}}
        for key, value in (("N", 3), ("d", 2)):
            with pytest.raises(ConfigError, match=f"{key} is fixed at"):
                config_from_dict({**base, key: value})

    def test_small_run_produces_all_kinds(self):
        report = run_pathology(small_config(control_psi=log_power(1.0)))
        kinds = {r["kind"] for r in report.rows}
        assert kinds == {
            "norm2d", "mixed_norm", "pm_seminorm", "pm_coverage", "diagnostic", "control_bound"
        }
        assert report.verdicts["control_classification"] == "satisfied"
        assert "caveat" in report.verdicts

    def test_norm_from_zero_is_not_saturated(self):
        # J_norm = (1, 2): levels 0 and 1 are off, so the first norm is 0
        rows = [{"kind": "norm2d", "tier": "grid", "J": J, "probe": None, "value": v}
                for J, v in ((1, 0.0), (2, 0.5))]
        v = pathology_verdicts(rows)
        assert v["norm2d_saturates"] is False
        assert v["norm2d_relative_increase"] == math.inf

    def test_tiers_recorded(self):
        report = run_pathology(small_config())
        tiers = {(r["kind"], r["tier"]) for r in report.rows}
        assert ("norm2d", "grid") in tiers
        assert ("diagnostic", "exact") in tiers
        assert ("pm_coverage", "exact") in tiers


def pm_rows(seminorms, coverage):
    """pm_seminorm and pm_coverage rows from {probe: [(J, value), ...]} maps."""
    rows = []
    for kind, tier, table in (("pm_seminorm", "grid", seminorms), ("pm_coverage", "exact", coverage)):
        for y, series in table.items():
            for J, value in series:
                rows.append({"kind": kind, "tier": tier, "J": J, "probe": y, "value": value})
    return rows


class TestPartialMapGrowthVerdict:
    # probe 1.25 is covered in (6, 8], probe 1.75 in (8, 10], probe 1.5 never
    COVERAGE = {
        1.25: [(6, 1.0), (8, 2.0), (10, 2.0)],
        1.5: [(6, 1.0), (8, 1.0), (10, 1.0)],
        1.75: [(6, 1.0), (8, 1.0), (10, 2.0)],
    }
    SEMINORMS = {
        1.25: [(6, 2.0), (8, 5.0), (10, 5.0)],
        1.5: [(6, 3.0), (8, 3.0), (10, 3.0)],
        1.75: [(6, 2.5), (8, 2.5), (10, 4.5)],
    }

    def verdicts(self, seminorms=None, coverage=None):
        rows = pm_rows(seminorms or self.SEMINORMS, coverage or self.COVERAGE)
        return pathology_verdicts(rows)

    def test_growth_along_coverage_passes(self):
        v = self.verdicts()
        assert v["pm_seminorm_grows_where_covered"] is True
        assert v["pm_seminorm_covered_rises"] == {"(6, 8]": 1, "(8, 10]": 1}
        # strict growth at every probe is a different, stronger claim
        assert v["pm_seminorm_increasing_all_probes"] is False

    def test_uncovered_rise_is_allowed(self):
        # an atom reaches past its on-cell, so a rise without coverage is fine
        seminorms = {**self.SEMINORMS, 1.5: [(6, 3.0), (8, 3.5), (10, 3.5)]}
        v = self.verdicts(seminorms=seminorms)
        assert v["pm_seminorm_grows_where_covered"] is True
        assert v["pm_seminorm_covered_rises"] == {"(6, 8]": 1, "(8, 10]": 1}

    def test_covered_probe_without_rise_fails(self):
        # probe 1.5 gains a covered level in (6, 8] but its seminorm stays flat,
        # while probe 1.25 keeps that interval's covered-rise count at 1
        coverage = {**self.COVERAGE, 1.5: [(6, 1.0), (8, 2.0), (10, 2.0)]}
        v = self.verdicts(coverage=coverage)
        assert v["pm_seminorm_grows_where_covered"] is False
        assert v["pm_seminorm_covered_rises"] == {"(6, 8]": 1, "(8, 10]": 1}

    def test_decrease_fails(self):
        seminorms = {**self.SEMINORMS, 1.5: [(6, 3.0), (8, 2.9), (10, 3.0)]}
        v = self.verdicts(seminorms=seminorms)
        assert v["pm_seminorm_grows_where_covered"] is False
        assert v["pm_seminorm_covered_rises"] == {"(6, 8]": 1, "(8, 10]": 1}

    def test_interval_without_covered_rise_fails(self):
        coverage = {**self.COVERAGE, 1.75: [(6, 1.0), (8, 1.0), (10, 1.0)]}
        v = self.verdicts(coverage=coverage)
        assert v["pm_seminorm_grows_where_covered"] is False
        assert v["pm_seminorm_covered_rises"] == {"(6, 8]": 1, "(8, 10]": 0}

    def test_single_depth_is_not_vacuously_true(self):
        v = self.verdicts(seminorms={1.5: [(6, 3.0)]}, coverage={1.5: [(6, 1.0)]})
        assert v["pm_seminorm_grows_where_covered"] is False
        assert v["pm_seminorm_covered_rises"] == {}

    @pytest.mark.parametrize(
        "seminorms, expected",
        [(SEMINORMS, True), ({**SEMINORMS, 1.75: [(6, 2.5), (8, 2.5), (10, 2.5)]}, False)],
    )
    def test_string_cells_give_same_verdict(self, seminorms, expected):
        rows = pm_rows(seminorms, self.COVERAGE)
        as_text = [{k: repr(v) if isinstance(v, float) else str(v) for k, v in r.items()}
                   for r in rows]
        recomputed = verdicts_from_csv_rows("pathology", as_text, small_config())
        direct = pathology_verdicts(rows)
        assert recomputed["pm_seminorm_grows_where_covered"] is expected
        for key in ("pm_seminorm_grows_where_covered", "pm_seminorm_covered_rises"):
            assert recomputed[key] == direct[key]


def bound_rows(kind, lo, hi):
    return [
        {"kind": kind, "tier": "exact", "J": 16, "probe": None, "value": lo},
        {"kind": kind, "tier": "exact", "J": 64, "probe": None, "value": hi},
    ]


class TestSharedVerdicts:
    """The sequence and pathology reports read diagnostics and bounds through
    the same rules, so they must agree on the same rows."""

    @pytest.mark.parametrize("threshold", [0.0, 2.5, 1e9])
    def test_divergence_keys_agree(self, threshold, monkeypatch):
        # the line is set on the diagnostic_divergent rule of both reports
        for name in ("sequence", "pathology"):
            monkeypatch.setitem(verdicts.RULES, name, tuple(
                rule._replace(line=threshold) if rule.key == "diagnostic_divergent" else rule
                for rule in verdicts.RULES[name]))
        config = small_config()
        rows = run_sequence_experiment(config).rows
        diagnostics = [r for r in rows if r["kind"] == "diagnostic"]
        seq = sequence_verdicts(rows, config)
        path = pathology_verdicts(diagnostics)
        for key in ("diagnostic_divergent", "min_diagnostic_by_depth"):
            assert seq[key] == path[key]
        assert seq["diagnostic_divergent"] is (threshold == 0.0)

    def test_divergence_keys_without_diagnostic_rows(self):
        mixed = [r for r in run_sequence_experiment(small_config()).rows if r["kind"] == "mixed_norm"]
        seq = sequence_verdicts(mixed)
        assert seq["diagnostic_divergent"] is False
        assert seq["min_diagnostic_by_depth"] == {}
        path = pathology_verdicts([])
        assert "diagnostic_divergent" not in path and "min_diagnostic_by_depth" not in path

    @pytest.mark.parametrize("hi, plateau", [(2.1, True), (math.nextafter(2.1, 3.0), False)])
    def test_plateaus_flip_at_ratio_1_05(self, hi, plateau):
        assert 2.0 * 1.05 == 2.1
        mixed = [r for r in run_sequence_experiment(small_config()).rows if r["kind"] == "mixed_norm"]
        seq = sequence_verdicts(mixed + bound_rows("forced_bound", 2.0, hi))
        path = pathology_verdicts(bound_rows("control_bound", 2.0, hi))
        assert seq["forced_bound_plateau"] is plateau
        assert path["control_bound_plateau"] is plateau
        assert seq["forced_bound_values"] == path["control_bound_values"] == {"16": 2.0, "64": hi}

    @pytest.mark.parametrize("v2, cauchy", [(21.0, False), (19.0, False), (math.nextafter(21.0, 0.0), True)])
    def test_mixed_norm_cauchy_flips_at_gap_0_05(self, v2, cauchy):
        """The gap |v2 - v1| / v1 between the last two J.mixed depths must be
        strictly under 0.05, on either side of v1."""
        assert 1.0 / 20.0 == 0.05
        rows = [{"kind": "mixed_norm", "tier": "exact", "J": J, "probe": None, "value": v}
                for J, v in ((16, 20.0), (32, v2))]
        seq = sequence_verdicts(rows)
        assert seq["mixed_norm_cauchy"] is cauchy
        assert seq["mixed_norm_relative_gap"] == abs(v2 - 20.0) / 20.0

    @pytest.mark.parametrize("v2, saturates", [(11.0, False), (math.nextafter(11.0, 0.0), True), (9.0, True)])
    def test_norm2d_saturates_flips_at_rise_0_10(self, v2, saturates):
        """The signed rise (v2 - v1) / v1 over the last two norms must be
        strictly under 0.10: a fall saturates."""
        assert 1.0 / 10.0 == 0.10
        rows = [{"kind": "norm2d", "tier": "grid", "J": J, "probe": None, "value": v}
                for J, v in ((4, 10.0), (6, v2))]
        path = pathology_verdicts(rows)
        assert path["norm2d_saturates"] is saturates
        assert path["norm2d_relative_increase"] == (v2 - 10.0) / 10.0


def test_every_flagship_verdict_key_comes_from_one_rule(tmp_path, monkeypatch):
    """Each rule of a report, evaluated alone on the flagship's CSV rows,
    writes only keys that its key or echo names (as globs), no two rules
    write the same key, and together they write the recorded verdicts.json."""
    root = Path(__file__).resolve().parent.parent
    config_path = root / "configs" / "flagship.json"
    config = config_from_dict(load_config(config_path))
    recorded = json.loads((root / "tests" / "recorded" / "flagship_verdicts.json").read_text())
    assert main(["--config", str(config_path), "--out", str(tmp_path), "pathology-run"]) == 0
    assert set(recorded) == set(verdicts.RULES)
    for name, rules in verdicts.RULES.items():
        rows = read_csv(tmp_path / f"{name}.csv")
        union: dict = {}
        for rule in rules:
            monkeypatch.setitem(verdicts.RULES, name, (rule,))
            keys = verdicts.evaluate(name, rows, config)
            for key in keys:
                assert any(fnmatch.fnmatchcase(key, glob) for glob in (rule.key, rule.echo) if glob), key
                assert key not in union, key
            union.update(keys)
        assert json.loads(json.dumps(union)) == recorded[name]


class TestEmission:
    def test_emit_and_recompute_verdicts(self, tmp_path):
        config = small_config()
        report = run_sequence_experiment(config)
        files = emit_report(report, tmp_path)
        names = {f.name for f in files}
        assert names == {"sequence.csv", "sequence_verdicts.json", "sequence_trends.svg"}
        rows = read_csv(tmp_path / "sequence.csv")
        recomputed = verdicts_from_csv_rows("sequence", rows, config)
        emitted = json.loads((tmp_path / "sequence_verdicts.json").read_text())
        for key, value in recomputed.items():
            assert emitted[key] == value or emitted[key] == pytest.approx(value)

    def test_emitted_json_round_trip(self, tmp_path):
        report = run_lemma_le(small_config())
        emit_report(report, tmp_path)
        emitted = json.loads((tmp_path / "lemma_le_verdicts.json").read_text())
        assert emitted == json.loads(json.dumps(report.verdicts))

    def test_byte_determinism(self, tmp_path):
        config = small_config()
        for d in ("one", "two"):
            emit_report(run_pathology(config), tmp_path / d)
        a = (tmp_path / "one" / "pathology.csv").read_bytes()
        b = (tmp_path / "two" / "pathology.csv").read_bytes()
        assert a == b
