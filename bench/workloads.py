"""The benchmark's workloads: inputs, CLI commands and output checks.

A workload is a sequence of stages.  Each stage runs a few `besovlab` CLI
commands, the way a user runs the program, and checks their outputs against
references recorded at the seed commit (see record.py) in
`reference/<stage>`.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gate import KEYS, Comparison, read_rows

BENCH = Path(__file__).resolve().parent
CONFIG = BENCH / "inputs" / "flagship.json"
REFERENCE = BENCH / "reference"


class Stage:
    name = ""

    def prepare(self, run_dir: Path, seed: int) -> list[Path]:
        """Write the inputs generated from `seed`; return every input file."""
        return [CONFIG]

    def commands(self, run_dir: Path) -> list[dict]:
        raise NotImplementedError

    def check(self, work: Path, result: dict, ref: Path, run_dir: Path) -> dict[str, Comparison]:
        """Compare one repetition's outputs with the references, per command."""
        raise NotImplementedError

    def check_run(self, work: Path, run_dir: Path, seed: int) -> dict[str, Comparison]:
        """Checks made once per run against an oracle, outside the timed region."""
        return {}

    def record(self, work: Path, result: dict, ref: Path) -> None:
        """Store this repetition's outputs as the references."""
        raise NotImplementedError


def _config_argv(*argv: str) -> list[str]:
    return ["--config", str(CONFIG), *argv]


def _stdout(result: dict, name: str) -> str:
    return next(c["stdout"] for c in result["commands"] if c["name"] == name)


class Flagship(Stage):
    """pathology-run, then report, on the benchmark's copy of the flagship config."""

    name = "flagship"
    CSVS = ("lemma_le", "sequence", "pathology")

    def commands(self, run_dir):
        return [
            {"name": "pathology-run", "argv": _config_argv("--out", "out", "pathology-run"),
             # report overwrites verdicts.json and drops caveat and the
             # *classification keys, so keep pathology-run's copy
             "snapshot": [["out/verdicts.json", "pathology_run_verdicts.json"]]},
            {"name": "report", "argv": _config_argv("--out", "out", "report")},
        ]

    def check(self, work, result, ref, run_dir):
        run, report = Comparison(), Comparison()
        for name in self.CSVS:
            path = work / "out" / f"{name}.csv"
            if not path.is_file():
                run.fail(f"{path.name} not written")
                continue
            run.rows(name, read_rows(path), read_rows(ref / f"{name}.csv"), KEYS[name])
        snapshot = _read_json(work / "pathology_run_verdicts.json", run)
        if snapshot is not None:
            run.tree("verdicts", snapshot, json.loads((ref / "verdicts.json").read_text()))
            recomputed = _read_json(work / "out" / "verdicts.json", report)
            if recomputed is not None:
                for section, verdicts in snapshot.items():
                    shared = {k: v for k, v in verdicts.items() if k in recomputed.get(section, {})}
                    if not shared:
                        report.fail(f"report: no verdicts of {section!r} reproduced")
                    report.tree(f"report.{section}", recomputed.get(section, {}), shared)
        return {"pathology-run": run, "report": report}

    def record(self, work, result, ref):
        for name in self.CSVS:
            (ref / f"{name}.csv").write_bytes((work / "out" / f"{name}.csv").read_bytes())
        (ref / "verdicts.json").write_bytes((work / "pathology_run_verdicts.json").read_bytes())


class ExactDeep(Stage):
    """psi-check, seq-build at the paper's depth J = 4096, seq-verify of its JSON."""

    name = "exact-deep"
    J = 4096

    def commands(self, run_dir):
        return [
            {"name": "psi-check", "argv": _config_argv("psi-check")},
            {"name": "seq-build", "argv": _config_argv(
                "--out", "blocks.json", "seq-build", "--J", str(self.J), "--csv", "seq.csv")},
            {"name": "seq-verify", "argv": ["seq-verify", "blocks.json"]},
        ]

    def check(self, work, result, ref, run_dir):
        psi, build, verify = Comparison(), Comparison(), Comparison()
        try:
            psi.tree("psi-check", json.loads(_stdout(result, "psi-check")),
                     json.loads((ref / "psi_check.json").read_text()))
        except json.JSONDecodeError as exc:
            psi.fail(f"psi-check printed no JSON: {exc}")
        if (work / "seq.csv").is_file():
            build.rows("seq", read_rows(work / "seq.csv"), read_rows(ref / "seq.csv.gz"), KEYS["seq"])
        else:
            build.fail("seq.csv not written")
        if not (work / "blocks.json").is_file():
            build.fail("blocks.json not written")
        said = _stdout(result, "seq-verify").strip()
        if said.split(":")[0] != "ok":
            verify.fail(f"seq-verify printed {said!r}, not ok")
        return {"psi-check": psi, "seq-build": build, "seq-verify": verify}

    def record(self, work, result, ref):
        from gate import compact_rows, write_rows

        (ref / "psi_check.json").write_text(_stdout(result, "psi-check"))
        write_rows(ref / "seq.csv.gz", compact_rows(read_rows(work / "seq.csv")))


class FieldEval(Stage):
    """field-eval --J 10 on a seeded point cloud plus fixed anchor points."""

    name = "field-eval"
    J = 10
    SEEDED_POINTS = 199_000
    ON_SUPPORT_SHARE = 0.85
    ORACLE_SAMPLE = 1_000

    # On-cell window (start_j, n_j) of each level j = 2..J under
    # inputs/flagship.json: atom (j, k) is on when (k - 2^j - start_j) mod 2^j
    # < n_j.  Values of sequences.rearrange(build_lambda_blocks(...)) at the
    # seed commit, fixed here so the inputs do not depend on the code measured.
    ON_CELLS = {2: (0, 2), 3: (4, 2), 4: (12, 4), 5: (0, 6), 6: (12, 10),
                7: (44, 18), 8: (124, 32), 9: (312, 56), 10: (736, 102)}

    def generate(self, seed: int, n: int) -> tuple[list[str], list[str]]:
        """Points as shortest-repr text: most on level supports j = 2..J, the
        rest in the gaps between levels (where the field is 0)."""
        M = json.loads(CONFIG.read_text())["M"]
        c_m = 2 * (M + 2)  # level-j atoms sit near x1 = C_M j, half-width 2^(1-j)
        rng = np.random.default_rng(seed)
        on = rng.random(n) < self.ON_SUPPORT_SHARE
        j = rng.integers(2, self.J + 1, n)
        size = 2 ** j
        start, count = np.array([self.ON_CELLS[v] for v in range(2, self.J + 1)])[j - 2].T
        # an on-cell k, then x2 within one cell of its atom's centre k / 2^j
        k = size + (start + rng.integers(0, count)) % size
        x1_on = c_m * j + rng.uniform(-1.0, 1.0, n) * 2.0 ** (1 - j)
        x2_on = (k + rng.uniform(-1.0, 1.0, n)) / size
        x1_gap = c_m * (rng.integers(0, self.J + 1, n) + rng.uniform(0.25, 0.75, n))
        x2_gap = rng.uniform(0.0, 3.0, n)
        x1 = np.where(on, x1_on, x1_gap)
        x2 = np.where(on, x2_on, x2_gap)
        return [repr(v) for v in x1.tolist()], [repr(v) for v in x2.tolist()]

    def prepare(self, run_dir, seed):
        x1, x2 = self.generate(seed, self.SEEDED_POINTS)
        for row in read_rows(REFERENCE / self.name / "anchors.csv"):
            x1.append(row["x1"])
            x2.append(row["x2"])
        points = run_dir / "points.csv"
        _write_points(points, x1, x2)
        return [CONFIG, points]

    def commands(self, run_dir):
        return [{"name": "field-eval", "argv": _config_argv(
            "--out", "f.csv", "field-eval", "--J", str(self.J),
            "--points", str(run_dir / "points.csv"))}]

    def check(self, work, result, ref, run_dir):
        comp = Comparison()
        path = work / "f.csv"
        if not path.is_file():
            comp.fail("f.csv not written")
            return {"field-eval": comp}
        rows = read_rows(path)
        points = read_rows(run_dir / "points.csv")
        if rows and not {"x1", "x2", "f"} <= rows[0].keys():
            comp.fail(f"field-eval wrote columns {list(rows[0])}, not x1, x2, f")
            return {"field-eval": comp}
        if len(rows) != len(points):
            comp.fail(f"field-eval wrote {len(rows)} rows for {len(points)} points")
        elif any(r["x1"] != p["x1"] or r["x2"] != p["x2"] for r, p in zip(rows, points)):
            comp.fail("field-eval rows do not echo the input points in order")
        anchors = read_rows(ref / "anchors.csv")
        comp.rows("anchors", rows[len(rows) - len(anchors):], anchors, KEYS["anchors"])
        return {"field-eval": comp}

    def check_run(self, work, run_dir, seed):
        """eval_f_dense, the brute-force sum over every atom, on a seeded sample."""
        from besovlab import sequences
        from besovlab.atoms import AtomicField, eval_f_dense
        from besovlab.experiments import config_from_dict
        from besovlab.params import load_config

        comp = Comparison()
        if not (work / "f.csv").is_file():
            return {}  # check() has already failed the command
        rows = read_rows(work / "f.csv")
        config = config_from_dict(load_config(CONFIG))
        blocks = sequences.rearrange(sequences.build_lambda_blocks(config.psi, config.params, self.J))
        field = AtomicField(config.params, blocks, self.J)
        rng = np.random.default_rng([seed, 1])
        sample = rng.choice(len(rows), size=min(self.ORACLE_SAMPLE, len(rows)), replace=False)
        try:
            pts = np.array([[float(rows[i]["x1"]), float(rows[i]["x2"])] for i in sample])
            got = [float(rows[i]["f"]) for i in sample]
        except (KeyError, TypeError, ValueError) as exc:
            comp.fail(f"oracle: unreadable output row: {exc}")
            return {"field-eval": comp}
        dense = eval_f_dense(field, pts)
        for i, value, want in zip(sample, got, dense.tolist()):
            comp.value(f"oracle[{i}]", value, want)
        # the oracle differs from eval_f in summation order, so only its
        # failures count; out_max_rel_change is measured against the references
        comp.max_rel_change = 0.0
        return {"field-eval": comp}

    def record(self, work, result, ref):
        (ref / "anchors.csv").write_bytes((work / "f.csv").read_bytes())


def _write_points(path: Path, x1: list[str], x2: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("x1,x2\n")
        fh.writelines(f"{a},{b}\n" for a, b in zip(x1, x2))


def _read_json(path: Path, comp: Comparison):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        comp.fail(f"{path.name}: {exc}")
        return None


class Workload:
    """Stages run one after another in each repetition."""

    def __init__(self, name: str, stages: list[Stage]):
        self.name = name
        self.stages = stages

    def prepare(self, run_dir: Path, seed: int) -> list[Path]:
        inputs = [p for stage in self.stages for p in stage.prepare(run_dir, seed)]
        return list(dict.fromkeys(inputs))

    def commands(self, run_dir: Path) -> list[dict]:
        return [cmd for stage in self.stages for cmd in stage.commands(run_dir)]

    def check(self, work: Path, result: dict, run_dir: Path) -> dict[str, Comparison]:
        checks = {}
        for stage in self.stages:
            checks.update(stage.check(work, result, REFERENCE / stage.name, run_dir))
        return checks

    def check_run(self, work: Path, run_dir: Path, seed: int) -> dict[str, Comparison]:
        checks = {}
        for stage in self.stages:
            checks.update(stage.check_run(work, run_dir, seed))
        return checks


STAGES = {s.name: s for s in (Flagship(), ExactDeep(), FieldEval())}
WORKLOADS = {w.name: w for w in (
    Workload("flagship", [STAGES["flagship"]]),
    Workload("exact-eval", [STAGES["exact-deep"], STAGES["field-eval"]]),
)}
