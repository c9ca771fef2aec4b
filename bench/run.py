"""besovlab benchmark: times whole CLI runs end to end and, traced, per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run repeats the workload, each repetition in a fresh interpreter (users pay
for imports and cold caches on every CLI call), at least once and then while
the next repetition is expected to end within S seconds.  The loop is closed:
one client, one process at a time.  Outputs are checked against the
references in bench/reference.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics named in BENCHMARK.json
(medians over the repetitions); with --trace 1 each step runs one untraced and
one traced repetition side by side and the object holds the per-layer metrics
of the traced ones.  The run exits 1 when a correctness check fails and 2 when
the checkout holds no besovlab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
SETUP_SAMPLES = 15  # set-up is short and noisy: take the median of this many
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(work: Path, result: dict) -> str:
    """One digest of every file a repetition wrote and of what it printed."""
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(work)).encode() + b"\0" + sha256(path).encode())
    for cmd in result.get("commands", []):
        h.update(cmd["stdout"].encode())
    return h.hexdigest()


class Rep:
    """One repetition: a fresh interpreter running the workload's commands.

    The process starts on construction; `wait` reaps it and reads its result.
    """

    def __init__(self, run_dir: Path, index: int, commands: list[dict], mode: str,
                 trace: bool, layer_metrics: list[str]):
        self.dir = run_dir / f"rep-{index:03d}"
        self.work = self.dir / "work"
        self.work.mkdir(parents=True)
        self.trace = trace
        self.commands = commands if mode == "run" else []
        self.error = None
        self.result = {}
        spec = {
            "config": str(BENCH / "inputs" / "flagship.json"),
            "mode": mode,
            "trace": trace,
            "commands": commands,
            "layer_metrics": layer_metrics,
            "result": str(self.dir / "result.json"),
            "spans": str(self.dir / "spans.jsonl"),
        }
        spec_path = self.dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(self.dir / "stderr.txt", "w") as err:
            t_spawn = now()
            self._proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), repr(t_spawn)],
                cwd=self.work, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )

    def wait(self, deadline: float) -> "Rep":
        if self._proc.returncode is not None:
            return self
        try:
            code = self._proc.wait(timeout=max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            self.error = "timed out"
            return self
        if code != 0:
            self.error = f"exit {code}: {(self.dir / 'stderr.txt').read_text()[-2000:]}"
        try:
            self.result = json.loads((self.dir / "result.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            self.error = self.error or f"no result: {exc}"
        return self

    @property
    def ok(self) -> bool:
        return self.error is None


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(inputs: list[Path]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_revision": git_revision(),
        "inputs_sha256": {str(p.relative_to(ROOT)): sha256(p) for p in inputs},
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, layer_metrics: list[str]) -> dict:
    start = now()
    deadline = start + RUN_LIMIT_S
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = workload.prepare(run_dir, seed)
    commands = workload.commands(run_dir)

    reps: list[Rep] = []
    setups: list[float] = []

    def sample_setups(count: int) -> None:
        for _ in range(count):
            if now() >= deadline - 5:
                return
            probe = Rep(run_dir, len(reps), commands, "setup", False, []).wait(deadline)
            reps.append(probe)
            if probe.ok:
                setups.append(probe.result["setup_s"])

    # set-up is sampled before and after the timed repetitions, so a run's
    # median covers its whole span and not one moment of the machine's drift
    if not trace:
        sample_setups(SETUP_SAMPLES // 2)
    # --trace 1 runs an untraced and a traced repetition side by side, one per
    # core: the machine's speed can drift over tens of seconds, so the two see the
    # same conditions, and a traced run takes no longer than an untraced one
    modes = [False, True] if trace else [False]
    side_by_side = len(os.sched_getaffinity(0)) >= len(modes)
    loop_start = now()
    while True:
        step_start = now()
        step: list[Rep] = []
        try:
            for traced in modes:
                step.append(Rep(run_dir, len(reps) + len(step), commands, "run", traced, layer_metrics))
                if not side_by_side:
                    step[-1].wait(deadline)
        finally:
            for rep in step:
                rep.wait(deadline)
        reps += step
        duration = now() - step_start
        # stop before a step that would run past --seconds or the run limit
        if not all(r.ok for r in step) or now() - loop_start + duration > seconds or now() + duration > deadline:
            break
    setups += [r.result["setup_s"] for r in reps if r.commands and "setup_s" in r.result]
    if not trace:
        sample_setups(SETUP_SAMPLES - len(setups))

    problems: list[str] = []
    attempted = failed = 0
    max_change = 0.0
    runs = [r for r in reps if r.commands]
    first = runs[0]
    first_digest = tree_digest(first.work, first.result) if first.ok else None
    first_checks = workload.check(first.work, first.result, run_dir) if first.ok else {}
    run_checks = workload.check_run(first.work, run_dir, seed) if first.ok else {}
    plain = [r for r in runs if r.ok and not r.trace]
    traced = [r for r in runs if r.ok and r.trace]
    overhead = None
    if traced and plain:
        overhead = (statistics.median(r.result["wall_s"] for r in traced)
                    - statistics.median(r.result["wall_s"] for r in plain))
    for rep in runs:
        attempted += len(rep.commands)
        if not rep.ok:
            failed += len(rep.commands)
            problems.append(f"{rep.dir.name}: {rep.error}")
            continue
        digest = tree_digest(rep.work, rep.result)
        rep_problems = []
        if digest != first_digest:
            # byte-identical outputs across processes, traced or not
            rep_problems.append("outputs differ from the first repetition's")
            checks = workload.check(rep.work, rep.result, run_dir)
        else:
            checks = first_checks
        if rep.trace and overhead is not None:
            wall, self_total = rep.result["wall_s"], rep.result["self_time_total_s"]
            if abs(wall - self_total) > max(overhead, 0.01 * wall):
                rep_problems.append(
                    f"layer self times sum to {self_total:.4f} s, traced wall_s is {wall:.4f} s")
        for cmd in rep.result["commands"]:
            cmd_problems = list(rep_problems)
            if cmd["code"] != 0:
                cmd_problems.append(f"exit code {cmd['code']}: {cmd['stderr'][-2000:]}")
            for comp in (checks.get(cmd["name"]), run_checks.get(cmd["name"])):
                if comp is not None:
                    cmd_problems += comp.problems
                    max_change = max(max_change, comp.max_rel_change)
            if cmd_problems:
                failed += 1
                problems += [f"{rep.dir.name} {cmd['name']}: {p}" for p in cmd_problems]

    out = {
        "workload": workload.name,
        "seed": seed,
        "repetitions": len(plain),
        "correct": failed == 0 and bool(plain),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "out_max_rel_change": max_change,
        "problems": problems,
        "samples": {
            "setup_s": setups,
            "wall_s": [r.result["wall_s"] for r in plain],
            "cpu_s": [r.result["cpu_s"] for r in plain],
            "peak_rss_mb": [r.result["peak_rss_mb"] for r in plain],
        },
        "provenance": provenance(inputs),
    }
    if trace:
        layers = {}
        for name in layer_metrics:
            values = [r.result["layers"].get(name) for r in traced]
            layers[name] = None if not values or None in values else statistics.median(values)
        layers["trace_overhead_s"] = overhead
        out["layers"] = layers
        if traced:
            shutil.copyfile(traced[-1].dir / "spans.jsonl", WORK / f"{workload.name}.spans.jsonl")
    shutil.rmtree(run_dir, ignore_errors=True)
    return out


def report_lines(result: dict, units: dict[str, str]) -> list[str]:
    from gate import summarize

    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"repetitions {result['repetitions']}"]
    for name, values in result["samples"].items():
        if not values:
            lines.append(f"  {name:<20} no samples")
            continue
        s = summarize(values)
        pct = "".join(f"  {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        lines.append(f"  {name:<20} median={s['median']:.6g} {units.get(name, '')}{pct}  n={s['n']}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_ratio':<20} {ratio:.6g}  ({result['failed']}/{result['attempted']} operations)")
    lines.append(f"  {'out_max_rel_change':<20} {result['out_max_rel_change']:.6g}")
    for name, value in result.get("layers", {}).items():
        lines.append(f"  {name:<48} {value}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "besovlab" / "cli.py").is_file():
        print(f"no besovlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")

    layer_names = [n for n in per_layer if n != "trace_overhead_s"]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), layer_names)
        results.append(result)
        for line in report_lines(result, {**e2e, **per_layer}):
            print(line)
        for problem in result["problems"][:20]:
            print(f"  problem: {problem}", file=sys.stderr)
        print("provenance " + json.dumps(result["provenance"], sort_keys=True))
        sys.stdout.flush()

    if args.workload == "all":
        print(json.dumps({r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "out_max_rel_change")}
                          for r in results}, sort_keys=True))
        return 0 if all(r["correct"] for r in results) else 1

    result = results[0]
    if args.trace:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in per_layer.items()}
    else:
        medians = {n: statistics.median(v) if v else None for n, v in result["samples"].items()}
        metrics = {n: {"value": medians[n], "unit": u} for n, u in e2e.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
