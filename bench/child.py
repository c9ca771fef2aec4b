"""One repetition of a workload, run in a fresh interpreter by run.py.

Usage: python3 child.py SPEC_JSON_FILE SPAWN_TIME

The spec names the config, the CLI commands (argument lists for
`besovlab.cli.main`, run in order in the working directory) and whether to
trace; SPAWN_TIME is the monotonic clock reading at which the parent started
this process.  The result (set-up and command times, CPU, peak RSS, exit
codes, captured stdout, per-layer metrics when traced) is written as JSON to
the spec's `result` path.  With mode "setup" the process stops after set-up.
"""

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback


def now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the parent's spawn time
    # and this process's clock can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB, from VmHWM.

    Linux carries the parent's peak across fork and exec into ru_maxrss, so a
    large parent would hide the child's own figure; VmHWM counts only pages
    of this process image.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # the benchmark records a crash as a failed command
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])

    from besovlab import cli
    from besovlab.experiments import config_from_dict
    from besovlab.params import load_config, validate

    validate(config_from_dict(load_config(spec["config"])).params)
    result = {"setup_s": now() - t_spawn}

    if spec["mode"] == "run":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        commands = []
        for cmd in spec["commands"]:
            if tracer is not None:
                tracer.command = cmd["name"]
            start = now()
            code, stdout, stderr = run_command(cli, cmd["argv"])
            commands.append({"name": cmd["name"], "code": code, "wall_s": now() - start,
                             "stdout": stdout, "stderr": stderr})
            for src, dst in cmd.get("snapshot", []):
                shutil.copyfile(src, dst)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            commands=commands,
            wall_s=sum(c["wall_s"] for c in commands),
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=peak_rss_mb(),
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = {name: tracer.metric(name) for name in spec["layer_metrics"]}
            result["self_time_total_s"] = tracer.self_time_total()
            tracer.write_spans(spec["spans"])

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
