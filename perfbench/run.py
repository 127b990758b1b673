"""
hhg1d benchmark: one workload, one run.

    python3 perfbench/run.py --workload gas_run --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; the program is imported from
`src/`.  With --trace 0 every pass runs the workload's `hhg1d` commands in
fresh processes and the end-to-end metrics are reported; with --trace 1
the pass runs in-process through `hhg1d.cli.main`, once plain and once with
timing wrappers, and the per-layer metrics are reported.  The last line of
standard output is the result; the line before it is a report with the
environment stamp, per-command times and computed work counters.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["gas_run", "records_analysis"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time: passes are made while the next one "
                        "is expected to end within it, and at least one")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["reduced", "tiny"], default="reduced",
                   help="tiny shapes exist for the harness self-test")
    return p.parse_args(argv)


def read_steal() -> int | None:
    """Cumulative CPU-steal ticks of the host, read from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def env_stamp(root: Path) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    git_sha = None
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {"git_sha": git_sha or None,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_name}


class Runner:
    """Runs operations and keeps the count of attempts and failures."""

    def __init__(self, root: Path, log: Path):
        self.root = root
        self.log = log
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + old if old else "")

    def _checked(self, op, rc: int) -> None:
        self.attempted += 1
        if rc != 0:
            self.failures.append(f"{op.name}: exit code {rc}")
            return
        try:
            op.check()
        except Exception as exc:   # any error in a check fails the operation
            self.failures.append(f"{op.name}: {exc!r}")

    def in_subprocess(self, op) -> tuple[float, float]:
        """`hhg1d <argv>` in a fresh process: (wall s, peak RSS MB of the
        largest process in its tree)."""
        with open(self.log, "ab") as fh:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hhg1d", *op.argv], cwd=self.root,
                env=self.env, stdout=fh, stderr=fh)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._checked(op, proc.returncode)
        return wall, usage.ru_maxrss / 1024.0

    def in_process(self, op, tracer=None) -> float:
        """`hhg1d.cli.main(argv)` in this process, optionally traced."""
        import hhg1d.cli as cli
        with open(self.log, "a") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            t0 = perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(op.argv)
                else:
                    rc = tracer.call("cli." + op.name.replace("-", "_"),
                                     cli.main, op.argv)
            except (Exception, SystemExit):
                traceback.print_exc(file=fh)
                rc = -1
            wall = perf_counter() - t0
        self._checked(op, rc)
        return wall


def run_setup(workload, runner: Runner) -> float:
    t0 = perf_counter()
    for op in workload.setup_ops():
        runner.in_subprocess(op)
    return perf_counter() - t0


def untraced(workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    setups = [run_setup(workload, runner) for _ in range(SETUP_REPEATS)]
    passes, rss, per_op = [], [], {}
    t_start = perf_counter()
    # another pass starts only if it is expected to end within --seconds, so
    # a slow machine makes fewer passes instead of a longer run
    while not passes or perf_counter() - t_start \
            + statistics.median(passes) <= seconds:
        workload.reset()
        walls, peaks = [], []
        for op in workload.ops():
            wall, peak = runner.in_subprocess(op)
            walls.append(wall)
            peaks.append(peak)
            per_op.setdefault(op.name, []).append(wall)
        passes.append(sum(walls))
        rss.append(max(peaks))
    wall_s = statistics.median(passes)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    report = {"passes": len(passes), "pass_s": passes,
              "setup_runs_s": setups,
              "command_s": {k: statistics.median(v)
                            for k, v in per_op.items()}}
    # end-to-end metrics that BENCHMARK.json does not gate
    other = {}
    computed = workload.computed()
    if "config_steps_computed" in computed:
        other["config_steps_per_s"] = \
            (computed["config_steps_computed"] / wall_s, "1/s")
    else:
        other["analysis_s"] = (wall_s, "s")
        for name in ("gabor", "purity", "sfa", "orbits"):
            other[f"{name}_s"] = (statistics.median(per_op[name]), "s")
    report["other_metrics"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in other.items()}
    return metrics, report


def traced(workload, runner: Runner, results: Path) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics, step_shape_metrics

    run_setup(workload, runner)
    tracer = Tracer(results / "spans")
    # each command runs plain and then traced, back to back, so that drift
    # of the machine's speed does not enter the tracing overhead
    plain, walls = [], []
    for i, op in enumerate(workload.ops()):
        workload.reset()
        plain.append(runner.in_process(op))
        workload.reset()
        tracer.run_id = i
        try:
            tracer.install()
            walls.append(runner.in_process(op, tracer))
        finally:
            tracer.restore()
    spans = tracer.collect()
    metrics = layer_metrics(spans, tracer.keys)
    metrics["trace.overhead_s"] = sum(walls) - sum(plain)
    budget = 1.0 if workload.scale == "tiny" else 6.0
    metrics.update(step_shape_metrics(workload.point, budget))
    names = [op.name for op in workload.ops()]
    report = {"untraced_command_s": dict(zip(names, plain)),
              "traced_command_s": dict(zip(names, walls)),
              "spans": len(spans), "span_dir": str(tracer.out_dir)}
    named = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in named["per_layer"]}, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "hhg1d" / "cli.py").is_file():
        print(f"perfbench: no hhg1d sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hhg1d
    if Path(hhg1d.__file__).resolve().parent != src / "hhg1d":
        print(f"perfbench: imported hhg1d from {hhg1d.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    steal0, clock0 = read_steal(), perf_counter()
    work = HERE / ".work" / f"{args.workload}-{args.scale}-{os.getpid()}"
    results = HERE / ".results" / \
        f"{args.workload}-{args.scale}-trace{args.trace}"
    results.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, results / "commands.log")
    runner.log.write_text("")
    workload = WORKLOADS[args.workload](args.workload, args.scale, args.seed,
                                        work)
    try:
        if args.trace:
            metrics, report = traced(workload, runner, results)
        else:
            metrics, report = untraced(workload, runner, args.seconds)
        report.update(workload.computed())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    elapsed = perf_counter() - clock0
    steal1 = read_steal()
    tick = os.sysconf("SC_CLK_TCK")
    steal_s = (steal1 - steal0) / tick if None not in (steal0, steal1) \
        else None
    report.update({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "elapsed_s": elapsed,
        "failures": runner.failures,
        "cpu_steal_s": steal_s,
        "env": env_stamp(root),
    })
    report.setdefault("other_metrics", {})["failed_ratio"] = {
        "value": len(runner.failures) / runner.attempted, "unit": "ratio"}
    (results / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
