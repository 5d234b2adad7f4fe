"""The bohrlab benchmark harness.

Usage, from the repository root:

    python3 benchmarks/bench.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/bench.py                  # every workload, end to end

One client runs a workload's command list as ``bohrlab`` subprocesses, one
at a time (a closed loop), and repeats the whole pass until ``--seconds``
have elapsed.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it instead runs the same commands in process through
``bohrlab.cli.main``, with and without spans around each layer, and reports
the per-layer metrics.  Every report is checked after it is written,
outside the timed region.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a human-readable table, and the full result,
machine metadata included, is also written to ``.bench_out/``.

Timings use only this harness's own processes: child wall time from
``perf_counter``, child CPU and peak memory from ``os.wait4``.  Nothing
traces the rest of the system.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, commands  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The console script ``bohrlab`` is ``bohrlab.cli:main``; run it the same
# way from the source tree, which needs no install.
CLI = "import sys; from bohrlab.cli import main; sys.exit(main())"
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "note": "timings use only the harness's own processes; no system-wide tracing",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, env: dict, stderr) -> tuple:
    """Run one child to completion: (exit code, wall s, cpu s, max rss MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(env: dict) -> list:
    """Wall times of ``import bohrlab`` in fresh interpreters, after one warm-up."""
    argv = [sys.executable, "-c", "import bohrlab"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _, _ = spawn(argv, env, subprocess.DEVNULL)
        if code != 0:
            raise HarnessError(f"`import bohrlab` from {SRC} exited {code}")
        if i:
            times.append(wall)
    return times


class Checker:
    """Checks each written report and that repeated passes reproduce it."""

    def __init__(self, cmds: list) -> None:
        self.cmds = cmds
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.failures: dict = {}

    def check(self, index: int, code: int, path: Path, label: str) -> int:
        """Items the command completed; 0 when it failed."""
        cmd = self.cmds[index]
        self.attempted += 1
        problem, wrong = None, False
        data = path.read_bytes() if path.exists() else None
        items = 0
        if data is None:
            problem, wrong = f"exit {code}, no report", code == 0
        else:
            try:
                items = cmd.check(data.decode("utf-8"))
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                problem, wrong = f"exit {code}, bad report: {exc}", True
            if self.first.setdefault(index, data) != data:
                problem, wrong = f"{label}: report differs from the first pass", True
            if problem is None and code != 0:
                problem = f"exit {code}"
        if problem is None:
            return items
        self.failed += 1
        command = " ".join(a if len(a) <= 24 else a[:20] + "..." for a in cmd.argv)
        if wrong:
            self.wrong.append(f"{command}: {problem}")
        self.failures.setdefault(command, problem)
        return 0


def run_subprocess_passes(cmds: list, seconds: float, workdir: Path) -> dict:
    env = child_env()
    setup = measure_setup(env)
    checker = Checker(cmds)
    paths = [workdir / f"report-{i}.out" for i in range(len(cmds))]
    stderr_path = workdir / "stderr.txt"
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for path in paths:
            path.unlink(missing_ok=True)
        walls, cpus, codes = [], [], []
        rss = 0.0
        with open(stderr_path, "w", encoding="utf-8") as err:
            for cmd, path in zip(cmds, paths):
                argv = [sys.executable, "-c", CLI, *cmd.argv, "--out", str(path)]
                code, c_wall, c_cpu, c_rss = spawn(argv, env, err)
                codes.append(code)
                walls.append(c_wall)
                cpus.append(c_cpu)
                rss = max(rss, c_rss)
        items = sum(checker.check(i, code, path, f"pass {len(passes) + 1}")
                    for i, (code, path) in enumerate(zip(codes, paths)))
        passes.append({"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": rss,
                       "items": items, "command_wall_s": walls, "command_cpu_s": cpus})
    return {"setup": setup, "passes": passes, "checker": checker}


def median_pass(passes: list, key: str) -> float:
    """Sum over commands of each command's median across passes.

    A slow spell on the shared host hits some commands of some passes; the
    per-command median drops it where a median of pass totals would not.
    """
    columns = zip(*(p[key] for p in passes))
    return sum(statistics.median(column) for column in columns)


def end_to_end_metrics(run: dict) -> tuple:
    passes, checker = run["passes"], run["checker"]
    n = len(passes)
    wall = median_pass(passes, "command_wall_s")
    items = statistics.median(p["items"] for p in passes)
    values = {
        "setup_s": (statistics.median(run["setup"]), f"median of {len(run['setup'])} imports"),
        "wall_s": (wall, f"median pass of {n}"),
        "cpu_s": (median_pass(passes, "command_cpu_s"), f"median pass of {n}"),
        "items_per_s": (items / wall, f"{items:g} items per median pass of {n}"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        f"median of {n} per-pass maxima"),
        "success_ratio": ((checker.attempted - checker.failed) / checker.attempted,
                          f"{checker.attempted - checker.failed} of {checker.attempted} commands"),
    }
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    notes = {name: values[name][1] for name, _ in END_TO_END}
    # failed_ratio is printed for people but not emitted as a metric: it is 0
    # on a healthy workload, and a metric with a zero median has no bound.
    notes["failed_ratio"] = f"{checker.failed} of {checker.attempted} commands"
    extra = {"failed_ratio": {"value": checker.failed / checker.attempted, "unit": "ratio"}}
    return metrics, notes, extra


def load_bohrlab():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("bohrlab.cli")


def run_in_process_pass(cli, cmds: list, paths: list) -> tuple:
    """One pass through ``cli.main`` in this process: (seconds, exit codes)."""
    codes = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(sink):
        for cmd, path in zip(cmds, paths):
            try:
                codes.append(cli.main([*cmd.argv, "--out", str(path)]))
            except SystemExit as exc:
                codes.append(exc.code)
    return time.perf_counter() - t0, codes


def run_traced(cmds: list, seconds: float, workdir: Path) -> dict:
    """Untraced and traced in-process passes, alternated until ``seconds``.

    The order is untraced, traced, traced, then untraced and traced in turn
    while time remains.  Every pass must write the same report bytes, and
    every traced pass must repeat the first traced pass's counts exactly.
    """
    cli = load_bohrlab()
    checker = Checker(cmds)
    paths = [workdir / f"report-{i}.out" for i in range(len(cmds))]
    untraced, traced, summaries, count_mismatch = [], [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 3 or time.perf_counter() < deadline:
        with_trace = i == 1 or (i >= 2 and i % 2 == 0)
        for path in paths:
            path.unlink(missing_ok=True)
        if with_trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                elapsed, codes = run_in_process_pass(cli, cmds, paths)
            traced.append(elapsed)
            summaries.append(tracer.summary())
            changed = [k for k in tracing.COUNT_METRICS if summaries[-1][k] != summaries[0][k]]
            if changed:
                count_mismatch.append(changed)
        else:
            elapsed, codes = run_in_process_pass(cli, cmds, paths)
            untraced.append(elapsed)
        label = f"{'traced' if with_trace else 'untraced'} in-process pass {i + 1}"
        for index, (code, path) in enumerate(zip(codes, paths)):
            checker.check(index, code, path, label)
        i += 1
    tracer.write_spans(workdir / "spans.tsv")
    overhead = statistics.median(traced) - statistics.median(untraced)
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "metrics": tracing.per_layer_metrics(summaries, overhead),
        "checker": checker,
        "count_mismatch": count_mismatch,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload and return its full result."""
    if not (SRC / "bohrlab" / "cli.py").is_file():
        raise HarnessError(f"no bohrlab sources under {SRC}")
    cmds = commands(workload, seed, toy)
    workdir = OUT / f"{workload}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "commands": len(cmds), "machine": machine()}
    if trace:
        run = run_traced(cmds, seconds, workdir)
        checker = run.pop("checker")
        correct = not checker.wrong and not run["count_mismatch"]
        notes = {name: f"{len(run['traced_s'])} traced and {len(run['untraced_s'])} "
                 "untraced in-process passes" for name in run["metrics"]}
        result.update(run)
        extra = {}
    else:
        run = run_subprocess_passes(cmds, seconds, workdir)
        checker = run["checker"]
        result["metrics"], notes, extra = end_to_end_metrics(run)
        result["passes"] = run["passes"]
        result["setup_s_samples"] = run["setup"]
        correct = not checker.wrong
    result.update({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "wrong": checker.wrong,
        "failures": checker.failures,
        "notes": notes,
        "extra": extra,
    })
    (workdir / f"result-seed{seed}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_table(result: dict) -> None:
    m = result["machine"]
    print(f"# workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
          f"  trace {result['trace']}  commands per pass {result['commands']}")
    print(f"# nproc {m['nproc']}  cpu {m['cpu_model']}  python {m['python']}"
          f"  numpy {m['numpy']}; {m['note']}")
    rows = dict(result["metrics"], **result["extra"])
    for name, metric in rows.items():
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']:<11} {result['notes'][name]}")
    for command, problem in result["failures"].items():
        print(f"# failed: {command} ({problem})")
    for problem in result["wrong"]:
        print(f"# WRONG: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_table(results[-1])
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
