"""fintriple benchmark: seeded ``fintriple verify`` workloads, timed end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload's config is generated from the
seed (perfbench/workloads.py) under ``.bench_build/perfbench``; the program
under test is ``src/fintriple``, run from source in fresh processes, one at a
time (a closed loop with one client), with the BLAS thread count pinned to
min(2, available CPUs).

--trace 0 measures the end-to-end metrics: a fresh-process set-up probe
(import, parse the config, build the triple) sampled SETUP_SAMPLES times,
then ``fintriple verify`` processes, at least one, and more while the next
is expected to end within --seconds of the first one's start.  Each is timed from spawn to exit; CPU time and peak RSS come from
wait4.  Times are medians over the run.

--trace 1 makes one pass: a verify process that times report.run_all alone,
a verify process with every layer wrapped (perfbench/child.py), and a verify
process with one BLAS thread as the serial baseline.  It reports the
per-layer metrics.

Every verify run must exit 0 against the shape's shipped --expect manifest
and must give the pinned dimensions; each check that does not is counted in
``failed``.  The metric names, units and directions are read from
BENCHMARK.json.  The last line of standard output is the JSON result; the
line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import child  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 25
#: The whole run, children included, must end well inside the 180 s limit.
RUN_LIMIT_S = 170.0
MB = 1024.0  # ru_maxrss is in KiB on Linux
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_NAMES = {f"{module}.{fn}" for module, fn, _ in child.TRACED} | {
    "numpy.eigh", "numpy.svd"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, child crash)."""


class Child:
    """One child process, timed from spawn to exit and reaped with wait4."""

    def __init__(self, argv, env, cwd, log_path, deadline):
        self.argv, self.env, self.cwd = argv, env, cwd
        self.log_path, self.deadline = log_path, deadline

    def run(self):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before " + " ".join(self.argv[1:3]))
        with open(self.log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(self.argv, env=self.env, cwd=self.cwd,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"{' '.join(self.argv)} killed after {timeout:.0f} s")
        self.returncode = proc.returncode
        self.wall_s = wall
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / MB
        return self

    def output(self):
        return Path(self.log_path).read_text(errors="replace")


class Bench:
    def __init__(self, root, shape, seed, seconds):
        self.root = root
        self.shape = shape
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg = self.work / f"{shape.name}-{seed}.cfg"
        self.cfg.write_text(workloads.config_text(shape, seed))
        self.manifest = root / shape.manifest
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.attempted = 0
        self.failed = 0

    def env(self, threads):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        env.update(dict.fromkeys(THREAD_VARS, str(threads)))
        return env

    def spawn(self, argv, tag, threads=None):
        log = self.work / f"{tag}.log"
        return Child([sys.executable, *argv], self.env(threads or self.threads),
                     self.root, log, self.deadline).run()

    def setup_sample(self):
        proc = self.spawn([child.__file__, "setup",
                           str(self.cfg)], "setup")
        imported = proc.output().strip().splitlines()[-1:] or [""]
        if proc.returncode != 0 or Path(imported[0]) != self.root / "src" / "fintriple":
            raise BenchError(f"set-up probe failed:\n{proc.output()}")
        return proc.wall_s

    def checked(self, proc, report):
        attempted, failed, problems = workloads.check_report(
            self.shape, report, self.manifest, proc.returncode)
        self.attempted += attempted
        self.failed += failed
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems and proc.returncode != 0:
            print(proc.output()[-2000:], file=sys.stderr)
        return proc

    def verify(self, tag, threads=None):
        """``fintriple verify`` exactly as a user runs it, in a fresh process."""
        report = self.work / f"{tag}.json"
        report.unlink(missing_ok=True)
        proc = self.spawn(["-m", "fintriple.cli", "verify", str(self.cfg),
                           "--report", "json", "--out", str(report),
                           "--expect", str(self.manifest)], tag, threads)
        return self.checked(proc, report)

    def verify_wrapped(self, mode):
        report = self.work / f"{mode}.json"
        spans = self.work / f"{mode}.spans.json"
        for path in (report, spans):
            path.unlink(missing_ok=True)
        proc = self.spawn([child.__file__, "verify", mode,
                           str(self.cfg), str(self.manifest), str(report), str(spans)],
                          mode)
        self.checked(proc, report)
        if not spans.exists():
            raise BenchError(f"{mode} run wrote no spans:\n{proc.output()[-2000:]}")
        return proc, json.loads(report.read_text()), json.loads(spans.read_text())

    # -- end to end -----------------------------------------------------------

    def end_to_end(self):
        self.setup_sample()  # warm the bytecode and file caches; not counted
        setup = [self.setup_sample() for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        runs = []
        while True:
            runs.append(self.verify("verify"))
            typical = statistics.median(r.wall_s for r in runs)
            if time.perf_counter() - start + typical > self.seconds:
                break
        print(f"setup_s samples: {[round(x, 4) for x in setup]}", file=sys.stderr)
        print(f"verify_s samples: {[round(r.wall_s, 4) for r in runs]}", file=sys.stderr)
        return {
            "verify_s": statistics.median(r.wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(setup),
            "checks_ok_share": 1.0 - self.failed / max(self.attempted, 1),
        }

    # -- per layer ------------------------------------------------------------

    def per_layer(self, declared):
        timer, timer_report, timer_spans = self.verify_wrapped("timer")
        _, _, spans = self.verify_wrapped("trace")
        serial = self.verify("verify_blas1", threads=1)

        layer = summarize(spans)
        # report.* times come from the run that wraps report.run_all alone.
        run_all_s = summarize(timer_spans)["report.run_all"]["s"]
        check_s = {c["name"]: c["wall_time_s"] for c in timer_report["checks"]}
        statuses = [c["status"] for c in timer_report["checks"]]
        metrics = {
            "numpy.eigh.c1024.calls": count_lapack(spans, "numpy.eigh", "complex128", 1024),
            "numpy.eigh.r2048.calls": count_lapack(spans, "numpy.eigh", "float64", 2048),
            "report.run_all.s": run_all_s,
            "report.checks_run": sum(s != "skipped" for s in statuses),
            "report.checks_skipped": sum(s == "skipped" for s in statuses),
            "cli.process_overhead_s": timer.wall_s - run_all_s,
            "cli.verify_blas1_s": serial.wall_s,
            "trace.overhead_s": layer["report.run_all"]["s"] - run_all_s,
        }
        for name in declared:
            head, _, field = name.rpartition(".")
            if name.startswith("report.check."):
                metrics[name] = check_s.get(head[len("report.check."):], 0.0)
            elif head in TRACED_NAMES and name not in metrics:
                metrics[name] = layer[head][field]
        return metrics


def summarize(spans):
    """Per span name: calls, inclusive s, self s, repeat calls, computed Gflop.

    Inclusive time counts only spans with no ancestor of the same name, so a
    function reached again below itself is not counted twice.  Self time is
    a span's duration minus that of its direct children.
    """
    child_s = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "repeat_calls": 0, "gflop_computed": 0.0})
    seen = defaultdict(set)
    for index, span in enumerate(spans):
        name, dur = span["name"], span["end"] - span["start"]
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += dur - child_s[index]
        entry["gflop_computed"] += span.get("flop", 0.0) / 1e9
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            entry["s"] += dur
        if "digest" in span:
            entry["repeat_calls"] += span["digest"] in seen[name]
            seen[name].add(span["digest"])
    return out


def count_lapack(spans, name, dtype, n):
    return sum(1 for s in spans if s["name"] == name and s["dtype"] == dtype
               and s["shape"][-2:] == [n, n])


def environment(root, threads):
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": threads,
        "thread_env": dict.fromkeys(THREAD_VARS, str(threads)),
        "git_commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    shape = workloads.SHAPES[args.workload]
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        for needed in (root / "src" / "fintriple" / "cli.py", root / shape.manifest):
            if not needed.is_file():
                raise BenchError(f"{needed} not found: run from the repository root")
        bench = Bench(root, shape, args.seed, args.seconds)
        env_record = environment(root, bench.threads)
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if args.trace else "end_to_end"]}
        values = bench.per_layer(declared) if args.trace else bench.end_to_end()
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(declared):
        print(f"metric mismatch with BENCHMARK.json: measured only "
              f"{sorted(set(values) - set(declared))}, declared only "
              f"{sorted(set(declared) - set(values))}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(env_record, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
