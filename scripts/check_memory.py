#!/usr/bin/env python3
"""Memory of each check of one ``verify`` run per config.

    PYTHONPATH=src python3 scripts/check_memory.py configs/thm1.cfg [more.cfg ...]

Runs report.run_all once on each config, in a fresh process of its own
when there are several, with every step of report.PLAN wrapped by
dataclasses.replace, and prints for each check its status, the process's
peak resident set (ru_maxrss) before and after it, and the tracemalloc
peak of the allocations made inside it.  Each config's table ends by
naming the check that set the process's high-water mark, with its rise,
or says that no check raised it.  tracemalloc runs only while a check
runs, so its own bookkeeping is part of that check's ru_maxrss; a skipped
check prints dashes.  The BLAS thread count is fixed when numpy is
loaded: set OPENBLAS_NUM_THREADS to measure another one.
"""

import argparse
import dataclasses
import resource
import subprocess
import sys
import tracemalloc

from fintriple import report
from fintriple.config import parse_config_file

MB = 2.0 ** 20


def _max_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measured(step, rows):
    """step with its check wrapped to record (before, after, traced peak)."""
    def check(run, rec):
        before = _max_rss_mb()
        tracemalloc.start()
        try:
            step.check(run, rec)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rows[step.name] = (before, _max_rss_mb(), peak / MB)
    return dataclasses.replace(step, check=check)


def _measure(path):
    """Print the per-check table of one run_all on the config at path."""
    cfg = parse_config_file(path)
    rows = {}
    plan = report.PLAN
    report.PLAN = tuple(_measured(step, rows) for step in plan)
    try:
        rep = report.run_all(cfg)
    finally:
        report.PLAN = plan
    print(path)
    print(f"{'check':<26}{'status':<9}{'rss before':>11}{'rss after':>11}{'traced':>9}")
    for rec in rep.checks:
        if rec.name in rows:
            before, after, peak = rows[rec.name]
            cells = f"{before:>11.1f}{after:>11.1f}{peak:>9.2f}"
        else:
            cells = f"{'-':>11}{'-':>11}{'-':>9}"
        print(f"{rec.name:<26}{rec.status:<9}{cells}")
    top = _max_rss_mb()
    print(f"peak rss {top:.1f} MB; traced peaks in MB")
    # ru_maxrss only rises, so the last check that raised it set the mark,
    # unless it rose again outside the checks
    raised = [(name, after - before) for name, (before, after, _) in rows.items()
              if after > before]
    if raised and rows[raised[-1][0]][1] == top:
        print(f"high-water mark set by {raised[-1][0]} (+{raised[-1][1]:.1f} MB)")
    else:
        print("high-water mark set outside the checks")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", help="fintriple .cfg files")
    args = parser.parse_args(argv)
    if len(args.configs) == 1:
        _measure(args.configs[0])
        return
    # ru_maxrss is the whole process's, so each config gets a fresh one
    for path in args.configs:
        subprocess.run([sys.executable, __file__, path], check=True)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
