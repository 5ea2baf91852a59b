#!/usr/bin/env python3
"""Regenerate the committed golden reports (timing fields normalized).

``make_goldens.py`` rewrites ``configs/<name>.golden.json`` for every config
in ``GOLDEN_CONFIGS``. ``make_goldens.py --check`` writes nothing; it exits 1
and names each config whose canonical report differs from its golden.

``make_goldens.py --snapshot DIR`` writes the normalized report of every
config at every tol of ``SNAPSHOT_TOLS``, at every BLAS thread count of
``SNAPSHOT_THREADS``, to ``DIR/<threads>/<name>-<tol>.json``, and
``make_goldens.py --compare DIR`` exits 1 and names each one that the
current code renders differently, by its path under DIR (such as
``2/thm1-1e-13.json``), with its first differing line, old and new.
Together they check that a change keeps the bytes of all 40 reports.
The BLAS thread count is fixed when numpy is loaded, so both modes re-run
this script once per count, with OPENBLAS_NUM_THREADS set, into
``DIR/<threads>``.  The package is the one
on PYTHONPATH, so snapshot the old tree's package and compare the new
one's:

    PYTHONPATH=OLD/src python3 scripts/make_goldens.py --snapshot DIR
    PYTHONPATH=src python3 scripts/make_goldens.py --compare DIR
"""

import argparse
import dataclasses
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

from fintriple.config import parse_config_file
from fintriple.report import render_json, run_all

GOLDEN_CONFIGS = ("thm1", "thm2", "original_cc", "pati_salam", "degenerate")

#: The tols of a snapshot: the default, the smallest accepted and two more.
SNAPSHOT_TOLS = ("1e-6", "1e-9", "1e-12", "1e-13")

#: The OPENBLAS_NUM_THREADS values of a snapshot, one process each.
SNAPSHOT_THREADS = ("1", "2")

#: Set in the environment of the per-count re-runs of a snapshot or compare.
_ONE_COUNT = "MAKE_GOLDENS_ONE_THREAD_COUNT"

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(name, tol=None):
    cfg = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    if tol is not None:
        cfg = dataclasses.replace(cfg, tol=float(tol))
    return render_json(run_all(cfg), normalize_timing=True)


def _differs(path, text, root):
    """Whether the report at path is missing or differs from text.

    Prints ``differs: <file>``, the path relative to root, and, for a file
    that exists, its first differing line, old and new.
    """
    name = path.relative_to(root)
    if not path.exists():
        print(f"differs: {name} (missing)")
        return True
    old = path.read_text()
    if old == text:
        return False
    print(f"differs: {name}")
    lines = zip_longest(old.splitlines(), text.splitlines(), fillvalue="<end of file>")
    for number, (was, now) in enumerate(lines, start=1):
        if was != now:
            print(f"  line {number} old: {was}\n  line {number} new: {now}")
            break
    else:
        print("  the lines agree; only the line endings differ")
    return True


def _goldens(check):
    differing = []
    for name in GOLDEN_CONFIGS:
        text = _report(name)
        path = CONFIG_DIR / f"{name}.golden.json"
        if not check:
            path.write_text(text)
            print(f"wrote {path.name}")
        elif _differs(path, text, CONFIG_DIR):
            differing.append(name)
    return differing


def _snapshot(directory, compare):
    if not compare:
        directory.mkdir(parents=True, exist_ok=True)
    differing = []
    for name in GOLDEN_CONFIGS:
        for tol in SNAPSHOT_TOLS:
            text = _report(name, tol)
            path = directory / f"{name}-{tol}.json"
            if not compare:
                path.write_text(text)
            elif _differs(path, text, directory.parent):
                differing.append(path.name)
    if not compare:
        print(f"wrote {len(GOLDEN_CONFIGS) * len(SNAPSHOT_TOLS)} reports to {directory}")
    return differing


def _each_thread_count(directory, compare):
    """Re-run this script at every count of SNAPSHOT_THREADS, into DIR/<count>."""
    mode = "--compare" if compare else "--snapshot"
    failed = []
    for threads in SNAPSHOT_THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, **{_ONE_COUNT: "1"})
        result = subprocess.run([sys.executable, str(Path(__file__).resolve()), mode,
                                 str(directory / threads)], env=env)
        if result.returncode:
            failed.append(threads)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the committed goldens; write nothing")
    mode.add_argument("--snapshot", type=Path, metavar="DIR",
                      help="write every config's report at every snapshot tol and BLAS "
                           "thread count to DIR/<threads>")
    mode.add_argument("--compare", type=Path, metavar="DIR",
                      help="compare every config's report at every snapshot tol and BLAS "
                           "thread count with DIR/<threads>")
    args = parser.parse_args(argv)
    directory = args.snapshot or args.compare
    if directory is None:
        differing = _goldens(args.check)
    elif os.environ.get(_ONE_COUNT):
        differing = _snapshot(directory, compare=bool(args.compare))
    else:
        differing = _each_thread_count(directory, compare=bool(args.compare))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
