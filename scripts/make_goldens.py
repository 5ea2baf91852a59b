#!/usr/bin/env python3
"""Regenerate the committed golden reports (timing fields normalized).

``make_goldens.py`` rewrites ``configs/<name>.golden.json`` for every config
in ``GOLDEN_CONFIGS``. ``make_goldens.py --check`` writes nothing; it exits 1
and names each config whose canonical report differs from its golden.

``make_goldens.py --snapshot DIR`` writes the normalized report of every
config at every tol of ``SNAPSHOT_TOLS`` to ``DIR/<name>-<tol>.json``, and
``make_goldens.py --compare DIR`` exits 1 and names each one that the
current code renders differently.  Together they check that a change keeps
the bytes of all 20 reports.  The package is the one on PYTHONPATH, and
the BLAS thread count is fixed when numpy is loaded, so snapshot the old
tree's package at both thread counts and compare the new one's with each:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=OLD/src python3 scripts/make_goldens.py --snapshot DIR/1
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=OLD/src python3 scripts/make_goldens.py --snapshot DIR/2
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/make_goldens.py --compare DIR/1
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 scripts/make_goldens.py --compare DIR/2
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from fintriple.config import parse_config_file
from fintriple.report import render_json, run_all

GOLDEN_CONFIGS = ("thm1", "thm2", "original_cc", "pati_salam", "degenerate")

#: The tols of a snapshot: the default, the smallest accepted and two more.
SNAPSHOT_TOLS = ("1e-6", "1e-9", "1e-12", "1e-13")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(name, tol=None):
    cfg = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    if tol is not None:
        cfg = dataclasses.replace(cfg, tol=float(tol))
    return render_json(run_all(cfg), normalize_timing=True)


def _goldens(check):
    differing = []
    for name in GOLDEN_CONFIGS:
        text = _report(name)
        path = CONFIG_DIR / f"{name}.golden.json"
        if not check:
            path.write_text(text)
            print(f"wrote {path.name}")
        elif not path.exists() or path.read_text() != text:
            differing.append(name)
            print(f"differs: {path.name}")
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
            elif not path.exists() or path.read_text() != text:
                differing.append(path.name)
                print(f"differs: {path.name}")
    if not compare:
        print(f"wrote {len(GOLDEN_CONFIGS) * len(SNAPSHOT_TOLS)} reports to {directory}")
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the committed goldens; write nothing")
    mode.add_argument("--snapshot", type=Path, metavar="DIR",
                      help="write every config's report at every snapshot tol to DIR")
    mode.add_argument("--compare", type=Path, metavar="DIR",
                      help="compare every config's report at every snapshot tol with DIR")
    args = parser.parse_args(argv)
    if args.snapshot or args.compare:
        differing = _snapshot(args.snapshot or args.compare, compare=bool(args.compare))
    else:
        differing = _goldens(args.check)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
