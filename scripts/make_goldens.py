#!/usr/bin/env python3
"""Regenerate the committed golden reports (timing fields normalized).

``make_goldens.py`` rewrites ``configs/<name>.golden.json`` for every config
in ``GOLDEN_CONFIGS``. ``make_goldens.py --check`` writes nothing; it exits 1
and names each config whose canonical report differs from its golden.
"""

import argparse
import sys
from pathlib import Path

from fintriple.config import parse_config_file
from fintriple.report import render_json, run_all

GOLDEN_CONFIGS = ("thm1", "thm2", "original_cc", "pati_salam", "degenerate")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed goldens; write nothing")
    args = parser.parse_args(argv)
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    differing = []
    for name in GOLDEN_CONFIGS:
        cfg = parse_config_file(config_dir / f"{name}.cfg")
        text = render_json(run_all(cfg), normalize_timing=True)
        path = config_dir / f"{name}.golden.json"
        if not args.check:
            path.write_text(text)
            print(f"wrote {path.name}")
        elif not path.exists() or path.read_text() != text:
            differing.append(name)
            print(f"differs: {path.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
