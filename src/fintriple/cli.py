"""Command-line interface.

    fintriple verify <config> [--report text|json] [--tol X]
                              [--expect manifest.json] [--out path]
    fintriple commutant <config> [--tol X]
    fintriple clifford <config> [--even] [--tol X]
    fintriple axioms <config> [--tol X]

verify runs the full check plan; with --expect the exit code is 0 exactly
when every check matches its expected status, and 1 otherwise.  An error
outside the checks (a bad config, manifest or custom matrix, a path that
cannot be read or written, or an even Clifford algebra asked of an odd
triple) exits 2 with a one-line message.
The focused subcommands print the corresponding dimensions and residuals
as text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__ as _version
from . import catalog, morita, report, subspaces, triple
from .config import ConfigError, parse_config_file
from .linalg import TOL_FLOOR


def _tol(text):
    """argparse type of --tol: a float in [TOL_FLOOR, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (TOL_FLOOR <= value < 1):
        raise argparse.ArgumentTypeError(f"must be in [{TOL_FLOOR:g}, 1), got {text}")
    return value


def _load_config(path, tol):
    cfg = parse_config_file(path)
    if tol is not None:
        cfg = dataclasses.replace(cfg, tol=tol)
    return cfg


def _cmd_verify(args):
    cfg = _load_config(args.config, args.tol)
    rep = report.run_all(cfg)
    if args.report == "json":
        text = report.render_json(rep)
    else:
        text = report.render_text(rep)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.expect:
        expectations = json.loads(Path(args.expect).read_text()).get("checks", {})
        mismatches = report.compare_with_expectations(rep, expectations)
        for name, expected, got in mismatches:
            print(f"expectation mismatch: {name}: expected {expected}, got {got}",
                  file=sys.stderr)
        return 1 if mismatches else 0
    return 0


def _derived(args):
    cfg = _load_config(args.config, args.tol)
    return morita.Derived(catalog.build_triple(cfg), cfg.tol)


def _cmd_commutant(args):
    d = _derived(args)
    inter = subspaces.intersect(d.algebra_commutant, d.opposite_commutant)
    print(f"algebra commutant dim:   {d.algebra_commutant.dim}")
    print(f"opposite commutant dim:  {d.opposite_commutant.dim}")
    print(f"intersection dim:        {inter.dim}")
    print(f"opposite center dim:     {d.opposite_center.dim}")
    return 0


def _cmd_clifford(args):
    d = _derived(args)
    violation = triple.first_order_violation(d.t)
    if violation > d.tol:
        print(f"warning: first-order violation {violation:.3e}; the Clifford "
              "algebra is computed but the Morita comparison is not meaningful",
              file=sys.stderr)
    cl = d.clifford_even if args.even else d.clifford_odd
    kind = "even" if args.even else "odd"
    print(f"clifford ({kind}) dim:     {cl.dim}")
    print(f"unital:                  {cl.unital}")
    print(f"commutant dim:           {cl.commutant.dim}")
    print(f"blocks (n, m):           {', '.join(map(str, cl.blocks))}")
    return 0


def _cmd_axioms(args):
    cfg = _load_config(args.config, args.tol)
    t = catalog.build_triple(cfg)
    for key, value in triple.axiom_residuals(t).items():
        print(f"{key:<28} {value:.3e}")
    st = triple.sign_table(t, tol=cfg.tol)
    signs = f"eps={st.eps:+d} eps'={st.eps_prime:+d}"
    if st.eps_dblprime is not None:
        signs += f" eps''={st.eps_dblprime:+d}"
    ko = st.ko_dimension if st.ko_dimension is not None else "not in table"
    print(f"{'signs':<28} {signs}")
    print(f"{'ko_dimension':<28} {ko}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fintriple",
        description="Verification workbench for the Standard-Model internal "
                    "spectral triple.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config")
    common.add_argument("--tol", type=_tol, default=None)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run every check and emit a report")
    p_verify.add_argument("--report", choices=("text", "json"), default="text")
    p_verify.add_argument("--expect", default=None,
                          help="JSON manifest of expected statuses")
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.set_defaults(func=_cmd_verify)

    sub.add_parser("commutant", parents=[common],
                   help="commutant dimensions only").set_defaults(func=_cmd_commutant)
    p_cl = sub.add_parser("clifford", parents=[common], help="Clifford algebra dimensions")
    p_cl.add_argument("--even", action="store_true")
    p_cl.set_defaults(func=_cmd_clifford)
    sub.add_parser("axioms", parents=[common],
                   help="axiom residuals and sign table").set_defaults(func=_cmd_axioms)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # an unreadable path, a malformed manifest or input, never a mismatch (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
