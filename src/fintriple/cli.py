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

main(argv) is the in-process API: it returns the exit code and leaves the
interpreter running.  run() is the process entry of both ``python -m
fintriple.cli`` and the installed ``fintriple`` command.  It calls main(),
flushes stdout and stderr, runs the atexit handlers and ends the process
with os._exit(code), once the output is written.  fintriple and numpy
register no atexit handler (``atexit._ncallbacks()`` reads the same after a
verify as in a bare ``python -c pass``); the handlers run anyway, because
one that site start-up registers, such as a coverage tool's, may write data.
The exit skips the rest of interpreter finalization:

* thread joins.  After a run the main thread is the only Python thread; the
  BLAS worker threads are native, and the end of the process ends them.
* module teardown and the final garbage collection over every object the run
  left.  This is the cost the fast exit removes, 30-40 ms of a verify of
  ``configs/thm1.cfg`` on a 2-vCPU x86-64 host.

A write to stdout that fails (a pipe whose reader has gone, a full disk) is
the one-line ``error:`` exit 2 of main(), whether stdout is buffered or not:
main() flushes stdout before it returns, and what a failed flush leaves
buffered goes to os.devnull, so no later flush fails on it.  argparse's own
exits (a usage error, --help, --version) and an uncaught exception end the
process the usual way.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import json
import os
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


def _read_manifest(path):
    """The expected status per check name of an --expect manifest.

    A manifest is a JSON object whose "checks" maps names in report.RUN_PLAN
    to pass, fail or skipped; anything else is a ValueError (exit 2).  A
    check that the manifest leaves out is a mismatch.
    """
    manifest = json.loads(Path(path).read_text())
    checks = manifest.get("checks") if isinstance(manifest, dict) else None
    if not isinstance(checks, dict):
        raise ValueError(f"manifest {path}: not a JSON object whose \"checks\" is an object")
    for name, status in checks.items():
        if name not in report.RUN_PLAN:
            raise ValueError(f"manifest {path}: unknown check {name!r}")
        if status not in (report.PASS, report.FAIL, report.SKIPPED):
            raise ValueError(f"manifest {path}: {name} expects {status!r}, "
                             "not pass, fail or skipped")
    return checks


def _cmd_verify(args):
    cfg = _load_config(args.config, args.tol)
    expectations = _read_manifest(args.expect) if args.expect else None
    rep = report.run_all(cfg)
    if args.report == "json":
        text = report.render_json(rep)
    else:
        text = report.render_text(rep)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if expectations is not None:
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


def _discard_unwritten_stdout():
    """Send what stdout still holds to os.devnull if it cannot be written.

    A failed flush keeps its bytes, so every later flush would fail on them
    again.
    """
    if sys.stdout is None:
        return
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # an unreadable path, a malformed manifest or input, a failed write to
        # stdout; never a mismatch (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        _discard_unwritten_stdout()
        return 2


def run():
    """Run main() and end the process once its output is flushed."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    run()
