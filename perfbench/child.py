"""Child processes of the benchmark; each mode runs in a fresh interpreter.

    python3 perfbench/child.py setup <cfg>
        import fintriple, parse the config, build the triple; print the path
        of the imported package.
    python3 perfbench/child.py verify {timer,trace} <cfg> <manifest> <report> <spans>
        run ``fintriple verify <cfg> --report json --out <report> --expect
        <manifest>`` in this process and write the recorded spans to <spans>.
        ``timer`` wraps report.run_all alone; ``trace`` also wraps the public
        functions of every layer and numpy's eigh and svd.

Spans are kept in memory and written once at exit.  Wrapping replaces
module attributes from outside the program: every fintriple module that
binds the same function object under the same name gets the wrapper, so
calls through ``from .x import f`` bindings are recorded too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

#: (module, function, record an input digest for repeat counting)
TRACED = (
    ("config", "parse_config_file", False),
    ("catalog", "build_triple", False),
    ("linalg", "kernel_from_gram", False),
    ("linalg", "real_null_space", False),
    ("linalg", "orthonormal_rows", False),
    ("subspaces", "commutator_gram", False),
    ("subspaces", "commutant", True),
    ("subspaces", "intersect", False),
    ("subspaces", "equals", False),
    ("subspaces", "span_of", False),
    ("star_algebra", "star_closure", False),
    ("star_algebra", "closure_defect", False),
    ("star_algebra", "center", False),
    ("triple", "decompose_dirac", False),
    ("triple", "sign_table", False),
    ("morita", "algebra_span", True),
    ("morita", "opposite_span", True),
    ("morita", "one_forms", False),
    ("morita", "clifford", False),
    ("morita", "property_m", False),
    ("morita", "irreducible", False),
    ("report", "run_all", False),
)


class Tracer:
    """Spans of one process: (name, start, end, parent index, run id, attrs)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                "run": self.run_id, **attrs}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()


def _feed(h, obj):
    """Hash the values of an argument tree (arrays by dtype, shape and bytes)."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


def digest(args, kwargs):
    h = hashlib.sha256()
    _feed(h, list(args))
    _feed(h, kwargs)
    return h.hexdigest()


def _wrap(tracer, name, fn, with_digest):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {"digest": digest(args, kwargs)} if with_digest else {}
        return tracer.call(name, fn, args, kwargs, attrs)
    return wrapper


def _lapack_attrs(kind, a, kwargs):
    """Shape, dtype and computed flop count of one eigh or svd call.

    Counts are textbook real-arithmetic estimates (Golub and Van Loan, Matrix
    Computations, 4th ed., sections 8.3 and 8.6): eigh with eigenvectors 9n^3;
    svd of m x n (m >= n) 4m^2n + 8mn^2 + 9n^3 with the full U, 14mn^2 + 8n^3
    thin, 4mn^2 - 4n^3/3 without vectors.  Complex input counts four times.
    """
    a = np.asarray(a)
    shape = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    if kind == "eigh":
        n = shape[0]
        flop = 9.0 * n ** 3
    else:
        m, n = max(shape), min(shape)
        if not kwargs.get("compute_uv", True):
            flop = 4.0 * m * n * n - 4.0 * n ** 3 / 3
        elif kwargs.get("full_matrices", True):
            flop = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
        else:
            flop = 14.0 * m * n * n + 8.0 * n ** 3
    if np.iscomplexobj(a):
        flop *= 4
    return {"shape": list(a.shape), "dtype": str(a.dtype), "flop": batch * flop}


def _wrap_lapack(tracer, kind):
    fn = getattr(np.linalg, kind)

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        attrs = _lapack_attrs(kind, a, kwargs)
        return tracer.call(f"numpy.{kind}", fn, (a, *args), kwargs, attrs)
    setattr(np.linalg, kind, wrapper)


def install(tracer, mode):
    import fintriple
    from fintriple import (catalog, cli, config, linalg, morita, report,
                           star_algebra, subspaces, triple)
    modules = {"catalog": catalog, "cli": cli, "config": config, "linalg": linalg,
               "morita": morita, "report": report, "star_algebra": star_algebra,
               "subspaces": subspaces, "triple": triple, "fintriple": fintriple}
    traced = TRACED if mode == "trace" else (("report", "run_all", False),)
    for mod_name, attr, with_digest in traced:
        original = getattr(modules[mod_name], attr)
        wrapper = _wrap(tracer, f"{mod_name}.{attr}", original, with_digest)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    if mode == "trace":
        _wrap_lapack(tracer, "eigh")
        _wrap_lapack(tracer, "svd")


def main(argv):
    if argv[0] == "setup":
        from fintriple import catalog, config
        catalog.build_triple(config.parse_config_file(argv[1]))
        import fintriple
        print(os.path.dirname(os.path.abspath(fintriple.__file__)))
        return 0
    if argv[0] != "verify" or argv[1] not in ("timer", "trace") or len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    _, mode, cfg, manifest, report_path, spans_path = argv
    tracer = Tracer(run_id=f"{mode}-{os.getpid()}")
    install(tracer, mode)
    from fintriple import cli
    code = cli.main(["verify", cfg, "--report", "json", "--out", report_path,
                     "--expect", manifest])
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
