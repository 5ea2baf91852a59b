"""Check orchestration and report emission.

PLAN is the table of checks that run_all runs in order for one
configuration, returning a VerificationReport.  Each Step names the checks
that must pass before it and the configurations it does not apply to; the
checks read the triple's shared objects (commutants, spans, one-forms,
Clifford closures) from one morita.Derived, which builds each once.

The JSON rendering is canonical: sorted keys, floats
rounded to 12 significant digits, so identical configs and version produce
identical bytes apart from the wall-time fields (which golden comparisons
normalize away), whatever the BLAS build and thread count.  To that end
render_json writes every residual whose magnitude is below the noise floor
max(NOISE_FLOOR_FACTOR * tolerance, linalg.TOL_FLOOR) (1e-12 at the default
tol = 1e-9, never above the tolerance) as 0.0; verdicts,
CheckRecord.residuals and render_text keep the raw values.
Operator descriptions list entries by modulus rounded to MODULUS_DECIMALS
places, ties in flat index order, and write parts below the floor as 0.
The witnesses they describe are chosen canonically (see
morita.MoritaVerdict and morita.irreducible).  A check's status reflects
the mathematical outcome (a failing Morita property is a 'fail' even when
that is the expected result); a check that raises is an 'error', never a
'fail', and an error never matches a --expect manifest.  Manifests map
outcomes to exit codes.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

try:
    # the interpreter's built-in SHA-256; hashlib maps OpenSSL's libcrypto
    from _sha256 import sha256 as _sha256  # CPython 3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__ as _version
from . import catalog, layout, linalg, morita, star_algebra, subspaces, triple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
ERROR = "error"

#: Expected commutant dimensions per algebra: (algebra commutant, opposite
#: commutant, center of the complexified opposite algebra).
EXPECTED_COMMUTANT_DIMS = {
    "A_F": (112, 112, 4),
    "B_F": (112, 112, 4),
    "A_ev": (48, 48, 3),
}

#: Residuals below NOISE_FLOOR_FACTOR * tolerance are roundoff and are
#: rendered as 0.0 in the canonical JSON (_noise_floor).
NOISE_FLOOR_FACTOR = 1e-3


def _noise_floor(tol):
    """NOISE_FLOOR_FACTOR * tol, raised to linalg.TOL_FLOOR.

    Near the smallest accepted tol the factor alone would sit below
    roundoff, where the canonical bytes would follow the BLAS thread count;
    the floor never exceeds tol, so a zero never hides a failing residual.
    """
    return max(NOISE_FLOOR_FACTOR * tol, linalg.TOL_FLOOR)


@dataclass
class CheckRecord:
    name: str
    status: str
    residuals: dict = field(default_factory=dict)
    dims: dict = field(default_factory=dict)
    details: str = ""
    wall_time_s: float = 0.0


@dataclass
class VerificationReport:
    config: dict
    tolerance: float
    version: str
    checks: list

    def check(self, name):
        for record in self.checks:
            if record.name == name:
                return record
        raise KeyError(name)


def _config_echo(cfg):
    echo = {
        "algebra": cfg.algebra,
        "grading": cfg.grading,
        "dirac": cfg.dirac,
        "tol": cfg.tol,
    }
    couplings = cfg.params.couplings(cfg.dirac)
    if couplings:
        echo["params"] = {
            key: ([float(np.real(z)), float(np.imag(z))]
                  if catalog.COUPLINGS[key] is complex else float(z))
            for key, z in couplings.items()}
    return echo


def _seed_from_config(echo):
    """The seed of a report's random.Random (_Run.rng).

    The first 8 bytes, big-endian, of the SHA-256 of the canonical config
    echo (sorted-key JSON) followed by the package version, so the stream
    is fixed by the config and version alone.  The digest comes from the
    interpreter's built-in SHA-256 module, the same bytes as
    hashlib.sha256 without loading OpenSSL's libcrypto (about 3.5 MB of
    resident memory in every process).
    """
    digest = _sha256(
        json.dumps(echo, sort_keys=True).encode() + _version.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _describe_operator(op, floor):
    """Deterministic short description: the six largest entries by modulus.

    Entries are ordered by modulus rounded to MODULUS_DECIMALS places, ties
    by flat index; entries and real or imaginary parts below floor are
    noise and are dropped or written as 0.
    """
    op = np.asarray(op)
    flat = np.abs(op).ravel()
    order = np.argsort(-np.round(flat, morita.MODULUS_DECIMALS), kind="stable")
    parts = []
    for idx in order[:6]:
        if flat[idx] <= floor:
            break
        r, c = divmod(int(idx), op.shape[1])
        v = op[r, c]
        re = 0.0 if abs(v.real) < floor else v.real
        im = 0.0 if abs(v.imag) < floor else v.imag
        parts.append(f"[{r},{c}]={re:.6g}{im:+.6g}j")
    return "; ".join(parts)


class _Run:
    """A configuration, its triple and derived objects, one random stream."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.tol = cfg.tol
        self.floor = _noise_floor(cfg.tol)
        self.t = catalog.build_triple(cfg)
        self.derived = morita.Derived(self.t, cfg.tol)
        self.rng = random.Random(seed)


def _commutant_dimensions(run, rec):
    d = run.derived
    expected = EXPECTED_COMMUTANT_DIMS[run.cfg.algebra]
    got = (d.algebra_commutant.dim, d.opposite_commutant.dim, d.opposite_center.dim)
    rec.dims = {"algebra_commutant": got[0], "opposite_commutant": got[1],
                "opposite_center": got[2]}
    rec.details = f"expected {expected}"
    rec.status = PASS if got == expected else FAIL


def _order_condition(violation):
    def check(run, rec):
        v = violation(run.t)
        rec.residuals["violation"] = v
        rec.status = PASS if v <= run.tol else FAIL
    return check


def _sign_table(run, rec):
    st = triple.sign_table(run.t, tol=run.tol)
    rec.residuals.update({f"{k}_residual": v for k, v in st.residuals.items()})
    rec.dims["eps"] = st.eps
    rec.dims["eps_prime"] = st.eps_prime
    if st.eps_dblprime is not None:
        rec.dims["eps_dblprime"] = st.eps_dblprime
    if st.ko_dimension is not None:
        rec.dims["ko_dimension"] = st.ko_dimension
    rec.details = ("vacuous: " + ", ".join(st.vacuous)) if st.vacuous else ""
    rec.status = PASS if st.ko_dimension is not None else FAIL


def _grading_axioms(run, rec):
    res = triple.axiom_residuals(run.t)
    keys = ("grading_involution", "grading_hermitian",
            "grading_commutes_algebra", "grading_anticommutes_dirac")
    rec.residuals = {k: res[k] for k in keys}
    rec.status = PASS if all(res[k] <= run.tol for k in keys) else FAIL


def _dirac_decomposition(run, rec):
    t, d, tol = run.t, run.derived, run.tol
    dec = triple.decompose_dirac(t, d.algebra_commutant, d.opposite_commutant, tol=tol)
    rec.residuals["residual"] = dec.residual
    if dec.j_residual is not None:
        rec.residuals["j_symmetric_residual"] = dec.j_residual
    rec.dims["ambiguity"] = dec.ambiguity_dim
    ok = dec.residual <= tol
    ok = ok and d.opposite_commutant.contains(dec.free_part)
    ok = ok and d.algebra_commutant.contains(dec.commuting_part)
    if dec.j_residual is not None:
        ok = ok and dec.j_residual <= (max(tol, triple.SIGN_TOL_FLOOR)
                                       * linalg.hs_norm(t.dirac))
    rec.status = PASS if ok else FAIL


def _one_forms(run, rec):
    cfg, tol, rng = run.cfg, run.tol, run.rng
    om = run.derived.one_forms
    rec.dims["one_forms"] = om.dim
    alg_basis = run.derived.algebra_span.matrices
    om_basis = om.matrices
    worst = 0.0
    for _ in range(8):
        a = alg_basis[rng.randrange(len(alg_basis))]
        b = alg_basis[rng.randrange(len(alg_basis))]
        w = om_basis[rng.randrange(max(om.dim, 1))] if om.dim else None
        if w is not None:
            worst = max(worst, om.residual(a @ w @ b))
    rec.residuals["bimodule_closure"] = worst
    ok = worst <= tol * 10
    couplings = cfg.params.couplings(cfg.dirac)
    couplings.pop(catalog.MAJORANA_COUPLING, None)
    named_applicable = (cfg.algebra == "A_F" and bool(couplings)
                        and all(abs(c) > 1e-12 for c in couplings.values()))
    if named_applicable:
        gens = catalog.one_form_generators(cfg.params, cfg.dirac)
        named = subspaces.product_span(alg_basis, alg_basis, tol=tol,
                                       middle=np.array(gens + [g.conj().T for g in gens]))
        rec.dims["named_generator_bimodule"] = named.dim
        ok = ok and subspaces.equals(om, named)
        rec.details = "named-generator bimodule compared"
    else:
        rec.details = "named-generator comparison not applicable"
    rec.status = PASS if ok else FAIL


def _clifford_odd(run, rec):
    cl = run.derived.clifford_odd
    rec.dims["clifford_odd"] = cl.dim
    rec.residuals["closure_defect"] = cl.defect
    rec.status = PASS if cl.defect <= run.tol else FAIL


def _clifford_even(run, rec):
    cl = run.derived.clifford_even
    rec.dims["clifford_even"] = cl.dim
    # the odd closure lies in the even one when its seed does
    contained = cl.contains_rows(run.derived.clifford_odd.seed.flat)
    rec.details = f"odd contained in even: {contained}"
    rec.status = PASS if contained else FAIL


def _gamma_in_clifford_odd(run, rec):
    cl = run.derived.clifford_odd
    if run.t.grading is not None:
        member = cl.contains(run.t.grading)
        rec.details = "triple grading"
        rec.status = PASS if member else FAIL
    else:
        member_std = cl.contains(catalog.grading("standard"))
        member_non = cl.contains(catalog.grading("nonstandard"))
        rec.details = f"standard: {member_std}, nonstandard: {member_non}"
        rec.status = PASS if (member_std and member_non) else FAIL


def _property_m(even):
    side = "even" if even else "odd"

    def check(run, rec):
        verdict = morita.property_m(run.derived, even=even)
        rec.dims[f"clifford_{side}"] = verdict.clifford_dim
        rec.dims[f"commutant_{side}"] = verdict.commutant_dim
        rec.dims["opposite"] = verdict.opposite_dim
        if verdict.witness is not None:
            rec.details = "witness: " + _describe_operator(verdict.witness, run.floor)
        rec.status = PASS if verdict.holds else FAIL
    return check


def _zero_chain_grading_of(t):
    """The triple's grading, or the standard one for an odd triple."""
    return t.grading if t.grading is not None else catalog.grading("standard")


def _zero_chain_grading(run, rec):
    t = run.t
    member = morita.zero_chain_membership(_zero_chain_grading_of(t), t.algebra_gens,
                                          t.opposite_gens, tol=run.tol)
    rec.details = "triple grading" if t.grading is not None else "standard grading"
    rec.status = PASS if member else FAIL


def _zero_chain_obstruction(run, rec):
    t = run.t
    x = catalog.witness_catalog()["e15_e11"]
    ok = morita.obstruction_check(x, [*t.algebra_gens, *t.opposite_gens],
                                  _zero_chain_grading_of(t),
                                  tol=max(run.tol, triple.SIGN_TOL_FLOOR))
    rec.details = "commuting witness anticommutes with the grading"
    rec.status = PASS if ok else FAIL


def _irreducibility(run, rec):
    verdict = morita.irreducible(run.derived)
    rec.dims["real_commutant"] = verdict.commutant_dim_real
    rec.dims["selfadjoint_part"] = verdict.selfadjoint_dim
    if verdict.witness is not None:
        rec.details = "reducing projection: " + _describe_operator(verdict.witness, run.floor)
    rec.status = PASS if verdict.irreducible else FAIL


def _gauge_z6_kernel(run, rec):
    eye = np.eye(layout.HILBERT_DIM)
    scale = np.sqrt(layout.HILBERT_DIM)
    worst = max(linalg.hs_norm(catalog.pi_sm(el) - eye) / scale
                for el in catalog.z6_elements())
    rec.residuals["kernel"] = worst
    rec.status = PASS if worst <= 1e-12 else FAIL


def _gauge_hypercharges(run, rec):
    expected = layout.HYPERCHARGE_EXPONENTS.ravel(order="F")  # slot_index order
    ok = True
    worst = 0.0
    for _ in range(10):
        theta = 0.05 + 0.4 * run.rng.random()
        lam = np.exp(1j * theta)
        diag = np.diagonal(catalog.pi_sm(catalog.GroupElement(
            lam, np.eye(2, dtype=complex), np.eye(3, dtype=complex))))
        recovered = np.rint(np.angle(diag) / theta)
        worst = max(worst, float(np.max(np.abs(diag - lam ** expected))))
        ok = ok and bool(np.all(recovered == expected))
    rec.residuals["eigenvalue"] = worst
    rec.status = PASS if ok and worst <= 1e-12 else FAIL


def _gauge_adjoint_rep(run, rec):
    eye = np.eye(layout.HILBERT_DIM)
    scale = np.sqrt(layout.HILBERT_DIM)
    ident = catalog.GroupElement(1.0, np.eye(2, dtype=complex),
                                 np.eye(3, dtype=complex))
    drawn = catalog.random_group_elements(run.rng, 40)
    us, vs = drawn[0::2], drawn[1::2]
    uvs = [catalog.GroupElement(u.phase * v.phase, u.weak @ v.weak, u.color @ v.color)
           for u, v in zip(us, vs)]
    kernel = [catalog.cover_map(el) for el in catalog.z6_elements()]
    rho = catalog.rho_degenerate_stack([ident, *us, *vs, *uvs, *kernel])
    ru, rv, ruv = rho[1:21], rho[21:41], rho[41:61]
    out = np.empty_like(ru)  # each defect is formed here and measured before the next
    defects = (lambda: np.subtract(rho[:1], eye, out=out[:1]),
               lambda: np.subtract(rho[61:], eye, out=out[:len(rho) - 61]),
               lambda: np.subtract(np.matmul(ru, rv, out=out), ruv, out=out),
               lambda: np.subtract(np.matmul(ru, ru.conj().transpose(0, 2, 1), out=out),
                                   eye, out=out))
    worst = max(float(np.linalg.norm(d(), axis=(1, 2)).max()) for d in defects) / scale
    rec.residuals["defect"] = worst
    rec.status = PASS if worst <= 1e-12 else FAIL


def _unitalization(run, rec):
    alg = star_algebra.star_closure(run.t.algebra_gens, tol=run.tol)
    grown = star_algebra.unitalize(alg)
    target = subspaces.span_of(catalog.algebra_af_generators(), tol=run.tol)
    rec.dims["span"] = alg.dim
    rec.dims["unitalized"] = grown.dim
    # inclusion and equal dimension are equality
    ok = (alg.dim == 14 and grown.dim == target.dim == 15
          and grown.contains_rows(target.flat))
    rec.status = PASS if ok else FAIL


def _odd_triple(run):
    return "odd triple" if run.t.grading is None else None


@dataclass(frozen=True)
class Step:
    """One check: check(run, rec) fills in the record.  It is skipped when a
    check in needs raised (blocked) or did not pass (reason unmet), or when
    excluded(run) gives a reason it does not apply."""

    name: str
    check: Callable
    needs: tuple = ()
    unmet: str = ""
    excluded: Callable | None = None


_ORDERS = ("zeroth_order", "first_order")
_ORDERS_FAIL = "order conditions fail"

#: The checks of every report, run in this order.
PLAN = (
    Step("commutant_dimensions", _commutant_dimensions),
    Step("zeroth_order", _order_condition(triple.zeroth_order_violation)),
    Step("first_order", _order_condition(triple.first_order_violation)),
    Step("sign_table", _sign_table),
    Step("grading_axioms", _grading_axioms, excluded=_odd_triple),
    Step("dirac_decomposition", _dirac_decomposition, _ORDERS, "first-order condition fails"),
    Step("one_forms", _one_forms),
    Step("clifford_odd", _clifford_odd, _ORDERS, _ORDERS_FAIL),
    Step("clifford_even", _clifford_even, _ORDERS, _ORDERS_FAIL, _odd_triple),
    Step("gamma_in_clifford_odd", _gamma_in_clifford_odd, _ORDERS, _ORDERS_FAIL),
    Step("property_m", _property_m(even=False), _ORDERS, _ORDERS_FAIL),
    Step("property_m_with_grading", _property_m(even=True),
         _ORDERS, _ORDERS_FAIL, _odd_triple),
    Step("zero_chain_grading", _zero_chain_grading),
    Step("zero_chain_obstruction", _zero_chain_obstruction, excluded=lambda run: (
        "witness specific to the default algebra" if run.cfg.algebra == "A_ev" else None)),
    Step("irreducibility", _irreducibility),
    Step("gauge_z6_kernel", _gauge_z6_kernel),
    Step("gauge_hypercharges", _gauge_hypercharges),
    Step("gauge_adjoint_rep", _gauge_adjoint_rep),
    Step("unitalization", _unitalization, excluded=lambda run: (
        None if run.cfg.algebra == "B_F"
        else "only meaningful for the degenerate representation")),
)

RUN_PLAN = tuple(step.name for step in PLAN)


def _skip_reason(step, run, records):
    """Why step is skipped, or None: first a needed check that raised, then
    one that did not pass, then the configuration it does not apply to."""
    errors = [name for name in step.needs if records[name].status == ERROR]
    if errors:
        return "blocked: " + ", ".join(f"{name} error" for name in errors)
    if any(records[name].status != PASS for name in step.needs):
        return step.unmet
    return None if step.excluded is None else step.excluded(run)


def run_all(cfg):
    """Run the checks of PLAN in order and assemble the report."""
    echo = _config_echo(cfg)
    run = _Run(cfg, _seed_from_config(echo))
    records = {}
    for step in PLAN:
        reason = _skip_reason(step, run, records)
        if reason is not None:
            records[step.name] = CheckRecord(step.name, SKIPPED, details=reason)
            continue
        start = time.perf_counter()
        rec = records[step.name] = CheckRecord(step.name, FAIL)
        try:
            step.check(run, rec)
        except Exception as exc:  # keep the report complete on any failure
            rec.status = ERROR
            rec.details = f"error: {exc}"
        rec.wall_time_s = time.perf_counter() - start
    return VerificationReport(config=echo, tolerance=cfg.tol,
                              version=_version, checks=list(records.values()))


# ---------------------------------------------------------------------------
# Rendering


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def report_to_dict(report, normalize_timing=False):
    floor = _noise_floor(report.tolerance)
    checks = []
    for rec in report.checks:
        checks.append({
            "name": rec.name,
            "status": rec.status,
            "residuals": {k: 0.0 if abs(v) < floor else v
                          for k, v in rec.residuals.items()},
            "dims": rec.dims,
            "details": rec.details,
            "wall_time_s": 0.0 if normalize_timing else rec.wall_time_s,
        })
    return {
        "config": report.config,
        "tolerance": report.tolerance,
        "version": report.version,
        "checks": checks,
    }


def render_json(report, normalize_timing=False):
    """Canonical JSON: sorted keys, 12-significant-digit floats, residuals
    below the noise floor written as 0.0."""
    payload = _round_floats(report_to_dict(report, normalize_timing=normalize_timing))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_text(report):
    lines = [
        f"fintriple {report.version}  tolerance {report.tolerance:g}",
        "config: " + ", ".join(f"{k}={report.config[k]}"
                               for k in ("algebra", "grading", "dirac")),
        "-" * 72,
    ]
    for rec in report.checks:
        mark = {PASS: "PASS", FAIL: "FAIL", SKIPPED: "skip", ERROR: "ERR"}[rec.status]
        extras = []
        for k, v in rec.dims.items():
            extras.append(f"{k}={v}")
        for k, v in rec.residuals.items():
            extras.append(f"{k}={v:.3e}")
        tail = ("  [" + ", ".join(extras) + "]") if extras else ""
        lines.append(f"{mark:>4}  {rec.name:<26}{tail}")
        if rec.details:
            lines.append(f"      {rec.details}")
    counts = {s: sum(1 for r in report.checks if r.status == s)
              for s in (PASS, FAIL, SKIPPED, ERROR)}
    lines.append("-" * 72)
    summary = f"{counts[PASS]} pass, {counts[FAIL]} fail, {counts[SKIPPED]} skipped"
    if counts[ERROR]:
        summary += f", {counts[ERROR]} error"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def compare_with_expectations(report, expectations):
    """Mismatches between the checks and an expectations mapping.

    Every check is compared, a skipped one against 'skipped' like any other
    status, so a manifest also pins which checks the plan skips.  A check
    with status 'error' is always a mismatch.
    """
    mismatches = []
    for rec in report.checks:
        expected = expectations.get(rec.name)
        if rec.status == ERROR or expected != rec.status:
            mismatches.append((rec.name, expected, rec.status))
    return mismatches
