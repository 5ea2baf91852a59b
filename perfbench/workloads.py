"""Seeded workload configs and the output check applied to every verify run.

Each workload is one shape of the spectral triple.  The seed only sets the
Dirac couplings; the program sees nothing but the generated ``.cfg`` file.
Couplings are drawn as in ``tests/conftest.draw_params``: complex moduli in
[0.6, 1.4] with a uniform phase, real couplings with modulus in [0.6, 1.4]
and a random sign, redrawn until |ups_nu^2 - ups_u^2| >= 0.3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_COMPLEX_KEYS = ("ups_nu", "ups_e", "ups_u", "ups_d", "ups_R", "omega")

RUN_PLAN_SIZE = 19


@dataclass(frozen=True)
class Shape:
    """One workload: the generated config's shape and what its report must say."""

    name: str
    algebra: str
    grading: str
    dirac: str
    manifest: str            # shipped --expect manifest, relative to the root
    fixed: dict              # couplings that are not drawn
    dims: dict               # (check, dims key) -> pinned value
    skipped: frozenset       # checks the plan must skip for this shape


SHAPES = {
    "even-morita": Shape(
        name="even-morita", algebra="A_F", grading="nonstandard", dirac="CC",
        manifest="configs/thm1.expect.json", fixed={},
        dims={("commutant_dimensions", "algebra_commutant"): 112,
              ("commutant_dimensions", "opposite_commutant"): 112,
              ("commutant_dimensions", "opposite_center"): 4,
              ("clifford_odd", "clifford_odd"): 96,
              ("clifford_even", "clifford_even"): 112,
              ("irreducibility", "real_commutant"): 1},
        skipped=frozenset({"unitalization"})),
    "odd-morita": Shape(
        name="odd-morita", algebra="A_F", grading="none", dirac="CC_plus_Gamma",
        manifest="configs/thm2.expect.json", fixed={},
        dims={("commutant_dimensions", "algebra_commutant"): 112,
              ("commutant_dimensions", "opposite_commutant"): 112,
              ("commutant_dimensions", "opposite_center"): 4,
              ("clifford_odd", "clifford_odd"): 112,
              ("irreducibility", "real_commutant"): 1},
        skipped=frozenset({"grading_axioms", "clifford_even",
                           "property_m_with_grading", "unitalization"})),
    "pati-salam": Shape(
        name="pati-salam", algebra="A_ev", grading="standard", dirac="CC",
        manifest="configs/pati_salam.expect.json", fixed={"delta": 0.0},
        dims={("commutant_dimensions", "algebra_commutant"): 48,
              ("commutant_dimensions", "opposite_commutant"): 48,
              ("commutant_dimensions", "opposite_center"): 3,
              ("irreducibility", "real_commutant"): 1},
        skipped=frozenset({"dirac_decomposition", "clifford_odd", "clifford_even",
                           "gamma_in_clifford_odd", "property_m",
                           "property_m_with_grading", "zero_chain_obstruction",
                           "unitalization"})),
}


def draw_couplings(rng, with_gamma):
    """Couplings bounded away from zero, with ups_nu^2 kept away from ups_u^2."""
    def cpl():
        return (0.6 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())

    while True:
        values = {key: cpl() for key in _COMPLEX_KEYS}
        values["delta"] = float((0.6 + 0.8 * rng.random()) * rng.choice([-1, 1]))
        if with_gamma:
            values["gamma"] = float((0.6 + 0.8 * rng.random()) * rng.choice([-1, 1]))
        if abs(values["ups_nu"] ** 2 - values["ups_u"] ** 2) >= 0.3:
            return values


def config_text(shape, seed):
    """The ``.cfg`` text of one workload instance; equal seeds give equal text."""
    rng = np.random.default_rng([seed, sum(map(ord, shape.name))])
    values = draw_couplings(rng, with_gamma=shape.dirac == "CC_plus_Gamma")
    values.update(shape.fixed)
    lines = [f"# generated workload {shape.name}, seed {seed}",
             "[algebra]", f"name = {shape.algebra}", "",
             "[grading]", f"kind = {shape.grading}", "",
             "[dirac]", f"type = {shape.dirac}"]
    for key, value in values.items():
        if isinstance(value, complex):
            lines.append(f"{key} = [{float(value.real)!r}, {float(value.imag)!r}]")
        else:
            lines.append(f"{key} = {float(value)!r}")
    lines += ["", "[run]", "tol = 1e-9", ""]
    return "\n".join(lines)


def check_report(shape, report_path, manifest_path, returncode):
    """Count attempted and failed checks of one verify run.

    A check fails when its status differs from the manifest, when its details
    start with ``error:`` (a crash reads as ``fail`` in the report, so it can
    match a manifest that expects ``fail``), or when a pinned dimension
    differs.  A skip outside the shape's expected set, a check missing from
    the report, or a nonzero exit code counts as one more failure.
    Returns (attempted, failed, problems).
    """
    problems = []    # failures of single attempted checks
    structural = []  # failures that belong to no attempted check
    try:
        with open(report_path) as fh:
            checks = {c["name"]: c for c in json.load(fh)["checks"]}
    except (OSError, ValueError, KeyError) as exc:
        return 1, 1, [f"unreadable report: {exc}"]
    with open(manifest_path) as fh:
        expected = json.load(fh)["checks"]
    attempted = failed = 0
    for name, rec in checks.items():
        if rec["status"] == "skipped":
            if name not in shape.skipped:
                structural.append(f"{name}: unexpected skip")
            continue
        attempted += 1
        bad = []
        if rec["status"] != expected.get(name):
            bad.append(f"status {rec['status']}, manifest {expected.get(name)}")
        if rec["details"].startswith("error:"):
            bad.append(rec["details"])
        for (check, key), value in shape.dims.items():
            if check == name and rec["dims"].get(key) != value:
                bad.append(f"{key}={rec['dims'].get(key)}, pinned {value}")
        if bad:
            failed += 1
            problems.append(f"{name}: " + "; ".join(bad))
    missing = shape.skipped - {n for n, c in checks.items() if c["status"] == "skipped"}
    if missing:
        structural.append(f"ran checks expected to be skipped: {sorted(missing)}")
    if len(checks) != RUN_PLAN_SIZE:
        structural.append(f"report has {len(checks)} checks, plan has {RUN_PLAN_SIZE}")
    if returncode != 0:
        structural.append(f"verify exited with {returncode}")
    return (attempted + len(structural), failed + len(structural),
            problems + structural)
