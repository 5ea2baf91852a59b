import dataclasses
import errno
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fintriple import catalog, cli, linalg, morita, report, star_algebra, subspaces, triple
from fintriple.config import parse_config_file

from conftest import BASE, CONFIG_NAMES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def thm1_report():
    return report.run_all(parse_config_file(CONFIG_DIR / "thm1.cfg"))


@pytest.fixture(scope="module")
def thm2_report():
    return report.run_all(parse_config_file(CONFIG_DIR / "thm2.cfg"))


@pytest.fixture(scope="module")
def original_cc_report():
    return report.run_all(parse_config_file(CONFIG_DIR / "original_cc.cfg"))


@pytest.fixture(scope="module")
def pati_salam_report():
    return report.run_all(parse_config_file(CONFIG_DIR / "pati_salam.cfg"))


@pytest.fixture(scope="module")
def degenerate_report():
    return report.run_all(parse_config_file(CONFIG_DIR / "degenerate.cfg"))


def _statuses(rep):
    return {rec.name: rec.status for rec in rep.checks}


def test_thm2_statuses(thm2_report):
    s = _statuses(thm2_report)
    assert s["property_m"] == "pass"
    assert s["irreducibility"] == "pass"
    assert s["gamma_in_clifford_odd"] == "pass"
    assert s["zero_chain_grading"] == "fail"
    assert s["grading_axioms"] == "skipped"


def test_original_cc_statuses(original_cc_report):
    s = _statuses(original_cc_report)
    assert s["property_m"] == "fail"
    assert s["property_m_with_grading"] == "fail"
    assert s["irreducibility"] == "fail"
    rec = original_cc_report.check("irreducibility")
    assert "reducing projection" in rec.details


def test_pati_salam_statuses(pati_salam_report):
    s = _statuses(pati_salam_report)
    assert s["first_order"] == "fail"
    assert s["zero_chain_grading"] == "pass"
    assert s["irreducibility"] == "pass"
    assert s["property_m"] == "skipped"
    assert s["dirac_decomposition"] == "skipped"
    assert pati_salam_report.check("first_order").residuals["violation"] >= 0.1


def test_every_plan_entry_present(thm2_report):
    names = [rec.name for rec in thm2_report.checks]
    assert names == list(report.RUN_PLAN)
    assert len(set(names)) == len(names)


def test_residuals_finite(thm2_report, original_cc_report, pati_salam_report):
    for rep in (thm2_report, original_cc_report, pati_salam_report):
        for rec in rep.checks:
            for value in rec.residuals.values():
                assert value == value and abs(value) < float("inf")


def test_golden_reports(thm1_report, thm2_report, original_cc_report,
                        pati_salam_report, degenerate_report):
    for rep, name in ((thm1_report, "thm1"),
                      (thm2_report, "thm2"),
                      (original_cc_report, "original_cc"),
                      (pati_salam_report, "pati_salam"),
                      (degenerate_report, "degenerate")):
        golden = (CONFIG_DIR / f"{name}.golden.json").read_text()
        assert report.render_json(rep, normalize_timing=True) == golden


def test_golden_reports_independent_of_blas_threads(original_cc_report):
    # original_cc carries all three witnesses and roundoff-level residuals;
    # a single-threaded BLAS must reproduce the in-process canonical bytes.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(report.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from fintriple.config import parse_config_file\n"
            "from fintriple.report import render_json, run_all\n"
            "rep = run_all(parse_config_file(sys.argv[1]))\n"
            "sys.stdout.write(render_json(rep, normalize_timing=True))\n")
    result = subprocess.run(
        [sys.executable, "-c", code, str(CONFIG_DIR / "original_cc.cfg")],
        env=env, capture_output=True, text=True, check=True)
    assert result.stdout == report.render_json(original_cc_report, normalize_timing=True)


def _verify_json(path, tol, threads):
    """verify --report json in a fresh process at a BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    src = str(Path(report.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fintriple.cli", "verify", str(path),
         "--tol", tol, "--report", "json"],
        env=env, capture_output=True, text=True, check=True)
    return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0.0', result.stdout)


def test_json_at_the_tol_floor_independent_of_blas_threads():
    # at the smallest accepted tol the noise floor is linalg.TOL_FLOOR, not
    # 1e-3 * tol, which would sit below roundoff; original_cc is the one
    # golden with a reducing-projection witness, pati_salam solves its
    # irreducibility commutant on the eigenblocks of a generic element,
    # degenerate's B_F closures split their solves into components, and
    # every config takes the rank decisions of A' on its 32 x 32 eigenblocks
    for name in CONFIG_NAMES:
        path = CONFIG_DIR / f"{name}.cfg"
        one = _verify_json(path, "1e-13", 1)
        assert '"tolerance": 1e-13' in one
        assert one == _verify_json(path, "1e-13", 2)


def test_one_forms_check_memory(thm2_triple):
    # the one_forms check builds the one-forms and the named-generator
    # bimodule; the 2250 dense products a g b are never held at once, and
    # each chunk is held on its structural support (about 2.7 MB in all)
    tol = 1e-9
    gens = catalog.one_form_generators(BASE, "CC_plus_Gamma")
    tracemalloc.start()
    try:
        d = morita.Derived(thm2_triple, tol)
        om = d.one_forms
        alg = d.algebra_span.matrices
        named = subspaces.product_span(alg, alg, tol=tol,
                                       middle=np.array(gens + [g.conj().T for g in gens]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert subspaces.equals(om, named)
    assert peak < 6 * 2 ** 20


def test_bimodule_span_matches_the_span_of_all_products(thm1_triple):
    gens = catalog.one_form_generators(BASE, "CC")
    gens = gens + [g.conj().T for g in gens]
    alg = morita.algebra_span(thm1_triple).matrices
    mats = [a @ g @ b for g in gens for a in alg for b in alg]
    built = subspaces.product_span(alg, alg, tol=1e-9, middle=np.array(gens))
    assert np.array_equal(built.flat, subspaces.span_of(mats, tol=1e-9).flat)


def test_order_violations_computed_once_per_report(monkeypatch):
    # the two order checks, grading_axioms, dirac_decomposition and both
    # property_m checks all read the violations cached on the triple; every
    # shared object is built once, and the commutant is solved four times:
    # A', the commutant C of each Clifford closure (whose blocks give the
    # closure, with no second solve) and the irreducibility commutant
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(triple, "_order_conditions", counted(triple._order_conditions))
    for name in ("algebra_span", "opposite_span", "one_forms", "clifford"):
        monkeypatch.setattr(morita, name, counted(getattr(morita, name)))
    monkeypatch.setattr(subspaces, "commutant", counted(subspaces.commutant))
    rep = report.run_all(parse_config_file(CONFIG_DIR / "thm1.cfg"))
    assert rep.check("property_m_with_grading").status == "pass"
    assert Counter(calls) == {"_order_conditions": 1,
                              "algebra_span": 1, "opposite_span": 1, "one_forms": 1,
                              "clifford": 2, "commutant": 4}


def test_degenerate_report_solves_no_commutant_of_a_commutant(monkeypatch):
    # the four solves of a thm1 report and the one of B_F's closure: its
    # unitalization is read off that closure's blocks, so no solve takes
    # the 112 rows of B_F's commutant as its span
    dims = []
    solve = subspaces.commutant

    def counted(space):
        dims.append(space.dim)
        return solve(space)

    monkeypatch.setattr(subspaces, "commutant", counted)
    rep = report.run_all(parse_config_file(CONFIG_DIR / "degenerate.cfg"))
    assert rep.check("unitalization").status == "pass"
    assert len(dims) == 5 and 112 not in dims


@pytest.mark.parametrize("raising", ["dirac_commutators", "_support_commutator_norms"])
def test_checks_blocked_by_an_order_error_name_it(monkeypatch, raising):
    def injected(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(triple, raising, injected)
    rep = report.run_all(parse_config_file(CONFIG_DIR / "thm1.cfg"))
    # both violations come from one cached property, so both checks raise
    assert rep.check("zeroth_order").status == "error"
    assert rep.check("first_order").status == "error"
    for name in ("dirac_decomposition", "clifford_odd", "clifford_even",
                 "gamma_in_clifford_odd", "property_m", "property_m_with_grading"):
        assert rep.check(name).status == "skipped"
        assert rep.check(name).details == "blocked: zeroth_order error, first_order error"


@pytest.mark.parametrize("name, tol", [
    pytest.param(name, tol, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: pati_salam's Omega^1 product stack keeps "
                            "a singular value 0.97 decades below its cut at tol 1e-13"))
    if (name, tol) == ("pati_salam", 1e-13) else (name, tol)
    for tol in (1e-9, 1e-13) for name in CONFIG_NAMES])
def test_rank_decisions_keep_two_decades_from_the_cut(monkeypatch, name, tol):
    # every rank decision of a report goes through linalg.singular_value_cut;
    # each kept singular value sits at least 100 times above its cut and
    # each discarded one at least 100 times below it
    decisions = []
    cut_of = linalg.singular_value_cut

    def recorded(sigma, shape, tol):
        cut = cut_of(sigma, shape, tol)
        decisions.append((np.asarray(sigma), cut))
        return cut

    monkeypatch.setattr(linalg, "singular_value_cut", recorded)
    cfg = dataclasses.replace(parse_config_file(CONFIG_DIR / f"{name}.cfg"), tol=tol)
    rep = report.run_all(cfg)
    assert decisions and all(rec.status != "error" for rec in rep.checks)
    for sigma, cut in decisions:
        assert sigma[sigma > cut].min(initial=np.inf) >= 1e2 * cut
        assert sigma[sigma <= cut].max(initial=0.0) <= 1e-2 * cut


def test_residuals_below_noise_floor_render_as_zero():
    # the floor is 1e-3 * tolerance; config echo and tolerance are untouched
    rec = report.CheckRecord(name="zeroth_order", status="pass", residuals={
        "roundoff": 3.2e-15, "negative": -4e-13, "above": 2.5e-12, "large": 0.75})
    echo = {"algebra": "A_F", "grading": "none", "dirac": "zero", "tol": 1e-9}
    rep = report.VerificationReport(config=echo, tolerance=1e-9,
                                    version="0", checks=[rec])
    payload = json.loads(report.render_json(rep))
    assert payload["checks"][0]["residuals"] == {
        "roundoff": 0.0, "negative": 0.0, "above": 2.5e-12, "large": 0.75}
    assert payload["tolerance"] == 1e-9 and payload["config"] == echo
    assert rec.residuals["roundoff"] == 3.2e-15
    assert "roundoff=3.200e-15" in report.render_text(rep)


def test_describe_operator_is_canonical():
    op = np.zeros((8, 8), dtype=complex)
    op[2, 2] = op[0, 0] = op[1, 1] = 1.0
    op[3, 1] = 0.5j
    op[6, 7] = op[5, 4] = op[4, 5] = 0.157575 + 0.24469j
    rng = np.random.default_rng(5)
    noisy = op + 1e-16 * (rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape))
    text = report._describe_operator(op, 1e-12)
    assert text == ("[0,0]=1+0j; [1,1]=1+0j; [2,2]=1+0j; [3,1]=0+0.5j; "
                    "[4,5]=0.157575+0.24469j; [5,4]=0.157575+0.24469j")
    assert report._describe_operator(noisy, 1e-12) == text
    assert report._describe_operator(-op, 1e-12).startswith("[0,0]=-1+0j; ")


def test_expectation_manifests(thm1_report, thm2_report, original_cc_report,
                               pati_salam_report):
    for rep, name in ((thm1_report, "thm1"),
                      (thm2_report, "thm2"),
                      (original_cc_report, "original_cc"),
                      (pati_salam_report, "pati_salam")):
        manifest = json.loads((CONFIG_DIR / f"{name}.expect.json").read_text())
        assert report.compare_with_expectations(rep, manifest["checks"]) == []


def test_manifest_pins_skipped_checks(pati_salam_report):
    manifest = json.loads((CONFIG_DIR / "pati_salam.expect.json").read_text())["checks"]
    assert manifest["property_m"] == report.SKIPPED
    wrong = dict(manifest, property_m="pass")
    assert report.compare_with_expectations(pati_salam_report, wrong) == [
        ("property_m", "pass", report.SKIPPED)]
    del wrong["property_m"]
    assert report.compare_with_expectations(pati_salam_report, wrong) == [
        ("property_m", None, report.SKIPPED)]


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-13])
@pytest.mark.parametrize("name", ["thm1", "thm2", "original_cc", "pati_salam",
                                  "degenerate"])
def test_manifests_hold_across_tol(name, tol):
    # the shipped tol 1e-9 is covered by test_expectation_manifests and
    # test_degenerate_config_matches_manifest
    cfg = dataclasses.replace(parse_config_file(CONFIG_DIR / f"{name}.cfg"), tol=tol)
    manifest = json.loads((CONFIG_DIR / f"{name}.expect.json").read_text())
    assert report.compare_with_expectations(report.run_all(cfg), manifest["checks"]) == []


def test_raising_check_is_an_error_not_a_fail(monkeypatch, tmp_path):
    # original_cc expects property_m to fail; a crash must not satisfy that
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(morita, "property_m", broken)
    out = tmp_path / "report.json"
    code = cli.main([
        "verify", str(CONFIG_DIR / "original_cc.cfg"), "--report", "json",
        "--expect", str(CONFIG_DIR / "original_cc.expect.json"), "--out", str(out),
    ])
    assert code != 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("property_m", "property_m_with_grading"):
        assert checks[name]["status"] == report.ERROR
        assert checks[name]["details"] == "error: injected fault"
    assert checks["clifford_odd"]["status"] == report.PASS


def test_error_status_rendering_and_expectations():
    rec = report.CheckRecord(name="property_m", status=report.ERROR,
                             details="error: boom")
    echo = {"algebra": "A_F", "grading": "none", "dirac": "zero", "tol": 1e-9}
    rep = report.VerificationReport(config=echo, tolerance=1e-9, version="0",
                                    checks=[rec])
    text = report.render_text(rep)
    assert " ERR  property_m" in text
    assert "0 pass, 0 fail, 0 skipped, 1 error" in text
    for expected in ("error", "fail", "pass", None):
        mismatches = report.compare_with_expectations(rep, {"property_m": expected})
        assert mismatches == [("property_m", expected, report.ERROR)]


def test_report_deterministic(thm2_report):
    again = report.run_all(parse_config_file(CONFIG_DIR / "thm2.cfg"))
    assert (report.render_json(again, normalize_timing=True)
            == report.render_json(thm2_report, normalize_timing=True))


def test_text_rendering(thm2_report):
    text = report.render_text(thm2_report)
    assert "property_m" in text
    assert "PASS" in text
    assert "tolerance" in text


def test_degenerate_config_matches_manifest(degenerate_report):
    rep = degenerate_report
    manifest = json.loads((CONFIG_DIR / "degenerate.expect.json").read_text())
    assert report.compare_with_expectations(rep, manifest["checks"]) == []
    assert rep.check("unitalization").dims == {"span": 14, "unitalized": 15}
    assert rep.check("property_m").dims["commutant_odd"] == 19
    assert rep.check("property_m_with_grading").dims["commutant_even"] == 15


def test_cli_verify_expect_success(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main([
        "verify", str(CONFIG_DIR / "pati_salam.cfg"),
        "--report", "json",
        "--expect", str(CONFIG_DIR / "pati_salam.expect.json"),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["version"]
    assert {c["name"] for c in payload["checks"]} == set(report.RUN_PLAN)


def test_cli_verify_expect_mismatch(tmp_path):
    bad = tmp_path / "expect.json"
    manifest = json.loads((CONFIG_DIR / "pati_salam.expect.json").read_text())
    manifest["checks"]["first_order"] = "pass"
    bad.write_text(json.dumps(manifest))
    code = cli.main([
        "verify", str(CONFIG_DIR / "pati_salam.cfg"),
        "--report", "json", "--expect", str(bad), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1


def test_cli_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[algebra]\nname = Q_F\n")
    assert cli.main(["axioms", str(bad)]) == 2


def _assert_cli_error(capsys, argv):
    """argv exits 2 with a one-line error, not 1 (an --expect mismatch)."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("directory", ["config", "expect", "out"])
def test_cli_directory_path_is_an_error(tmp_path, capsys, directory):
    # reading or writing a directory is an OSError, not an --expect mismatch
    paths = {"config": CONFIG_DIR / "pati_salam.cfg",
             "expect": CONFIG_DIR / "pati_salam.expect.json",
             "out": tmp_path / "r.txt", directory: tmp_path}
    _assert_cli_error(capsys, ["verify", str(paths["config"]), "--expect",
                               str(paths["expect"]), "--out", str(paths["out"])])


def test_cli_non_hermitian_custom_dirac_is_an_error(tmp_path, capsys):
    (tmp_path / "d.json").write_text(json.dumps([[[0.0, 1.0]] * 32] * 32))
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("[algebra]\nname = A_F\n[dirac]\ntype = custom\nmatrix_file = d.json\n")
    _assert_cli_error(capsys, ["verify", str(cfg), "--out", str(tmp_path / "r.txt")])


def test_cli_malformed_manifest_is_an_error(tmp_path, capsys, monkeypatch):
    # a manifest is read and checked before any check runs: not JSON, not an
    # object, no "checks" object, an unknown check or status
    def no_run(cfg):
        raise AssertionError("run_all ran on a malformed manifest")

    monkeypatch.setattr(report, "run_all", no_run)
    bad = tmp_path / "expect.json"
    for text in ("{not json", "[]", '{"checks": []}', "{}",
                 '{"checks": {"no_such_check": "pass"}}',
                 '{"checks": {"first_order": "error"}}',
                 '{"checks": {"first_order": ["pass"]}}'):
        bad.write_text(text)
        _assert_cli_error(capsys, ["verify", str(CONFIG_DIR / "pati_salam.cfg"),
                                   "--expect", str(bad), "--out", str(tmp_path / "r.txt")])


def test_cli_even_clifford_of_an_odd_triple_is_an_error(capsys):
    _assert_cli_error(capsys, ["clifford", str(CONFIG_DIR / "thm2.cfg"), "--even"])


def _cli_dims(capsys, *argv):
    """The 'label: value' lines a focused subcommand prints, as a dict."""
    assert cli.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(line.rsplit(":", 1) for line in lines)


def test_cli_axioms_and_commutant(capsys, thm1_report):
    assert cli.main(["axioms", str(CONFIG_DIR / "original_cc.cfg")]) == 0
    text = capsys.readouterr().out
    assert "ko_dimension" in text and "6" in text
    assert cli.main(["commutant", str(CONFIG_DIR / "original_cc.cfg")]) == 0
    text = capsys.readouterr().out
    assert "112" in text and "4" in text
    # the same dimensions as the verify report, each read off one object
    dims = thm1_report.check("commutant_dimensions").dims
    assert dims == {"algebra_commutant": 112, "opposite_commutant": 112,
                    "opposite_center": 4}
    out = _cli_dims(capsys, "commutant", str(CONFIG_DIR / "thm1.cfg"))
    assert int(out["algebra commutant dim"]) == dims["algebra_commutant"]
    assert int(out["opposite commutant dim"]) == dims["opposite_commutant"]
    assert int(out["opposite center dim"]) == dims["opposite_center"]


def test_cli_clifford(capsys, thm1_report):
    assert cli.main(["clifford", str(CONFIG_DIR / "thm2.cfg")]) == 0
    text = capsys.readouterr().out
    assert "112" in text and "15" in text
    # the 416-dimensional Pati-Salam closure, with its 10-dimensional commutant
    out = _cli_dims(capsys, "clifford", str(CONFIG_DIR / "pati_salam.cfg"))
    assert int(out["clifford (odd) dim"]) == 416
    assert int(out["commutant dim"]) == 10
    # thm1: the closures and their commutants of the verify report
    odd = thm1_report.check("property_m").dims
    even = thm1_report.check("property_m_with_grading").dims
    assert (odd["clifford_odd"], odd["commutant_odd"]) == (96, 19)
    assert (even["clifford_even"], even["commutant_even"]) == (112, 15)
    for kind, argv in (("odd", ()), ("even", ("--even",))):
        out = _cli_dims(capsys, "clifford", str(CONFIG_DIR / "thm1.cfg"), *argv)
        dims = odd if kind == "odd" else even
        assert int(out[f"clifford ({kind}) dim"]) == dims[f"clifford_{kind}"]
        assert int(out["commutant dim"]) == dims[f"commutant_{kind}"]
        blocks = {"odd": "(4, 3), (4, 3), (8, 1)", "even": "(4, 1), (4, 2), (4, 3), (8, 1)"}
        assert out["blocks (n, m)"].strip() == blocks[kind]


def test_cli_clifford_even_builds_one_closure(capsys, monkeypatch):
    # the even closure is solved from its own generators, without the odd one
    calls = []
    closure = star_algebra.star_closure

    def counted(*args, **kwargs):
        calls.append(1)
        return closure(*args, **kwargs)

    monkeypatch.setattr(star_algebra, "star_closure", counted)
    out = _cli_dims(capsys, "clifford", str(CONFIG_DIR / "thm1.cfg"), "--even")
    assert len(calls) == 1
    assert int(out["clifford (even) dim"]) == 112
    assert int(out["commutant dim"]) == 15


def test_cli_tol_override(capsys):
    assert cli.main(["commutant", str(CONFIG_DIR / "original_cc.cfg"),
                     "--tol", "1e-8"]) == 0
    assert "112" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "commutant", "clifford", "axioms"])
@pytest.mark.parametrize("tol", ["1e-15", "0", "-1", "2", "nan", "x"])
def test_cli_tol_outside_range_is_a_usage_error(command, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(CONFIG_DIR / "thm2.cfg"), "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--tol" in err and "Traceback" not in err


def test_cli_tol_at_floor_matches_manifest(tmp_path):
    assert cli.main(["verify", str(CONFIG_DIR / "thm2.cfg"), "--tol", "1e-13",
                     "--expect", str(CONFIG_DIR / "thm2.expect.json"),
                     "--out", str(tmp_path / "r.txt")]) == 0


def _python(code, *args):
    """stdout of code run by a fresh interpreter on this package, with args."""
    env = dict(os.environ)
    src = str(Path(report.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True).stdout


def _fintriple_modules_loaded_by(statement):
    """The fintriple modules that a fresh interpreter loads to run statement."""
    return set(_python(f"import sys\n{statement}\n"
                       "print(*(m for m in sys.modules if m.startswith('fintriple')))\n")
               .split())


def test_import_graph():
    # the benchmark's set-up probe builds a triple from a config without the
    # theorem, report or CLI layers, and the theorem layer needs no catalog
    probe = _fintriple_modules_loaded_by("from fintriple import catalog, config")
    assert {"fintriple.catalog", "fintriple.config"} <= probe
    assert not probe & {"fintriple.morita", "fintriple.star_algebra",
                        "fintriple.report", "fintriple.cli"}
    theorems = _fintriple_modules_loaded_by("import fintriple.morita")
    assert "fintriple.morita" in theorems and "fintriple.catalog" not in theorems


def _verify_and_probe(tmp_path, probe):
    """verify's exit status on thm1 and the values of probe, both printed
    by a fresh interpreter after the verify."""
    return _python("import sys\n"
                   "from fintriple import cli\n"
                   "status = cli.main(['verify', sys.argv[1], '--out', sys.argv[2]])\n"
                   f"print(status, {probe})\n",
                   CONFIG_DIR / "thm1.cfg", tmp_path / "r.txt").split()


def test_verify_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 30 ms of every process that imports it, and
    # nothing on the verify path needs it; np.unique and the set routines
    # built on it (np.setdiff1d, ...) import it lazily
    assert _verify_and_probe(tmp_path, "'numpy.ma' in sys.modules") == ["0", "False"]


def test_verify_does_not_import_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of RSS and 15 ms of import in every
    # process that loads it; the few thousand draws of a report come from
    # random.Random
    assert _verify_and_probe(tmp_path, "'numpy.random' in sys.modules") == ["0", "False"]


def test_verify_does_not_load_libcrypto(tmp_path):
    # hashlib maps OpenSSL's libcrypto, about 3.5 MB of RSS in every process
    # that loads it; the report seed comes from the built-in SHA-256
    probe = "'_hashlib' in sys.modules, 'ssl' in sys.modules"
    assert _verify_and_probe(tmp_path, probe) == ["0", "False", "False"]


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_seed_from_config_is_the_hashlib_sha256_seed(name):
    # whichever SHA-256 module the report loads, the seed is the one
    # hashlib.sha256 gives, so every report's random stream stays put
    import hashlib

    echo = report._config_echo(parse_config_file(CONFIG_DIR / f"{name}.cfg"))
    payload = json.dumps(echo, sort_keys=True).encode() + report._version.encode()
    expected = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    assert report._seed_from_config(echo) == expected


def _fintriple(*args, unbuffered=False, **popen):
    """python -m fintriple.cli args in a fresh process, stdout buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(report.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    popen.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "fintriple.cli", *map(str, args)],
                          env=env, stderr=subprocess.PIPE, text=True, **popen)


def test_cli_process_prints_the_whole_report(thm2_report):
    # the process entry ends with os._exit: a lost flush of the buffered
    # stdout would cut the report
    result = _fintriple("verify", CONFIG_DIR / "thm2.cfg", "--report", "text")
    assert result.returncode == 0, result.stderr
    assert result.stdout == report.render_text(thm2_report)
    assert result.stderr == ""


def test_cli_process_expect_mismatch_exits_1(tmp_path):
    manifest = json.loads((CONFIG_DIR / "thm2.expect.json").read_text())
    flipped = {"first_order": "fail", "clifford_odd": "fail", "clifford_even": "pass"}
    expected = []
    for name in report.RUN_PLAN:
        if name in flipped:
            expected.append(f"expectation mismatch: {name}: expected {flipped[name]}, "
                            f"got {manifest['checks'][name]}")
            manifest["checks"][name] = flipped[name]
    bad = tmp_path / "expect.json"
    bad.write_text(json.dumps(manifest))
    result = _fintriple("verify", CONFIG_DIR / "thm2.cfg", "--expect", bad,
                        "--out", tmp_path / "r.txt")
    assert result.returncode == 1
    assert result.stderr.splitlines() == expected
    assert (tmp_path / "r.txt").read_text().startswith("fintriple")


def test_cli_process_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[algebra]\nname = Q_F\n")
    result = _fintriple("verify", bad)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("config error: ")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_process_failed_stdout_write_exits_2(unbuffered):
    # stdout is a pipe whose reader has gone; buffered or not, the failed
    # write is the one-line error and exit 2, with nothing at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _fintriple("verify", CONFIG_DIR / "thm2.cfg", unbuffered=unbuffered,
                            stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def test_cli_process_with_stdout_closed_writes_its_out_file(tmp_path):
    # with file descriptor 1 closed sys.stdout is None, and --out needs no stdout
    out = tmp_path / "r.txt"
    result = _fintriple("verify", CONFIG_DIR / "thm2.cfg", "--out", out,
                        stdout=None, preexec_fn=lambda: os.close(1))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert out.read_text().startswith("fintriple")


def test_cli_subprocess_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "fintriple.cli", "axioms",
         str(CONFIG_DIR / "thm1.cfg")],
        capture_output=True, text=True, check=True)
    assert "first_order" in result.stdout


def test_morita_witness_computed_once_per_report(monkeypatch):
    # thm1 fails the odd comparison only; the even check builds no witness
    calls = []
    witness = morita._orthogonal_witness

    def counted(*args):
        calls.append(1)
        return witness(*args)

    monkeypatch.setattr(morita, "_orthogonal_witness", counted)
    rep = report.run_all(parse_config_file(CONFIG_DIR / "thm1.cfg"))
    assert rep.check("property_m").status == report.FAIL
    assert rep.check("property_m_with_grading").status == report.PASS
    assert len(calls) == 1


def test_perfbench_traced_names_resolve():
    # the benchmark wraps these by name; a renamed or deleted one breaks it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for module, name, _ in child.TRACED:
        assert callable(getattr(importlib.import_module(f"fintriple.{module}"), name)), \
            (module, name)


def test_make_goldens_names_a_differing_report_by_its_path_under_dir(tmp_path, monkeypatch,
                                                                       capsys):
    # --compare DIR runs once per thread count on DIR/<threads>; each report
    # that differs is named with its thread directory
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    monkeypatch.setattr(goldens, "GOLDEN_CONFIGS", ("thm1", "thm2"))
    monkeypatch.setattr(goldens, "SNAPSHOT_TOLS", ("1e-13",))
    monkeypatch.setattr(goldens, "_report", lambda name, tol: f"{name} new\n")
    (tmp_path / "2").mkdir()
    (tmp_path / "2" / "thm1-1e-13.json").write_text("thm1 old\n")
    assert goldens._snapshot(tmp_path / "2", compare=True) == ["thm1-1e-13.json",
                                                               "thm2-1e-13.json"]
    assert capsys.readouterr().out.splitlines() == [
        "differs: 2/thm1-1e-13.json",
        "  line 1 old: thm1 old",
        "  line 1 new: thm1 new",
        "differs: 2/thm2-1e-13.json (missing)",
    ]
    assert not goldens._differs(tmp_path / "2" / "thm1-1e-13.json", "thm1 old\n", tmp_path)
