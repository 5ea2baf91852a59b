import dataclasses
import json

import numpy as np
import pytest

from fintriple.catalog import COUPLINGS, FIXTURE_PARAMS, DiracParams, TripleConfig
from fintriple.config import ConfigError, parse_config
from fintriple.linalg import TOL_FLOOR
from fintriple.report import _config_echo

MINIMAL = """
[algebra]
name = A_F

[grading]
kind = nonstandard

[dirac]
type = CC
ups_nu = [1.1, 0.2]
ups_e = [0.8, -0.4]
ups_u = [2.3, 0.1]
ups_d = [0.7, 0.3]
ups_R = [1.4, -0.2]
omega = [0.9, 0.5]
delta = 1.2
"""


def test_minimal_theorem_config():
    cfg = parse_config(MINIMAL)
    assert cfg.algebra == "A_F"
    assert cfg.grading == "nonstandard"
    assert cfg.dirac == "CC"
    assert cfg.params.ups_nu == pytest.approx(1.1 + 0.2j)
    assert cfg.params.delta == pytest.approx(1.2)
    assert cfg.tol == pytest.approx(1e-9)


def test_empty_dirac_block_defaults_to_zero():
    cfg = parse_config("[algebra]\nname = A_F\n\n[dirac]\n")
    assert cfg.dirac == "zero"
    cfg = parse_config("[algebra]\nname = B_F\n")
    assert cfg.dirac == "zero"
    assert cfg.grading == "none"


def test_gamma_requires_augmented_type():
    text = "[algebra]\nname = A_F\n[dirac]\ntype = CC\ngamma = 0.5\n"
    with pytest.raises(ConfigError, match="gamma requires dirac type CC_plus_Gamma"):
        parse_config(text)


def test_unknown_key_reports_line():
    text = "[algebra]\nname = A_F\n[dirac]\ntype = CC\nups_x = [1, 0]\n"
    with pytest.raises(ConfigError, match="line 5"):
        parse_config(text)


@pytest.mark.parametrize("section, key_line", [
    ("algebra", "name = A_F\nflavor = x"),
    ("grading", "kind = none\nflavor = x"),
    ("dirac", "type = CC\nflavor = x"),
    ("run", "tol = 1e-9\nflavor = x"),
])
def test_unknown_key_in_each_section(section, key_line):
    head = "" if section == "algebra" else "[algebra]\nname = A_F\n"
    text = f"{head}[{section}]\n{key_line}\n"
    line = text.count("\n")
    with pytest.raises(ConfigError, match=rf"^line {line}: unknown key 'flavor' in \[{section}\]$"):
        parse_config(text)


@pytest.mark.parametrize("assignment", ["delta = inf", "ups_nu = [1e999, 0]",
                                        "omega = [NaN, 0]"])
def test_non_finite_coupling_names_its_line(assignment):
    key = assignment.split()[0]
    text = ("[algebra]\nname = A_F\n[grading]\nkind = standard\n"
            f"[dirac]\ntype = CC\n{assignment}\n")
    with pytest.raises(ConfigError, match=rf"^line 7: {key} must be finite$"):
        parse_config(text)


def test_dirac_params_rejects_non_finite():
    for bad in ({"delta": float("nan")}, {"omega": complex(0, float("inf"))}):
        with pytest.raises(ValueError, match="Dirac coefficients must be finite"):
            DiracParams(**bad)


def test_coupling_table_fills_params_and_echo():
    values = {key: f"[{i + 1}, {-i}]" if kind is complex else f"{i + 1}.5"
              for i, (key, kind) in enumerate(COUPLINGS.items())}
    text = ("[algebra]\nname = A_F\n[dirac]\ntype = CC_plus_Gamma\n"
            + "".join(f"{key} = {value}\n" for key, value in values.items()))
    params = parse_config(text).params
    assert [f.name for f in dataclasses.fields(DiracParams)] == [k.lower() for k in COUPLINGS]
    assert all(getattr(params, f.name) != 0 for f in dataclasses.fields(DiracParams))
    assert params.ups_r == 5 - 4j and params.gamma == 8.5

    cc = {"ups_nu", "ups_e", "ups_u", "ups_d", "ups_R", "omega", "delta"}
    assert set(_config_echo(TripleConfig(dirac="CC", params=FIXTURE_PARAMS))["params"]) == cc
    echo = _config_echo(TripleConfig(dirac="CC_plus_Gamma", params=FIXTURE_PARAMS))
    assert echo["params"] == {"ups_nu": [1.0, 0.0], "ups_e": [2.0, 0.0], "ups_u": [3.0, 0.0],
                              "ups_d": [4.0, 0.0], "ups_R": [5.0, 0.0], "omega": [6.0, 0.0],
                              "delta": 7.0, "gamma": 8.0}
    assert "params" not in _config_echo(TripleConfig(dirac="zero", params=FIXTURE_PARAMS))
    custom = TripleConfig(dirac="custom", params=FIXTURE_PARAMS,
                          custom_matrix=np.zeros((32, 32)))
    assert "params" not in _config_echo(custom)


def test_coupling_requires_its_dirac_type():
    with pytest.raises(ConfigError, match=r"^line 5: gamma requires dirac type CC_plus_Gamma$"):
        parse_config("[algebra]\nname = A_F\n[dirac]\ntype = CC\ngamma = 0.5\n")
    with pytest.raises(ConfigError,
                       match=r"^line 5: omega requires dirac type CC or CC_plus_Gamma$"):
        parse_config("[algebra]\nname = A_F\n[dirac]\ntype = zero\nomega = [1, 0]\n")


def test_malformed_complex():
    text = "[algebra]\nname = A_F\n[dirac]\ntype = CC\nups_nu = [1.0]\n"
    with pytest.raises(ConfigError, match="re, im"):
        parse_config(text)
    text = "[algebra]\nname = A_F\n[dirac]\ntype = CC\nups_nu = (1, 0)\n"
    with pytest.raises(ConfigError, match="malformed complex"):
        parse_config(text)
    # a JSON boolean is no number, as delta = True is no real number
    for pair in ("[true, false]", "[1.0, false]"):
        text = f"[algebra]\nname = A_F\n[dirac]\ntype = CC\nups_nu = {pair}\n"
        with pytest.raises(ConfigError, match=r"^line 5: complex value must be \[re, im\]"):
            parse_config(text)


def test_malformed_real():
    text = "[algebra]\nname = A_F\n[dirac]\ntype = CC\ndelta = twelve\n"
    with pytest.raises(ConfigError, match="malformed number"):
        parse_config(text)


def test_invalid_algebra_grading_combination():
    text = "[algebra]\nname = A_ev\n[grading]\nkind = nonstandard\n"
    with pytest.raises(ConfigError, match="standard grading"):
        parse_config(text)


def test_unknown_section_and_algebra():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown algebra"):
        parse_config("[algebra]\nname = C_F\n")
    with pytest.raises(ConfigError, match="missing"):
        parse_config("[grading]\nkind = none\n")


def test_params_without_type():
    with pytest.raises(ConfigError, match="no type"):
        parse_config("[algebra]\nname = A_F\n[dirac]\ndelta = 1.0\n")


def test_duplicate_key():
    text = "[algebra]\nname = A_F\nname = B_F\n"
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(text)


def test_comments_and_tolerance():
    text = ("# leading comment\n[algebra]\nname = A_F  # algebra choice\n"
            "[run]\ntol = 1e-7\n")
    cfg = parse_config(text)
    assert cfg.tol == pytest.approx(1e-7)
    with pytest.raises(ConfigError, match="tol"):
        parse_config("[algebra]\nname = A_F\n[run]\ntol = 2.0\n")


def test_tolerance_floor_names_its_line():
    assert parse_config("[algebra]\nname = A_F\n[run]\ntol = 1e-13\n").tol == TOL_FLOOR
    for value in ("1e-14", "0", "-1", "1", "nan"):
        text = f"[algebra]\nname = A_F\n\n[run]\ntol = {value}\n"
        with pytest.raises(ConfigError, match=r"line 5: tol must be in \[1e-13, 1\)"):
            parse_config(text)


def test_triple_config_rejects_tol_below_floor():
    with pytest.raises(ValueError, match="outside"):
        TripleConfig(tol=1e-14)
    assert TripleConfig(tol=TOL_FLOOR).tol == TOL_FLOOR


def test_custom_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    h = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    h = 0.5 * (h + h.conj().T)
    payload = [[[float(h[i, j].real), float(h[i, j].imag)] for j in range(32)]
               for i in range(32)]
    (tmp_path / "d.json").write_text(json.dumps(payload))
    text = "[algebra]\nname = A_F\n[dirac]\ntype = custom\nmatrix_file = d.json\n"
    cfg = parse_config(text, base_dir=tmp_path)
    np.testing.assert_allclose(cfg.custom_matrix, h)
    with pytest.raises(ConfigError, match="requires matrix_file"):
        parse_config("[algebra]\nname = A_F\n[dirac]\ntype = custom\n")


_ZERO_PAIRS = [[[0.0, 0.0]] * 32] * 32


def test_custom_matrix_bad_shape(tmp_path):
    # each malformed matrix file is a config error on its matrix_file line
    text = "[algebra]\nname = A_F\n[dirac]\ntype = custom\nmatrix_file = bad.json\n"
    for content, message in (
            (json.dumps([[1.0, 2.0]]), "must hold a 32x32 array"),
            (json.dumps([[1.0, 2.0], [3.0]]), "is not an array of numbers"),
            (json.dumps([[["a", 0.0]] * 32] * 32), "is not an array of numbers"),
            (json.dumps(_ZERO_PAIRS).replace("0.0", "NaN", 1), "has non-finite entries")):
        (tmp_path / "bad.json").write_text(content)
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(text, base_dir=tmp_path)
        assert err.value.line == 5
        assert str(err.value).startswith("line 5: ")
