"""Configuration file parsing.

The format is a flat key-value file with sections:

    [algebra]
    name = A_F              # A_F | B_F | A_ev

    [grading]
    kind = nonstandard      # standard | nonstandard | none

    [dirac]
    type = CC               # zero | CC | CC_plus_Gamma | custom
    ups_nu = [1.1, 0.0]     # complex values as [re, im]
    delta = 1.2             # real values as plain numbers
    gamma = 0.8             # only for CC_plus_Gamma
    matrix_file = d.json    # only for custom: 32x32 array of [re, im] pairs

    [run]
    tol = 1e-9              # 1e-13 <= tol < 1 (linalg.TOL_FLOOR)

An empty or missing [dirac] section selects the zero Dirac operator.  The
accepted keys are declared once (_KEYS), the couplings and the Dirac types
that take them once (catalog.COUPLINGS, catalog.DIRAC_COUPLINGS).  Every
error about a line names that line; unknown keys are reported as read.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

import numpy as np

from .catalog import (ALGEBRA_CHOICES, COUPLINGS, DIRAC_CHOICES, DIRAC_COUPLINGS,
                      GRADING_CHOICES, DiracParams, TripleConfig)
from .layout import HILBERT_DIM
from .linalg import TOL_FLOOR

#: The keys each section accepts.
_KEYS = {"algebra": ("name",), "grading": ("kind",),
         "dirac": ("type", "matrix_file", *COUPLINGS), "run": ("tol",)}


class ConfigError(ValueError):
    """Malformed configuration; message carries the line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(lineno, f"unknown section [{name}]")
            if name in sections:
                raise ConfigError(lineno, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ConfigError(lineno, "key-value pair before any section header")
        if "=" not in line:
            raise ConfigError(lineno, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(lineno, "empty key")
        if key not in _KEYS[current]:
            raise ConfigError(lineno, f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(lineno, f"duplicate key {key!r} in [{current}]")
        sections[current][key] = (lineno, value)
    return sections


def _parse_complex(lineno, value):
    try:
        pair = json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(lineno, f"malformed complex value {value!r}: {exc.msg}") from None
    # a JSON true or false is a Python bool, which is an int: not a number here
    if (not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in pair)):
        raise ConfigError(lineno, f"complex value must be [re, im], got {value!r}")
    return complex(pair[0], pair[1])


def _parse_real(lineno, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(lineno, f"malformed number {value!r}") from None


def _load_custom_matrix(lineno, path):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(lineno, f"cannot read matrix file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(lineno, f"matrix file {path} is not valid JSON: {exc.msg}") from None
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(lineno, f"matrix file {path} is not an array of numbers") from None
    n = HILBERT_DIM
    if arr.shape != (n, n, 2):
        raise ConfigError(lineno, f"matrix file must hold a {n}x{n} array of [re, im] pairs, "
                                  f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(lineno, f"matrix file {path} has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_config(text, base_dir=None):
    """Parse a configuration file into a TripleConfig."""
    sections = _parse_sections(text)

    lineno, algebra = sections.get("algebra", {}).get("name", (0, None))
    if algebra is None:
        raise ConfigError(0, "missing [algebra] name")
    if algebra not in ALGEBRA_CHOICES:
        *first, last = ALGEBRA_CHOICES
        raise ConfigError(lineno, f"unknown algebra {algebra!r} "
                                  f"(expected {', '.join(first)} or {last})")

    grading_line, grading = sections.get("grading", {}).get("kind", (0, "none"))
    if grading not in GRADING_CHOICES:
        raise ConfigError(grading_line, f"unknown grading {grading!r}")

    dirac_section = dict(sections.get("dirac", {}))
    type_line, dirac_kind = dirac_section.pop("type", (0, "zero"))
    if dirac_section and not type_line:
        first = min(line for line, _ in dirac_section.values())
        raise ConfigError(first, "dirac section has parameters but no type")
    if dirac_kind not in DIRAC_CHOICES:
        raise ConfigError(type_line, f"unknown dirac type {dirac_kind!r}")

    params_kwargs = {}
    custom_matrix = None
    for key, (lineno, value) in dirac_section.items():
        if key == "matrix_file":
            if dirac_kind != "custom":
                raise ConfigError(lineno, "matrix_file requires dirac type custom")
            custom_matrix = _load_custom_matrix(lineno, Path(base_dir or ".") / value)
            continue
        kinds = [kind for kind, keys in DIRAC_COUPLINGS.items() if key in keys]
        if dirac_kind not in kinds:
            raise ConfigError(lineno, f"{key} requires dirac type {' or '.join(kinds)}")
        parse = _parse_complex if COUPLINGS[key] is complex else _parse_real
        coupling = parse(lineno, value)
        if not cmath.isfinite(coupling):
            raise ConfigError(lineno, f"{key} must be finite")
        params_kwargs[key.lower()] = coupling
    if dirac_kind == "custom" and custom_matrix is None:
        raise ConfigError(type_line, "dirac type custom requires matrix_file")

    lineno, value = sections.get("run", {}).get("tol", (0, "1e-9"))
    tol = _parse_real(lineno, value)
    if not (TOL_FLOOR <= tol < 1):
        raise ConfigError(lineno, f"tol must be in [{TOL_FLOOR:g}, 1), got {value}")

    try:
        return TripleConfig(algebra=algebra, grading=grading, dirac=dirac_kind,
                            params=DiracParams(**params_kwargs),
                            custom_matrix=custom_matrix, tol=tol)
    except ValueError as exc:
        raise ConfigError(grading_line, str(exc)) from None


def parse_config_file(path):
    path = Path(path)
    return parse_config(path.read_text(), base_dir=path.parent)
