from pathlib import Path

import numpy as np
import pytest

from fintriple import catalog, morita, subspaces
from fintriple.config import parse_config_file

#: The shipped configs, each with an --expect manifest and a golden report.
CONFIG_NAMES = ("thm1", "thm2", "original_cc", "pati_salam", "degenerate")

#: Fixed nonzero coefficient draw used by most example tests; satisfies the
#: separation hypotheses (ups_nu != +-ups_u by a wide margin).
BASE = catalog.DiracParams(
    ups_nu=1.1 + 0.2j, ups_e=0.8 - 0.4j, ups_u=2.3 + 0.1j, ups_d=0.7 + 0.3j,
    ups_r=1.4 - 0.2j, omega=0.9 + 0.5j, delta=1.2, gamma=0.8)

#: BASE without the two added terms (omega, delta) and without gamma.
ORIGINAL_CC = catalog.DiracParams(
    ups_nu=BASE.ups_nu, ups_e=BASE.ups_e, ups_u=BASE.ups_u,
    ups_d=BASE.ups_d, ups_r=BASE.ups_r)


def draw_params(rng, with_gamma=False, **overrides):
    """Random coefficients bounded away from zero, with the up-type Yukawa
    separation |ups_nu^2 - ups_u^2| kept away from zero as well."""
    def draw(kind):
        if kind is complex:
            return (0.6 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
        return float((0.6 + 0.8 * rng.random()) * rng.choice([-1, 1]))

    keys = catalog.DIRAC_COUPLINGS["CC_plus_Gamma" if with_gamma else "CC"]
    while True:
        values = {key.lower(): draw(catalog.COUPLINGS[key]) for key in keys}
        values.update(overrides)
        sep = abs(values["ups_nu"] ** 2 - values["ups_u"] ** 2)
        if sep >= 0.3:
            return catalog.DiracParams(**values)


def config_triple(name):
    """Parsed shipped config and the triple it builds."""
    cfg = parse_config_file(Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg")
    return cfg, catalog.build_triple(cfg)


@pytest.fixture(scope="session")
def thm1_triple():
    return catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="nonstandard", dirac="CC", params=BASE))


@pytest.fixture(scope="session")
def thm2_triple():
    return catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="CC_plus_Gamma", params=BASE))


@pytest.fixture(scope="session")
def original_cc_triple():
    return catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="standard", dirac="CC", params=ORIGINAL_CC))


@pytest.fixture(scope="session")
def pati_salam_triple():
    return catalog.build_triple(catalog.TripleConfig(
        algebra="A_ev", grading="standard", dirac="CC", params=BASE))


@pytest.fixture(scope="session")
def af_commutant(thm1_triple):
    return subspaces.commutant(subspaces.span_of(thm1_triple.algebra_gens))


@pytest.fixture(scope="session")
def af_opposite_commutant(thm1_triple):
    return subspaces.commutant(subspaces.span_of(thm1_triple.opposite_gens))


@pytest.fixture(scope="session")
def thm1_derived(thm1_triple):
    return morita.Derived(thm1_triple)


@pytest.fixture(scope="session")
def thm1_clifford(thm1_derived):
    return thm1_derived.clifford_odd


@pytest.fixture(scope="session")
def thm2_derived(thm2_triple):
    return morita.Derived(thm2_triple)


@pytest.fixture(scope="session")
def thm2_clifford(thm2_derived):
    return thm2_derived.clifford_odd
