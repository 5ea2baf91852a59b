"""Acceptance criteria.

One test per criterion, each at its stated tolerance, printing a pass line
on success (run with -s to see them; any assertion failure marks the
criterion failed).
"""

import random

import numpy as np
import pytest

from fintriple import catalog, linalg, morita, star_algebra, subspaces, triple

import oracles
from conftest import draw_params


def _line(num, text):
    print(f"ACCEPTANCE {num:>2}: {text}: PASS")


@pytest.fixture(scope="module")
def draws():
    rng = np.random.default_rng(0xACCE97)
    return [draw_params(rng, with_gamma=True) for _ in range(5)]


def _triple_for(params, algebra="A_F", grading="nonstandard", dirac="CC"):
    return catalog.build_triple(catalog.TripleConfig(
        algebra=algebra, grading=grading, dirac=dirac, params=params))


def test_criterion_01_commutant_dimensions():
    af = subspaces.commutant(subspaces.span_of(catalog.algebra_af_generators()))
    assert af.dim == 112
    j = catalog.real_structure()
    opp_gens = [j.conjugate_operator(g) for g in catalog.algebra_af_generators()]
    opp = subspaces.commutant(subspaces.span_of(opp_gens))
    assert opp.dim == 112
    aev = subspaces.commutant(subspaces.span_of(catalog.algebra_aev_generators()))
    assert aev.dim == 48
    opp_span = subspaces.span_of(oracles.opposite_algebra_basis())
    z = star_algebra.center(opp_span, subspaces.commutant(opp_span))
    assert z.dim == 4
    _line(1, "commutant dimensions 112 / 112 / 48 / center 4")


def test_criterion_02_ko_dimension():
    plain = catalog.DiracParams(ups_nu=1.1 + 0.2j, ups_e=0.8 - 0.4j,
                                ups_u=2.3 + 0.1j, ups_d=0.7 + 0.3j,
                                ups_r=1.4 - 0.2j)
    for grading in ("standard", "nonstandard"):
        t = _triple_for(plain, grading=grading)
        st = triple.sign_table(t, tol=1e-12)
        assert (st.eps, st.eps_prime, st.eps_dblprime) == (1, 1, -1)
        assert st.ko_dimension == 6
        assert all(v <= 1e-12 for v in st.residuals.values())
    _line(2, "KO-dimension 6 with signs (+1, +1, -1) for both gradings")


def test_criterion_03_morita_with_grading(draws):
    for params in draws:
        t = _triple_for(params)
        d = morita.Derived(t)
        cl = d.clifford_odd
        odd, even = morita.property_m(d), morita.property_m(d, even=True)
        assert odd.holds is False
        assert odd.commutant_dim == 19
        assert even.holds is True
        assert even.commutant_dim == 15
        opp = morita.opposite_span(t)
        span = oracles.closure_span(cl)
        comm_even = subspaces.commutant(
            subspaces.span_of([*span.matrices, np.asarray(t.grading)], tol=1e-9))
        assert subspaces.equals(comm_even, opp)
        assert not span.contains(t.grading)
    _line(3, "Morita property holds with the grading only (19 vs 15), "
             "grading outside the odd Clifford algebra, 5 draws")


def test_criterion_04_morita_odd_case(draws):
    for params in draws:
        t = _triple_for(params, grading="none", dirac="CC_plus_Gamma")
        d = morita.Derived(t)
        cl = d.clifford_odd
        v = morita.property_m(d)
        assert v.holds is True
        span = oracles.closure_span(cl)
        assert span.contains(catalog.grading("standard"))
        assert span.contains(catalog.grading("nonstandard"))
    _line(4, "Morita property holds for the augmented odd triple and the "
             "grading joins the odd Clifford algebra, 5 draws")


def test_criterion_05_negative_controls(draws):
    base = draws[0]
    for zeroed in ("omega", "delta"):
        params = catalog.DiracParams(
            ups_nu=base.ups_nu, ups_e=base.ups_e, ups_u=base.ups_u,
            ups_d=base.ups_d, ups_r=base.ups_r,
            omega=0j if zeroed == "omega" else base.omega,
            delta=0.0 if zeroed == "delta" else base.delta)
        grading = "nonstandard" if zeroed == "omega" else "standard"
        t = _triple_for(params, grading=grading)
        d = morita.Derived(t)
        cl = d.clifford_odd
        opp = morita.opposite_span(t)
        for even in (False, True):
            v = morita.property_m(d, even=even)
            assert v.holds is False
            w = v.witness
            assert w is not None
            assert linalg.hs_norm(w) == pytest.approx(1.0, abs=1e-9)
            basis = [*oracles.closure_span(cl).matrices] + (
                [np.asarray(t.grading)] if even else [])
            assert max(linalg.hs_norm(w @ b - b @ w) for b in basis) <= 1e-10
            assert opp.residual(w) >= 0.9
    _line(5, "vanishing mixing coupling breaks the Morita property with a "
             "certified commutant witness outside the opposite algebra")


def test_criterion_06_one_form_generators(draws):
    for params in draws:
        for dirac in ("CC", "CC_plus_Gamma"):
            t = _triple_for(params, grading="none", dirac=dirac)
            d = morita.Derived(t)
            om = d.one_forms
            alg = d.algebra_span.matrices
            gens = catalog.one_form_generators(params, dirac)
            mats = []
            for g in gens + [g.conj().T for g in gens]:
                for a in alg:
                    for b in alg:
                        mats.append(a @ g @ b)
            named = subspaces.span_of(mats)
            assert subspaces.equals(om, named)
    _line(6, "one-form module equals the named-generator bimodule for both "
             "Dirac families, 5 draws")


def test_criterion_07_first_order_dichotomy(draws):
    for params in draws:
        t = _triple_for(params, grading="none", dirac="CC_plus_Gamma")
        assert triple.first_order_violation(t) <= 1e-12
        t = _triple_for(params, grading="none", dirac="CC")
        assert triple.first_order_violation(t) <= 1e-12
        ps = _triple_for(params, algebra="A_ev", grading="standard", dirac="CC")
        assert triple.first_order_violation(ps) >= 0.1
    _line(7, "first-order condition holds for the default algebra family "
             "(<= 1e-12) and fails for Pati-Salam (>= 0.1)")


def test_criterion_08_irreducibility(draws):
    params = draws[0]
    t1 = _triple_for(params)
    v1 = morita.irreducible(morita.Derived(t1))
    assert v1.irreducible and v1.commutant_dim_real == 1
    t2 = _triple_for(params, grading="none", dirac="CC_plus_Gamma")
    v2 = morita.irreducible(morita.Derived(t2))
    assert v2.irreducible and v2.commutant_dim_real == 1
    nodal = catalog.DiracParams(
        ups_nu=params.ups_nu, ups_e=params.ups_e, ups_u=params.ups_u,
        ups_d=params.ups_d, ups_r=params.ups_r, omega=params.omega, delta=0.0)
    t3 = _triple_for(nodal, grading="standard")
    v3 = morita.irreducible(morita.Derived(t3))
    assert not v3.irreducible
    assert v3.commutant_dim_real >= 2
    p = catalog.lepton_projection()
    w = v3.witness
    assert linalg.hs_norm(w - (np.eye(32) - p)) <= 1e-9
    _line(8, "theorem triples have trivial real commutant; removing the "
             "lepton-quark mixing yields the complement of the lepton projection")


def test_criterion_09_gauge_identities():
    eye = np.eye(32)
    scale = np.sqrt(32.0)
    for el in catalog.z6_elements():
        assert linalg.hs_norm(catalog.pi_sm(el) - eye) / scale <= 1e-12
    rng = random.Random(0x96E)
    for _ in range(10):
        theta = 0.05 + 0.4 * rng.random()
        lam = np.exp(1j * theta)
        op = catalog.pi_sm(catalog.GroupElement(
            lam, np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
        from fintriple import layout
        for r in range(1, 9):
            for c in range(1, 5):
                idx = layout.slot_index(r, c)
                expected = int(layout.HYPERCHARGE_EXPONENTS[r - 1][c - 1])
                assert int(round(float(np.angle(op[idx, idx])) / theta)) == expected
    for _ in range(20):
        u = oracles.random_group_element(rng)
        v = oracles.random_group_element(rng)
        ru = oracles.rho_degenerate(u)
        rv = oracles.rho_degenerate(v)
        uv = catalog.GroupElement(u.phase * v.phase, u.weak @ v.weak,
                                  u.color @ v.color)
        assert linalg.hs_norm(ru @ rv - oracles.rho_degenerate(uv)) / scale <= 1e-12
        assert linalg.hs_norm(ru @ ru.conj().T - eye) / scale <= 1e-12
    _line(9, "central kernel, hypercharge table, and the adjoint "
             "representation identities all hold")


def test_criterion_10_unitalization():
    alg = star_algebra.star_closure(catalog.algebra_bf_generators())
    assert alg.dim == 14
    grown = star_algebra.unitalize(alg)
    assert grown.dim == 15
    target = subspaces.span_of(catalog.algebra_af_generators())
    assert subspaces.equals(oracles.closure_span(grown), target)
    _line(10, "degenerate representation unitalizes onto the default "
              "algebra span (14 -> 15)")


def _random_block_gens(rng, n):
    blocks = []
    remaining = n
    while remaining > 0:
        size = int(rng.integers(1, min(3, remaining) + 1))
        mult = int(rng.integers(1, remaining // size + 1))
        blocks.append((size, mult))
        remaining -= size * mult
    shift = np.zeros((n, n), dtype=complex)
    diag = np.zeros((n, n), dtype=complex)
    offset = 0
    value = 1.0
    for size, mult in blocks:
        s_block = np.roll(np.eye(size, dtype=complex), 1, axis=0)
        d_block = np.diag(np.arange(value, value + size).astype(complex))
        value += size
        for _ in range(mult):
            shift[offset:offset + size, offset:offset + size] = s_block
            diag[offset:offset + size, offset:offset + size] = d_block
            offset += size
    return [shift, diag, np.eye(n, dtype=complex)]


def test_criterion_11_property_suite(af_commutant, af_opposite_commutant,
                                     thm1_triple):
    rng = np.random.default_rng(0x5013E)
    # bicommutant identity and closure idempotence, 100 randomized algebras
    for _ in range(100):
        gens = _random_block_gens(rng, 8)
        span = oracles.closure_span(star_algebra.star_closure(gens))
        double = subspaces.commutant(subspaces.commutant(span))
        assert subspaces.equals(double, span)
        again = star_algebra.star_closure(span.matrices)
        assert subspaces.equals(oracles.closure_span(again), span)

    # complement commutator property, 100 randomized pairs
    span = subspaces.span_of(catalog.algebra_af_generators())
    comp = oracles.complement(span)
    for _ in range(100):
        cv = rng.standard_normal(span.dim) + 1j * rng.standard_normal(span.dim)
        cw = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
        v = linalg.unvec(cv @ span.flat, 32, 32)
        w = linalg.unvec(cw @ comp.flat, 32, 32)
        bracket = v @ w - w @ v
        assert (linalg.hs_norm(span.project(bracket))
                <= 1e-9 * max(linalg.hs_norm(bracket), 1.0))

    # decomposition round-trip, 100 randomized first-order operators
    flats = (af_opposite_commutant.flat, af_commutant.flat)
    j = thm1_triple.real_structure
    for k in range(100):
        parts = []
        for flat in flats:
            c = rng.standard_normal(flat.shape[0]) + 1j * rng.standard_normal(flat.shape[0])
            m = linalg.unvec(c @ flat, 32, 32)
            parts.append(0.5 * (m + m.conj().T))
        if k % 2 == 0:
            d = parts[0] + parts[1]
        else:
            d = parts[0] + j.conjugate_operator(parts[0])
        t = triple.FiniteTriple(
            algebra_gens=thm1_triple.algebra_gens,
            opposite_gens=thm1_triple.opposite_gens,
            dirac=d, real_structure=j)
        dec = triple.decompose_dirac(t, algebra_commutant=af_commutant,
                                     opposite_commutant=af_opposite_commutant)
        scale = max(linalg.hs_norm(d), 1.0)
        assert dec.residual <= 1e-9 * scale
        assert af_opposite_commutant.contains(dec.free_part)
        assert af_commutant.contains(dec.commuting_part)
        if k % 2 == 1:
            assert dec.j_residual is not None and dec.j_residual <= 1e-9 * scale
    _line(11, "bicommutant, complement, closure idempotence and "
              "decomposition round-trips, 100 randomized trials each")
