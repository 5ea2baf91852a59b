import random

import numpy as np
import pytest

from fintriple import catalog, layout, linalg, subspaces, triple

import oracles


def test_golden_real_structure():
    k = catalog.real_structure().matrix
    np.testing.assert_allclose(k, oracles.expected_real_structure())
    np.testing.assert_allclose(k @ k, np.eye(32), atol=0)


def test_real_structure_is_built_once_and_read_only():
    j = catalog.real_structure()
    assert catalog.real_structure() is j
    with pytest.raises(ValueError):
        j.matrix[0, 0] = 1.0


def test_golden_gradings():
    np.testing.assert_allclose(
        catalog.grading("standard"),
        oracles.expected_grading(oracles.STANDARD_SIGNS))
    np.testing.assert_allclose(
        catalog.grading("nonstandard"),
        oracles.expected_grading(oracles.NONSTANDARD_SIGNS))
    with pytest.raises(ValueError):
        catalog.grading("other")


def test_golden_dirac_free_part_fixture():
    d0 = catalog.dirac_free_part(catalog.FIXTURE_PARAMS, "CC_plus_Gamma")
    np.testing.assert_allclose(d0, oracles.expected_dirac_free_part_fixture(),
                               atol=0)
    d_r = catalog.dirac_majorana_term(catalog.FIXTURE_PARAMS.ups_r)
    np.testing.assert_allclose(d_r, oracles.expected_majorana_fixture(), atol=0)


def test_standard_grading_traceless():
    assert np.trace(catalog.grading("standard")) == pytest.approx(0.0)


def test_gradings_commute_with_algebra():
    gens = catalog.algebra_af_generators()
    for kind in ("standard", "nonstandard"):
        g = catalog.grading(kind)
        assert max(linalg.hs_norm(g @ a - a @ g) for a in gens) <= 1e-14


def test_gradings_lepton_quark_pattern():
    std = np.diag(catalog.grading("standard")).real
    non = np.diag(catalog.grading("nonstandard")).real
    for r in range(1, 9):
        for c in range(1, 5):
            idx = layout.slot_index(r, c)
            lepton = (r <= 4 and c == 1) or r == 5
            if lepton:
                assert std[idx] == non[idx]
            else:
                assert std[idx] == -non[idx]


def test_algebra_identity_element():
    a = catalog.algebra_af_element(1.0, np.eye(2), np.eye(3))
    np.testing.assert_allclose(a, np.eye(32))


def test_degenerate_representation_misses_identity():
    span = subspaces.span_of(catalog.algebra_bf_generators())
    assert not span.contains(np.eye(32))


def test_pati_salam_contains_identity():
    a = catalog.algebra_aev_element(np.eye(2), np.eye(2), np.eye(4))
    np.testing.assert_allclose(a, np.eye(32))
    assert subspaces.span_of(catalog.algebra_aev_generators()).contains(np.eye(32))


def test_zeroth_order_for_all_catalog_algebras():
    for algebra in ("A_F", "B_F", "A_ev"):
        grading = "standard" if algebra == "A_ev" else "none"
        t = catalog.build_triple(catalog.TripleConfig(
            algebra=algebra, grading=grading, dirac="zero"))
        assert triple.zeroth_order_violation(t) <= 1e-14


def test_real_structure_maps_left_neutrino():
    # the left-handed neutrino slot (3, 1) lands on the antiparticle slot (5, 3)
    j = catalog.real_structure()
    image = oracles.antilinear_apply(j, linalg.vec(oracles.state(3, 1)))
    expected = linalg.vec(oracles.state(5, 3))
    np.testing.assert_allclose(image, expected, atol=0)
    assert layout.PARTICLE_NAMES[4][2] == "nu_L~"


def test_build_dirac_zero_and_custom():
    z = catalog.build_dirac(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="zero"))
    assert linalg.hs_norm(z) == 0.0
    h = np.diag(np.arange(32).astype(complex))
    d = catalog.build_dirac(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="custom", custom_matrix=h))
    np.testing.assert_allclose(d, h)
    with pytest.raises(ValueError):
        catalog.build_dirac(catalog.TripleConfig(
            algebra="A_F", grading="none", dirac="custom",
            custom_matrix=1j * np.eye(32)))


def test_dirac_is_hermitian_and_j_commuting():
    params = catalog.FIXTURE_PARAMS
    cfg = catalog.TripleConfig(algebra="A_F", grading="none",
                               dirac="CC_plus_Gamma", params=params)
    d = catalog.build_dirac(cfg)
    np.testing.assert_allclose(d, d.conj().T)
    j = catalog.real_structure()
    assert j.commutation_residual(d) <= 1e-12


def test_dirac_grading_compatibility():
    # without the mixing entries both gradings anticommute with the free part
    plain = catalog.DiracParams(ups_nu=1, ups_e=2, ups_u=3, ups_d=4)
    d0 = catalog.dirac_free_part(plain, "CC")
    assert oracles.grading_compatible(d0, catalog.grading("standard"))
    assert oracles.grading_compatible(d0, catalog.grading("nonstandard"))
    # the lepton-quark mixing entry only fits the non-standard grading
    delta_term = catalog.dirac_free_part(catalog.DiracParams(delta=1.0), "CC")
    assert not oracles.grading_compatible(delta_term, catalog.grading("standard"))
    assert oracles.grading_compatible(delta_term, catalog.grading("nonstandard"))
    assert oracles.grading_compatible(np.zeros((32, 32)), catalog.grading("standard"))
    # the antilepton mixing entry fits both
    omega_term = catalog.dirac_free_part(catalog.DiracParams(omega=1.0), "CC")
    assert oracles.grading_compatible(omega_term, catalog.grading("standard"))
    assert oracles.grading_compatible(omega_term, catalog.grading("nonstandard"))
    # the gamma entry fits only the non-standard grading
    gamma_term = catalog.dirac_free_part(catalog.DiracParams(gamma=1.0),
                                         "CC_plus_Gamma")
    assert not oracles.grading_compatible(gamma_term, catalog.grading("standard"))
    assert oracles.grading_compatible(gamma_term, catalog.grading("nonstandard"))


def test_full_dirac_parity():
    # the assembled operator (free part, conjugate, Majorana term) is odd for
    # the gradings its free part is compatible with
    params = catalog.FIXTURE_PARAMS
    d = catalog.build_dirac(catalog.TripleConfig(
        algebra="A_F", grading="nonstandard", dirac="CC_plus_Gamma", params=params))
    g = catalog.grading("nonstandard")
    assert linalg.hs_norm(g @ d + d @ g) <= 1e-12


def test_sm_representation_kernel():
    eye = np.eye(32)
    for el in catalog.z6_elements():
        assert linalg.hs_norm(catalog.pi_sm(el) - eye) <= 1e-12


def test_sm_representation_identity():
    ident = catalog.GroupElement(1.0, np.eye(2, dtype=complex),
                                 np.eye(3, dtype=complex))
    np.testing.assert_allclose(catalog.pi_sm(ident), np.eye(32), atol=1e-14)


def test_sm_representation_forms_agree():
    rng = random.Random(13)
    for _ in range(10):
        g = oracles.random_group_element(rng, special=True)
        np.testing.assert_allclose(catalog.pi_sm(g), oracles.pi_sm_direct(g),
                                   atol=1e-12)


def test_sm_representation_rejects_non_unitary():
    bad = catalog.GroupElement(1.0, 2 * np.eye(2, dtype=complex),
                               np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        catalog.pi_sm(bad)
    with pytest.raises(ValueError):
        oracles.rho_degenerate(bad)


def test_hypercharge_exponents():
    rng = np.random.default_rng(19)
    for _ in range(10):
        theta = 0.05 + 0.4 * rng.random()
        lam = np.exp(1j * theta)
        op = catalog.pi_sm(catalog.GroupElement(
            lam, np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
        assert np.linalg.norm(op - np.diag(np.diag(op))) <= 1e-12
        for r in range(1, 9):
            for c in range(1, 5):
                idx = layout.slot_index(r, c)
                expected = int(layout.HYPERCHARGE_EXPONENTS[r - 1][c - 1])
                assert int(round(float(np.angle(op[idx, idx])) / theta)) == expected
                assert abs(op[idx, idx] - lam ** expected) <= 1e-12


def test_hypercharge_antiparticle_negation():
    table = layout.HYPERCHARGE_EXPONENTS
    # J maps slot (r, c) to (4 + c, r) on the particle sector
    for r in range(1, 5):
        for c in range(1, 5):
            assert table[4 + c - 1][r - 1] == -table[r - 1][c - 1]


def test_adjoint_representation_basics():
    rng = random.Random(29)
    eye = np.eye(32)
    ident = catalog.GroupElement(1.0, np.eye(2, dtype=complex),
                                 np.eye(3, dtype=complex))
    np.testing.assert_allclose(oracles.rho_degenerate(ident), eye, atol=1e-14)
    for _ in range(20):
        u = oracles.random_group_element(rng)
        ru = oracles.rho_degenerate(u)
        u_inv = catalog.GroupElement(np.conj(u.phase), u.weak.conj().T,
                                     u.color.conj().T)
        np.testing.assert_allclose(ru @ oracles.rho_degenerate(u_inv), eye,
                                   atol=1e-12)


def test_adjoint_representation_blocks_match_the_real_structure_form():
    # rho_degenerate_stack writes pibar0 + J pibar0 J^-1 + pi1 J pi1 J^-1
    # as two 8x8 (x) 4x4 terms; rebuild it from the pieces and J
    rng = random.Random(41)
    j = catalog.real_structure()
    e22 = layout.right_unit(2, 2)
    elements = [oracles.random_group_element(rng) for _ in range(6)]
    for g, rho in zip(elements, catalog.rho_degenerate_stack(elements)):
        b4 = np.zeros((4, 4), dtype=complex)
        b4[0, 0], b4[1:, 1:] = g.phase, g.color
        u4 = np.zeros((4, 4), dtype=complex)
        u4[0, 0], u4[2:, 2:] = g.phase, g.weak
        lower_b = np.zeros((8, 8), dtype=complex)
        lower_b[4:, 4:] = b4
        upper_u = np.zeros((8, 8), dtype=complex)
        upper_u[:4, :4] = u4
        pibar0 = linalg.kron_action(lower_b, e22)
        pi1 = (linalg.kron_action(upper_u, np.eye(4))
               + linalg.kron_action(lower_b, np.eye(4) - e22))
        expected = (pibar0 + j.conjugate_operator(pibar0)
                    + pi1 @ j.conjugate_operator(pi1))
        np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(oracles.rho_degenerate(g), rho, rtol=0, atol=0)


def test_adjoint_representation_covers_sm():
    rng = random.Random(37)
    eye = np.eye(32)
    for el in catalog.z6_elements():
        np.testing.assert_allclose(
            oracles.rho_degenerate(catalog.cover_map(el)), eye, atol=1e-12)
    for _ in range(5):
        g = oracles.random_group_element(rng, special=True)
        np.testing.assert_allclose(
            oracles.rho_degenerate(catalog.cover_map(g)), catalog.pi_sm(g),
            atol=1e-12)


def test_unimodularity_condition_cuts_out_gauge_subgroup():
    # elements with weak and color determinants both inverse to the phase
    # satisfy det = 1 in both representation blocks
    rng = random.Random(43)
    for _ in range(5):
        q = oracles.random_unitary(rng, 2)
        lam = 1.0 / np.linalg.det(q)
        m0 = oracles.random_unitary(rng, 3)
        m = m0 * (np.conj(lam) / np.linalg.det(m0)) ** (1.0 / 3.0)
        u = catalog.GroupElement(lam, q, m)
        assert u.unitarity_defect() <= 1e-12
        b4 = np.zeros((4, 4), dtype=complex)
        b4[0, 0] = u.phase
        b4[1:4, 1:4] = u.color
        u3 = np.zeros((3, 3), dtype=complex)
        u3[0, 0] = u.phase
        u3[1:3, 1:3] = u.weak
        assert abs(np.linalg.det(b4) - 1.0) <= 1e-12
        assert abs(np.linalg.det(u3) * np.linalg.det(b4) - 1.0) <= 1e-12
        rho = oracles.rho_degenerate(u)
        assert abs(np.linalg.det(rho) - 1.0) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 40])
def test_random_group_elements_match_sequential_draws_bit_for_bit(k):
    # the stacked draw keeps oracles.random_group_element's order of draws,
    # so the elements and the rest of the stream are the same
    seq_rng, stack_rng = random.Random(47), random.Random(47)
    sequential = [oracles.random_group_element(seq_rng) for _ in range(k)]
    stacked = catalog.random_group_elements(stack_rng, k)
    assert len(stacked) == k
    for a, b in zip(sequential, stacked):
        assert complex(a.phase) == complex(b.phase)
        assert a.weak.tobytes() == b.weak.tobytes()
        assert a.color.tobytes() == b.color.tobytes()
    assert seq_rng.random() == stack_rng.random()


def test_rho_degenerate_stack_rejects_one_non_unitary_element():
    elements = catalog.random_group_elements(random.Random(53), 5)
    g = elements[3]
    elements[3] = catalog.GroupElement(g.phase, g.weak, (1 + 1e-6) * g.color)
    with pytest.raises(ValueError, match="not unitary"):
        catalog.rho_degenerate_stack(elements)
    elements[3] = catalog.GroupElement(g.phase, g.weak, (1 + 1e-12) * g.color)
    assert catalog.rho_degenerate_stack(elements).shape == (5, 32, 32)


def test_random_unitary_is_reproducible_from_its_seed():
    # the draws come from random.Random, whose streams are fixed by the seed
    first = oracles.random_unitary(random.Random(7), 3)
    second = oracles.random_unitary(random.Random(7), 3)
    assert first.tobytes() == second.tobytes()
    np.testing.assert_allclose(first @ first.conj().T, np.eye(3), atol=1e-14)


def test_witness_omega_nu_matches_commutator():
    params = catalog.DiracParams(ups_nu=1.0, ups_u=2.0, ups_e=0.5, ups_d=0.7,
                                 ups_r=1.0, omega=0.3, delta=0.4)
    d = catalog.build_dirac(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="CC", params=params))
    x33 = linalg.kron_action(oracles._unit8(3, 3), np.eye(4, dtype=complex))
    omega_nu = catalog.one_form_generators(params, "CC")[0]
    np.testing.assert_allclose(-x33 @ (d @ x33 - x33 @ d), omega_nu, atol=1e-13)


def test_witness_zeta_matches_commutator():
    params = catalog.FIXTURE_PARAMS
    d = catalog.build_dirac(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="CC_plus_Gamma", params=params))
    z77 = linalg.kron_action(oracles._unit8(7, 7), np.eye(4, dtype=complex))
    zeta = catalog.witness_catalog(params)["zeta"]
    np.testing.assert_allclose((d @ z77 - z77 @ d) @ z77 / params.gamma, zeta,
                               atol=1e-13)


def test_lepton_projection_is_projection():
    p = catalog.lepton_projection()
    np.testing.assert_allclose(p @ p, p, atol=0)
    np.testing.assert_allclose(p, p.conj().T, atol=0)
    assert np.trace(p).real == pytest.approx(8.0)


def test_config_validation():
    with pytest.raises(ValueError):
        catalog.TripleConfig(algebra="A_ev", grading="nonstandard", dirac="zero")
    with pytest.raises(ValueError):
        catalog.TripleConfig(algebra="X_F", grading="none", dirac="zero")
    with pytest.raises(ValueError):
        catalog.TripleConfig(algebra="A_F", grading="none", dirac="custom")
    with pytest.raises(ValueError):
        catalog.DiracParams(ups_nu=np.nan)
