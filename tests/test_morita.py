import tracemalloc

import numpy as np
import pytest

from fintriple import catalog, config, linalg, morita, report, star_algebra, subspaces, triple

import oracles
from conftest import BASE, CONFIG_NAMES, ORIGINAL_CC, config_triple, draw_params


def _bimodule(gens, alg_basis):
    mats = []
    for g in list(gens) + [g.conj().T for g in gens]:
        for a in alg_basis:
            for b in alg_basis:
                mats.append(a @ g @ b)
    return subspaces.span_of(mats)


def test_one_forms_zero_dirac():
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="zero"))
    assert morita.Derived(t).one_forms.dim == 0


#: A_F with the nonstandard grading and the Majorana coupling alone.  Its
#: term commutes with every algebra generator, so Ω¹ = 0, the odd Clifford
#: algebra is the algebra's span (15) and its commutant is A′ (112).
MAJORANA_ONLY = """[algebra]
name = A_F
[grading]
kind = nonstandard
[dirac]
type = CC
ups_R = [1.4, -0.2]
"""


def _clifford_odd_dims(d):
    """(dim Ω¹, dim Cl_odd, dim Cl_odd′) of a morita.Derived."""
    return d.one_forms.dim, d.clifford_odd.dim, morita.property_m(d).commutant_dim


@pytest.mark.parametrize("tol", ["1e-6", "1e-9", "1e-12", "1e-13"])
def test_majorana_only_config_has_no_one_forms(tol):
    # its forms [D, b] over the algebra basis are round-off (up to 2.4e-16);
    # like the first-order check, one_forms reads them as zero
    rep = report.run_all(config.parse_config(MAJORANA_ONLY + f"[run]\ntol = {tol}\n"))
    assert rep.check("one_forms").dims["one_forms"] == 0
    dims = rep.check("property_m").dims
    assert (dims["clifford_odd"], dims["commutant_odd"]) == (15, 112)


def test_dirac_inside_the_algebra_commutant_has_no_one_forms(af_commutant):
    # D = X + X*, X a random element of A′, ||D|| = 1: every [D, a] is round-off
    rng = np.random.default_rng(12)
    c = rng.standard_normal(af_commutant.dim) + 1j * rng.standard_normal(af_commutant.dim)
    x = linalg.unvec(c @ af_commutant.flat, 32, 32)
    d = x + x.conj().T
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="custom", custom_matrix=d / linalg.hs_norm(d)))
    assert _clifford_odd_dims(morita.Derived(t)) == (0, 15, 112)


def test_rotated_majorana_only_triple_has_no_one_forms():
    # every operator of the triple, J's matrix included, conjugated by a
    # real orthogonal U: no entry of a generator or of D is exactly zero
    t = catalog.build_triple(config.parse_config(MAJORANA_ONLY))
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((32, 32)))

    def rotate(m):
        return u @ m @ u.T

    rotated = triple.FiniteTriple(
        algebra_gens=tuple(map(rotate, t.algebra_gens)),
        opposite_gens=tuple(map(rotate, t.opposite_gens)),
        dirac=rotate(t.dirac),
        real_structure=linalg.AntilinearOperator(rotate(t.real_structure.matrix)),
        grading=rotate(t.grading))
    assert _clifford_odd_dims(morita.Derived(rotated)) == (0, 15, 112)


def test_one_forms_named_generators(thm1_derived):
    om = thm1_derived.one_forms
    alg = thm1_derived.algebra_span.matrices
    named = _bimodule(catalog.one_form_generators(BASE, "CC"), alg)
    assert subspaces.equals(om, named)


def test_one_forms_named_generators_with_gamma(thm2_derived):
    om = thm2_derived.one_forms
    alg = thm2_derived.algebra_span.matrices
    named = _bimodule(catalog.one_form_generators(BASE, "CC_plus_Gamma"), alg)
    assert subspaces.equals(om, named)


def test_one_forms_traced_peak_on_pati_salam():
    # the products a [D, b] enter one basis element a at a time, on their
    # structural support, and are folded into R block by block; the dense
    # 576 x 1024 stack of all of them and its SVD peaked at 18.8 MB, their
    # stack and its normalized copy at 4.7 MB, the fold at 3.4 MB
    _, t = config_triple("pati_salam")
    span = morita.algebra_span(t)
    tracemalloc.start()
    try:
        om = morita.one_forms(t, span)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert om.dim == 64
    assert peak <= 6.9 * 2 ** 20


def _irreducibility_span(params):
    """The span of A, D and the grading of a Pati-Salam triple, whose
    commutant is C0 of the irreducibility check."""
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_ev", grading="standard", dirac="CC", params=params))
    extra = [x / np.linalg.norm(x) for x in (t.dirac, t.grading)]
    return subspaces.span_of([*t.algebra_gens, *extra])


def test_irreducibility_commutant_traced_peak_on_pati_salam():
    # these couplings leave C0 one component of 32 indices: a 1024 x 72
    # unit-commutator system, which held whole with LAPACK's copy peaked
    # at 3.4 MB; emitted a few matrix rows at a time into the fold, 1.9 MB
    span = _irreducibility_span(draw_params(np.random.default_rng(2), delta=0.0))
    tracemalloc.start()
    try:
        c0 = subspaces.commutant(span)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c0.dim == 10 and len(c0.blocks[1]) == 1
    assert peak <= 3.9 * 2 ** 20


def test_tall_rank_decisions_hold_at_most_twice_their_width(monkeypatch):
    # every QR behind C0's solve and Ω¹ folds at most 2n rows for n
    # columns: neither the 1024-row system nor the 399 product rows is
    # stacked whole (matrices held whole elsewhere, such as the tall
    # systems of intersect, keep their one QR)
    shapes = []
    qr = np.linalg.qr

    def recorded(a, mode="reduced"):
        shapes.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    span = _irreducibility_span(draw_params(np.random.default_rng(2), delta=0.0))
    subspaces.commutant(span)
    _, t = config_triple("pati_salam")
    morita.one_forms(t, morita.algebra_span(t))
    assert (144, 72) in shapes and (256, 128) in shapes
    assert all(m <= 2 * n for m, n in shapes)


def test_clifford_closures_traced_memory_on_thm1():
    # each closure is held as its seed, its commutant and the block data,
    # with no second solve; holding both bicommutant bases and their solves
    # took 3.8 MB held and 5.8 MB at the peak
    cfg, t = config_triple("thm1")
    d = morita.Derived(t, cfg.tol)
    d.algebra_span, d.one_forms
    tracemalloc.start()
    try:
        odd, even = d.clifford_odd, d.clifford_even
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (odd.dim, even.dim) == (96, 112)
    assert held <= 2.5 * 2 ** 20
    assert peak <= 4.5 * 2 ** 20


def test_algebra_commutant_traced_peak_on_thm1():
    # each component's u_Q Z_Q u_Q* is written into the one (112, 32, 32)
    # result; the full-width z_full stack and its conjugation peaked at
    # 7.9 MB
    cfg, t = config_triple("thm1")
    d = morita.Derived(t, cfg.tol)
    d.algebra_span
    tracemalloc.start()
    try:
        comm = d.algebra_commutant
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert comm.dim == 112
    assert peak <= 4 * 2 ** 20


def test_one_forms_two_sided_module(thm2_derived):
    rng = np.random.default_rng(61)
    om = thm2_derived.one_forms
    alg = thm2_derived.algebra_span.matrices
    oms = om.matrices
    for _ in range(10):
        a = alg[rng.integers(len(alg))]
        b = alg[rng.integers(len(alg))]
        w = oms[rng.integers(len(oms))]
        product = a @ w @ b
        assert om.residual(product) <= 1e-9 * max(linalg.hs_norm(product), 1.0)


def test_clifford_zero_dirac_full_matrix_algebra():
    # with a trivial Dirac operator the odd Clifford algebra is the algebra
    shift = np.roll(np.eye(8, dtype=complex), 1, axis=0)
    diag = np.diag(np.arange(1, 9).astype(complex))
    t = triple.FiniteTriple(
        algebra_gens=(shift, diag), opposite_gens=(np.eye(8, dtype=complex),),
        dirac=np.zeros((8, 8), dtype=complex),
        real_structure=linalg.AntilinearOperator(np.eye(8)))
    cl = morita.Derived(t).clifford_odd
    assert cl.dim == 64


def test_clifford_even_requires_grading(thm2_triple):
    with pytest.raises(ValueError):
        morita.clifford(morita.Derived(thm2_triple), even=True)


def test_theorem_grading_separates_cliffords(thm1_triple, thm1_derived):
    thm1_clifford, even = thm1_derived.clifford_odd, thm1_derived.clifford_even
    assert thm1_clifford.dim == 96
    assert even.dim == 112
    odd_span, even_span = oracles.closure_span(thm1_clifford), oracles.closure_span(even)
    assert not odd_span.contains(thm1_triple.grading)
    assert even_span.contains(thm1_triple.grading)
    for b in odd_span.matrices:
        assert even_span.contains(b)


def test_gamma_inside_odd_clifford_with_extra_coupling(thm2_clifford):
    span = oracles.closure_span(thm2_clifford)
    assert span.contains(catalog.grading("standard"))
    assert span.contains(catalog.grading("nonstandard"))


def test_property_m_theorem_even_case(thm1_derived):
    odd = morita.property_m(thm1_derived)
    even = morita.property_m(thm1_derived, even=True)
    assert not odd.holds
    assert odd.commutant_dim == 19
    assert even.holds
    assert even.commutant_dim == 15
    assert odd.opposite_dim == even.opposite_dim == 15
    assert even.clifford_dim == 112
    # only the failing odd side has a witness
    assert odd.witness is not None and even.witness is None


def test_property_m_agrees_with_the_commutant_of_the_closure_span(thm1_derived):
    # property_m reads the commutant each closure was read off; a second
    # solve from the closure's span finds the same space and verdict
    odd, even = morita.property_m(thm1_derived), morita.property_m(thm1_derived, even=True)
    for cl, verdict in ((thm1_derived.clifford_odd, odd), (thm1_derived.clifford_even, even)):
        solved = subspaces.commutant(oracles.closure_span(cl))
        assert subspaces.equals(cl.commutant, solved)
        assert verdict.commutant_dim == solved.dim
        assert verdict.holds == subspaces.equals(solved, thm1_derived.opposite_span)
    assert not odd.holds
    assert odd.commutant_dim == 19
    assert even.holds
    assert even.commutant_dim == 15
    assert even.clifford_dim == 112


def test_even_clifford_dim_is_the_bicommutant_dim(thm1_derived):
    cl_even = thm1_derived.clifford_even
    v = morita.property_m(thm1_derived, even=True)
    double = subspaces.commutant(subspaces.commutant(oracles.closure_span(cl_even)))
    assert v.clifford_dim == double.dim == 112


def test_even_clifford_dim_of_a_non_unital_closure(thm1_triple, thm1_clifford):
    # the closure of a projection P != 1 is C P, its double commutant C P + C 1
    p = np.diag(np.r_[np.ones(16), np.zeros(16)]).astype(complex)
    closure = star_algebra.star_closure([p])
    assert closure.dim == 1 and not closure.unital
    double = subspaces.commutant(subspaces.commutant(subspaces.span_of([p])))
    d = morita.Derived(thm1_triple)
    d.clifford_odd = thm1_clifford
    d.clifford_even = closure
    v = morita.property_m(d, even=True)
    assert v.clifford_dim == double.dim == 2


def test_property_m_commutant_matches_block_form(thm1_clifford):
    comm = subspaces.commutant(oracles.closure_span(thm1_clifford))
    oracle = subspaces.span_of(oracles.clifford_commutant_19_basis())
    assert subspaces.equals(comm, oracle)


def test_property_m_theorem_odd_case(thm2_derived):
    v = morita.property_m(thm2_derived)
    assert v.holds
    assert v.commutant_dim == 15
    assert v.witness is None


def test_property_m_negative_controls(original_cc_triple):
    d = morita.Derived(original_cc_triple)
    odd, even = morita.property_m(d), morita.property_m(d, even=True)
    assert not odd.holds
    assert not even.holds
    assert odd.witness is not None and even.witness is not None


def test_property_m_even_requires_a_grading(thm2_derived):
    with pytest.raises(ValueError):
        morita.property_m(thm2_derived, even=True)


def test_property_m_requires_order_conditions(pati_salam_triple):
    with pytest.raises(triple.OrderConditionError):
        morita.property_m(morita.Derived(pati_salam_triple))


def test_property_m_scale_invariance(thm1_triple):
    scaled = triple.FiniteTriple(
        algebra_gens=thm1_triple.algebra_gens,
        opposite_gens=thm1_triple.opposite_gens,
        dirac=3.7 * thm1_triple.dirac,
        real_structure=thm1_triple.real_structure,
        grading=thm1_triple.grading)
    d = morita.Derived(scaled)
    odd, even = morita.property_m(d), morita.property_m(d, even=True)
    assert not odd.holds
    assert even.holds
    assert (odd.commutant_dim, even.commutant_dim) == (19, 15)


def test_opposite_always_inside_clifford_commutant(thm1_triple, thm1_clifford):
    comm = subspaces.commutant(oracles.closure_span(thm1_clifford))
    opp = morita.opposite_span(thm1_triple)
    assert all(comm.contains(b) for b in opp.matrices)


def test_clifford_bicommutant(thm1_clifford):
    span = oracles.closure_span(thm1_clifford)
    double = subspaces.commutant(subspaces.commutant(span))
    assert subspaces.equals(double, span)


def test_lemma_consequence_equalities(thm2_triple, thm2_clifford):
    # with the Morita property, A cap B = Z(A) cap Z(B) = A' cap B'
    opp = morita.opposite_span(thm2_triple)
    cl_space = oracles.closure_span(thm2_clifford)
    a_cap_b = subspaces.intersect(cl_space, opp)
    comm_a = subspaces.commutant(cl_space)
    comm_b = subspaces.commutant(opp)
    za = star_algebra.center(cl_space, thm2_clifford.commutant)
    zb = star_algebra.center(opp, comm_b)
    z_cap = subspaces.intersect(za, zb)
    c_cap = subspaces.intersect(comm_a, comm_b)
    assert subspaces.equals(a_cap_b, z_cap)
    assert subspaces.equals(z_cap, c_cap)


def test_replacing_commuting_part_preserves_clifford(thm1_triple, thm1_clifford):
    # swapping the algebra-commutant component for the conjugated free part
    # changes neither the one-forms nor the Clifford algebra
    rng = np.random.default_rng(67)
    j = thm1_triple.real_structure
    d0 = catalog.dirac_free_part(BASE, "CC")
    comm = subspaces.commutant(subspaces.span_of(thm1_triple.algebra_gens))
    c = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
    d1 = linalg.unvec(c @ comm.flat, 32, 32)
    d1 = 0.5 * (d1 + d1.conj().T)
    modified = triple.FiniteTriple(
        algebra_gens=thm1_triple.algebra_gens,
        opposite_gens=thm1_triple.opposite_gens,
        dirac=d0 + d1,
        real_structure=j, grading=thm1_triple.grading)
    derived = morita.Derived(modified)
    om_modified = derived.one_forms
    om_original = morita.Derived(thm1_triple).one_forms
    assert subspaces.equals(om_modified, om_original)
    cl_modified = derived.clifford_odd
    assert subspaces.equals(oracles.closure_span(cl_modified), oracles.closure_span(thm1_clifford))


def test_obstruction_standard_grading_witness(original_cc_triple):
    # x commutes with the algebra and the Dirac free part
    x = catalog.witness_catalog()["e55_e23"]
    targets = [*original_cc_triple.algebra_gens,
               catalog.dirac_free_part(ORIGINAL_CC, "CC")]
    assert morita.obstruction_check(x, targets, original_cc_triple.grading)


def _assert_morita_failure_witness(t, x):
    """x commutes with the even Clifford generators and the grading but lies
    outside the opposite algebra (non-membership, with a quantitative
    floor): a hand witness that the Morita property with grading fails."""
    cl = morita.Derived(t).clifford_odd
    basis = [*oracles.closure_span(cl).matrices, np.asarray(t.grading)]
    assert max(linalg.hs_norm(x @ b - b @ x) for b in basis) <= 1e-10
    opp = morita.opposite_span(t)
    assert not opp.contains(x)
    assert opp.residual(x) >= 0.5 * linalg.hs_norm(x)


def test_vanishing_delta_hand_witness_nonstandard():
    # with the lepton-quark mixing removed, the antilepton down-type-right
    # slot projector certifies the failure (nonstandard grading)
    params = catalog.DiracParams(
        ups_nu=BASE.ups_nu, ups_e=BASE.ups_e, ups_u=BASE.ups_u,
        ups_d=BASE.ups_d, ups_r=BASE.ups_r, omega=BASE.omega, delta=0.0)
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="nonstandard", dirac="CC", params=params))
    x = linalg.kron_action(oracles._unit8(5, 5), oracles._unit4(2, 2))
    _assert_morita_failure_witness(t, x)


def test_vanishing_omega_hand_witness_nonstandard():
    # with the right-lepton/antilepton mixing removed, the particle lepton
    # column projector certifies the failure
    params = catalog.DiracParams(
        ups_nu=BASE.ups_nu, ups_e=BASE.ups_e, ups_u=BASE.ups_u,
        ups_d=BASE.ups_d, ups_r=BASE.ups_r, omega=0j, delta=BASE.delta)
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="nonstandard", dirac="CC", params=params))
    p_up = sum(oracles._unit8(i, i) for i in range(1, 5))
    x = linalg.kron_action(p_up, oracles._unit4(1, 1))
    _assert_morita_failure_witness(t, x)


def test_vanishing_couplings_standard_hand_witness(original_cc_triple):
    # for the standard grading the antilepton block projector works even
    # with every mixing term present in the family pattern
    x = catalog.witness_catalog()["e55_block"]
    _assert_morita_failure_witness(original_cc_triple, x)


def test_obstruction_zero_couplings():
    params = catalog.DiracParams(ups_nu=0j, ups_e=1.5, ups_u=2.0, ups_d=0.5,
                                 ups_r=1.0, omega=0j, delta=0.0)
    x = catalog.witness_catalog()["e15_e11"]
    for grading in ("standard", "nonstandard"):
        t = catalog.build_triple(catalog.TripleConfig(
            algebra="A_F", grading=grading, dirac="CC", params=params))
        targets = [*t.algebra_gens, *t.opposite_gens,
                   catalog.dirac_free_part(params, "CC")]
        assert morita.obstruction_check(x, targets, t.grading)


def test_obstruction_zero_chain(thm1_triple, original_cc_triple):
    x = catalog.witness_catalog()["e15_e11"]
    for t in (thm1_triple, original_cc_triple):
        assert morita.obstruction_check(x, [*t.algebra_gens, *t.opposite_gens],
                                        t.grading)


@pytest.mark.parametrize("excess, holds", [(1 + 1e-3, False), (1 - 1e-3, True)])
def test_obstruction_scales_each_target_by_its_norm(excess, holds):
    # x swaps the two eigenspaces of the grading; the target, of norm 3,
    # fails to commute with it by excess * tol * 3 * ||x||
    tol = 1e-9
    grading = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    x = np.zeros((4, 4), dtype=complex)
    x[0, 2] = x[2, 0] = x[1, 3] = x[3, 1] = 1.0
    q = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex) / np.sqrt(2)  # ||[x, q]|| = sqrt 2
    b = excess * tol * 3 * linalg.hs_norm(x) / np.sqrt(2)
    target = np.sqrt(9 - b ** 2) * np.eye(4) / 2 + b * q
    assert linalg.hs_norm(target) == pytest.approx(3, rel=1e-12)
    assert morita.obstruction_check(x, [np.eye(4), target], grading, tol=tol) is holds


def test_obstruction_identity_fails(thm1_triple):
    t = thm1_triple
    assert not morita.obstruction_check(np.eye(32, dtype=complex),
                                        [*t.algebra_gens, *t.opposite_gens], t.grading)


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_orthogonal_witness_is_basis_independent():
    # The witness depends on the commutant and the opposite algebra only:
    # re-expressing either in another orthonormal basis must not move it.
    rng = np.random.default_rng(11)
    n = 4

    def rand():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    opp_mats = [np.eye(n, dtype=complex), rand(), rand()]
    opposite = subspaces.span_of(opp_mats)
    comm = subspaces.span_of(opp_mats + [rand(), rand(), rand()])
    w = morita._orthogonal_witness(comm, opposite)
    for _ in range(3):
        comm_rot = subspaces.OperatorSubspace(
            _random_unitary(rng, comm.dim) @ comm.flat, n)
        opp_rot = subspaces.OperatorSubspace(
            _random_unitary(rng, opposite.dim) @ opposite.flat, n)
        w_rot = morita._orthogonal_witness(comm_rot, opp_rot)
        np.testing.assert_allclose(w_rot, w, rtol=0, atol=1e-12)
        assert (report._describe_operator(w_rot, 1e-12)
                == report._describe_operator(w, 1e-12))
    assert linalg.hs_norm(w) == pytest.approx(1.0, abs=1e-12)
    assert comm.contains(w)
    assert opposite.residual(w) == pytest.approx(1.0, abs=1e-12)
    top = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    assert w[top].real > 0 and abs(w[top].imag) <= 1e-15


_FLAT_DIAGONAL = 0.5 * np.kron(np.eye(2), np.ones((2, 2)))
_IMAGINARY_PAIR = np.kron(np.eye(2), np.array([[0, -1j], [1j, 0]]))


def _vec_rows(mats):
    return np.array([linalg.vec(m) for m in mats])


@pytest.mark.parametrize("basis, expected", [
    # E_00 has a nonzero projection: the side that excludes slot 0 is chosen
    ([np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 0.0])],
     np.diag([0.0, 0.0, 1.0, 1.0])),
    # a flat diagonal: every E_kk probe projects onto the identity, so the
    # off-diagonal matrix units pick the element instead
    ([np.eye(4), _FLAT_DIAGONAL], np.eye(4) - _FLAT_DIAGONAL),
    # an imaginary antisymmetric element: only the i (E_f - E_f^T)/2 probes
    # reach it, and E_10 picks Y ⊕ Y, whose lowest cluster is its -1 side
    ([np.eye(4), _IMAGINARY_PAIR], 0.5 * (np.eye(4) - _IMAGINARY_PAIR)),
])
def test_reducing_projection_is_basis_independent(basis, expected):
    rng = np.random.default_rng(12)
    n = 4
    basis = [m.astype(complex) for m in basis]
    proj = morita._reducing_projection(_vec_rows(basis), n, 1e-9)
    np.testing.assert_allclose(proj, expected, rtol=0, atol=1e-12)
    for _ in range(3):
        q, _r = np.linalg.qr(rng.normal(size=(len(basis), len(basis))))
        rotated = [sum(c * m for c, m in zip(row, basis)) for row in q]
        proj_rot = morita._reducing_projection(_vec_rows(rotated), n, 1e-9)
        np.testing.assert_allclose(proj_rot, proj, rtol=0, atol=1e-12)
        assert (report._describe_operator(proj_rot, 1e-12)
                == report._describe_operator(proj, 1e-12))


def test_reducing_projection_identity_only():
    assert morita._reducing_projection(_vec_rows([np.eye(4, dtype=complex)]), 4, 1e-9) is None


def test_irreducibility_theorems(thm1_triple, thm2_triple):
    for t in (thm1_triple, thm2_triple):
        v = morita.irreducible(morita.Derived(t))
        assert v.irreducible
        assert v.commutant_dim_real == 1
        assert v.witness is None


def test_reducibility_without_lepton_quark_mixing(original_cc_triple):
    v = morita.irreducible(morita.Derived(original_cc_triple))
    assert not v.irreducible
    assert v.commutant_dim_real >= 2
    p = catalog.lepton_projection()
    w = v.witness
    assert w is not None
    np.testing.assert_allclose(w @ w, w, atol=1e-10)
    # the canonical side is the one that excludes slot 0, which p contains
    assert linalg.hs_norm(w - (np.eye(32) - p)) <= 1e-9
    # the extracted projection commutes with the full triple data
    for g in original_cc_triple.algebra_gens:
        assert linalg.hs_norm(w @ g - g @ w) <= 1e-9
    assert linalg.hs_norm(
        w @ original_cc_triple.dirac - original_cc_triple.dirac @ w) <= 1e-9
    assert original_cc_triple.real_structure.commutation_residual(w) <= 1e-9


def test_pati_salam_full_triple_irreducible(pati_salam_triple):
    v = morita.irreducible(morita.Derived(pati_salam_triple))
    assert v.irreducible
    assert v.commutant_dim_real == 1


def _pati_salam_without_dirac(pati_salam_triple):
    """Pati-Salam algebra and real structure with no Dirac operator or grading."""
    return triple.FiniteTriple(
        algebra_gens=pati_salam_triple.algebra_gens,
        opposite_gens=pati_salam_triple.opposite_gens,
        dirac=np.zeros((32, 32), dtype=complex),
        real_structure=pati_salam_triple.real_structure)


def test_pati_salam_chirality_reduces_algebra_with_real_structure(pati_salam_triple):
    # With only the algebra and the real structure constraining it, the
    # projection onto the right-handed sector (particle rows 1-2 and
    # antiparticle right-handed columns) is a nontrivial commuting
    # projection, so this reduced data set is NOT irreducible; the Dirac
    # operator is what removes it (see the full-triple test above).
    t = _pati_salam_without_dirac(pati_salam_triple)
    v = morita.irreducible(morita.Derived(t))
    assert not v.irreducible
    assert v.commutant_dim_real == 4
    assert v.selfadjoint_dim == 2
    chirality = (linalg.kron_action(np.diag([1, 1, 0, 0, 0, 0, 0, 0]).astype(complex),
                                    np.eye(4, dtype=complex))
                 + linalg.kron_action(np.diag([0, 0, 0, 0, 1, 1, 1, 1]).astype(complex),
                                      np.diag([1, 1, 0, 0]).astype(complex)))
    w = v.witness
    # the canonical side is the one that excludes slot 0, which chirality contains
    assert linalg.hs_norm(w - (np.eye(32) - chirality)) <= 1e-9
    # double-check the witness properties independently
    np.testing.assert_allclose(w @ w, w, atol=1e-10)
    assert max(linalg.hs_norm(w @ g - g @ w)
               for g in pati_salam_triple.algebra_gens) <= 1e-10
    assert pati_salam_triple.real_structure.commutation_residual(w) <= 1e-10


def test_weak_orientability():
    # every zero-chain is a cycle, so membership of the grading in the
    # Pati-Salam algebra plus its conjugate is weak orientability
    gens = catalog.algebra_aev_generators()
    opp = triple.opposite_generators(gens, catalog.real_structure())
    assert morita.zero_chain_membership(catalog.grading("standard"), gens, opp)
    assert not morita.zero_chain_membership(catalog.grading("nonstandard"), gens, opp)


def test_zero_chain_membership_witness():
    gens = catalog.algebra_aev_generators()
    j = catalog.real_structure()
    opp = [j.conjugate_operator(g) for g in gens]
    x = catalog.witness_catalog()["e15_e11"]
    assert not morita.zero_chain_membership(x, gens, opp)


def test_zero_chain_grading_fails_for_default_algebra(thm1_triple):
    for kind in ("standard", "nonstandard"):
        assert not morita.zero_chain_membership(
            catalog.grading(kind), thm1_triple.algebra_gens,
            thm1_triple.opposite_gens)


@pytest.mark.parametrize("name", ["original_cc_triple", "pati_salam_triple",
                                  "pati_salam_without_dirac"])
def test_real_commutant_with_j_matches_dense_oracle(name, request):
    # the dense oracle solves for the real commutant R over R; morita reaches
    # it as the J-fixed real form of the complex space M
    if name == "pati_salam_without_dirac":
        t = _pati_salam_without_dirac(request.getfixturevalue("pati_salam_triple"))
    else:
        t = request.getfixturevalue(name)
    extra = [op for op in (t.dirac, t.grading) if op is not None]
    k = t.real_structure.matrix
    m = morita._complexified_real_commutant(t, 1e-9)
    dense = oracles.dense_real_commutant_with_j(t.algebra_gens, extra, k, t.n)
    assert dense.shape[0] == m.dim
    assert subspaces.equals(subspaces.OperatorSubspace(linalg.orthonormal_rows(dense), t.n), m)
    assert max(t.real_structure.commutation_residual(linalg.unvec(row, t.n, t.n))
               for row in dense) <= 1e-9
    # the Hermitian part of R has the real dimension selfadjoint_dim counts
    mats = dense.reshape(-1, t.n, t.n)
    herm = 0.5 * (mats + mats.conj().transpose(0, 2, 1)).reshape(-1, t.n * t.n)
    v = morita.irreducible(morita.Derived(t))
    assert (v.commutant_dim_real, v.selfadjoint_dim) == (m.dim, oracles.real_rank(herm))


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_commutants_solved_from_scratch_nest(name):
    # A' ⊇ C_odd ⊇ C_even and A' ⊇ C0: each is solved from its own
    # generators, and the larger generator set has the smaller commutant
    cfg, t = config_triple(name)
    tol = cfg.tol
    d = morita.Derived(t, tol)
    alg = d.algebra_commutant
    odd = d.clifford_odd.commutant
    assert alg.contains_rows(odd.flat)
    if t.grading is not None:
        even = d.clifford_even.commutant
        assert odd.contains_rows(even.flat)
    extra = [t.dirac] + ([] if t.grading is None else [t.grading])
    c0 = subspaces.commutant(subspaces.span_of([*t.algebra_gens, *triple._normalized(extra)],
                                               tol=tol))
    assert alg.contains_rows(c0.flat)
