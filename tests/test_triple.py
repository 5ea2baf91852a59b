import ast
import dataclasses
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fintriple import catalog, linalg, morita, report, subspaces, triple

import oracles
from conftest import BASE, CONFIG_NAMES, config_triple


def test_zeroth_order_catalog_triples(thm1_triple, thm2_triple, pati_salam_triple):
    assert triple.zeroth_order_violation(thm1_triple) <= 1e-14
    assert triple.zeroth_order_violation(thm2_triple) <= 1e-14
    assert triple.zeroth_order_violation(pati_salam_triple) <= 1e-14


def test_zeroth_order_positive_for_noncommuting_pair():
    # the same non-central generators on both sides violate the condition
    x = np.zeros((32, 32), dtype=complex)
    x[0, 1] = 1.0
    y = x.conj().T
    t = triple.FiniteTriple(
        algebra_gens=(x, y), opposite_gens=(x, y),
        dirac=np.zeros((32, 32), dtype=complex),
        real_structure=catalog.real_structure())
    assert triple.zeroth_order_violation(t) > 0.1


def test_first_order_dichotomy(thm1_triple, thm2_triple, pati_salam_triple):
    assert triple.first_order_violation(thm1_triple) <= 1e-12
    assert triple.first_order_violation(thm2_triple) <= 1e-12
    assert triple.first_order_violation(pati_salam_triple) >= 0.1


def test_first_order_zero_dirac():
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="zero"))
    assert triple.first_order_violation(t) == 0.0


def test_sign_table_standard_model(thm1_triple, original_cc_triple):
    for t in (thm1_triple, original_cc_triple):
        st = triple.sign_table(t)
        assert (st.eps, st.eps_prime, st.eps_dblprime) == (1, 1, -1)
        assert st.ko_dimension == 6
        assert all(v <= 1e-12 for v in st.residuals.values())


def test_sign_table_pati_salam(pati_salam_triple):
    st = triple.sign_table(pati_salam_triple)
    assert (st.eps, st.eps_prime, st.eps_dblprime) == (1, 1, -1)
    assert st.ko_dimension == 6


def test_sign_table_odd_conjugation_example():
    # plain complex conjugation on C with no Dirac operator: the odd table
    t = triple.FiniteTriple(
        algebra_gens=(np.eye(1, dtype=complex),),
        opposite_gens=(np.eye(1, dtype=complex),),
        dirac=np.zeros((1, 1), dtype=complex),
        real_structure=linalg.AntilinearOperator(np.eye(1)))
    st = triple.sign_table(t)
    assert (st.eps, st.eps_prime) == (1, 1)
    assert st.eps_dblprime is None
    assert st.ko_dimension == 7
    assert "eps_prime" in st.vacuous


def test_sign_table_detects_grading_sign(thm2_triple):
    # conjugating the grading by J flips nothing when eps'' = -1: the
    # detection is consistent on J gamma J
    j = catalog.real_structure()
    g = catalog.grading("standard")
    conjugated = j.conjugate_operator(g)
    np.testing.assert_allclose(conjugated, -g, atol=1e-14)
    t = triple.FiniteTriple(
        algebra_gens=thm2_triple.algebra_gens,
        opposite_gens=thm2_triple.opposite_gens,
        dirac=np.zeros((32, 32), dtype=complex),
        real_structure=j, grading=g)
    st = triple.sign_table(t)
    assert st.eps_dblprime == -1


def test_sign_table_indeterminate():
    k = catalog.real_structure()
    d = np.zeros((32, 32), dtype=complex)
    d[0, 0] = 1.0  # commutes with neither sign relation cleanly
    bad = d + d @ k.matrix  # arbitrary non-sign-definite operator
    t = triple.FiniteTriple(
        algebra_gens=(np.eye(32, dtype=complex),),
        opposite_gens=(np.eye(32, dtype=complex),),
        dirac=0.5 * (bad + bad.conj().T),
        real_structure=k)
    with pytest.raises(triple.SignIndeterminateError):
        triple.sign_table(t)


@pytest.mark.parametrize("field, key", [("dirac", "eps_prime"), ("grading", "eps_dblprime")])
def test_sign_table_reads_a_zero_operator_as_vacuous(thm1_triple, field, key):
    # a zero D or gamma fits both signs: +1 by convention, residual 0
    t = dataclasses.replace(thm1_triple, **{field: np.zeros((32, 32), dtype=complex)})
    st = triple.sign_table(t)
    assert getattr(st, key) == 1
    assert st.residuals[key] == 0.0
    assert st.vacuous == (key,)


def _raises_of(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and name in ast.unparse(node)]


def test_each_order_condition_rule_is_stated_in_triple_alone():
    # one gate raises OrderConditionError, and only triple names the floor
    # under which a one-form [D, a] is zero
    package = Path(triple.__file__).resolve().parent
    raises, floors = [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        raises += _raises_of(ast.parse(text), "OrderConditionError")
        if "_COMMUTATOR_FLOOR" in text:
            floors.append(path.stem)
    gate = ast.parse(inspect.getsource(triple.require_order_conditions))
    assert len(raises) == 1 and _raises_of(gate, "OrderConditionError")
    assert floors == ["triple"]


def test_sign_stability_under_rescaling(thm1_triple):
    scaled = triple.FiniteTriple(
        algebra_gens=thm1_triple.algebra_gens,
        opposite_gens=thm1_triple.opposite_gens,
        dirac=thm1_triple.dirac / linalg.hs_norm(thm1_triple.dirac),
        real_structure=thm1_triple.real_structure,
        grading=thm1_triple.grading)
    st = triple.sign_table(scaled)
    assert (st.eps, st.eps_prime, st.eps_dblprime) == (1, 1, -1)
    assert st.ko_dimension == 6


def test_decompose_majorana_term(af_commutant, af_opposite_commutant, thm1_triple):
    d_r = catalog.dirac_majorana_term(1.0)
    t = triple.FiniteTriple(
        algebra_gens=thm1_triple.algebra_gens,
        opposite_gens=thm1_triple.opposite_gens,
        dirac=d_r, real_structure=thm1_triple.real_structure)
    dec = triple.decompose_dirac(t, algebra_commutant=af_commutant,
                                 opposite_commutant=af_opposite_commutant)
    assert dec.residual <= 1e-12
    assert dec.ambiguity_dim == 14
    inter = subspaces.intersect(af_commutant, af_opposite_commutant)
    assert inter.contains(d_r)
    assert dec.j_residual is not None and dec.j_residual <= 1e-12


def test_decompose_zero(af_commutant, af_opposite_commutant, thm1_triple):
    t = triple.FiniteTriple(
        algebra_gens=thm1_triple.algebra_gens,
        opposite_gens=thm1_triple.opposite_gens,
        dirac=np.zeros((32, 32), dtype=complex),
        real_structure=thm1_triple.real_structure)
    dec = triple.decompose_dirac(t, algebra_commutant=af_commutant,
                                 opposite_commutant=af_opposite_commutant)
    assert linalg.hs_norm(dec.free_part) <= 1e-12
    assert linalg.hs_norm(dec.commuting_part) <= 1e-12
    assert dec.residual <= 1e-12


def test_decompose_full_family(thm1_triple, af_commutant, af_opposite_commutant):
    dec = triple.decompose_dirac(thm1_triple, algebra_commutant=af_commutant,
                                 opposite_commutant=af_opposite_commutant)
    assert dec.residual <= 1e-9
    assert af_opposite_commutant.contains(dec.free_part)
    assert af_commutant.contains(dec.commuting_part)
    # the declared assembly D = D0 + J D0 J + D_R reproduces the operator
    j = thm1_triple.real_structure
    d0 = catalog.dirac_free_part(BASE, "CC")
    rebuilt = d0 + j.conjugate_operator(d0) + catalog.dirac_majorana_term(BASE.ups_r)
    np.testing.assert_allclose(rebuilt, thm1_triple.dirac, atol=1e-13)
    # and the J-symmetric splitting exists since J D = D J
    assert dec.j_residual is not None
    assert dec.j_residual <= 1e-9 * max(linalg.hs_norm(thm1_triple.dirac), 1.0)
    sym = dec.j_symmetric_part
    np.testing.assert_allclose(sym, sym.conj().T, atol=1e-12)


def test_decompose_dirac_traced_peak_on_thm1():
    # A' and (A°)' stay in block form, and the part of A' outside (A°)' is
    # factored one central block of A at a time, the largest 16 x 144; the
    # flat split of the 112 x 1024 part peaked at 3.8 MB, this one at 1.5
    cfg, t = config_triple("thm1")
    d = morita.Derived(t, cfg.tol)
    comm, opposite = d.algebra_commutant, d.opposite_commutant
    tracemalloc.start()
    try:
        dec = triple.decompose_dirac(t, comm, opposite, tol=cfg.tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.residual <= cfg.tol
    assert peak <= 3 * 2 ** 20


def test_decompose_requires_first_order(pati_salam_triple):
    d = morita.Derived(pati_salam_triple)
    with pytest.raises(triple.OrderConditionError):
        triple.decompose_dirac(pati_salam_triple, d.algebra_commutant,
                               d.opposite_commutant)


def test_decompose_random_roundtrip(thm1_triple, af_commutant, af_opposite_commutant):
    rng = np.random.default_rng(53)
    flats = (af_opposite_commutant.flat, af_commutant.flat)
    for _ in range(10):
        parts = []
        for flat in flats:
            c = rng.standard_normal(flat.shape[0]) + 1j * rng.standard_normal(flat.shape[0])
            m = linalg.unvec(c @ flat, 32, 32)
            parts.append(0.5 * (m + m.conj().T))
        d = parts[0] + parts[1]
        t = triple.FiniteTriple(
            algebra_gens=thm1_triple.algebra_gens,
            opposite_gens=thm1_triple.opposite_gens,
            dirac=d, real_structure=thm1_triple.real_structure)
        dec = triple.decompose_dirac(t, algebra_commutant=af_commutant,
                                     opposite_commutant=af_opposite_commutant)
        assert dec.residual <= 1e-9 * max(linalg.hs_norm(d), 1.0)
        assert af_opposite_commutant.contains(dec.free_part)
        assert af_commutant.contains(dec.commuting_part)


@pytest.mark.parametrize("name", ["thm1", "thm2", "degenerate"])
def test_decompose_ambiguity_is_the_commutant_intersection(name):
    # the kernel of the one factorization is cut as intersect cuts it
    _, t = config_triple(name)
    d = morita.Derived(t)
    dec = triple.decompose_dirac(t, d.algebra_commutant, d.opposite_commutant)
    inter = subspaces.intersect(d.algebra_commutant, d.opposite_commutant)
    assert dec.ambiguity_dim == inter.dim > 0
    assert dec.residual <= 1e-9 * linalg.hs_norm(t.dirac)


@pytest.mark.parametrize("opposite", ["j_image", "solved"])
@pytest.mark.parametrize("tol", [1e-6, 1e-13])
@pytest.mark.parametrize("name", ["thm1", "thm2", "original_cc", "degenerate"])
def test_decompose_matches_the_dense_split(name, tol, opposite):
    # the split per central block against one factorization of A''s flat
    # basis outside (A°)', with (A°)' as the J-image of A' or solved from
    # the opposite generators
    _, t = config_triple(name)
    comm = subspaces.commutant(subspaces.span_of(t.algebra_gens, tol=tol))
    opp = (subspaces.conjugated(comm, t.real_structure) if opposite == "j_image"
           else subspaces.commutant(subspaces.span_of(t.opposite_gens, tol=tol)))
    dense = oracles.dense_decompose_dirac(t, comm, opp)
    dec = triple.decompose_dirac(t, comm, opp, tol=tol)
    scale = max(linalg.hs_norm(t.dirac), 1.0)
    assert dec.ambiguity_dim == dense.ambiguity_dim == 14
    assert dec.residual <= tol * scale and dense.residual <= tol * scale
    assert dec.j_residual is not None and dec.j_residual <= tol * scale
    np.testing.assert_allclose(dec.commuting_part, dense.commuting_part, atol=1e-10 * scale)
    np.testing.assert_allclose(dec.free_part, dense.free_part, atol=1e-10 * scale)


def test_decompose_factors_one_central_block_at_a_time(monkeypatch, thm1_triple,
                                                       af_commutant, af_opposite_commutant):
    # A_F's central supports give A' components of 8, 12, 8 and 4 indices;
    # each block of the system is d_Q x s_Q^2, and no factorization is wider
    factored = []
    svd_rows = linalg.svd_rows

    def recorded(a):
        factored.append(a.shape)
        return svd_rows(a)

    monkeypatch.setattr(linalg, "svd_rows", recorded)
    triple.decompose_dirac(thm1_triple, af_commutant, af_opposite_commutant)
    assert sorted(factored) == [(16, 16), (64, 16), (64, 64), (144, 16)]


def _mixed_components(space):
    """space's block form with v rotated to mix two components' first indices."""
    v, parts = space.blocks
    i, j = parts[0][0].start, parts[1][0].start
    rotation = np.eye(space.n, dtype=complex)
    rotation[np.ix_([i, j], [i, j])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    return subspaces.OperatorSubspace(None, space.n, tol=space.tol, blocks=(v @ rotation, parts))


def test_decompose_raises_when_a_component_is_not_central(thm1_triple, af_commutant,
                                                         af_opposite_commutant):
    # an orthonormal "A'" whose components are not central supports of A:
    # the part of its rows outside (A°)' does not stay in their blocks, and
    # the certificate must say so rather than split on the blocks alone
    mixed = _mixed_components(af_commutant)
    image = subspaces.conjugated(mixed, thm1_triple.real_structure)
    for opposite in (af_opposite_commutant, image):
        with pytest.raises(RuntimeError, match="certificate"):
            triple.decompose_dirac(thm1_triple, mixed, opposite)


def test_report_reads_error_when_a_component_is_not_central(monkeypatch):
    # the first solve of a report is A'; with its components mixed, the
    # decomposition raises, and its check is an error, never a fail
    solve = subspaces.commutant
    calls = []

    def mixed_first(space):
        calls.append(space)
        comm = solve(space)
        return _mixed_components(comm) if len(calls) == 1 else comm

    monkeypatch.setattr(subspaces, "commutant", mixed_first)
    cfg, _ = config_triple("thm1")
    rep = report.run_all(cfg)
    assert rep.check("dirac_decomposition").status in ("error", "skipped")
    assert "certificate" in rep.check("dirac_decomposition").details


@pytest.mark.parametrize("name", ["thm1", "thm2", "pati_salam"])
def test_verify_builds_no_flat_of_the_algebra_commutants(monkeypatch, name):
    # every check of the plan reads A' and (A°)' in block form
    derived = []

    class Recorded(morita.Derived):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            derived.append(self)

    monkeypatch.setattr(morita, "Derived", Recorded)
    cfg, _ = config_triple(name)
    rep = report.run_all(cfg)
    assert all(rec.status != "error" for rec in rep.checks)
    (d,) = derived
    for space in (d.algebra_commutant, d.opposite_commutant):
        assert "flat" not in vars(space)
        assert space.dim == report.EXPECTED_COMMUTANT_DIMS[cfg.algebra][0]


def test_grading_compatibility_interface():
    d0 = catalog.dirac_free_part(BASE, "CC")
    assert oracles.grading_compatible(d0, catalog.grading("nonstandard"))
    assert not oracles.grading_compatible(d0, catalog.grading("standard"))


def test_odd_splitting_exists(thm1_triple, af_commutant, af_opposite_commutant):
    # an odd first-order operator splits with both components odd: taking
    # the odd parts of any splitting stays inside the two commutants
    g = np.asarray(thm1_triple.grading)
    dec = triple.decompose_dirac(thm1_triple, algebra_commutant=af_commutant,
                                 opposite_commutant=af_opposite_commutant)
    odd0 = 0.5 * (dec.free_part - g @ dec.free_part @ g)
    odd1 = 0.5 * (dec.commuting_part - g @ dec.commuting_part @ g)
    assert af_opposite_commutant.contains(odd0)
    assert af_commutant.contains(odd1)
    resid = linalg.hs_norm(thm1_triple.dirac - odd0 - odd1)
    assert resid <= 1e-9 * linalg.hs_norm(thm1_triple.dirac)


def test_axiom_residuals_catalog(thm1_triple, thm2_triple, original_cc_triple):
    for t in (thm1_triple, thm2_triple, original_cc_triple):
        res = triple.axiom_residuals(t)
        assert all(v <= 1e-10 for v in res.values()), res


def _assert_matches_pair_loop(t):
    # the violations are taken over HS-normalized generators, so 1 sets their scale
    for stacked, pairwise in ((triple.zeroth_order_violation, oracles.pairwise_zeroth_order),
                              (triple.first_order_violation, oracles.pairwise_first_order)):
        assert stacked(t) == pytest.approx(pairwise(t), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_order_conditions_match_the_pair_loop(name):
    _, t = config_triple(name)
    _assert_matches_pair_loop(t)
    if name == "pati_salam":
        assert triple.first_order_violation(t) == pytest.approx(0.5, rel=1e-14)


def test_order_conditions_match_the_pair_loop_on_dense_generators():
    # dense generators, and generators with zero rows and columns, so that
    # the support of each is a proper subset of the rows and columns
    rng = np.random.default_rng(17)

    def rand(n, sparse):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if sparse:
            m[rng.random(n) < 0.5] = 0.0
            m[:, rng.random(n) < 0.5] = 0.0
        return m

    for n, sparse in ((5, False), (6, True), (9, True)):
        d = rand(n, False)
        t = triple.FiniteTriple(
            algebra_gens=tuple(rand(n, sparse) for _ in range(4)),
            opposite_gens=tuple(rand(n, sparse) for _ in range(3)),
            dirac=d + d.conj().T,
            real_structure=linalg.AntilinearOperator(np.eye(n)))
        assert triple.zeroth_order_violation(t) > 0.1
        _assert_matches_pair_loop(t)
