import tracemalloc

import numpy as np
import pytest

from fintriple import catalog, linalg, report, star_algebra, subspaces

import oracles
from conftest import CONFIG_NAMES, config_triple


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_op(i, j, k, l):
    return linalg.kron_action(oracles._unit8(i, j), oracles._unit4(k, l))


def test_span_of_deduplicates():
    x = _unit_op(1, 1, 1, 1)
    s = subspaces.span_of([x, 2.0 * x])
    assert s.dim == 1


def test_span_of_a_list_and_a_stack_agree_bit_for_bit():
    gens = catalog.algebra_af_generators()
    assert np.array_equal(subspaces.span_of(list(gens)).flat,
                          subspaces.span_of(np.array(gens)).flat)


def test_operator_subspace_keeps_the_rows_it_is_given():
    rows = _rand_complex(np.random.default_rng(3), 3, 16)
    assert not np.allclose(rows @ rows.conj().T, np.eye(3))
    space = subspaces.OperatorSubspace(rows, 4, tol=1e-6)
    assert np.array_equal(space.flat, rows)
    assert (space.dim, space.n, space.tol) == (3, 4, 1e-6)
    assert np.array_equal(space.matrices, [linalg.unvec(row, 4, 4) for row in rows])


def test_with_identity_adjoins_only_when_missing():
    unital = subspaces.span_of(catalog.algebra_af_generators())
    assert subspaces.with_identity(unital) is unital
    bf = subspaces.span_of(catalog.algebra_bf_generators())
    grown = subspaces.with_identity(bf)
    assert (bf.dim, grown.dim) == (14, 15)
    assert grown.contains(np.eye(32)) and grown.contains_rows(bf.flat)
    assert subspaces.equals(grown, unital)


def test_span_dimensions():
    assert subspaces.span_of(catalog.algebra_af_generators()).dim == 15
    assert subspaces.span_of(catalog.algebra_bf_generators()).dim == 14


def test_basis_orthonormal_and_self_membership(af_commutant):
    gram = af_commutant.flat @ af_commutant.flat.conj().T
    assert np.linalg.norm(gram - np.eye(af_commutant.dim)) <= 1e-12
    assert af_commutant.dim == af_commutant.flat.shape[0]
    for m in af_commutant.matrices:
        assert af_commutant.contains(m)
        assert af_commutant.residual(m) <= 1e-12


def test_contains_identity_span():
    s = subspaces.span_of([np.eye(32, dtype=complex)])
    assert s.contains(np.eye(32))
    assert s.contains(np.zeros((32, 32)))
    assert not s.contains(_unit_op(1, 2, 1, 1))


def test_opposite_algebra_membership_witness():
    opp_oracle = oracles.opposite_algebra_basis()
    span = subspaces.span_of(opp_oracle)
    assert span.dim == 15
    # the solver's version of the same span agrees
    t = catalog.build_triple(catalog.TripleConfig(
        algebra="A_F", grading="none", dirac="zero"))
    solver_span = subspaces.span_of(t.opposite_gens)
    assert subspaces.equals(span, solver_span)
    witness = catalog.witness_catalog()["e55_block"]
    np.testing.assert_allclose(
        witness,
        _unit_op(5, 5, 2, 2) + _unit_op(5, 5, 3, 3) + _unit_op(5, 5, 4, 4))
    assert not span.contains(witness)
    # coordinate oracle: least squares against the explicit 15-element basis
    stacked = np.array([linalg.vec(m) for m in opp_oracle])
    coeff, *_ = np.linalg.lstsq(stacked.T, linalg.vec(witness), rcond=None)
    resid = np.linalg.norm(stacked.T @ coeff - linalg.vec(witness))
    assert resid > 0.5


def test_majorana_term_in_both_commutants(af_commutant, af_opposite_commutant):
    d_r = catalog.dirac_majorana_term(2.0 - 1.0j)
    inter = subspaces.intersect(af_commutant, af_opposite_commutant)
    assert inter.contains(d_r)


def test_intersect_self():
    s = subspaces.span_of(catalog.algebra_af_generators())
    assert subspaces.equals(subspaces.intersect(s, s), s)


def test_sum_dimension_identity(af_commutant, af_opposite_commutant):
    assert af_commutant.dim == 112
    assert af_opposite_commutant.dim == 112
    inter = subspaces.intersect(af_commutant, af_opposite_commutant)
    total = oracles.subspace_sum(af_commutant, af_opposite_commutant)
    assert total.dim == 112 + 112 - inter.dim


def test_bicommutant_equals_closure_random():
    rng = np.random.default_rng(17)
    for _ in range(5):
        gens = [_rand_complex(rng, 6, 6) for _ in range(2)]
        gens.append(np.eye(6, dtype=complex))
        span = oracles.closure_span(star_algebra.star_closure(gens))
        double = subspaces.commutant(subspaces.commutant(span))
        assert subspaces.equals(double, span)


def test_commutant_schur():
    shift = np.roll(np.eye(32, dtype=complex), 1, axis=0)
    diag = np.diag(np.arange(1, 33).astype(complex))
    comm = subspaces.commutant(subspaces.span_of([shift, diag]))
    assert comm.dim == 1
    assert comm.contains(np.eye(32))


def test_commutant_af_equals_block_form(af_commutant):
    oracle = subspaces.span_of(oracles.af_commutant_basis())
    assert oracle.dim == 112
    assert subspaces.equals(af_commutant, oracle)


def test_commutant_opposite_equals_lemma_form(af_opposite_commutant):
    oracle = subspaces.span_of(oracles.af_opposite_commutant_basis())
    assert oracle.dim == 112
    assert subspaces.equals(af_opposite_commutant, oracle)


def test_commutant_aev_equals_block_form():
    comm = subspaces.commutant(subspaces.span_of(catalog.algebra_aev_generators()))
    oracle = subspaces.span_of(oracles.aev_commutant_basis())
    assert comm.dim == 48
    assert subspaces.equals(comm, oracle)


def test_af_span_inside_aev_span():
    af = subspaces.span_of(catalog.algebra_af_generators())
    aev = subspaces.span_of(catalog.algebra_aev_generators())
    assert all(aev.contains(m) for m in af.matrices)


def test_projection_idempotent():
    rng = np.random.default_rng(23)
    s = subspaces.span_of(catalog.algebra_af_generators())
    x = _rand_complex(rng, 32, 32)
    once = s.project(x)
    twice = s.project(once)
    assert linalg.hs_norm(once - twice) <= 1e-12 * max(linalg.hs_norm(once), 1.0)


def test_monotonicity():
    s = subspaces.span_of(catalog.algebra_af_generators())
    t = subspaces.span_of(catalog.algebra_bf_generators())
    total = oracles.subspace_sum(s, t)
    inter = subspaces.intersect(s, t)
    assert all(total.contains(m) for m in s.matrices)
    assert all(s.contains(m) for m in inter.matrices)


def test_commutant_antitone():
    gens = catalog.algebra_af_generators()
    small = subspaces.commutant(subspaces.span_of(gens[:6]))
    big = subspaces.commutant(subspaces.span_of(gens))
    assert all(small.contains(m) for m in big.matrices)


def test_double_complement():
    s = subspaces.span_of(catalog.algebra_af_generators())
    back = oracles.complement(oracles.complement(s))
    assert subspaces.equals(back, s)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-13])
def test_commutant_dims_stable_across_tol(tol, thm1_triple, thm1_clifford):
    for gens, dim in ((thm1_triple.algebra_gens, 112), (thm1_triple.opposite_gens, 112),
                      (catalog.algebra_aev_generators(), 48),
                      (oracles.closure_span(thm1_clifford).matrices, 19)):
        assert subspaces.commutant(subspaces.span_of(gens, tol=tol)).dim == dim


def test_commutant_matches_dense_oracle(thm1_triple, af_commutant, af_opposite_commutant):
    for fast, gens in ((af_commutant, thm1_triple.algebra_gens),
                       (af_opposite_commutant, thm1_triple.opposite_gens)):
        assert subspaces.equals(fast, oracles.dense_commutant(gens))


def test_commutant_certificate_closes_non_star_closed_set(monkeypatch):
    # The only Hermitian elements of the span are multiples of P, so h1 splits
    # C^6 into two 3x3 blocks, which no generator couples: two components.
    # A random element h2 alone leaves the 6 polynomials in h2 (3 per block);
    # the commutant has 4: the polynomials in the nilpotent upper block and
    # the scalars on the lower block.
    rng = np.random.default_rng(41)
    zero = np.zeros((3, 3))
    gens = [np.diag([1, 1, 1, 0, 0, 0]).astype(complex),
            np.block([[np.triu(_rand_complex(rng, 3, 3), 1), zero],
                      [zero, _rand_complex(rng, 3, 3)]]),
            np.block([[zero, zero], [zero, _rand_complex(rng, 3, 3)]])]
    units = []
    unit_commutators = subspaces._unit_commutators

    def recorded(h, rows, cols):
        units.append(len(rows))
        return unit_commutators(h, rows, cols)

    monkeypatch.setattr(subspaces, "_unit_commutators", recorded)
    comm = subspaces.commutant(subspaces.span_of(gens))
    # on the 9 units of each component: the system of h2, then the exact
    # constraint of a generator failing the sweep, folded into both
    assert units[:2] == [9, 9]
    assert len(units) > 2 and set(units) == {9}
    assert comm.dim == 4
    assert subspaces.equals(comm, oracles.dense_commutant(gens))
    for _ in range(3):
        pair = [_rand_complex(rng, 6, 6) for _ in range(2)]
        comm = subspaces.commutant(subspaces.span_of(pair))
        assert comm.dim == 1
        assert subspaces.equals(comm, oracles.dense_commutant(pair))


def test_unit_commutator_blocks_are_the_rows_of_the_system():
    # a few matrix rows of the commutators at a time, each block at least
    # as many rows as units but the last; stacked, column j is [E_ab, h]
    # flattened row-major
    rng = np.random.default_rng(5)
    rows, cols = subspaces._block_entries(np.split(np.arange(10), [3, 5, 6]))
    h = _rand_complex(rng, 10, 10)
    blocks = list(subspaces._unit_commutators(h, rows, cols))
    assert len(blocks) > 1 and all(len(b) >= len(rows) for b in blocks[:-1])
    expected = np.zeros((100, len(rows)), dtype=complex)
    for j, (a, b) in enumerate(zip(rows, cols)):
        unit = np.zeros((10, 10))
        unit[a, b] = 1.0
        expected[:, j] = (unit @ h - h @ unit).ravel()
    np.testing.assert_allclose(np.vstack(blocks), expected, rtol=0, atol=1e-15)


def _recorded_components(monkeypatch):
    """Install a recorder of the component sizes of every eigenblock solve."""
    sizes = []
    components = subspaces._components

    def recorded(power, clusters, tol):
        found = components(power, clusters, tol)
        sizes.append(sorted(sum(len(block) for block in members) for members in found))
        return found

    monkeypatch.setattr(subspaces, "_components", recorded)
    return sizes


def _direct_sum(v, a, b):
    """v (a (+) b) v* for square a, b and a unitary v of their total size."""
    zero = np.zeros((a.shape[0], b.shape[0]))
    return v @ np.block([[a, zero], [zero.T, b]]) @ v.conj().T


def test_commutant_of_a_direct_sum_splits_into_components(monkeypatch):
    # h1 is a multiple of the Hermitian generator, with simple eigenvalues
    # 1, 3 on C^2 and 2, 4, 5 on C^3, so its eigenblocks alternate between
    # the summands; the generators couple them only within a summand, and
    # the commutant is C 1_2 (+) C 1_3
    rng = np.random.default_rng(12)
    v, _ = np.linalg.qr(_rand_complex(rng, 5, 5))
    gens = [_direct_sum(v, np.diag([1.0, 3.0]), np.diag([2.0, 4.0, 5.0]))]
    gens += [_direct_sum(v, _rand_complex(rng, 2, 2), _rand_complex(rng, 3, 3))
             for _ in range(2)]
    sizes = _recorded_components(monkeypatch)
    comm = subspaces.commutant(subspaces.span_of(gens))
    assert sizes == [[2, 3]]
    assert comm.dim == 2
    assert comm.contains(_direct_sum(v, np.eye(2), np.zeros((3, 3))))
    assert subspaces.equals(comm, oracles.dense_commutant(gens))


def test_commutant_of_a_doubled_algebra_holds_the_intertwiners(monkeypatch):
    # x (+) x on C^3 (+) C^3: each eigenblock of h1 straddles both copies,
    # the non-Hermitian generator couples all three, and the commutant is
    # M_2 (x) 1_3, whose off-diagonal elements intertwine the copies
    rng = np.random.default_rng(13)
    v, _ = np.linalg.qr(_rand_complex(rng, 6, 6))
    h = np.diag([1.0, 2.0, 3.0])
    y = _rand_complex(rng, 3, 3)
    gens = [_direct_sum(v, h, h), _direct_sum(v, y, y)]
    sizes = _recorded_components(monkeypatch)
    comm = subspaces.commutant(subspaces.span_of(gens))
    assert sizes == [[6]]
    assert comm.dim == 4
    shift = v @ np.kron([[0, 1], [0, 0]], np.eye(3)) @ v.conj().T
    assert comm.contains(shift)
    assert subspaces.equals(comm, oracles.dense_commutant(gens))


@pytest.mark.parametrize("coupling, sizes", [(0.1, [2, 2]), (10.0, [4])])
def test_eigenblocks_join_when_coupled_above_tol(coupling, sizes, monkeypatch):
    # h1 is a multiple of diag(1, 1, 2, 2); the second generator couples its
    # two eigenblocks by one entry, scaled so that the reduced generators
    # carry coupling * tol between them: below tol the blocks are solved
    # apart, above it together.  The coupling stays under the rank cut, so
    # both answers have the dimension of the commutant at tol, and they
    # tilt by about the coupling, the one constraint each solver may drop
    rng = np.random.default_rng(14)
    tol = linalg.DEFAULT_TOL
    diag = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
    inner = _direct_sum(np.eye(4), _rand_complex(rng, 2, 2), _rand_complex(rng, 2, 2))
    unit = diag / np.linalg.norm(diag)
    apart = inner - np.vdot(unit, inner) * unit
    # the part of the span outside diag is apart + eps E_02, so the coupling
    # of the reduced generators is eps / ||apart + eps E_02||
    eps = coupling * tol * np.linalg.norm(apart) / np.sqrt(1 - (coupling * tol) ** 2)
    inner[0, 2] = eps
    recorded = _recorded_components(monkeypatch)
    comm = subspaces.commutant(subspaces.span_of([diag, inner], tol=tol))
    assert recorded == [sizes]
    assert comm.dim == 4
    # both spaces decide at the looser tol of the comparison
    loose = max(1.0, 10 * coupling) * tol
    dense = oracles.dense_commutant([diag, inner], tol=tol)
    assert subspaces.equals(subspaces.OperatorSubspace(comm.flat, 4, tol=loose),
                            subspaces.OperatorSubspace(dense.flat, 4, tol=loose))


def test_commutant_deterministic(thm1_triple):
    first = subspaces.commutant(subspaces.span_of(thm1_triple.algebra_gens))
    again = subspaces.commutant(subspaces.span_of(thm1_triple.algebra_gens))
    assert first.flat.tobytes() == again.flat.tobytes()


def test_commutant_of_zero_generators_is_everything():
    comm = subspaces.commutant(subspaces.span_of([np.zeros((3, 3), dtype=complex)]))
    assert comm.dim == 9
    assert subspaces.commutant(subspaces.span_of([], n=3)).dim == 9


def test_contains_rows_matches_contains_row_by_row():
    rng = np.random.default_rng(5)
    space = subspaces.span_of(_rand_complex(rng, 3, 4, 4))
    inside = [linalg.unvec(c @ space.flat, 4, 4) for c in rng.standard_normal((3, 3))]
    outside = _rand_complex(rng, 4, 4)
    zero = np.zeros((4, 4), dtype=complex)
    mats = inside + [zero, outside, 1j * inside[0]]

    def rows(subset):
        return np.array([linalg.vec(m) for m in subset]).reshape(-1, 16)

    for subset in (inside + [zero], mats, mats[-1:], []):
        assert space.contains_rows(rows(subset)) == all(space.contains(m) for m in subset)
    assert space.contains_rows(rows(inside + [zero]))
    assert space.contains_rows(rows([1j * inside[0]]))


def _traced_outside(space, rows):
    tracemalloc.start()
    try:
        got = space.outside(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = rows - (rows @ space.flat.conj().T) @ space.flat
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    return peak


def test_outside_copies_neither_operand():
    # the coefficients come from the conjugated rows, written into the
    # returned buffer: no other array is as large as the rows, and the
    # basis is never copied conjugated
    rng = np.random.default_rng(31)
    space = subspaces.OperatorSubspace(
        linalg.orthonormal_rows(_rand_complex(rng, 300, 1024)), 32)
    many = _rand_complex(rng, 400, 1024)
    assert _traced_outside(space, many) < many.nbytes + space.flat.nbytes // 2
    few = _rand_complex(rng, 10, 1024)
    assert _traced_outside(space, few) < space.flat.nbytes // 4


def test_project_matches_the_orthogonal_projection():
    rng = np.random.default_rng(37)
    space = subspaces.span_of(catalog.algebra_af_generators())
    x = _rand_complex(rng, 32, 32)
    expected = linalg.unvec((space.flat.conj() @ linalg.vec(x)) @ space.flat, 32, 32)
    np.testing.assert_allclose(space.project(x), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_opposite_commutant_is_the_j_image(name):
    # the solver keeps its dimensions, and the opposite commutant is
    # J A' J^{-1} for every shipped config
    cfg, t = config_triple(name)
    alg = subspaces.commutant(subspaces.span_of(t.algebra_gens, tol=cfg.tol))
    opp = subspaces.commutant(subspaces.span_of(t.opposite_gens, tol=cfg.tol))
    expected = report.EXPECTED_COMMUTANT_DIMS[cfg.algebra][:2]
    assert (alg.dim, opp.dim) == expected
    image = subspaces.conjugated(alg, t.real_structure)
    gram = image.flat @ image.flat.conj().T
    assert np.linalg.norm(gram - np.eye(image.dim)) <= 1e-12
    assert subspaces.equals(image, opp)


def test_finest_eigenblocks_takes_a_later_draw_that_splits_a_cluster():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(_rand_complex(rng, 4, 4))
    merged = q @ np.diag([1.0, 1.0, 2.0, 3.0]) @ q.conj().T   # clusters 2 + 1 + 1
    split = q @ np.diag([1.0, 1.5, 2.0, 3.0]) @ q.conj().T    # four clusters
    u, clusters = subspaces._finest_eigenblocks(np.array([merged, split, merged]), 1e-9)
    assert [len(block) for block in clusters] == [1, 1, 1, 1]
    local = u.conj().T @ split @ u
    assert np.allclose(local, np.diag([1.0, 1.5, 2.0, 3.0]), atol=1e-12)
    # on ties the first draw wins
    other = q @ np.diag([3.0, 1.0, 1.0, 2.0]) @ q.conj().T
    u, clusters = subspaces._finest_eigenblocks(np.array([merged, other]), 1e-9)
    assert [len(block) for block in clusters] == [2, 1, 1]
    assert np.allclose(u.conj().T @ merged @ u, np.diag([1.0, 1.0, 2.0, 3.0]), atol=1e-12)


#: Dense Gram-eigenproblem commutant of each catalog algebra, solved once.
_DENSE_ALGEBRA_COMMUTANTS = {}


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_algebra_commutant_matches_block_form_and_dense_oracle(name):
    cfg, t = config_triple(name)
    if cfg.algebra not in _DENSE_ALGEBRA_COMMUTANTS:
        _DENSE_ALGEBRA_COMMUTANTS[cfg.algebra] = oracles.dense_commutant(t.algebra_gens)
    comm = subspaces.commutant(subspaces.span_of(t.algebra_gens, tol=cfg.tol))
    assert np.linalg.norm(comm.flat @ comm.flat.conj().T - np.eye(comm.dim)) <= 1e-12
    block_form = (oracles.aev_commutant_basis() if cfg.algebra == "A_ev"
                  else oracles.af_commutant_basis())
    assert subspaces.equals(comm, subspaces.span_of(block_form))
    assert subspaces.equals(comm, _DENSE_ALGEBRA_COMMUTANTS[cfg.algebra])


def test_conjugated_algebra_commutant_is_conjugated():
    # (U S U*)' = U S' U*
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(_rand_complex(rng, 32, 32))
    gens = catalog.algebra_af_generators()
    plain = subspaces.commutant(subspaces.span_of(gens))
    expected = subspaces.span_of(u @ plain.matrices @ u.conj().T)
    comm = subspaces.commutant(subspaces.span_of([u @ g @ u.conj().T for g in gens]))
    assert comm.dim == 112
    assert subspaces.equals(comm, expected)


def test_commutant_of_an_orthonormal_span_reduces_nothing(monkeypatch, thm1_triple,
                                                         thm1_clifford):
    # the span's basis is the generator set the solve runs on
    reduce = linalg.orthonormal_rows
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args[0].shape)
        return reduce(*args, **kwargs)

    spans = (subspaces.span_of(thm1_triple.algebra_gens), thm1_clifford.commutant)
    monkeypatch.setattr(linalg, "orthonormal_rows", recorded)
    assert [subspaces.commutant(span).dim for span in spans] == [112, 96]
    assert calls == []


@pytest.mark.parametrize("name", ["thm1", "pati_salam"])
def test_product_span_matches_the_span_of_all_products(name):
    # a [D, b] over the algebra's basis: one left factor at a time on the
    # structural support gives the bits of the dense stack of all products
    _, t = config_triple(name)
    span = subspaces.span_of(t.algebra_gens)
    basis = span.matrices
    forms = t.dirac @ basis - basis @ t.dirac
    built = subspaces.product_span(basis, forms, tol=span.tol)
    dense = subspaces.OperatorSubspace(linalg.orthonormal_rows(linalg.product_rows(basis, forms)),
                                       t.n)
    assert built.dim == dense.dim > 0
    assert np.array_equal(built.flat, dense.flat)

