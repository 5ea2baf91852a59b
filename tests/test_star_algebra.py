import numpy as np
import pytest

from fintriple import catalog, linalg, morita, star_algebra, subspaces

import oracles
from conftest import CONFIG_NAMES, config_triple


def _block_algebra(blocks, n):
    """Deterministic generators of a multiplicity-patterned block algebra.

    blocks is a list of (size, mult) pairs with sum(size * mult) == n.  The
    generators are a per-block cyclic shift and a globally distinct diagonal,
    which generate exactly the direct sum of the full block algebras; the
    expected closure dimension is sum(size^2) and the expected commutant
    dimension sum(mult^2).
    """
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
    assert offset == n
    return [shift, diag, np.eye(n, dtype=complex)]


def _random_blocks(rng, n):
    blocks = []
    remaining = n
    while remaining > 0:
        size = int(rng.integers(1, min(3, remaining) + 1))
        mult = int(rng.integers(1, remaining // size + 1))
        blocks.append((size, mult))
        remaining -= size * mult
    return blocks


def test_closure_of_identity():
    alg = star_algebra.star_closure([np.eye(7, dtype=complex)])
    assert alg.dim == 1
    assert alg.unital


def test_closure_of_zero_generators():
    alg = star_algebra.star_closure([np.zeros((4, 4), dtype=complex)])
    assert alg.dim == 0 and not alg.unital
    assert alg.commutant.dim == 16


def test_closure_block_structure():
    gens = _block_algebra([(2, 2), (1, 4)], 8)
    alg = star_algebra.star_closure(gens)
    assert alg.dim == 2 * 2 + 1
    comm = subspaces.commutant(oracles.closure_span(alg))
    assert comm.dim == 2 * 2 + 4 * 4


def test_closure_reaches_full_algebra():
    gens = _block_algebra([(8, 1)], 8)
    alg = star_algebra.star_closure(gens[:2])
    assert alg.dim == 64


def test_clifford_commutant_19(thm1_clifford):
    comm = subspaces.commutant(oracles.closure_span(thm1_clifford))
    assert comm.dim == 19
    oracle = subspaces.span_of(oracles.clifford_commutant_19_basis())
    assert subspaces.equals(comm, oracle)


def test_pati_salam_sum_contains_standard_grading():
    gens = catalog.algebra_aev_generators()
    j = catalog.real_structure()
    both = list(gens) + [j.conjugate_operator(g) for g in gens]
    span = subspaces.span_of(both)
    assert span.contains(catalog.grading("standard"))


def test_center_full_matrix_algebra():
    gens = _block_algebra([(4, 1)], 4)
    alg = star_algebra.star_closure(gens)
    assert alg.dim == 16
    z = star_algebra.center(oracles.closure_span(alg), alg.commutant)
    assert z.dim == 1
    assert z.contains(np.eye(4))


def test_center_full_ambient_algebra():
    # two generic generators close onto all 32x32 operators; trivial center
    gens = _block_algebra([(32, 1)], 32)
    alg = star_algebra.star_closure(gens[:2])
    assert alg.dim == 1024
    z = star_algebra.center(oracles.closure_span(alg), alg.commutant)
    assert z.dim == 1
    assert z.contains(np.eye(32))


def test_closure_commutant_is_the_commutant_of_its_span():
    # the commutant a closure is read off is the one a second solve finds
    # from the closure's span
    alg = star_algebra.star_closure(catalog.algebra_af_generators())
    span = oracles.closure_span(alg)
    solved = subspaces.commutant(span)
    assert solved.dim == 112
    assert subspaces.equals(solved, alg.commutant)
    # a span at another tol is solved at its own tol
    loose = subspaces.OperatorSubspace(span.flat, alg.n, tol=1e-6)
    other = subspaces.commutant(loose)
    assert other.tol == 1e-6
    assert subspaces.equals(other, alg.commutant)


def test_center_opposite_algebra():
    oracle = subspaces.span_of(oracles.opposite_algebra_basis())
    z = star_algebra.center(oracle, subspaces.commutant(oracle))
    assert z.dim == 4
    assert subspaces.equals(z, subspaces.span_of(oracles.opposite_center_basis()))


def test_center_default_algebra():
    alg = star_algebra.star_closure(catalog.algebra_af_generators())
    assert alg.dim == 15
    assert star_algebra.center(oracles.closure_span(alg), alg.commutant).dim == 4


def test_unitalize_noop_when_unital():
    alg = star_algebra.star_closure([np.eye(5, dtype=complex)])
    assert star_algebra.unitalize(alg) is alg


def test_unitalize_degenerate_representation():
    alg = star_algebra.star_closure(catalog.algebra_bf_generators())
    assert alg.dim == 14
    assert not alg.unital
    assert not oracles.closure_span(alg).contains(np.eye(32))
    grown = star_algebra.unitalize(alg)
    assert grown.dim == 15
    target = subspaces.span_of(catalog.algebra_af_generators())
    assert subspaces.equals(oracles.closure_span(grown), target)


def test_unitalize_reads_the_blocks_and_solves_nothing(monkeypatch):
    # (S + C 1)' = S', so B_F's unitalized closure keeps C, its blocks and
    # its frame, and decides membership in A_F's span with no solve
    alg = star_algebra.star_closure(catalog.algebra_bf_generators())
    unital = star_algebra.star_closure(catalog.algebra_af_generators())
    calls = []
    solve = subspaces.commutant

    def counted(space):
        calls.append(space.dim)
        return solve(space)

    monkeypatch.setattr(subspaces, "commutant", counted)
    grown = star_algebra.unitalize(alg)
    assert grown.unital and grown.dim == 15
    assert grown.commutant is alg.commutant and grown.blocks == alg.blocks
    assert grown.contains(np.eye(32))
    assert all(grown.contains(g) for g in catalog.algebra_af_generators())
    rng = np.random.default_rng(53)
    assert not grown.contains(rng.standard_normal((32, 32))
                              + 1j * rng.standard_normal((32, 32)))
    assert star_algebra.unitalize(unital) is unital
    assert calls == []


def test_unitalize_opposite_degenerate():
    j = catalog.real_structure()
    opp = [j.conjugate_operator(g) for g in catalog.algebra_bf_generators()]
    alg = star_algebra.star_closure(opp)
    grown = star_algebra.unitalize(alg)
    oracle = subspaces.span_of(oracles.opposite_algebra_basis())
    assert subspaces.equals(oracles.closure_span(grown), oracle)


def test_closure_idempotent_random():
    rng = np.random.default_rng(31)
    for _ in range(6):
        gens = _block_algebra(_random_blocks(rng, 8), 8)
        alg = star_algebra.star_closure(gens)
        span = oracles.closure_span(alg)
        again = star_algebra.star_closure(span.matrices)
        assert again.dim == alg.dim
        assert subspaces.equals(oracles.closure_span(again), span)


def test_bicommutant_for_catalog_algebras():
    for gens in (catalog.algebra_af_generators(), catalog.algebra_aev_generators()):
        span = subspaces.span_of(gens)
        double = subspaces.commutant(subspaces.commutant(subspaces.span_of(gens)))
        assert subspaces.equals(double, span)


def test_star_subalgebra_complement_commutator_property():
    # [V, W] stays inside the HS-orthogonal complement W of a *-subalgebra V
    rng = np.random.default_rng(41)
    span = subspaces.span_of(catalog.algebra_af_generators())
    comp = oracles.complement(span)
    for _ in range(10):
        cv = rng.standard_normal(span.dim) + 1j * rng.standard_normal(span.dim)
        cw = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
        v = linalg.unvec(cv @ span.flat, 32, 32)
        w = linalg.unvec(cw @ comp.flat, 32, 32)
        bracket = v @ w - w @ v
        inside_v = linalg.hs_norm(span.project(bracket))
        assert inside_v <= 1e-9 * max(linalg.hs_norm(bracket), 1.0)


def test_center_contained_in_algebra_and_commutant():
    alg = star_algebra.star_closure(catalog.algebra_af_generators())
    span = oracles.closure_span(alg)
    z = star_algebra.center(span, alg.commutant)
    comm = subspaces.commutant(span)
    for m in z.matrices:
        assert span.contains(m)
        assert comm.contains(m)


def test_closure_requires_generators():
    with pytest.raises(ValueError):
        star_algebra.star_closure([])


def test_closure_defect_reported(thm1_clifford):
    assert star_algebra.closure_defect(oracles.closure_span(thm1_clifford)) <= 1e-9


def _clifford_generators(t, even):
    d = morita.Derived(t)
    gens = [*d.algebra_span.matrices, *d.one_forms.matrices]
    if even:
        gens.append(np.asarray(t.grading, dtype=complex))
    return gens


def _assert_matches_dense_closure(gens):
    alg = star_algebra.star_closure(gens)
    span = oracles.closure_span(alg)
    space, unital, _ = oracles.dense_star_closure(gens)
    assert alg.dim == space.dim
    assert subspaces.equals(span, space)
    assert alg.unital == unital
    assert sum(m * m for _, m in alg.blocks) == alg.commutant.dim
    # the certified defect agrees with an independent sweep in vec coordinates
    recheck = star_algebra.closure_defect(span)
    assert alg.defect <= 1e-13 and recheck <= 1e-13
    assert subspaces.equals(alg.commutant, subspaces.commutant(subspaces.span_of(gens)))
    return alg


@pytest.mark.parametrize("name", ["A_F", "B_F", "B_F_opposite"])
def test_closure_matches_dense_oracle_catalog(name):
    gens = (catalog.algebra_af_generators() if name == "A_F"
            else catalog.algebra_bf_generators())
    if name == "B_F_opposite":
        j = catalog.real_structure()
        gens = [j.conjugate_operator(g) for g in gens]
    alg = _assert_matches_dense_closure(gens)
    assert alg.unital == (name == "A_F")


def test_closure_matches_dense_oracle_random_blocks():
    rng = np.random.default_rng(31)
    for _ in range(6):
        _assert_matches_dense_closure(_block_algebra(_random_blocks(rng, 8), 8))


@pytest.mark.parametrize("even", [False, True], ids=["odd", "even"])
def test_closure_matches_dense_oracle_clifford(thm1_triple, even):
    alg = _assert_matches_dense_closure(_clifford_generators(thm1_triple, even))
    assert alg.dim == (112 if even else 96)


def test_closure_merges_blocks_of_a_wrong_commutant(monkeypatch):
    # the diagonal matrices are not the commutant of the seed, whose 2x2
    # blocks couple indices; a closure built on them as C, held as eight
    # one-index components, reads eight (1, 1) blocks, the diagonal
    # algebra, which misses the seed, and its defect must say so
    def diagonal(space):
        n = space.n
        units = [(slice(i, i + 1), np.ones((1, 1, 1), dtype=complex)) for i in range(n)]
        return subspaces.OperatorSubspace(None, n, tol=space.tol,
                                          blocks=(np.eye(n, dtype=complex), units))

    gens = _block_algebra([(2, 2), (1, 4)], 8)
    monkeypatch.setattr(subspaces, "commutant", diagonal)
    alg = star_algebra.star_closure(gens)
    assert alg.blocks == ((1, 1),) * 8
    assert alg.defect > 0.5


def test_blocks_are_read_from_the_center_not_the_components():
    # h1 = a + a^T has each eigenvalue twice, once per factor of
    # {x + x^T : x in M_2}, so the solve puts both factors of C = C + C in
    # one 4-index component; its center splits it into two (2, 1) blocks
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    zero = np.zeros((2, 2))
    alg = star_algebra.star_closure([np.block([[e, zero], [zero, e.T]]) for e in units])
    assert [z.shape[1] for _, z in alg.commutant.blocks[1]] == [4]
    assert alg.blocks == ((2, 1), (2, 1))
    assert alg.dim == oracles.closure_span(alg).dim == 8


@pytest.mark.parametrize("tol", [1e-6, 1e-13])
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_block_identities_on_every_closure(name, tol):
    # every closure a report can build: the Clifford closures and the
    # closure of the algebra alone (unitalization); the sum of rank P_i is
    # the Hilbert dimension, and the block dimension is that of the span
    # from the second solve
    _, t = config_triple(name)
    d = morita.Derived(t, tol)
    closures = [morita.clifford(d), star_algebra.star_closure(t.algebra_gens, tol=tol)]
    if t.grading is not None:
        closures.append(morita.clifford(d, even=True))
    for alg in closures:
        assert sum(m * m for _, m in alg.blocks) == alg.commutant.dim
        assert sum(n * m for n, m in alg.blocks) == 32
        assert alg.dim == oracles.closure_span(alg).dim


def test_commutator_sweep_matches_dense_commutators(thm1_clifford):
    # the block-coordinate sweep against ||[x, c]|| formed on all n^2
    # entries, for random operators, over C's blocks and over one slice of
    # all 32 coordinates (the certificate's shape); the defect runs over
    # S's and C's own bases, and the membership it decides agrees with the
    # span from the second solve
    comm = thm1_clifford.commutant
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 32, 32)) + 1j * rng.standard_normal((6, 32, 32))
    v, parts = comm.blocks
    local = star_algebra._local(v, np.array([linalg.vec(m) for m in x]))
    dense = [max(np.linalg.norm(m @ c - c @ m) for c in comm.matrices) for m in x]
    whole = [(slice(0, 32), star_algebra._local(v, comm.flat))]
    for blocks in (parts, whole):
        np.testing.assert_allclose(subspaces._commutator_norms(local, blocks), dense, rtol=1e-12)
    seed = max(np.linalg.norm(s @ c - c @ s) for s in thm1_clifford.seed.matrices
               for c in comm.matrices)
    assert thm1_clifford.defect == pytest.approx(seed, abs=1e-14)
    s0, s1 = thm1_clifford.seed.matrices[:2]
    span = oracles.closure_span(thm1_clifford)
    for g in (catalog.grading("standard"), catalog.grading("nonstandard"), x[0], s0 @ s1):
        assert thm1_clifford.contains(g) == span.contains(g)
    assert thm1_clifford.contains(s0 @ s1)


@pytest.mark.parametrize("pad", [0, 1], ids=["unital", "kernel"])
def test_membership_and_defect_with_two_supports_in_one_component(pad):
    # alg{x + x^T} = M_2 + M_2, on 4 indices that h1 = a + a^T joins into one
    # component of C holding both central supports; with a padded zero index
    # the seed also has a one-dimensional common kernel, the block (1, 1)
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    n = 4 + pad

    def embed(a, b):
        m = np.zeros((n, n), dtype=complex)
        m[:2, :2], m[2:4, 2:4] = a, b
        return m

    alg = star_algebra.star_closure([embed(e, e.T) for e in units])
    assert sorted(z.shape[1] for _, z in alg.commutant.blocks[1]) == [1] * pad + [4]
    assert alg.blocks == ((1, 1),) * pad + ((2, 1), (2, 1))
    assert alg.dim == 8 and alg.unital == (not pad)
    seed = max(np.linalg.norm(s @ c - c @ s) for s in alg.seed.matrices
               for c in alg.commutant.matrices)
    assert alg.defect == pytest.approx(seed, abs=1e-14) and alg.defect <= 1e-13
    rng = np.random.default_rng(59)
    x, y = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    off = np.zeros((n, n), dtype=complex)
    off[:2, 2:4] = x
    inside, outside = [embed(x, y), embed(x, x.T)], [off, rng.standard_normal((n, n))]
    if pad:
        outside.append(embed(x, y) + np.diag([0.0] * 4 + [1.0]))
    span = oracles.closure_span(alg)
    assert all(alg.contains(m) and span.contains(m) for m in inside)
    assert not any(alg.contains(m) or span.contains(m) for m in outside)
    assert alg.contains_rows(np.array([linalg.vec(m) for m in inside]))
    assert not alg.contains_rows(np.array([linalg.vec(m) for m in inside + outside[:1]]))


def test_thm1_odd_closure_blocks(thm1_derived):
    # Cl_odd = M_4 (x) 1_3 + M_4 (x) 1_3 + M_8, so Cl_odd' = M_3 + M_3 + C has
    # dimension 19, against 15 for the complexified opposite algebra
    cl = thm1_derived.clifford_odd
    assert cl.blocks == ((4, 3), (4, 3), (8, 1))
    assert cl.dim == 96 and cl.unital
    assert sum(m * m for _, m in cl.blocks) == cl.commutant.dim == 19
    assert thm1_derived.opposite_span.dim == 15


@pytest.mark.parametrize("keep_unit", [False, True], ids=["any", "unit_kept"])
def test_closure_raises_when_the_commutant_misses_a_row(monkeypatch, thm1_triple, keep_unit):
    # a C short of one basis row is not an algebra: its center is empty
    # (the unit went with the row) or a block dimension is not a square;
    # either way the closure raises rather than report a dimension
    solve = subspaces.commutant

    def short(space):
        v, parts = solve(space).blocks
        parts = list(parts)
        q, z = parts[1]
        s = z.shape[1]
        flat = z.reshape(len(z), -1)
        if keep_unit:
            unit = np.eye(s).reshape(1, -1) / np.sqrt(s)
            flat = np.vstack([unit, linalg.orthonormal_rows(flat - flat @ unit.T * unit)])
        parts[1] = (q, flat[:-1].reshape(-1, s, s))
        return subspaces.OperatorSubspace(None, space.n, tol=space.tol, blocks=(v, parts))

    monkeypatch.setattr(subspaces, "commutant", short)
    with pytest.raises(RuntimeError, match="Wedderburn blocks"):
        star_algebra.star_closure(_clifford_generators(thm1_triple, even=False))
