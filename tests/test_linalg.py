import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fintriple import catalog, linalg, star_algebra

import oracles


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_action_identity():
    op = linalg.kron_action(np.eye(8, dtype=complex), np.eye(4, dtype=complex))
    np.testing.assert_allclose(op, np.eye(32))


def test_kron_action_majorana_block():
    # (e51 + e15) tensor e11 at unit coefficient, against the slot-level oracle
    left = np.zeros((8, 8), dtype=complex)
    left[4, 0] = left[0, 4] = 1.0
    op = linalg.kron_action(left, np.zeros((4, 4), dtype=complex)
                            + np.diag([1, 0, 0, 0]).astype(complex))
    expected = oracles.expected_majorana_fixture() / 5.0
    np.testing.assert_allclose(op, expected, atol=1e-15)
    np.testing.assert_allclose(catalog.dirac_majorana_term(1.0), expected, atol=1e-15)


def test_kron_action_shape_errors():
    with pytest.raises(ValueError):
        linalg.kron_action(np.zeros((8, 4)), np.eye(4))
    with pytest.raises(ValueError):
        linalg.kron_action(np.eye(8), np.zeros((4, 3)))


def _assert_same_bits(x, y):
    # np.array_equal takes -0.0 == 0.0, so the sign bits are compared too
    assert x.dtype == y.dtype and np.array_equal(x, y)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(x)), np.signbit(part(y)))


def test_kron_action_is_np_kron_bit_for_bit():
    right = [np.eye(4, dtype=complex), np.diag([1, 1, -1, -1]).astype(complex),
             oracles._unit4(1, 1), oracles._unit4(2, 3)]
    for gens in (catalog.algebra_af_generators(), catalog.algebra_bf_generators(),
                 catalog.algebra_aev_generators()):
        for g in gens:
            for b in right:
                _assert_same_bits(linalg.kron_action(g[:8, :8], b), np.kron(b.T, g[:8, :8]))
    rng = np.random.default_rng(17)
    for m, k in ((8, 4), (3, 5), (1, 6), (7, 1)):
        a, b = _rand_complex(rng, m, m), _rand_complex(rng, k, k)
        a[0, 0], b[-1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
        _assert_same_bits(linalg.kron_action(a, b), np.kron(b.T, a))


def test_kron_action_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.integers(-3, 4, (8, 8)).astype(complex)
        b = rng.integers(-3, 4, (4, 4)).astype(complex)
        c = rng.integers(-3, 4, (8, 8)).astype(complex)
        d = rng.integers(-3, 4, (4, 4)).astype(complex)
        lhs = linalg.kron_action(a, b) @ linalg.kron_action(c, d)
        rhs = linalg.kron_action(a @ c, d @ b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        # direct oracle on vec(V) for random V
        v = _rand_complex(rng, 8, 4)
        np.testing.assert_allclose(
            linalg.kron_action(a, b) @ linalg.vec(v), linalg.vec(a @ v @ b),
            atol=1e-12)


def test_vec_kron_consistency_bulk():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = _rand_complex(rng, 8, 8)
        b = _rand_complex(rng, 4, 4)
        v = _rand_complex(rng, 8, 4)
        lhs = linalg.kron_action(a, b) @ linalg.vec(v)
        rhs = linalg.vec(a @ v @ b)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


def test_adjoint():
    rng = np.random.default_rng(3)
    eye = np.eye(32, dtype=complex)
    np.testing.assert_allclose(oracles.adjoint(eye), eye)
    a, b = _rand_complex(rng, 8, 8), _rand_complex(rng, 4, 4)
    np.testing.assert_allclose(
        oracles.adjoint(linalg.kron_action(a, b)),
        linalg.kron_action(a.conj().T, b.conj().T), atol=1e-13)
    x = _rand_complex(rng, 32, 32)
    np.testing.assert_allclose(oracles.adjoint(oracles.adjoint(x)), x)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 6, 6), elements=st.floats(-4, 4)),
       arrays(np.float64, (2, 6, 6), elements=st.floats(-4, 4)))
def test_adjoint_antimultiplicative(re, im):
    x = re[0] + 1j * im[0]
    y = re[1] + 1j * im[1]
    np.testing.assert_allclose(
        oracles.adjoint(x @ y), oracles.adjoint(y) @ oracles.adjoint(x), atol=1e-10)


def test_hs_inner_examples():
    e11_e11 = linalg.kron_action(oracles._unit8(1, 1), oracles._unit4(1, 1))
    e22_e11 = linalg.kron_action(oracles._unit8(2, 2), oracles._unit4(1, 1))
    assert oracles.hs_inner(e11_e11, e11_e11) == pytest.approx(1.0)
    assert oracles.hs_inner(e11_e11, e22_e11) == pytest.approx(0.0)
    eye = np.eye(32, dtype=complex)
    assert oracles.hs_inner(eye, eye) == pytest.approx(32.0)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 5, 5), elements=st.floats(-4, 4)),
       arrays(np.float64, (2, 5, 5), elements=st.floats(-4, 4)))
def test_hs_inner_conjugate_symmetry_and_positivity(re, im):
    x = re[0] + 1j * im[0]
    y = re[1] + 1j * im[1]
    assert oracles.hs_inner(x, y) == pytest.approx(np.conj(oracles.hs_inner(y, x)))
    assert oracles.hs_inner(x, x).real >= -1e-12
    assert abs(oracles.hs_inner(x, x).imag) <= 1e-12


def test_hs_inner_definite():
    rng = np.random.default_rng(9)
    x = _rand_complex(rng, 32, 32)
    assert oracles.hs_inner(x, x).real > 0
    assert linalg.hs_norm(np.zeros((32, 32))) == 0.0


def _commutation_constraints(gens, n):
    eye = np.eye(n, dtype=complex)
    return [np.kron(g.T, eye) - np.kron(eye, g) for g in gens]


def test_real_null_space_reality_constraint():
    # X = conj(X) alone cuts the 2048 real dimensions down to 1024
    n2 = 32 * 32
    eye = np.eye(n2, dtype=complex)
    basis = linalg.real_null_space([], [(eye, -eye)], n2)
    assert basis.shape[0] == 1024
    assert max(np.linalg.norm(row.imag) for row in basis) <= 1e-12


def test_real_null_space_unconstrained():
    basis = linalg.real_null_space([], [], 32 * 32)
    assert basis.shape[0] == 2048


def test_real_null_space_j_commuting_intersection():
    gens = catalog.algebra_af_generators()
    j = catalog.real_structure()
    opp = [j.conjugate_operator(g) for g in gens]
    lin = _commutation_constraints(list(gens) + list(opp), 32)
    eye = np.eye(32, dtype=complex)
    anti = [(np.kron(j.matrix.T.astype(complex), eye),
             -np.kron(eye, j.matrix.astype(complex)))]
    basis = linalg.real_null_space(lin, anti, 1024)
    d_r = catalog.dirac_majorana_term(1.0)
    assert oracles.real_span_residual(basis, d_r) <= 1e-9 * linalg.hs_norm(d_r)


def test_antilinear_operator_validation():
    with pytest.raises(ValueError):
        linalg.AntilinearOperator(np.ones((4, 4)))
    k = catalog.real_structure()
    assert k.dim == 32
    rng = np.random.default_rng(2)
    v = _rand_complex(rng, 32)
    w = _rand_complex(rng, 32)
    # antiunitary: <Jv, Jw> = <w, v>
    jv, jw = oracles.antilinear_apply(k, v), oracles.antilinear_apply(k, w)
    assert np.vdot(jv, jw) == pytest.approx(np.vdot(w, v))
    np.testing.assert_allclose(oracles.antilinear_apply_inverse(k, jv), v, atol=1e-12)


def test_operator_validation():
    with pytest.raises(ValueError):
        linalg.ensure_operator(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        linalg.ensure_operator(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        linalg.ensure_operator(np.eye(3), dim=4)


def _svd_case(shape, dtype, rank, seed):
    rng = np.random.default_rng(seed)

    def draw(*s):
        x = rng.standard_normal(s)
        return x + 1j * rng.standard_normal(s) if dtype is complex else x

    m, n = shape
    return draw(m, n) if rank is None else draw(m, rank) @ draw(rank, n)


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("shape, rank", [
    ((24, 1024), None),    # wide: SVD of the adjoint
    ((24, 1024), 3),
    ((1024, 160), None),   # tall, ratio >= 2: R-only QR first
    ((1024, 160), 3),
    ((320, 160), None),    # ratio exactly 2
    ((165, 160), None),    # near-square: direct SVD
    ((64, 64), None),
    ((1, 50), None),
    ((50, 1), None),
])
def test_svd_rows_matches_the_direct_svd(shape, rank, dtype):
    a = _svd_case(shape, dtype, rank, seed=sum(shape) + (rank or 0))
    sigma, vh = linalg.svd_rows(a)
    _, ref_sigma, ref_vh = np.linalg.svd(a, full_matrices=False)
    k = min(shape)
    assert sigma.shape == (k,) and vh.shape == (k, shape[1])
    np.testing.assert_allclose(sigma, np.linalg.svd(a, compute_uv=False),
                               rtol=0, atol=1e-13 * ref_sigma[0])
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(k), rtol=0, atol=1e-12)
    # right singular vectors: a vh* has orthogonal columns of norms sigma
    av = a @ vh.conj().T
    np.testing.assert_allclose(av.conj().T @ av, np.diag(sigma ** 2),
                               rtol=0, atol=1e-12 * ref_sigma[0] ** 2)
    for tol in (1e-6, 1e-9, 1e-13):
        r = linalg.rank_from_singular_values(sigma, a.shape, tol)
        assert r == linalg.rank_from_singular_values(ref_sigma, a.shape, tol)
        assert r == (rank or k)
    # the leading r rows span the row space of the direct SVD's: the
    # projector difference is the part of vh[:r] outside that span
    r = rank or k
    outside = vh[:r] - (vh[:r] @ ref_vh[:r].conj().T) @ ref_vh[:r]
    assert np.linalg.norm(outside, 2) <= 1e-12


def _blocks_of(a, rng):
    """Groupings of a's rows: one-row blocks, random cuts (some blocks
    empty) and a generator of those."""
    cuts = np.sort(rng.choice(len(a) + 1, 9))
    return [[row[None] for row in a], np.split(a, cuts), iter(np.split(a, cuts[::2]))]


@pytest.mark.parametrize("shape, rank", [
    ((1024, 72), None),    # tall: folded into R as the rows arrive
    ((1024, 72), 9),
    ((300, 150), None),    # ratio exactly 2: one fold
    ((165, 160), None),    # near-square: direct SVD
    ((24, 1024), 5),       # wide: SVD of the adjoint
])
def test_svd_rows_on_row_blocks_gives_the_bits_of_their_stack(shape, rank):
    # the fold boundaries depend on the rows in order alone, so every
    # grouping gives the bits of the stack as one block; the stack held
    # whole is factored in one QR, to the same singular values
    rng = np.random.default_rng(sum(shape))
    a = _svd_case(shape, complex, rank, seed=sum(shape))
    a[[1, len(a) // 2, len(a) - 1]] = 0.0
    sigma, vh = linalg.svd_rows([a])
    held = linalg.svd_rows(a)[0]
    np.testing.assert_allclose(sigma, held, rtol=0, atol=1e-13 * held[0])
    for blocks in _blocks_of(a, rng):
        got_sigma, got_vh = linalg.svd_rows(blocks)
        assert np.array_equal(got_sigma, sigma) and np.array_equal(got_vh, vh)


@pytest.mark.parametrize("shape", [(1024, 72), (600, 150), (165, 160), (24, 1024)])
def test_svd_rows_on_row_blocks_matches_the_svd_of_the_stack(shape):
    # zero rows, a block of rank 2 and one-row blocks, on tall,
    # near-square and wide shapes
    rng = np.random.default_rng(3 * sum(shape))
    a = _rand_complex(rng, *shape)
    m, n = shape
    a[[2, m // 2]] = 0.0
    third = m // 3
    a[third:2 * third] = _rand_complex(rng, third, 2) @ a[:2]
    blocks = ([row[None] for row in a[:third]] + [a[third:2 * third]]
              + np.array_split(a[2 * third:], 3))
    sigma, vh = linalg.svd_rows(blocks)
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(sigma, ref, rtol=1e-12, atol=1e-13 * ref[0])
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(len(vh)), rtol=0, atol=1e-12)
    av = a @ vh.conj().T
    np.testing.assert_allclose(av.conj().T @ av, np.diag(sigma ** 2),
                               rtol=0, atol=1e-12 * ref[0] ** 2)


def test_orthonormal_rows_drops_the_same_noise_rows_from_blocks_as_from_a_stack():
    # 160 rows of rank 6 on 30 of 200 columns, tall enough to be folded,
    # with zero rows and two noise rows, 1e-16 and 3e-17 of the largest
    # norm, each on a column of its own: kept, either would add a rank
    rng = np.random.default_rng(77)
    width = 200
    support = np.sort(rng.choice(width, 32, replace=False))
    rows = np.zeros((160, width), dtype=complex)
    rows[:, support[:30]] = _rand_complex(rng, 160, 6) @ _rand_complex(rng, 6, 30)
    rows[[4, 21, 90]] = 0.0
    top = np.linalg.norm(rows, axis=1).max()
    rows[9] = rows[33] = 0.0
    rows[9, support[30]] = 1e-16 * top
    rows[33, support[31]] = 3e-17 * top
    stack = linalg.orthonormal_rows(rows)
    assert stack.shape == (6, width)
    assert not stack[:, support[30:]].any()
    for cuts in ([9, 10], [1, 2, 3, 21, 33, 34, 120], list(range(1, 160))):
        assert np.array_equal(linalg.orthonormal_rows(np.split(rows, cuts)), stack)
    # the same blocks on their support alone give the same bits
    compact = [b[:, support] for b in np.split(rows, [12, 100])]
    assert np.array_equal(linalg.orthonormal_rows(compact, columns=support, width=width), stack)


def _owners(attr):
    """module.function of every place in the package that names attr, as an
    attribute or as the end of an imported name."""
    package = Path(linalg.__file__).resolve().parent
    owners = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute) and node.attr == attr)
                    or (isinstance(node, ast.alias) and node.name.endswith(attr))):
                inside = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                name = max(inside, key=lambda f: f.lineno).name if inside else "<module>"
                owners.add(f"{path.stem}.{name}")
    return owners


def test_thin_svd_only_inside_svd_rows():
    # every SVD of the package goes through the one kernel, linalg.svd_rows
    assert _owners("svd") == {"linalg.svd_rows"}


def test_qr_only_in_svd_rows_and_the_haar_draw():
    # every rank decision's QR is a fold of svd_rows; the Haar draw of the
    # gauge-group elements keeps its own stacked QR
    assert _owners("qr") == {"linalg.svd_rows", "catalog._phase_fixed_q"}


def test_einsum_only_inside_the_commutator_sweep():
    # the certificate and every closure's defect and membership measure
    # commutators against a block basis through the one kernel
    assert _owners("einsum") == {"subspaces._commutator_norms"}


def test_rank_cut_floors_sigma_max_at_one():
    # every system is built from unit-norm generators or rows, so a system
    # of norm far below 1 is roundoff and has rank 0; above 1 the cut is
    # relative to sigma_max
    sigma = np.array([2.0, 1e-3, 1e-12])
    assert linalg.singular_value_cut(sigma, (3, 4), 1e-9) == pytest.approx(8e-9)
    assert linalg.rank_from_singular_values(sigma, (3, 4), 1e-9) == 2
    assert linalg.singular_value_cut(1e-12 * sigma, (3, 4), 1e-9) == pytest.approx(4e-9)
    assert linalg.rank_from_singular_values(1e-12 * sigma, (3, 4), 1e-9) == 0


def test_product_rows_lists_every_product_left_major():
    rng = np.random.default_rng(9)
    left = _rand_complex(rng, 3, 5, 5)
    right = _rand_complex(rng, 4, 5, 5)
    rows = linalg.product_rows(left, right)
    expected = np.array([linalg.vec(a @ b) for a in left for b in right])
    assert rows.shape == (12, 25)
    assert np.allclose(rows, expected, atol=1e-13)


def test_left_kernel_annihilates_and_cuts_on_the_shape():
    rng = np.random.default_rng(12)
    # rows 4 and 5 depend on rows 0-3, row 4 with real and row 5 with
    # imaginary coefficients: a 2-dimensional left kernel
    b = _rand_complex(rng, 4, 40)
    a = np.vstack([b, rng.standard_normal((1, 4)) @ b, 1j * b[:1]])
    c = oracles.left_kernel(a, 1e-9)
    assert c.shape == (2, 6)
    assert np.linalg.norm(c @ a) <= 1e-12
    np.testing.assert_allclose(c @ c.conj().T, np.eye(2), atol=1e-12)
    # scale raises the cut above a tiny matrix's own largest singular value
    assert oracles.left_kernel(1e-12 * a, 1e-9).shape == (2, 6)
    assert oracles.left_kernel(1e-12 * a, 1e-9, scale=1.0).shape == (6, 6)


def test_product_rows_of_rectangular_factors():
    rng = np.random.default_rng(10)
    left = _rand_complex(rng, 2, 3, 4)
    right = _rand_complex(rng, 5, 4, 6)
    rows = linalg.product_rows(left, right)
    expected = np.array([linalg.vec(a @ b) for a in left for b in right])
    assert rows.shape == (10, 18)
    assert np.allclose(rows, expected, atol=1e-13)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
def test_orthonormal_rows_on_zero_columns_matches_a_dense_rotation(tol):
    # 12 rows on 8 of 400 columns: rank 5, and a sixth singular value of
    # about 70 tol, above the cut a 12 x 8 shape would take (12 tol) and
    # below the one of the full 12 x 400 system (400 tol).  Row 3 is zero
    # and row 7 is noise below the norm filter, with a column of its own.
    # A unitary rotation makes every column nonzero; the support rule must
    # give the same rank and span.
    rng = np.random.default_rng(31)
    width = 400
    support = np.sort(rng.choice(width, 8, replace=False))
    lone = np.setdiff1d(np.arange(width), support)[0]
    u, _ = np.linalg.qr(_rand_complex(rng, 12, 6))
    v, _ = np.linalg.qr(_rand_complex(rng, 8, 6))
    sparse = np.zeros((12, width), dtype=complex)
    sparse[:, support] = u @ np.diag([1, 1, 1, 1, 1, 70 * tol]) @ v.conj().T
    sparse[3] = 0.0
    sparse[7] *= 1e-16
    sparse[7, lone] = 1e-16
    q, _ = np.linalg.qr(_rand_complex(rng, width, width))
    basis = linalg.orthonormal_rows(sparse, tol=tol)
    dense = linalg.orthonormal_rows(sparse @ q, tol=tol)
    assert basis.shape == dense.shape == (5, width)
    assert not basis[:, np.setdiff1d(np.arange(width), support)].any()
    np.testing.assert_allclose(basis @ basis.conj().T, np.eye(5), atol=1e-12)
    rotated = basis @ q
    outside = rotated - (rotated @ dense.conj().T) @ dense
    assert np.linalg.norm(outside, 2) <= 1e-12
    # the same rows given on their support alone give the same bits
    columns = np.append(support, lone)
    order = np.argsort(columns)
    compact = linalg.orthonormal_rows(sparse[:, columns[order]], tol=tol,
                                      columns=columns[order], width=width)
    assert np.array_equal(compact, basis)


def test_orthonormal_rows_do_not_depend_on_the_memory_layout():
    # B_F's closure basis plus vec(1): 13 of the normalized singular values
    # are 1, so a factorization that followed the layout could rotate
    # within that eigenspace; C- and F-ordered copies give the same bits
    basis = oracles.closure_span(star_algebra.star_closure(catalog.algebra_bf_generators())).flat
    rows = np.vstack([basis, linalg.vec(np.eye(32))])
    c_order = linalg.orthonormal_rows(np.ascontiguousarray(rows))
    f_order = linalg.orthonormal_rows(np.asfortranarray(rows))
    assert np.array_equal(c_order, f_order)
