"""Hand-coded block forms used as independent oracles.

Each builder writes the expected parametrized matrices entry by entry from
the block displays, with no use of the solver or the kron helpers under
test.  Subspace equality between a solver result and one of these spans is
the dual-route check.  dense_commutant and dense_real_commutant_with_j are
the dense Gram-eigenproblem solvers on all n^2 unknowns, kept as a second
route for the eigenblock commutant solver; dense_star_closure grows and
certifies a closure on all n^2 operator entries, a second route for the
eigenblock star closure.  pairwise_zeroth_order and pairwise_first_order
are the order-condition violations one dense generator pair at a time, a
second route for the stacked support products of triple.
"""

import numpy as np

from fintriple import linalg, star_algebra, subspaces, triple


def _unit8(i, j):
    m = np.zeros((8, 8), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def _unit4(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def _act(left, right):
    """Operator V -> left @ V @ right on vec (column-major), via explicit
    index loops rather than a Kronecker product."""
    op = np.zeros((32, 32), dtype=complex)
    for r_out in range(8):
        for c_out in range(4):
            for r_in in range(8):
                for c_in in range(4):
                    op[r_out + 8 * c_out, r_in + 8 * c_in] = (
                        left[r_out, r_in] * right[c_in, c_out])
    return op


def cf_block_basis():
    """The seven-parameter 8x8 commutant block form: a 2x2 block spread over
    rows/cols {1, 5}, a scalar at (2,2), a scalar times identity on rows 3-4
    and another on rows 6-8."""
    basis = [
        _unit8(1, 1), _unit8(1, 5), _unit8(5, 1), _unit8(5, 5),
        _unit8(2, 2),
        _unit8(3, 3) + _unit8(4, 4),
        _unit8(6, 6) + _unit8(7, 7) + _unit8(8, 8),
    ]
    return basis


def af_commutant_basis():
    """The 112-dimensional algebra commutant: block form tensor all of M4."""
    mats = []
    for c in cf_block_basis():
        for k in range(1, 5):
            for l in range(1, 5):
                mats.append(_act(c, _unit4(k, l)))
    return mats


def af_opposite_commutant_basis():
    """The 112-dimensional opposite commutant: an arbitrary 8x8 block on the
    lepton column, block-diagonal 4+4 blocks on the remaining columns with
    the upper 4x4 shared between the down-type right column and the
    left-handed columns."""
    mats = []
    e11 = _unit4(1, 1)
    e22 = _unit4(2, 2)
    e34 = _unit4(3, 3) + _unit4(4, 4)
    for i in range(1, 9):
        for j in range(1, 9):
            mats.append(_act(_unit8(i, j), e11))
    for i in range(1, 5):  # shared upper block on columns 2-4
        for j in range(1, 5):
            mats.append(_act(_unit8(i, j), e22 + e34))
    for i in range(5, 9):  # independent lower blocks
        for j in range(5, 9):
            mats.append(_act(_unit8(i, j), e22))
            mats.append(_act(_unit8(i, j), e34))
    return mats


def aev_commutant_basis():
    """The 48-dimensional Pati-Salam commutant: three scalar blocks of sizes
    2, 2, 4 tensor all of M4."""
    blocks = [
        _unit8(1, 1) + _unit8(2, 2),
        _unit8(3, 3) + _unit8(4, 4),
        sum(_unit8(i, i) for i in range(5, 9)),
    ]
    mats = []
    for b in blocks:
        for k in range(1, 5):
            for l in range(1, 5):
                mats.append(_act(b, _unit4(k, l)))
    return mats


def clifford_commutant_19_basis():
    """The 19-parameter odd-Clifford commutant: a shared scalar on the
    lepton slots plus two independent 3x3 blocks on the color slots of each
    particle/antiparticle half."""
    p_up = sum(_unit8(i, i) for i in range(1, 5))
    p_low = sum(_unit8(i, i) for i in range(5, 9))
    mats = [_act(p_up, _unit4(1, 1)) + _act(p_low, _unit4(1, 1))]
    for k in range(2, 5):
        for l in range(2, 5):
            mats.append(_act(p_up, _unit4(k, l)))
            mats.append(_act(p_low, _unit4(k, l)))
    return mats


def opposite_center_basis():
    """The four-parameter center of the (complexified) opposite algebra."""
    p_up = sum(_unit8(i, i) for i in range(1, 5))
    p_low = sum(_unit8(i, i) for i in range(5, 9))
    e11 = _unit4(1, 1)
    e22 = _unit4(2, 2)
    color = _unit4(3, 3) + _unit4(4, 4)
    shared = _act(p_up, e11) + _act(p_low, e11)
    return [
        shared,
        _act(p_low, e22),
        _act(p_up, e22 + color),
        _act(p_low, color),
    ]


def opposite_algebra_basis():
    """Fifteen explicit basis elements of the complexified opposite algebra:
    upper half acted on from the right by (scalar + 3x3 block), lower half
    by (two scalars + 2x2 block)."""
    p_up = sum(_unit8(i, i) for i in range(1, 5))
    p_low = sum(_unit8(i, i) for i in range(5, 9))
    mats = [
        _act(p_up, _unit4(1, 1)) + _act(p_low, _unit4(1, 1)),
        _act(p_low, _unit4(2, 2)),
    ]
    for k in range(2, 5):
        for l in range(2, 5):
            mats.append(_act(p_up, _unit4(k, l)))
    for k in range(3, 5):
        for l in range(3, 5):
            mats.append(_act(p_low, _unit4(k, l)))
    return mats


def expected_real_structure():
    """Permutation-with-conjugation matrix built by chasing slots: particle
    slot (r, c) goes to (4 + c, r), antiparticle slot (r, c) to (c, r - 4)."""
    k = np.zeros((32, 32))
    for r in range(1, 9):
        for c in range(1, 5):
            if r <= 4:
                r2, c2 = 4 + c, r
            else:
                r2, c2 = c, r - 4
            k[(r2 - 1) + 8 * (c2 - 1), (r - 1) + 8 * (c - 1)] = 1.0
    return k


#: Per-slot sign of the standard grading: right-handed particles +1,
#: left-handed -1; antiparticle rows carry -1 on right-handed columns and
#: +1 on left-handed columns.
STANDARD_SIGNS = [
    [+1, +1, +1, +1],
    [+1, +1, +1, +1],
    [-1, -1, -1, -1],
    [-1, -1, -1, -1],
    [-1, -1, +1, +1],
    [-1, -1, +1, +1],
    [-1, -1, +1, +1],
    [-1, -1, +1, +1],
]

#: The non-standard grading flips the sign on every quark slot (particle
#: rows: color columns; antiparticle rows 6-8) and keeps the lepton slots.
NONSTANDARD_SIGNS = [
    [+1, -1, -1, -1],
    [+1, -1, -1, -1],
    [-1, +1, +1, +1],
    [-1, +1, +1, +1],
    [-1, -1, +1, +1],
    [+1, +1, -1, -1],
    [+1, +1, -1, -1],
    [+1, +1, -1, -1],
]


def expected_grading(signs):
    return np.diag(np.array(
        [signs[r][c] for c in range(4) for r in range(8)], dtype=complex))


def expected_dirac_free_part_fixture():
    """The augmented Dirac free component at coefficients (1,...,8): lepton
    block entries on column 1, quark block entries on columns 2-4, and the
    gamma entry on column 2, written as explicit (row, col, columns, value)
    records."""
    entries = [
        # lepton block (column 1): ups_nu=1, ups_e=2, omega=6, delta=7
        (1, 3, [1], 1.0), (3, 1, [1], 1.0),
        (2, 4, [1], 2.0), (4, 2, [1], 2.0),
        (2, 5, [1], 6.0), (5, 2, [1], 6.0),
        (5, 6, [1], 7.0), (6, 5, [1], 7.0),
        # quark block (columns 2-4): ups_u=3, ups_d=4, delta=7
        (1, 3, [2, 3, 4], 3.0), (3, 1, [2, 3, 4], 3.0),
        (2, 4, [2, 3, 4], 4.0), (4, 2, [2, 3, 4], 4.0),
        (5, 6, [2, 3, 4], 7.0), (6, 5, [2, 3, 4], 7.0),
        # gamma term (column 2): gamma=8
        (5, 7, [2], 8.0), (7, 5, [2], 8.0),
    ]
    op = np.zeros((32, 32), dtype=complex)
    for i, j, cols, val in entries:
        for c in cols:
            op[(i - 1) + 8 * (c - 1), (j - 1) + 8 * (c - 1)] += val
    return op


def expected_majorana_fixture():
    """The right-handed coupling at value 5: slots (1,1) <-> (5,1)."""
    op = np.zeros((32, 32), dtype=complex)
    op[(5 - 1), (1 - 1)] = 5.0
    op[(1 - 1), (5 - 1)] = 5.0
    return op


def _normalized_generators(gens, extra_ops, n, tol):
    reduced = linalg.orthonormal_rows(
        np.array([linalg.vec(np.asarray(g, dtype=complex)) for g in gens]), tol=tol)
    mats = [linalg.unvec(row, n, n) for row in reduced]
    for op in extra_ops:
        op = np.asarray(op, dtype=complex)
        if linalg.hs_norm(op) > 0.0:
            mats.append(op / linalg.hs_norm(op))
    return mats


def dense_commutant(gens, tol=linalg.DEFAULT_TOL):
    """Commutant from the n^2 x n^2 commutator Gram and one eigensolve."""
    n = np.asarray(gens[0]).shape[0]
    mats = _normalized_generators(gens, [], n, tol)
    kernel = linalg.kernel_from_gram(
        subspaces.commutator_gram(mats), (len(mats) + 1) * n * n, tol)
    return subspaces.OperatorSubspace(kernel, n, tol=tol, orthonormal=True)


def dense_real_commutant_with_j(gens, extra_ops, k_matrix, n, tol=linalg.DEFAULT_TOL):
    """Real commutant with X K = K conj(X) from one 2n^2 x 2n^2 real eigensolve."""
    gram = subspaces.commutator_gram(_normalized_generators(gens, extra_ops, n, tol))
    eye = np.eye(n, dtype=complex)
    lin = np.kron(k_matrix.T.astype(complex), eye)
    anti = -np.kron(eye, k_matrix.astype(complex))
    flat = linalg.real_null_space([], [(lin, anti)], n * n, tol=tol, linear_gram=gram)
    return subspaces.OperatorSubspace(flat, n, field="real", tol=tol, orthonormal=True)


def dense_star_closure(gens, tol=linalg.DEFAULT_TOL, rng_seed=star_algebra._CLOSURE_SEED):
    """Star closure grown and certified in full vec coordinates.

    Returns (space, unital, defect): the span, whether it holds the
    identity, and the residual of its last certification sweep.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    n = gens[0].shape[0]
    n2 = n * n
    rng = np.random.default_rng(rng_seed)
    seed_rows = [linalg.vec(g) for g in gens] + [linalg.vec(g.conj().T) for g in gens]
    flat = linalg.orthonormal_rows(np.array(seed_rows), tol=tol)
    worst = 0.0
    for _ in range(n2 + 1):
        stall = 0
        while flat.shape[0] < n2 and stall < 2:
            d = flat.shape[0]
            k = min(max(2 * d + 8, 16), 256)
            cx = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            cy = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            xs = (cx @ flat).reshape(k, n, n).transpose(0, 2, 1)
            ys = (cy @ flat).reshape(k, n, n).transpose(0, 2, 1)
            prods = np.matmul(xs, ys)
            cand = prods.transpose(0, 2, 1).reshape(k, n2)
            # vec of the adjoint is the conjugate of the C-order flattening
            adj_cand = np.conj(prods.reshape(k, n2)[: k // 2])
            flat, grown = star_algebra._extend_basis(flat, np.vstack([cand, adj_cand]), tol)
            stall = stall + 1 if grown == 0 else 0
        if flat.shape[0] >= n2:
            flat = np.eye(n2, dtype=complex)
            worst = 0.0
            break
        worst, offenders = star_algebra._closure_defects(flat, [n], tol)
        if worst <= tol:
            break
        flat, grown = star_algebra._extend_basis(flat, offenders, tol)
        if grown == 0:
            flat = linalg.orthonormal_rows(np.vstack([flat, offenders]), tol=tol)
    space = subspaces.OperatorSubspace(flat, n, tol=tol, orthonormal=True)
    return space, space.contains(linalg.identity(n)), worst


def pairwise_zeroth_order(t):
    """Largest ||[a, b°]|| over HS-normalized pairs, one dense pair at a time."""
    worst = 0.0
    for a in triple._normalized(t.algebra_gens):
        for b in triple._normalized(t.opposite_gens):
            worst = max(worst, linalg.hs_norm(a @ b - b @ a))
    return worst


def pairwise_first_order(t):
    """Largest ||[[D, a], b°]|| / ||[D, a]||, one dense pair at a time."""
    d = np.asarray(t.dirac, dtype=complex)
    d_norm = linalg.hs_norm(d)
    if d_norm == 0.0:
        return 0.0
    floor = triple._COMMUTATOR_FLOOR * d_norm
    worst = 0.0
    for a in triple._normalized(t.algebra_gens):
        c = d @ a - a @ d
        c_norm = linalg.hs_norm(c)
        if c_norm <= floor:
            continue
        for b in triple._normalized(t.opposite_gens):
            worst = max(worst, linalg.hs_norm(c @ b - b @ c) / c_norm)
    return worst
