"""Hand-coded block forms used as independent oracles.

Each builder writes the expected parametrized matrices entry by entry from
the block displays, with no use of the solver or the kron helpers under
test.  Subspace equality between a solver result and one of these spans is
the dual-route check.  dense_commutant and dense_real_commutant_with_j are
the dense Gram-eigenproblem solvers on all n^2 unknowns, kept as a second
route for the eigenblock commutant solver and for the real commutant that
morita reaches as a real form of a complex space; the real commutant comes
back as rows orthonormal over R, which real_span_residual and real_rank read; dense_star_closure grows and
certifies a closure on all n^2 operator entries by random products and an
all-pairs sweep, a second route for the bicommutant star closure.  pairwise_zeroth_order and pairwise_first_order
are the order-condition violations one dense generator pair at a time, a
second route for the stacked support products of triple.
dense_decompose_dirac is the Dirac decomposition by one factorization of
A''s flat basis outside (A°)' (outside_svd), a second route for the split
per central block of triple.decompose_dirac.  closure_span is
the basis of a star_algebra.Closure by a second solve, C' less the common
kernel's direction, which the closure reads off its blocks instead.
hs_inner, left_kernel, complement, grading_compatible, pi_sm_direct,
rho_degenerate, adjoint, antilinear_apply, antilinear_apply_inverse,
subspace_sum, random_unitary, random_group_element and state are reference
forms that only the tests call.
"""

import itertools

import numpy as np

from fintriple import catalog, layout, linalg, subspaces, triple


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
    return subspaces.OperatorSubspace(kernel, n, tol=tol)


def dense_real_commutant_with_j(gens, extra_ops, k_matrix, n, tol=linalg.DEFAULT_TOL):
    """Real commutant with X K = K conj(X) from one 2n^2 x 2n^2 real eigensolve.

    Returns the vec rows of a basis over R, orthonormal for Re <u, v>.
    """
    gram = subspaces.commutator_gram(_normalized_generators(gens, extra_ops, n, tol))
    eye = np.eye(n, dtype=complex)
    lin = np.kron(k_matrix.T.astype(complex), eye)
    anti = -np.kron(eye, k_matrix.astype(complex))
    return linalg.real_null_space([], [(lin, anti)], n * n, tol=tol, linear_gram=gram)


def real_span_residual(rows, x):
    """HS distance from x to the real span of vec rows orthonormal for Re <u, v>."""
    v = linalg.vec(x)
    return float(np.linalg.norm(v - (rows.conj() @ v).real @ rows))


def real_rank(rows, tol=linalg.DEFAULT_TOL):
    """Dimension over R of the real span of complex vec rows."""
    return linalg.orthonormal_rows(np.hstack([rows.real, rows.imag]), tol=tol).shape[0]


#: Seed of the random products that grow dense_star_closure.
_CLOSURE_SEED = 0x5CA1AB1E


def _extend_basis(flat, candidates, tol):
    """Grow an orthonormal row basis by the part of candidates outside it.

    Candidate rows are normalized first; residuals below tol (relative to the
    unit candidates) are treated as already contained, so a fully redundant
    batch never manufactures spurious directions.
    """
    norms = np.linalg.norm(candidates, axis=1)
    keep = norms > tol
    if not np.any(keep):
        return flat, 0
    cand = candidates[keep] / norms[keep, None]
    if flat.shape[0]:
        cand = cand - (cand @ flat.conj().T) @ flat
    cand = cand[np.linalg.norm(cand, axis=1) > tol * max(cand.shape)]
    if cand.shape[0] == 0:
        return flat, 0
    sigma, vh = linalg.svd_rows(cand)
    new_rows = vh[: int(np.sum(sigma > tol * max(cand.shape)))]
    if new_rows.shape[0] == 0:
        return flat, 0
    # one clean re-orthonormalization keeps accumulated roundoff in check
    merged = linalg.orthonormal_rows(np.vstack([flat, new_rows]), tol=tol)
    return merged, merged.shape[0] - flat.shape[0]


def _pairwise_defects(flat, n, tol):
    """Worst relative residual of basis products and adjoints, and offenders.

    Sweeps every adjoint and every product of two basis elements, 512
    products a batch; the offenders are the up to 64 worst residual rows
    above tol of each batch.
    """
    mats = flat.reshape(-1, n, n).transpose(0, 2, 1)
    step = max(1, 512 // len(mats))
    worst = 0.0
    offenders = []
    # one batch of products alive at a time, not all of them
    batches = (linalg.product_rows(mats[i:i + step], mats)
               for i in range(0, len(mats), step))
    for rows in itertools.chain([np.conj(mats.reshape(-1, n * n))], batches):
        resid = rows - (rows @ flat.conj().T) @ flat
        rel = np.linalg.norm(resid, axis=1) / np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        worst = max(worst, float(rel.max(initial=0.0)))
        bad = np.nonzero(rel > tol)[0]
        offenders.append(resid[bad[np.argsort(rel[bad])[::-1][:64]]])
    return worst, np.vstack(offenders)


def dense_star_closure(gens, tol=linalg.DEFAULT_TOL, rng_seed=_CLOSURE_SEED):
    """Star closure grown and certified in full vec coordinates.

    Random products of span elements grow the span until its dimension
    stalls; an all-pairs sweep of products and adjoints then certifies it,
    its offending residuals fed back until the sweep is clean.  Returns
    (space, unital, defect): the span, whether it holds the identity, and
    the residual of its last certification sweep.
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
            flat, grown = _extend_basis(flat, np.vstack([cand, adj_cand]), tol)
            stall = stall + 1 if grown == 0 else 0
        if flat.shape[0] >= n2:
            flat = np.eye(n2, dtype=complex)
            worst = 0.0
            break
        worst, offenders = _pairwise_defects(flat, n, tol)
        if worst <= tol:
            break
        flat, grown = _extend_basis(flat, offenders, tol)
        if grown == 0:
            flat = linalg.orthonormal_rows(np.vstack([flat, offenders]), tol=tol)
    space = subspaces.OperatorSubspace(flat, n, tol=tol)
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


def outside_svd(s, t):
    """The part of the basis of s outside t, and one factorization of it.

    Returns (outside, sigma, vh, rank): outside = t.outside(s.flat), sigma
    and vh the singular values and right vectors of its adjoint, and rank
    the number of singular values above the cut.  The combinations
    vh[rank:] of the basis of s vanish outside t and span s ∩ t; the kept
    triplets solve least-squares problems in the span of outside.
    """
    outside = t.outside(s.flat)
    sigma, vh = linalg.svd_rows(outside.T)
    rank = linalg.rank_from_singular_values(sigma, outside.shape, min(s.tol, t.tol))
    return outside, sigma, vh.conj(), rank


def dense_decompose_dirac(t, algebra_commutant, opposite_commutant):
    """triple.decompose_dirac's D0, D1, residual and ambiguity on the flats.

    One factorization of the part of A''s n^2-wide basis outside (A°)'
    (outside_svd): its kernel is A' ∩ (A°)', and its kept
    triplets give the minimum-norm D1 whose part outside (A°)' is that of
    D; D0 is the (A°)' projection of D - D1 from the flat basis.  Neither
    the order conditions nor the J-symmetric part are taken.
    """
    n = t.n
    d = np.asarray(t.dirac, dtype=complex)
    outside, sigma, vh, rank = outside_svd(algebra_commutant, opposite_commutant)
    # outside* = U S vh with U = outside* vh* / S, and P0 outside* = 0, so
    # (D - P0 D) U = D outside* vh* / S
    kept = vh[:rank]
    c1 = (np.conj(outside @ np.conj(linalg.vec(d))) @ kept.conj().T / sigma[:rank] ** 2) @ kept
    d1 = linalg.unvec(c1 @ algebra_commutant.flat, n, n)
    basis = opposite_commutant.flat
    d0 = linalg.unvec((basis.conj() @ linalg.vec(d - d1)) @ basis, n, n)
    return triple.DiracDecomposition(d0, d1, linalg.hs_norm(d - d0 - d1),
                                     algebra_commutant.dim - rank)


def hs_inner(x, y):
    """Hilbert-Schmidt inner product Tr(x* y), antilinear in x."""
    return complex(np.vdot(np.asarray(x), np.asarray(y)))


def left_kernel(a, tol, scale=0.0):
    """Orthonormal rows c with c @ a = 0.

    The rank is cut on a's own shape, at tol * max(a.shape) *
    max(sigma_max, scale), relative to sigma_max alone by default; the rows
    are the right singular vectors of a* that fall below the cut.  a must
    have at most as many rows as columns.
    """
    sigma, vh = linalg.svd_rows(a.conj().T)
    return vh[np.count_nonzero(sigma > tol * max(a.shape) * max(sigma.max(initial=0.0), scale)):]


def closure_span(closure):
    """alg(S) of a star_algebra.Closure as a span, by a second solve.

    V = C' = alg(S) + C P_K, an HS-orthogonal sum, so alg(S) is V less the
    direction of P_K, the projection onto the common kernel K of the seed.
    """
    seed, n, tol = closure.seed, closure.n, closure.seed.tol
    if not seed.dim:  # zero generators close onto the zero algebra
        return seed
    flat = subspaces.commutant(closure.commutant).flat
    # the rows v with M v = 0 for every seed matrix M are an orthonormal basis of K
    kernel = left_kernel(seed.matrices.reshape(-1, n).T, tol)
    if kernel.shape[0]:
        p = linalg.vec(kernel.T @ kernel.conj())
        p /= np.linalg.norm(p)
        flat = linalg.orthonormal_rows(flat - np.outer(flat @ p.conj(), p), tol=tol)
    return subspaces.OperatorSubspace(flat, n, tol=tol)


def complement(s):
    """HS-orthogonal complement within the ambient operator space."""
    if s.dim == 0:
        return subspaces.OperatorSubspace(np.eye(s.n * s.n, dtype=complex), s.n, tol=s.tol)
    _, _, vh = np.linalg.svd(s.flat, full_matrices=True)
    return subspaces.OperatorSubspace(vh[s.dim:], s.n, tol=s.tol)


def grading_compatible(free_part, grading, tol=linalg.DEFAULT_TOL):
    """True iff the grading anticommutes with the given Dirac component."""
    d0 = np.asarray(free_part, dtype=complex)
    g = np.asarray(grading, dtype=complex)
    nrm = linalg.hs_norm(d0)
    if nrm == 0.0:
        return True
    return linalg.hs_norm(g @ d0 + d0 @ g) <= tol * 2.0 * nrm


def pi_sm_direct(g):
    """catalog.pi_sm written as one summand per sector, each acting by _act."""
    catalog._require_unitary(g)
    lam, q, m = g.phase, g.weak, g.color
    l1 = np.zeros((4, 4), dtype=complex)
    l1[0, 0] = lam ** 3
    l1[1, 1] = np.conj(lam) ** 3
    l1[2:4, 2:4] = q
    r1 = np.zeros((4, 4), dtype=complex)
    r1[0, 0] = np.conj(lam) ** 3
    r1[1:4, 1:4] = lam * m.conj().T
    l2 = np.zeros((4, 4), dtype=complex)
    l2[0, 0] = lam ** 3
    l2[1:4, 1:4] = np.conj(lam) * m
    r2 = np.zeros((4, 4), dtype=complex)
    r2[0, 0] = np.conj(lam) ** 3
    r2[1, 1] = lam ** 3
    r2[2:4, 2:4] = q.conj().T
    upper = np.zeros((8, 8), dtype=complex)
    upper[0:4, 0:4] = l1
    lower = np.zeros((8, 8), dtype=complex)
    lower[4:8, 4:8] = l2
    return _act(upper, r1) + _act(lower, r2)


def rho_degenerate(g):
    """The degenerate representation of one group element (catalog.rho_degenerate_stack)."""
    return catalog.rho_degenerate_stack([g])[0]


def adjoint(op):
    """Conjugate transpose."""
    return np.asarray(op).conj().T


def antilinear_apply(j, v):
    """J v = K conj(v) for a linalg.AntilinearOperator j."""
    return j.matrix @ np.conj(np.asarray(v, dtype=complex))


def antilinear_apply_inverse(j, v):
    """J^{-1} v = K^T conj(v)."""
    return j.matrix.T @ np.conj(np.asarray(v, dtype=complex))


def subspace_sum(s, t):
    """Span of the union of two subspaces."""
    if s.n != t.n:
        raise ValueError("ambient dimensions differ")
    return subspaces.span_of(np.concatenate([s.matrices, t.matrices]), tol=min(s.tol, t.tol),
                             n=s.n)


def random_unitary(rng, n):
    """Haar-ish unitary from a QR factorization with phase fixing.

    rng is a random.Random; its Gaussian draws fill z (linalg.complex_gaussian).
    """
    return catalog._phase_fixed_q(linalg.complex_gaussian(rng, (1, n, n)))[0]


def random_group_element(rng, special=False):
    """One random unitary group element drawn from the random.Random rng, as
    catalog.random_group_elements draws each; special=True normalizes
    determinants so the blocks land in SU(2) and SU(3)."""
    phase = np.exp(2j * np.pi * rng.random())
    weak = random_unitary(rng, 2)
    color = random_unitary(rng, 3)
    if special:
        weak = weak / np.linalg.det(weak) ** (1 / 2)
        color = color / np.linalg.det(color) ** (1 / 3)
    return catalog.GroupElement(phase=phase, weak=weak, color=color)


def state(r, c):
    """8x4 basis state E(r, c), 1-based."""
    if not (1 <= r <= layout.LEFT_DIM and 1 <= c <= layout.RIGHT_DIM):
        raise ValueError(f"state ({r}, {c}) out of range")
    v = np.zeros((layout.LEFT_DIM, layout.RIGHT_DIM), dtype=complex)
    v[r - 1, c - 1] = 1.0
    return v
