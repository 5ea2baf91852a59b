"""Dense complex operator arithmetic and tolerance-controlled kernel solvers.

Operators are plain complex ndarrays.  They act on the column-major
vectorization of a rectangular matrix V, and the single convention fixed here
is

    kron_action(a, b) @ vec(V) == vec(a @ V @ b)

for square a, b of compatible sizes.  Every other module reuses vec/unvec and
kron_action rather than restating the flattening order.

Rank decisions use one relative rule throughout: a singular value sigma is
treated as zero when sigma <= tol * max(m, n) * max(sigma_max, 1)
(singular_value_cut; every system is built from unit-norm generators or
rows, and may be pure roundoff), applied to the singular values of an
explicit constraint matrix and never squared.  Those singular values, and the right
singular vectors that span the kernel, are computed through svd_rows, the
one thin-SVD kernel of the package; the cut is always taken with the shape
of the constraint matrix itself, also where orthonormal_rows factors only
the rows and columns of a stack that are nonzero.  Every span and kernel
is taken over C:
the one real space the package asks about, the commutant with the real
structure, is reached as a real form of a complex space (morita).  The
solvers proper live in subspaces (commutant).
kernel_from_gram and real_null_space are dense Gram-eigenproblem kernels on
all n^2 (or 2 n^2 real) unknowns, with the threshold squared; nothing in
the package calls them, and the test-suite uses them as an independent
oracle.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

#: Smallest accepted tol.  Below it roundoff in the 1024-coordinate
#: constraint systems reaches the rank cut and verdicts flip (at 1e-14 the
#: Theorem 2 verdict property_m already reverses); configs and --tol take
#: tol in [TOL_FLOOR, 1).
TOL_FLOOR = 1e-13


def ensure_operator(x, dim=None):
    """Validate and return x as a square, finite complex matrix."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"operator must be {dim}x{dim}, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("operator has non-finite entries")
    return m


def vec(m):
    """Column-major flattening."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of vec for a rows x cols matrix."""
    return np.asarray(v, dtype=complex).reshape((rows, cols), order="F")


def complex_gaussian(rng, shape):
    """Array of complex standard Gaussians drawn from a random.Random.

    The real parts of all entries are drawn first, in C order, then the
    imaginary parts, each by rng.gauss; a few thousand draws do not need
    numpy.random, whose import costs every process about 6 MB.
    """
    count = int(np.prod(shape))
    draws = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * count)])
    return (draws[:count] + 1j * draws[count:]).reshape(shape)


def product_rows(left, right):
    """vec rows of every product a @ b, a over left and b over right.

    left is an (s, p, m) stack and right a (d, m, q) stack; row i * d + j is
    vec(left[i] @ right[j]), of length p * q.  All s * d products come from
    one stacked GEMM.
    """
    s, p, m = left.shape
    d, _, q = right.shape
    prod = left.reshape(s * p, m) @ right.transpose(1, 0, 2).reshape(m, d * q)
    # vec is the column-major flattening, i.e. C-order of the transpose.
    return prod.reshape(s, p, d, q).transpose(0, 2, 3, 1).reshape(s * d, q * p)


def kron_action(a, b):
    """Operator sending vec(V) to vec(a V b) for V of shape (a.rows, b.rows).

    a multiplies from the left, b from the right.  Both factors must be
    square; the primary use is a in M_8 and b in M_4, giving a 32x32
    operator, but the construction is generic in the dimensions.  a and b
    may also be stacks with the same leading shape, one operator each.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"left factor must be square, got {a.shape}")
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"right factor must be square, got {b.shape}")
    # np.kron(b.T, a) as one broadcast product: entry (i m + p, j m + r) is
    # b[j, i] a[p, r], with np.kron's operand order and so its bits
    k, m = b.shape[-1], a.shape[-1]
    prod = np.swapaxes(b, -1, -2)[..., :, None, :, None] * a[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], k * m, k * m)


def hs_norm(x):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(x)))


def identity(n):
    return np.eye(n, dtype=complex)


class AntilinearOperator:
    """Antilinear map v -> K conj(v) with a real orthogonal matrix K.

    Houses the real structure: K orthogonal makes the map an antiunitary
    isometry.  conjugate_operator gives the linear map X -> J X J^{-1}.
    """

    def __init__(self, matrix):
        k = np.asarray(matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"antilinear matrix must be square, got {k.shape}")
        if np.linalg.norm(k @ k.T - np.eye(k.shape[0])) > 1e-12 * k.shape[0]:
            raise ValueError("antilinear matrix must be orthogonal")
        self.matrix = k

    def conjugate_operator(self, x):
        """J X J^{-1} for a linear operator X, or each of a stack, as matrices."""
        return self.matrix @ np.conj(np.asarray(x, dtype=complex)) @ self.matrix.T


def singular_value_cut(sigma, shape, tol):
    """Rank cut tol * max(shape) * max(sigma_max, 1).

    Singular values at or below the cut count as zero; sigma may come in
    any order, such as the union of the singular values of the diagonal
    blocks of one block-diagonal system.  Every system here is built from
    unit-norm generators or rows, so 1 is its scale, where it may be zero
    up to roundoff (commutators with a scalar) and sigma_max is noise.
    """
    return tol * max(shape) * max(float(np.max(sigma, initial=0.0)), 1.0)


def rank_from_singular_values(sigma, shape, tol):
    """Number of singular values above singular_value_cut(sigma, shape, tol)."""
    return int(np.sum(sigma > singular_value_cut(sigma, shape, tol)))


def svd_rows(a):
    """Singular values and thin Vh of a, with U never formed.

    a is one m x n matrix, held whole, or a sequence of row blocks of
    width n, read in order as the rows of their stack, which is never
    formed when it is tall.  Returns (sigma, vh), sigma in decreasing order
    and the rows of vh the right singular vectors, as
    np.linalg.svd(a, full_matrices=False) would give them (up to the phase
    of each row).  One fixed shape rule picks the factorization:

    - tall (m >= 2n): the R of a QR factorization a = Q R first, then the
      SVD of the n x n R (Chan's R-SVD, ACM TOMS 8, 1982).  Row blocks are
      folded into R as they arrive, a sequential TSQR (Demmel, Grigori,
      Hoemmen and Langou, SIAM J. Sci. Comput. 34, 2012): the first 2n
      rows are factored, then [R; next n rows] each time n more have come;
      then the near-square [R; rows left] takes the direct SVD.  At most 2n
      rows are held, and the fold boundaries depend only on the rows in
      order, so any grouping of the same rows gives the same bits;
    - wide (m < n): the thin SVD of the adjoint a* = U S V*, whose left
      vectors are the right vectors of a, so vh = U*;
    - otherwise a direct thin SVD, which beats QR-first on near-square
      matrices.

    The singular values are those of a to backward error in every branch:
    the adjoint has the same singular values, and each fold multiplies by
    a unitary, so a and R share their singular values and right vectors.
    Callers take rank cuts with a's own shape, so no rank decision moves.
    A caller may pass a's nonzero columns alone (the support rule of
    orthonormal_rows): a zero column adds only zero singular values and
    zero entries of the right vectors, so the vectors on the support are
    those of a, and the rank cut is still taken with a's full shape.
    """
    held = isinstance(a, np.ndarray)
    pending, count, folded = [], 0, False
    for block in [a] if held else a:
        n = block.shape[1]
        while not held and n and count + len(block) >= (fold := n if folded else 2 * n):
            pending.append(block[:fold - count])
            block = block[fold - count:]
            pending, count, folded = [np.linalg.qr(np.concatenate(pending), mode="r")], 0, True
        pending.append(block)
        count += len(block)
    # what is left, [R; fewer than n rows] once folded, is near-square or
    # wide; a matrix held whole is factored in one QR when tall
    a = pending[0] if len(pending) == 1 else np.concatenate(pending)
    if len(a) >= 2 * a.shape[1] > 0:
        a = np.linalg.qr(a, mode="r")
    if len(a) < a.shape[1]:
        u, sigma, _ = np.linalg.svd(a.conj().T, full_matrices=False)
        return sigma, u.conj().T
    _, sigma, vh = np.linalg.svd(a, full_matrices=False)
    return sigma, vh


def orthonormal_rows(rows, tol=DEFAULT_TOL, columns=None, width=None):
    """Orthonormal basis (as rows) of the complex span of the given flat vectors.

    rows is one matrix (a single vector is one row) or a list of row
    blocks of one width, read as the rows of their stack, which is never
    formed: the blocks are read for their norms and support, then
    normalized one at a time into svd_rows' fold.
    Rows are normalized before the rank decision so tolerances are
    scale-free in the generating coefficients; rows more than a tolerance
    factor smaller than the largest one in any block are noise at the
    working precision and are dropped rather than amplified.

    The rows may come on a subset of the coordinates of vectors of length
    width: columns, increasing, gives the coordinate of each of their
    columns, and they are zero on every other one.  Support rule: the
    exactly zero rows, which the norm filter never keeps, are dropped, the
    norms are taken on the columns nonzero in some row of some block, and
    the SVD on those nonzero in some kept row; its right vectors are
    scattered back to the width coordinates.  The norm filter and the rank
    cut are those of the full system, kept rows x width, so neither the
    span nor its rank depends on which zero rows and columns the rows came
    with, and two inputs with the same nonzero rows, in order, give the
    same bits, whether as one stack or in blocks.
    """
    blocks = [np.atleast_2d(np.ascontiguousarray(b, dtype=complex))
              for b in ([rows] if isinstance(rows, np.ndarray) else rows)]
    if columns is None:
        width = blocks[0].shape[1]
        columns = np.arange(width)
    support = np.flatnonzero(np.any([b.any(axis=0) for b in blocks], axis=0))
    full = len(support) == blocks[0].shape[1]
    nonzero = [np.flatnonzero(b.any(axis=1)) for b in blocks]
    norms = [np.linalg.norm(b if full and len(i) == len(b) else b[np.ix_(i, support)], axis=1)
             for b, i in zip(blocks, nonzero)]
    top = max((float(x.max()) for x in norms if len(x)), default=0.0)
    if not top:
        return np.zeros((0, width), dtype=complex)
    keep = [x > tol * top for x in norms]
    picked = [i[k] for i, k in zip(nonzero, keep)]
    live = np.flatnonzero(np.any([b[i].any(axis=0) for b, i in zip(blocks, picked)], axis=0))
    sigma, vh = svd_rows(b[np.ix_(i, live)] / x[k, None]
                         for b, i, x, k in zip(blocks, picked, norms, keep))
    rank = rank_from_singular_values(sigma, (sum(map(len, picked)), width), tol)
    if len(live) == width:
        return vh[:rank]
    basis = np.zeros((rank, width), dtype=complex)
    basis[:, columns[live]] = vh[:rank]
    return basis


def kernel_from_gram(gram, scale, tol):
    """Orthonormal kernel rows of a PSD Gram matrix (dense reference kernel).

    The Gram eigenvalues are squared singular values of the stacked
    constraint matrix, so the rank threshold is squared as well; scale plays
    the role of max(m, n).
    """
    w, u = np.linalg.eigh(gram)
    w = np.clip(w, 0.0, None)
    if w.size == 0:
        return u.T[:0]
    top = w[-1]
    cut = (tol * scale) ** 2 * top
    keep = w <= cut
    return u[:, keep].T


def realify_gram(gram):
    """Real 2n x 2n quadratic form of a complex Hermitian Gram matrix.

    With v = x + i y, the form v* G v equals [x; y]^T R [x; y] where
    R = [[Re G, -Im G], [Im G, Re G]].
    """
    a = gram.real
    b = gram.imag
    return np.block([[a, -b], [b, a]])


def _realify_constraint(lin, anti):
    """Real matrix of the R-linear map v -> lin v + anti conj(v) on [x; y]."""
    n = lin.shape[1] if lin is not None else anti.shape[1]
    la = lin.real if lin is not None else np.zeros((n, n))
    lb = lin.imag if lin is not None else np.zeros((n, n))
    ma = anti.real if anti is not None else np.zeros((n, n))
    mb = anti.imag if anti is not None else np.zeros((n, n))
    return np.block([[la + ma, -lb + mb], [lb + mb, la - ma]])


def real_null_space(linear, antilinear, n_unknowns, tol=DEFAULT_TOL, linear_gram=None):
    """Real-linear common kernel of mixed linear/antilinear constraints.

    Dense reference kernel: one eigensolve of the 2n x 2n real Gram form,
    with the rank threshold squared.

    linear: sequence of (m_i, n) complex matrices L, constraint L v = 0.
    antilinear: sequence of (L, M) pairs, constraint L v + M conj(v) = 0
      (either member may be None).
    linear_gram: optional precomputed Hermitian sum of L* L for additional
      linear constraints, merged into the system.

    Returns rows of complex length-n vectors spanning the solution set over
    R, orthonormal for Re <u, v>.
    """
    n = n_unknowns
    gram = np.zeros((2 * n, 2 * n))
    scale = 2 * n
    cgram = np.zeros((n, n), dtype=complex)
    if linear_gram is not None:
        cgram += linear_gram
        scale += 2 * n
    for l in linear:
        l = np.atleast_2d(np.asarray(l, dtype=complex))
        cgram += l.conj().T @ l
        scale += 2 * l.shape[0]
    gram += realify_gram(cgram)
    for lin, anti in antilinear:
        lin = None if lin is None else np.atleast_2d(np.asarray(lin, dtype=complex))
        anti = None if anti is None else np.atleast_2d(np.asarray(anti, dtype=complex))
        r = _realify_constraint(lin, anti)
        gram += r.T @ r
        scale += r.shape[0]
    # Symmetrize against roundoff before the eigensolve.
    gram = 0.5 * (gram + gram.T)
    w, u = np.linalg.eigh(gram)
    w = np.clip(w, 0.0, None)
    top = w[-1] if w.size else 0.0
    if top == 0.0:
        kernel = u.T
    else:
        cut = (tol * scale) ** 2 * top
        kernel = u[:, w <= cut].T
    return kernel[:, :n] + 1j * kernel[:, n:]
