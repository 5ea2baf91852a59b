"""Operator subspaces as first-class values.

An OperatorSubspace stores an orthonormal Hilbert-Schmidt basis of a complex
space of n x n operators.  Sum, intersection, complement, membership and
commutant all reduce subspace questions to the single rank rule in linalg.
Real spaces never need a basis of their own: the Hermitian elements of a
span are the Hermitian parts of its largest *-closed subspace, and the real
commutant of morita is a real form of a complex space.

commutant(gens) solves gens' from the generators alone, by one loop: a
thin SVD over the coordinates of the eigenblocks of a generic element of
the generators' span (block-diagonalization of a matrix *-algebra by a
generic element, Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl.
Math. 27 (2010)), then a certificate that tests the solutions against
every generator.  It is sound because it imposes only constraints that
every element of the answer satisfies, so its solution space contains the
answer, and the certificate proves the reverse inclusion.  Generators that
are all exactly kron(1_q, x) are solved in the q-fold smaller factor, whose
commutant tensored with M_q is the whole answer; the catalog algebras act
through M_8 on M_{8x4}(C), so their commutant is solved on 8 x 8 matrices.
conjugated carries a commutant over to the opposite algebra with nothing
solved.
commutator_gram is the dense Gram operator of the same problem, kept as a
test oracle.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL


#: Seed of the random elements h1, h2 of the commutant solver, fixed per call
#: so that the result never depends on call order.
_COMMUTANT_SEED = 0xC0C0A1D

#: Seeded draws of the generic Hermitian element h1 whose eigenblocks carry
#: a solve; the finest partition among them is kept (_finest_eigenblocks).
BLOCK_DRAWS = 4

#: Smallest relative eigenvalue gap kept between two eigenblocks.  The
#: computed eigenbasis of a block is off by about eps * ||h|| / gap, so this
#: floor bounds it near 2e-14 whatever the random draw; closer eigenvalues
#: only make a block larger, which every solver here tolerates.
_MIN_GAP = 1e-2


class OperatorSubspace:
    """Span of n x n operators with an orthonormal HS basis.

    flat holds the basis as rows of length n*n (column-major vec); it is
    orthonormalized at construction unless the caller asserts it already is.
    Immutable after construction.
    """

    def __init__(self, flat, n, tol=DEFAULT_TOL, orthonormal=False):
        flat = np.asarray(flat, dtype=complex).reshape(-1, n * n)
        if not orthonormal:
            flat = linalg.orthonormal_rows(flat, tol=tol)
        self.flat = flat
        self.n = n
        self.tol = tol

    @classmethod
    def from_matrices(cls, mats, tol=DEFAULT_TOL):
        mats = list(mats)
        if not mats:
            raise ValueError("need at least one matrix to infer the dimension")
        n = np.asarray(mats[0]).shape[0]
        flat = np.array([linalg.vec(m) for m in mats])
        return cls(flat, n, tol=tol)

    @property
    def dim(self):
        """Complex dimension."""
        return self.flat.shape[0]

    @property
    def ambient_dim(self):
        return self.n * self.n

    def basis_matrices(self):
        return [linalg.unvec(row, self.n, self.n) for row in self.flat]

    def coefficients(self, x):
        return self.flat.conj() @ linalg.vec(x)

    def project(self, x):
        c = self.coefficients(x)
        return linalg.unvec(c @ self.flat, self.n, self.n)

    def residual(self, x):
        """HS distance from x to the subspace."""
        return linalg.hs_norm(np.asarray(x, dtype=complex) - self.project(x))

    def contains(self, x, tol=None):
        """True iff ||x - P(x)|| <= tol * ||x||; the zero operator is always in."""
        return self.contains_all([x], tol=tol)

    def contains_all(self, mats, tol=None):
        """contains for every operator, all projected by one GEMM."""
        tol = self.tol if tol is None else tol
        rows = np.array([linalg.vec(m) for m in mats]).reshape(-1, self.ambient_dim)
        resid = np.linalg.norm(rows - (rows @ self.flat.conj().T) @ self.flat, axis=1)
        return bool(np.all(resid <= tol * np.linalg.norm(rows, axis=1)))

    def __repr__(self):
        return f"OperatorSubspace(dim={self.dim}, n={self.n})"


def _check_compatible(s, t):
    if s.n != t.n:
        raise ValueError("ambient dimensions differ")


def span_of(mats, tol=DEFAULT_TOL, n=None):
    """Orthonormalized span of a list of operators."""
    mats = list(mats)
    if not mats:
        if n is None:
            raise ValueError("empty generator list needs an explicit ambient n")
        return OperatorSubspace(np.zeros((0, n * n)), n, tol=tol, orthonormal=True)
    return OperatorSubspace.from_matrices(mats, tol=tol)


def subspace_sum(s, t):
    """Span of the union."""
    _check_compatible(s, t)
    flat = np.vstack([s.flat, t.flat])
    return OperatorSubspace(flat, s.n, tol=min(s.tol, t.tol))


def intersect(s, t):
    """Intersection, computed inside the span of s.

    Looks for combinations of the basis of s whose component outside t
    vanishes: the left kernel of the residual matrix.  Because the basis
    rows are unit vectors, the rank cut is taken against a scale of 1, and
    not against the largest residual alone (which is legitimately ~0 when s
    is a subset of t).
    """
    _check_compatible(s, t)
    tol = min(s.tol, t.tol)
    if s.dim == 0 or t.dim == 0:
        return OperatorSubspace(np.zeros((0, s.ambient_dim)), s.n, tol=tol, orthonormal=True)
    outside = s.flat - (s.flat @ t.flat.conj().T) @ t.flat
    # the rows of outside are residuals of orthonormal rows, so its norm is
    # at most 1, the scale of the cut
    combos = linalg.left_kernel(outside, tol, scale=1.0)
    return OperatorSubspace(combos @ s.flat, s.n, tol=tol, orthonormal=True)


def equals(s, t, tol=None):
    """Mutual containment at the working tolerance."""
    _check_compatible(s, t)
    if s.dim != t.dim:
        return False
    mats_s = [linalg.unvec(row, s.n, s.n) for row in s.flat]
    mats_t = [linalg.unvec(row, t.n, t.n) for row in t.flat]
    return t.contains_all(mats_s, tol=tol) and s.contains_all(mats_t, tol=tol)


def complement(s):
    """HS-orthogonal complement within the ambient operator space."""
    if s.dim == 0:
        return OperatorSubspace(np.eye(s.ambient_dim, dtype=complex), s.n, tol=s.tol,
                                orthonormal=True)
    _, _, vh = np.linalg.svd(s.flat, full_matrices=True)
    return OperatorSubspace(vh[s.dim:], s.n, tol=s.tol, orthonormal=True)


def commutator_gram(gens):
    """Hermitian Gram operator of the map X -> ([X, g])_g on vec(X).

    Dense n^2 x n^2 reference for commutant; the solver does not use it.

    Sum over generators of M_g* M_g with M_g = g^T (x) 1 - 1 (x) g, expanded
    so only n x n kroneckers are formed.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    n = gens[0].shape[0]
    eye = np.eye(n, dtype=complex)
    left = np.zeros((n, n), dtype=complex)
    right = np.zeros((n, n), dtype=complex)
    gram = np.zeros((n * n, n * n), dtype=complex)
    for g in gens:
        left += g.conj() @ g.T
        right += g.conj().T @ g
        gram -= np.kron(g.conj(), g) + np.kron(g.T, g.conj().T)
    gram += np.kron(left, eye) + np.kron(eye, right)
    gram = 0.5 * (gram + gram.conj().T)
    return gram


def _eigenblocks(h, n, tol):
    """Eigenbasis of a Hermitian h and its eigenvalue clusters.

    Eigenvalues closer than max(tol * n, _MIN_GAP) * ||h|| share a cluster;
    each cluster is an array of eigenvector indices, in increasing order.
    """
    vals, u = np.linalg.eigh(h)
    top = float(np.abs(vals).max())
    splits = np.nonzero(np.diff(vals) > max(tol * n, _MIN_GAP) * top)[0] + 1
    return u, np.split(np.arange(n), splits)


def _block_entries(clusters):
    """(rows, cols) of every entry of every diagonal block, block after block.

    Within a block of s indices the entries run column-major, so the s^2
    coordinates of a block are the vec of that block.
    """
    rows, cols = [], []
    for block in clusters:
        r, c = np.meshgrid(block, block, indexing="ij")
        rows.append(r.ravel(order="F"))
        cols.append(c.ravel(order="F"))
    return np.concatenate(rows), np.concatenate(cols)


def _finest_eigenblocks(hermitians, tol):
    """_eigenblocks of the draw with the finest partition.

    hermitians is a (draws, n, n) stack of Hermitian matrices.  A generic
    draw splits the space as finely as its algebra allows, but an
    unlucky one merges clusters, and the solve then runs in more block
    coordinates.  The draw leaving the fewest, sum s_c^2, wins; the first
    one on ties.
    """
    draws = [_eigenblocks(h, h.shape[0], tol) for h in hermitians]
    return min(draws, key=lambda draw: sum(len(block) ** 2 for block in draw[1]))


def _eigenblock_basis(reduced, n, tol, rng):
    """Orthonormal rows of the matrix units u E_ab u* over the eigenblocks of h1.

    h1 is a random Hermitian element of the span S of the reduced
    generators, the finest of BLOCK_DRAWS draws.  The Hermitian elements of
    S are the Hermitian parts of W = S ∩ S*, its largest *-closed subspace,
    so each draw is the Hermitian part of a complex Gaussian combination of
    W's basis.  Every element of the generators' commutant commutes with h1,
    so it lies in this space.  None stands for one block, all of M_n.
    """
    span = OperatorSubspace(reduced, n, tol=tol, orthonormal=True)
    w = intersect(span, adjoint(span)).flat
    shape = (BLOCK_DRAWS, len(w))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    draws = (coeffs @ w).reshape(-1, n, n)
    u, clusters = _finest_eigenblocks(0.5 * (draws + draws.conj().transpose(0, 2, 1)), tol)
    if len(clusters) == 1:
        return None
    rows, cols = _block_entries(clusters)
    return np.einsum("pj,qj->jpq", u[:, rows], u[:, cols].conj()).reshape(-1, n * n)


def _factor_multiplicity(gens):
    """Largest q dividing n with every generator exactly kron(1_q, x).

    The test is np.array_equal against kron(1_q, x) of the leading
    (n/q) x (n/q) block x, with no tolerance; q = 1 when no larger one fits.
    """
    n = gens[0].shape[0]
    for q in range(n, 1, -1):
        m = n // q
        if n % q == 0 and all(np.array_equal(g, linalg.kron_action(g[:m, :m], np.eye(q)))
                              for g in gens):
            return q
    return 1


def _tensor_identity_rows(factor, q):
    """vec rows of E_kl (x) b_j over the q x q matrix units and factor's basis b_j.

    The rows come out k-major, then l, then j; an orthonormal basis b_j
    gives orthonormal rows.
    """
    m = factor.n
    b = factor.flat.reshape(-1, m, m).transpose(0, 2, 1)
    ops = np.zeros((q, q, len(b), q, m, q, m), dtype=complex)
    for k in range(q):
        for l in range(q):
            ops[k, l, :, k, :, l, :] = b
    n = q * m
    return ops.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n)


def _commutator_rows(basis, g):
    """Row j is [B_j, g] flattened row-major, B_j row j of basis reshaped row-major.

    basis None stands for the units of all of M_n; the rows are then
    1 (x) g - g^T (x) 1, a single n^2 x n^2 array.
    """
    n = g.shape[0]
    if basis is None:
        rows = np.kron(-g.T, np.eye(n))
        blocks = rows.reshape(n, n, n, n)
        for p in range(n):
            blocks[p, :, p, :] += g
        return rows
    b = basis.reshape(-1, n, n)
    prod = (b.reshape(-1, n) @ g).reshape(b.shape)
    prod -= g @ b
    return prod.reshape(-1, n * n)


def commutant(gens, tol=DEFAULT_TOL, n=None):
    """gens': the X commuting with every generator.

    The solve runs in the eigenblock space of a random Hermitian element h1
    of the generators' span, which holds their whole commutant.  Generators
    that are all exactly kron(1_q, x), for the largest such q
    (_factor_multiplicity: an exact test, no tolerance), are solved in the
    factor: {x}' at size n/q, lifted to the orthonormal rows E_kl (x) b_j.
    That is the whole answer, since X commutes with every 1_q (x) x exactly
    when X lies in M_q (x) {x}'.  The factor's certificate also certifies
    the lifted basis, because ||[E_kl (x) b, 1_q (x) x]|| = ||[b, x]||.  The
    algebras of the catalog act on M_{8x4}(C) by left multiplication through
    M_8, so their A' is solved with 8 x 8 matrices.

    Any other generator set runs the loop of _solve_commutant at full size.
    n is read only when there are no generators, whose commutant is M_n.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if gens:
        q = _factor_multiplicity(gens)
        if q > 1:
            m = gens[0].shape[0] // q
            factor = _solve_commutant([g[:m, :m] for g in gens], tol, m)
            return OperatorSubspace(_tensor_identity_rows(factor, q), q * m,
                                    tol=tol, orthonormal=True)
    return _solve_commutant(gens, tol, n)


def _solve_commutant(gens, tol, n):
    """commutant's loop: gens' by system, SVD and certificate.

    The generators are span-reduced to an orthonormal set G.  The solve runs
    in the span of the matrix units over the eigenblocks of h1
    (_eigenblock_basis).  X = sum z_j W_j runs over the orthonormal basis W
    of that space.  [X, h2] = 0 is imposed for a random element h2 of
    span(G) by a thin SVD of the commutators [W_j, h2].  The certificate
    tests every solution matrix against every g in G at the cut of the last
    rank decision; the exact constraints of the failing generators are
    appended and the system re-solved, until a sweep is clean.  Each step
    imposes only conditions that every element of gens' satisfies, so the
    solution space contains it, and the certificate proves the reverse
    inclusion.  Random draws come from a fixed seed per call.  Vec rows are
    read by their row-major reshape, the transpose of the operator, which
    keeps commutation and copies nothing.  The only n^2 x n^2 array is the
    system of a single block, and every rank decision is
    linalg.rank_from_singular_values on singular values.  Raises
    RuntimeError when a generator already imposed still fails the sweep.
    """
    if gens:
        n = gens[0].shape[0]
    elif n is None:
        raise ValueError("empty generator list needs an explicit ambient n")
    reduced = linalg.orthonormal_rows(
        np.array([linalg.vec(g) for g in gens]).reshape(-1, n * n), tol=tol)
    if reduced.shape[0] == 0:
        return OperatorSubspace(np.eye(n * n, dtype=complex), n, tol=tol, orthonormal=True)
    rng = np.random.default_rng(_COMMUTANT_SEED)
    basis = _eigenblock_basis(reduced, n, tol, rng)
    local = reduced.reshape(-1, n, n)
    c = rng.standard_normal(len(local)) + 1j * rng.standard_normal(len(local))
    system = _commutator_rows(basis, np.tensordot(c / np.linalg.norm(c), local, axes=1)).T
    n_rows = n * n
    imposed = set()
    while True:
        sigma, vh = linalg.svd_rows(system)
        shape = (n_rows, system.shape[1])
        # h2 and the generators have unit norm, which sets the scale of the
        # system when they are scalar on the space and it is pure roundoff
        cut = linalg.singular_value_cut(sigma, shape, tol, scale=1.0)
        z = vh[linalg.rank_from_singular_values(sigma, shape, tol, scale=1.0):].conj()
        x = z if basis is None else z @ basis
        failing = {i for i, g in enumerate(local)
                   if np.linalg.norm(_commutator_rows(x, g), axis=1).max(initial=0.0) > cut}
        if not failing:
            break
        if failing & imposed:
            raise RuntimeError("commutant certificate did not close: an imposed "
                               "generator still fails at the rank cut")
        # diag(sigma) Vh keeps the singular values and right vectors of the
        # system; the failing generators' exact constraints are folded in by QR
        exact = [_commutator_rows(basis, local[i]).T for i in sorted(failing)]
        system = np.linalg.qr(np.vstack([sigma[:, None] * vh] + exact), mode="r")
        n_rows += n * n * len(failing)
        imposed |= failing
    return OperatorSubspace(x, n, tol=tol, orthonormal=True)


def adjoint(space):
    """S* = {X*: X in S}, the adjoints of S's orthonormal basis, which are one."""
    n = space.n
    # the vec of X* is the conjugate of the row-major flattening of X
    mats = np.conj(space.flat.reshape(-1, n, n).transpose(0, 2, 1))
    return OperatorSubspace(mats.reshape(-1, n * n), n, tol=space.tol, orthonormal=True)


def conjugated(space, real_structure):
    """J S J^{-1} for a space S and the antiunitary J = K conj.

    X -> K conj(X) K^T is antilinear and keeps the HS norm, so it maps the
    orthonormal basis of S onto one of the image, and complex spans onto
    complex spans; nothing is solved.  For the opposite algebra
    A° = J A J^{-1}, the image of A' is (A°)'.
    """
    n = space.n
    k = real_structure.matrix
    # on row-major reshapes (transposes) the map reads the same
    mats = k @ space.flat.conj().reshape(-1, n, n) @ k.T
    return OperatorSubspace(mats.reshape(-1, n * n), n, tol=space.tol, orthonormal=True)
