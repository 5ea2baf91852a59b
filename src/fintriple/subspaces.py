"""Operator subspaces as first-class values.

An OperatorSubspace stores an orthonormal Hilbert-Schmidt basis of a space of
n x n operators, either over C or over R (real spans arise from antilinear
constraints; the basis matrices are still complex, orthonormal for the real
part of the HS inner product).  Sum, intersection, complement, membership and
commutant all reduce subspace questions to the single rank rule in linalg.

commutant is an eigenblock solver (block-diagonalization of a matrix
*-algebra by a generic element, Murota, Kanno, Kojima and Kojima, Japan J.
Indust. Appl. Math. 27 (2010)).  It is sound because it imposes only
constraints that every commutant element satisfies, so its solution space
contains the commutant, and a certificate against every generator then
proves the reverse inclusion.  No n^2 x n^2 matrix is formed.
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

#: Smallest relative eigenvalue gap kept between two eigenblocks.  The
#: computed eigenbasis of a block is off by about eps * ||h|| / gap, so this
#: floor bounds it near 2e-14 whatever the random draw; closer eigenvalues
#: only make a block larger, which every solver here tolerates.
_MIN_GAP = 1e-2


class FieldMismatchError(ValueError):
    pass


class OperatorSubspace:
    """Span of n x n operators with an orthonormal HS basis.

    flat holds the basis as rows of length n*n (column-major vec); it is
    orthonormalized at construction unless the caller asserts it already is.
    Immutable after construction.
    """

    def __init__(self, flat, n, field="complex", tol=DEFAULT_TOL, orthonormal=False):
        if field not in ("complex", "real"):
            raise ValueError(f"unknown field {field!r}")
        flat = np.asarray(flat, dtype=complex).reshape(-1, n * n)
        if not orthonormal:
            flat = linalg.orthonormal_rows(flat, tol=tol, field=field)
        self.flat = flat
        self.n = n
        self.field = field
        self.tol = tol

    @classmethod
    def from_matrices(cls, mats, field="complex", tol=DEFAULT_TOL):
        mats = list(mats)
        if not mats:
            raise ValueError("need at least one matrix to infer the dimension")
        n = np.asarray(mats[0]).shape[0]
        flat = np.array([linalg.vec(m) for m in mats])
        return cls(flat, n, field=field, tol=tol)

    @property
    def dim(self):
        """Dimension over the subspace's own scalar field."""
        return self.flat.shape[0]

    @property
    def ambient_dim(self):
        return self.n * self.n

    def basis_matrices(self):
        return [linalg.unvec(row, self.n, self.n) for row in self.flat]

    def coefficients(self, x):
        v = linalg.vec(x)
        c = self.flat.conj() @ v
        if self.field == "real":
            c = c.real
        return c

    def project(self, x):
        c = self.coefficients(x)
        return linalg.unvec(c @ self.flat, self.n, self.n)

    def residual(self, x):
        """HS distance from x to the subspace."""
        return linalg.hs_norm(np.asarray(x, dtype=complex) - self.project(x))

    def contains(self, x, tol=None):
        """True iff ||x - P(x)|| <= tol * ||x||; the zero operator is always in."""
        tol = self.tol if tol is None else tol
        nrm = linalg.hs_norm(x)
        if nrm == 0.0:
            return True
        return self.residual(x) <= tol * nrm

    def contains_all(self, mats, tol=None):
        return all(self.contains(m, tol=tol) for m in mats)

    def __repr__(self):
        return f"OperatorSubspace(dim={self.dim}, n={self.n}, field={self.field!r})"


def _check_compatible(s, t):
    if s.n != t.n:
        raise FieldMismatchError("ambient dimensions differ")
    if s.field != t.field:
        raise FieldMismatchError(f"scalar fields differ: {s.field} vs {t.field}")


def span_of(mats, field="complex", tol=DEFAULT_TOL, n=None):
    """Orthonormalized span of a list of operators."""
    mats = list(mats)
    if not mats:
        if n is None:
            raise ValueError("empty generator list needs an explicit ambient n")
        return OperatorSubspace(np.zeros((0, n * n)), n, field=field, tol=tol, orthonormal=True)
    return OperatorSubspace.from_matrices(mats, field=field, tol=tol)


def subspace_sum(s, t):
    """Span of the union."""
    _check_compatible(s, t)
    flat = np.vstack([s.flat, t.flat])
    return OperatorSubspace(flat, s.n, field=s.field, tol=min(s.tol, t.tol))


def intersect(s, t):
    """Intersection, computed inside the span of s.

    Looks for combinations of the basis of s whose component outside t
    vanishes: the left null space of the residual matrix.  Because the basis
    rows are unit vectors, the rank cut is taken against an absolute scale of
    1 rather than the largest residual (which is legitimately ~0 when s is a
    subset of t).
    """
    _check_compatible(s, t)
    tol = min(s.tol, t.tol)
    if s.dim == 0 or t.dim == 0:
        return OperatorSubspace(np.zeros((0, s.ambient_dim)), s.n, field=s.field,
                                tol=tol, orthonormal=True)
    coeff = s.flat @ t.flat.conj().T
    if s.field == "real":
        coeff = coeff.real
    outside = s.flat - coeff @ t.flat
    if s.field == "real":
        work = np.hstack([outside.real, outside.imag])
    else:
        work = outside
    # the left singular vectors of work are the right ones of its adjoint
    sigma, vh = linalg.svd_rows(work.conj().T)
    cut = tol * max(work.shape)
    r = int(np.sum(sigma > cut))
    combos = vh[r:]
    if combos.shape[0] == 0:
        return OperatorSubspace(np.zeros((0, s.ambient_dim)), s.n, field=s.field,
                                tol=tol, orthonormal=True)
    flat = combos @ s.flat
    return OperatorSubspace(flat, s.n, field=s.field, tol=tol, orthonormal=True)


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
    n2 = s.ambient_dim
    if s.field == "complex":
        if s.dim == 0:
            return OperatorSubspace(np.eye(n2, dtype=complex), s.n, field="complex",
                                    tol=s.tol, orthonormal=True)
        _, _, vh = np.linalg.svd(s.flat, full_matrices=True)
        return OperatorSubspace(vh[s.dim:], s.n, field="complex", tol=s.tol, orthonormal=True)
    if s.dim == 0:
        basis = np.vstack([np.eye(n2, dtype=complex), 1j * np.eye(n2, dtype=complex)])
        return OperatorSubspace(basis, s.n, field="real", tol=s.tol, orthonormal=True)
    w = np.hstack([s.flat.real, s.flat.imag])
    _, _, vh = np.linalg.svd(w, full_matrices=True)
    comp = vh[s.dim:]
    flat = comp[:, :n2] + 1j * comp[:, n2:]
    return OperatorSubspace(flat, s.n, field="real", tol=s.tol, orthonormal=True)


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


def _hermitian_elements(flat, n, tol):
    """Real basis (vec rows) of the Hermitian elements of the complex span of flat.

    With coefficients c = a + i b on the rows G_j, sum c_j G_j is Hermitian
    exactly when sum a_j (G_j - G_j*) + b_j i (G_j + G_j*) = 0: a real
    2n^2 x 2k system whose kernel is read off a thin SVD.
    """
    k = flat.shape[0]
    adj = np.conj(flat.reshape(k, n, n).transpose(0, 2, 1).reshape(k, n * n))
    cols = np.vstack([flat - adj, 1j * (flat + adj)]).T
    system = np.vstack([cols.real, cols.imag])
    sigma, vh = linalg.svd_rows(system)
    combos = vh[linalg.rank_from_singular_values(sigma, system.shape, tol):]
    return (combos[:, :k] + 1j * combos[:, k:]) @ flat


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


def _commutator_columns(h, rows, cols, n):
    """n^2 x m matrix whose column j is vec([E_j, h]), E_j the unit at (rows_j, cols_j)."""
    out = np.zeros((n * n, rows.size), dtype=complex)
    idx = np.arange(n)[:, None]
    j = np.arange(rows.size)
    out[rows + n * idx, j] = h[cols, :].T   # E_ab h puts row b of h in row a
    out[idx + n * cols, j] -= h[:, rows]    # h E_ab puts column a of h in column b
    return out


def commutant(gens, tol=DEFAULT_TOL, n=None):
    """All X with [X, g] = 0 for every generator, as a complex subspace.

    Eigenblock solver with a certificate.  The generators are span-reduced
    to an orthonormal set G.  A random Hermitian element h1 of span(G) is
    diagonalized, and X is sought block-diagonal in its eigenbasis (clusters
    closer than max(tol * n, _MIN_GAP) * ||h1|| merged); [X, h2] = 0 is then
    imposed for a random element h2 of span(G) by a thin SVD over the block
    entries.  Both steps impose only conditions that every commutant element
    satisfies, since h1 and h2 lie in span(G), so the solution space
    contains the commutant.  The certificate proves the reverse inclusion:
    every basis element is tested against every g in G at the cut of the
    last rank decision, each failing generator's exact constraint is
    appended and the system re-solved, until a sweep is clean.  Random draws
    come from a fixed seed per call.  No n^2 x n^2 matrix is formed, and
    every rank decision is linalg.rank_from_singular_values on singular
    values.  Raises RuntimeError when a generator already imposed still
    fails the sweep.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if gens:
        n = gens[0].shape[0]
    elif n is None:
        raise ValueError("empty generator list needs an explicit ambient n")
    reduced = linalg.orthonormal_rows(
        np.array([linalg.vec(g) for g in gens]).reshape(-1, n * n), tol=tol)
    if reduced.shape[0] == 0:
        return OperatorSubspace(np.eye(n * n, dtype=complex), n, tol=tol, orthonormal=True)
    rng = np.random.default_rng(_COMMUTANT_SEED)
    herm = _hermitian_elements(reduced, n, tol)
    h1 = linalg.unvec(rng.standard_normal(herm.shape[0]) @ herm, n, n)
    u, clusters = _eigenblocks(0.5 * (h1 + h1.conj().T), n, tol)
    rows, cols = _block_entries(clusters)
    # generators in the eigenbasis of h1
    local = u.conj().T @ reduced.reshape(-1, n, n).transpose(0, 2, 1) @ u
    c = rng.standard_normal(len(local)) + 1j * rng.standard_normal(len(local))
    h2 = np.tensordot(c / np.linalg.norm(c), local, axes=1)
    system = _commutator_columns(h2, rows, cols, n)
    n_rows = n * n
    imposed = set()
    while True:
        sigma, vh = linalg.svd_rows(system)
        shape = (n_rows, rows.size)
        # h2 and the generators have unit norm, which sets the scale of the
        # system when they are scalar on the blocks and it is pure roundoff
        cut = linalg.singular_value_cut(sigma, shape, tol, scale=1.0)
        z = vh[linalg.rank_from_singular_values(sigma, shape, tol, scale=1.0):].conj()
        # diag(sigma) Vh keeps the singular values and right vectors of the
        # system; each failing generator's exact constraint is folded in by QR
        system = sigma[:, None] * vh
        failing = set()
        for i, g in enumerate(local):
            exact = _commutator_columns(g, rows, cols, n)
            if np.linalg.norm(exact @ z.T, axis=0).max(initial=0.0) > cut:
                failing.add(i)
                system = np.linalg.qr(np.vstack([system, exact]), mode="r")
        if not failing:
            break
        if failing & imposed:
            raise RuntimeError("commutant certificate did not close: an imposed "
                               "generator still fails at the rank cut")
        n_rows += n * n * len(failing)
        imposed |= failing
    blocks = np.zeros((z.shape[0], n, n), dtype=complex)
    blocks[:, rows, cols] = z
    mats = u @ blocks @ u.conj().T
    flat = mats.transpose(0, 2, 1).reshape(-1, n * n)
    return OperatorSubspace(flat, n, tol=tol, orthonormal=True)
