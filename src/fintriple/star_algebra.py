"""Star-algebras as multiplicatively closed operator subspaces.

star_closure builds the smallest complex *-subalgebra containing a generator
set S.  The closure and S have the same commutant C, so every element of
the closure commutes with a generic Hermitian k in C and is block-diagonal
in k's eigenbasis (block-diagonalization of a matrix *-algebra by a generic
element, Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math. 27
(2010)).  Blocks that S couples are merged, so the block structure is
checked on S itself and does not rest on the accuracy of C: whatever S is
block-diagonal in, so is everything it generates.  The closure is grown and
certified on the m = sum s_c^2 coordinates of those blocks rather than on
all n^2 operator entries: growth multiplies random elements of the current
span (fast, seeded, deterministic), and one deterministic sweep certifies
the result, its offending residuals fed back until the sweep is clean; the
certified defect travels with the algebra, so no caller sweeps again.
Termination is guaranteed by dimension monotonicity in the m-dimensional
block space.

The sweep multiplies the seed W = span(S u S*) with the basis of the span
V, not the basis with itself: k d products for a seed of dimension k,
against d^2.  That suffices.  V starts as W and grows only by products and
adjoints of its own elements and by their residuals against V, so V lies in
the *-algebra generated by S.  Conversely, if W lies in V and W V lies in V,
every word w_1 ... w_L = w_1 (w_2 ... w_L) in elements of W lies in V by
induction on L, so the algebra W generates lies in V; W is *-closed, so that
algebra is the *-algebra generated by S, and V equals it.  The sweep checks
the seed rows, the seed-times-basis products and the adjoints of the basis;
closure_defect keeps the all-pairs sweep as an independent re-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, subspaces
from .linalg import DEFAULT_TOL
from .subspaces import OperatorSubspace

_CLOSURE_SEED = 0x5CA1AB1E
#: Seed of the Hermitian element k of the commutant whose eigenblocks carry
#: the closure; separate from the growth stream, so that a single block
#: leaves the growth draws as they are in full coordinates.
_BLOCK_SEED = 0xB10C
_PRODUCT_CHUNK = 512


@dataclass(frozen=True)
class StarAlgebra:
    """A complex-linear operator subspace closed under products and adjoints.

    For a result of star_closure, defect is its certified closure defect:
    the largest relative residual outside the span of a seed element, of a
    product of a seed element with a basis element, or of a basis adjoint,
    or of the generators outside the blocks it was grown in; and
    commutant is the commutant of the algebra.  A wrapped space has no
    defect, and its commutant, when a caller already solved it, may be
    passed in; commutant_of solves it otherwise.
    """

    space: OperatorSubspace
    unital: bool
    defect: float | None = None
    commutant: OperatorSubspace | None = None

    @property
    def dim(self):
        return self.space.dim

    @property
    def n(self):
        return self.space.n

    def basis_matrices(self):
        return self.space.basis_matrices()

    def contains(self, x, tol=None):
        return self.space.contains(x, tol=tol)


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
    resid_norms = np.linalg.norm(cand, axis=1)
    cand = cand[resid_norms > tol * max(cand.shape)]
    if cand.shape[0] == 0:
        return flat, 0
    sigma, vh = linalg.svd_rows(cand)
    cut = tol * max(cand.shape)
    new_rows = vh[: int(np.sum(sigma > cut))]
    if new_rows.shape[0] == 0:
        return flat, 0
    merged = np.vstack([flat, new_rows])
    # One clean re-orthonormalization keeps accumulated roundoff in check.
    merged = linalg.orthonormal_rows(merged, tol=tol)
    return merged, merged.shape[0] - flat.shape[0]


def _block_matrices(rows, sizes):
    """Per block, the (k, s, s) matrices of rows in block coordinates.

    Block coordinates list the blocks one after the other, each as the
    column-major vec of an s x s matrix; one block of size n is plain vec.
    """
    out = []
    start = 0
    for s in sizes:
        out.append(rows[:, start:start + s * s].reshape(-1, s, s).transpose(0, 2, 1))
        start += s * s
    return out


def _adjoint_permutation(sizes):
    """perm with conj(rows[:, perm]) the block coordinates of the adjoints."""
    perm = []
    start = 0
    for s in sizes:
        perm.append(start + np.arange(s * s).reshape(s, s).T.ravel())
        start += s * s
    return np.concatenate(perm)


def _closure_defects(flat, sizes, tol, left=None):
    """Worst product/adjoint residual and offending residual rows.

    flat is an orthonormal basis in the block coordinates of sizes.  With
    left=None, scans every pairwise product of the basis (chunked, block by
    block) plus every adjoint.  With left, rows in the same coordinates (the
    seed of a closure), scans the left rows themselves, every product of a
    left row with a basis element (left on the left) and every adjoint of the
    basis; see the module docstring for why that certifies a closure.
    Returns (max_residual, rows) where rows are the non-contained residuals,
    capped to a manageable batch.
    """
    d = flat.shape[0]
    mats = _block_matrices(flat, sizes)
    if left is None:
        lefts, head = mats, []
    else:
        lefts, head = _block_matrices(left, sizes), [left]
    worst = 0.0
    offenders = []
    adj_rows = np.conj(flat[:, _adjoint_permutation(sizes)])
    step = max(1, _PRODUCT_CHUNK // max(d, 1))
    # one chunk of products alive at a time, not all of them
    products = (np.hstack([linalg.product_rows(a[start:start + step], b)
                           for a, b in zip(lefts, mats)])
                for start in range(0, lefts[0].shape[0], step))
    for rows in itertools.chain(head, [adj_rows], products):
        resid = rows - (rows @ flat.conj().T) @ flat
        norms = np.linalg.norm(resid, axis=1)
        scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        rel = norms / scale
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        bad = np.nonzero(rel > tol)[0]
        if bad.size:
            order = np.argsort(rel[bad])[::-1][:64]
            offenders.append(resid[bad[order]])
    rows = np.vstack(offenders) if offenders else np.zeros((0, flat.shape[1]))
    return worst, rows


def closure_defect(space):
    """Largest relative residual of basis products/adjoints outside the span.

    The all-pairs sweep (every product of two basis elements, every adjoint)
    on all n^2 operator entries: it needs no seed, so it is an independent
    re-check of a finished closure, whose own certificate sweeps the seed
    products only.
    """
    worst, _ = _closure_defects(space.flat, [space.n], space.tol)
    return worst


def _merge_clusters(local, clusters, tol):
    """Merge the clusters that some seed entry outside the blocks joins.

    local holds the seed matrices in the eigenbasis.  While an entry outside
    the blocks has modulus above tol, the two clusters it joins become one.
    Returns the merged clusters, ordered by their smallest index, and the
    largest HS norm of a seed matrix's part outside them.
    """
    n = local.shape[-1]
    label = np.empty(n, dtype=int)
    for c, block in enumerate(clusters):
        label[block] = c
    for a, b in zip(*np.nonzero(np.abs(local).max(axis=0, initial=0.0) > tol)):
        if label[a] != label[b]:
            label[label == label[b]] = label[a]
    _, first = np.unique(label, return_index=True)
    merged = [np.nonzero(label == label[i])[0] for i in np.sort(first)]
    outside = label[:, None] != label[None, :]
    off_block = np.sqrt((np.abs(local) ** 2 * outside).sum(axis=(1, 2))).max(initial=0.0)
    return merged, float(off_block)


def star_closure(gens, tol=DEFAULT_TOL, within=None):
    """Smallest complex *-algebra containing the generators.

    The generators and their adjoints are span-reduced to a seed, whose
    commutant C is solved first, inside within when given
    (subspaces.commutant): a complex space known to contain C, such as the
    commutant of a subset of the generators.  A random Hermitian k in C (the
    Hermitian part of a random combination of C's basis; C is *-closed
    because the seed is) is diagonalized with the cluster rule of the
    commutant solver, the finest of subspaces.BLOCK_DRAWS draws, so that the
    block coordinates do not depend on C's basis.  The seed is measured in
    k's eigenbasis, and while a seed entry outside the blocks exceeds tol,
    the two clusters it joins are merged.  Merging is sound without
    trusting C: a set block-diagonal in a partition generates a *-algebra
    block-diagonal in it, so the whole closure lives in the m = sum s_c^2
    block coordinates, up to the off-block seed remainder left after merging
    (at worst one block, m = n^2, and then the coordinates are plain vec).

    On those coordinates the randomized growth phase multiplies random
    elements of the span until the dimension stabilizes; one deterministic
    sweep over the seed, every product of a seed element with a basis
    element and every basis adjoint then certifies closure, or supplies the
    missing directions (see the module docstring for why seed products
    suffice).  The sweep is skipped when the span fills all m coordinates:
    it is then the full block algebra, which is a *-algebra.  The basis is
    mapped back to operators once, by u B u*.  The result carries the
    certified defect, the larger of the last sweep's residual and the
    off-block seed remainder, and the commutant C.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise ValueError("star_closure needs at least one generator")
    n = gens[0].shape[0]
    rng = np.random.default_rng(_CLOSURE_SEED)
    seed_rows = [linalg.vec(g) for g in gens] + [linalg.vec(g.conj().T) for g in gens]
    seed = linalg.orthonormal_rows(np.array(seed_rows), tol=tol)
    seed_mats = seed.reshape(-1, n, n).transpose(0, 2, 1)
    comm = subspaces.commutant(seed_mats, tol=tol, n=n, within=within)

    block_rng = np.random.default_rng(_BLOCK_SEED)
    draws = []
    for _ in range(subspaces.BLOCK_DRAWS):
        c = block_rng.standard_normal(comm.dim) + 1j * block_rng.standard_normal(comm.dim)
        x = linalg.unvec(c @ comm.flat, n, n)
        draws.append(0.5 * (x + x.conj().T))
    u, clusters = subspaces._finest_eigenblocks(np.array(draws), tol)
    local = u.conj().T @ seed_mats @ u
    clusters, off_block = _merge_clusters(local, clusters, tol)
    sizes = [len(block) for block in clusters]
    if len(clusters) == 1:
        u = None
        flat = seed
    else:
        rows, cols = subspaces._block_entries(clusters)
        flat = linalg.orthonormal_rows(local[:, rows, cols], tol=tol)
    left = flat
    m = flat.shape[1]
    adjoint = _adjoint_permutation(sizes)

    worst = 0.0
    for _ in range(m + 1):
        # Randomized growth: batches of products of random span elements.
        stall = 0
        while flat.shape[0] < m and stall < 2:
            d = flat.shape[0]
            k = min(max(2 * d + 8, 16), 256)
            cx = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            cy = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            xs = _block_matrices(cx @ flat, sizes)
            ys = _block_matrices(cy @ flat, sizes)
            cand = np.hstack([np.matmul(a, b).transpose(0, 2, 1).reshape(k, s * s)
                              for a, b, s in zip(xs, ys, sizes)])
            adj_cand = np.conj(cand[: k // 2, adjoint])
            cand = np.vstack([cand, adj_cand])
            flat, grown = _extend_basis(flat, cand, tol)
            stall = stall + 1 if grown == 0 else 0
        if flat.shape[0] >= m:
            flat = np.eye(m, dtype=complex)
            worst = 0.0
            break
        worst, offenders = _closure_defects(flat, sizes, tol, left=left)
        if worst <= tol:
            break
        flat, grown = _extend_basis(flat, offenders, tol)
        if grown == 0:
            # Residuals sit right at the tolerance; absorb and re-verify once.
            flat = linalg.orthonormal_rows(np.vstack([flat, offenders]), tol=tol)
    if u is not None:
        blocks = np.zeros((flat.shape[0], n, n), dtype=complex)
        blocks[:, rows, cols] = flat
        flat = (u @ blocks @ u.conj().T).transpose(0, 2, 1).reshape(-1, n * n)
    space = OperatorSubspace(flat, n, field="complex", tol=tol, orthonormal=True)
    unital = space.contains(linalg.identity(n))
    return StarAlgebra(space=space, unital=unital, defect=max(worst, off_block),
                       commutant=comm)


def commutant_of(algebra, tol):
    """The commutant of an algebra at tol.

    The commutant the algebra carries is reused when it was solved at tol;
    otherwise (none carried, or another tol) it is solved from the basis.
    """
    comm = algebra.commutant
    if comm is None or comm.tol != tol:
        comm = subspaces.commutant(algebra.basis_matrices(), tol=tol)
    return comm


def center(algebra, tol=None):
    """Z(A) = A intersected with its commutant (commutant_of)."""
    tol = algebra.space.tol if tol is None else tol
    return subspaces.intersect(algebra.space, commutant_of(algebra, tol))


def unitalize(algebra):
    """Adjoin the identity; a no-op when the algebra is already unital."""
    if algebra.unital:
        return algebra
    n = algebra.n
    flat = np.vstack([algebra.space.flat, linalg.vec(linalg.identity(n))])
    space = OperatorSubspace(flat, n, field="complex", tol=algebra.space.tol)
    return StarAlgebra(space=space, unital=True)
