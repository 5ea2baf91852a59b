"""Star-algebras as multiplicatively closed operator subspaces.

star_closure builds the smallest complex *-subalgebra containing a generator
set.  Growth is driven by products of random elements of the current span
(fast, seeded, deterministic), and the result is certified by a full
deterministic sweep over all basis products and adjoints; offending residuals
are fed back until the sweep is clean.  Termination is guaranteed by
dimension monotonicity in the ambient n^2-dimensional operator space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, subspaces
from .linalg import DEFAULT_TOL
from .subspaces import OperatorSubspace

_CLOSURE_SEED = 0x5CA1AB1E
_PRODUCT_CHUNK = 2048


@dataclass(frozen=True)
class StarAlgebra:
    """A complex-linear operator subspace closed under products and adjoints."""

    space: OperatorSubspace
    unital: bool

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
    _, sigma, vh = np.linalg.svd(cand, full_matrices=False)
    cut = tol * max(cand.shape)
    new_rows = vh[: int(np.sum(sigma > cut))]
    if new_rows.shape[0] == 0:
        return flat, 0
    merged = np.vstack([flat, new_rows])
    # One clean re-orthonormalization keeps accumulated roundoff in check.
    merged = linalg.orthonormal_rows(merged, tol=tol)
    return merged, merged.shape[0] - flat.shape[0]


def _pairwise_product_rows(mats_left, mats_right, n):
    """vec rows of every product a @ b, via one stacked GEMM."""
    s = mats_left.shape[0]
    d = mats_right.shape[0]
    left = mats_left.reshape(s * n, n)
    right = mats_right.transpose(1, 0, 2).reshape(n, d * n)
    prod = (left @ right).reshape(s, n, d, n)
    # vec is the column-major flattening, i.e. C-order of the transpose.
    return prod.transpose(0, 2, 3, 1).reshape(s * d, n * n)


def _closure_defects(flat, n, tol):
    """Worst product/adjoint residual and offending residual rows.

    Scans every pairwise product of the basis (chunked) plus every adjoint;
    returns (max_residual, rows) where rows are the non-contained residuals,
    capped to a manageable batch.
    """
    d = flat.shape[0]
    mats = flat.reshape(d, n, n).transpose(0, 2, 1)  # un-vec (column-major)
    worst = 0.0
    offenders = []
    adj_rows = np.conj(flat.reshape(d, n, n).transpose(0, 2, 1).reshape(d, n * n))
    step = max(1, _PRODUCT_CHUNK // max(d, 1))
    # one chunk of products alive at a time, not all d^2 of them
    products = (_pairwise_product_rows(mats[start:start + step], mats, n)
                for start in range(0, d, step))
    for rows in itertools.chain([adj_rows], products):
        resid = rows - (rows @ flat.conj().T) @ flat
        norms = np.linalg.norm(resid, axis=1)
        scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        rel = norms / scale
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        bad = np.nonzero(rel > tol)[0]
        if bad.size:
            order = np.argsort(rel[bad])[::-1][:64]
            offenders.append(resid[bad[order]])
    rows = np.vstack(offenders) if offenders else np.zeros((0, n * n))
    return worst, rows


def closure_defect(space):
    """Largest relative residual of basis products/adjoints outside the span."""
    worst, _ = _closure_defects(space.flat, space.n, space.tol)
    return worst


def star_closure(gens, tol=DEFAULT_TOL, rng_seed=_CLOSURE_SEED):
    """Smallest complex *-algebra containing the generators.

    The randomized growth phase multiplies random elements of the current
    span until the dimension stabilizes; the deterministic sweep then proves
    closure (or supplies the missing directions).  The sweep is skipped when
    the span is already the full operator algebra.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise ValueError("star_closure needs at least one generator")
    n = gens[0].shape[0]
    n2 = n * n
    rng = np.random.default_rng(rng_seed)
    seed_rows = [linalg.vec(g) for g in gens] + [linalg.vec(g.conj().T) for g in gens]
    flat = linalg.orthonormal_rows(np.array(seed_rows), tol=tol)

    for _ in range(n2 + 1):
        # Randomized growth: batches of products of random span elements.
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
            # vec of the adjoint equals the plain conjugate of the C-order
            # flattening, i.e. of the un-transposed product block.
            adj_cand = np.conj(prods.reshape(k, n2)[: k // 2])
            cand = np.vstack([cand, adj_cand])
            flat, grown = _extend_basis(flat, cand, tol)
            stall = stall + 1 if grown == 0 else 0
        if flat.shape[0] >= n2:
            flat = np.eye(n2, dtype=complex)
            break
        worst, offenders = _closure_defects(flat, n, tol)
        if worst <= tol:
            break
        flat, grown = _extend_basis(flat, offenders, tol)
        if grown == 0:
            # Residuals sit right at the tolerance; absorb and re-verify once.
            flat = linalg.orthonormal_rows(np.vstack([flat, offenders]), tol=tol)
    space = OperatorSubspace(flat, n, field="complex", tol=tol, orthonormal=True)
    unital = space.contains(linalg.identity(n))
    return StarAlgebra(space=space, unital=unital)


def center(algebra, tol=None):
    """Z(A) = A intersected with its commutant."""
    tol = algebra.space.tol if tol is None else tol
    comm = subspaces.commutant(algebra.basis_matrices(), tol=tol)
    return subspaces.intersect(algebra.space, comm)


def unitalize(algebra):
    """Adjoin the identity; a no-op when the algebra is already unital."""
    if algebra.unital:
        return algebra
    n = algebra.n
    flat = np.vstack([algebra.space.flat, linalg.vec(linalg.identity(n))])
    space = OperatorSubspace(flat, n, field="complex", tol=algebra.space.tol)
    return StarAlgebra(space=space, unital=True)
