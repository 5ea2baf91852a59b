"""Star-algebras as multiplicatively closed operator subspaces.

star_closure builds the smallest complex *-subalgebra alg(S) containing a
generator set as a bicommutant, with the one commutant solver
(subspaces.commutant).  The seed S is the span of the generators and their
adjoints, so it is *-closed, and von Neumann's double commutant theorem
gives alg(S) + C 1 = S'' (in finite dimensions every *-algebra is closed).

Both commutants, C = S' and V = C', come from the solver, and each is the
true commutant by two inclusions.  The solver imposes only conditions that
every element of the true commutant satisfies, so its solution space
contains it; its certificate tests every solution against every generator,
imposes the exact constraints of those that fail and raises when an
imposed one still fails, so every solution commutes with them.  Hence
V = S'', an algebra, with nothing grown and no product swept.

Unit correction.  Let K be the common kernel of S.  S is *-closed, so every
element of alg(S) vanishes on K and maps into its orthogonal complement,
on which alg(S) acts nondegenerately and so contains its unit, the
projection onto that complement.  When K = 0 that unit is 1 and
V = alg(S).  Otherwise V = alg(S) + C P_K with P_K the projection onto K,
an HS-orthogonal sum (Tr(P_K a) = Tr(a P_K) = 0 for a in alg(S)), so
removing the P_K direction from V leaves alg(S).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, subspaces
from .linalg import DEFAULT_TOL
from .subspaces import OperatorSubspace

_PRODUCT_CHUNK = 512


@dataclass(frozen=True)
class StarAlgebra:
    """A complex-linear operator subspace closed under products and adjoints.

    For a result of star_closure, defect is the largest residual of a seed
    element outside the closure, and commutant is the commutant of the
    algebra.  A wrapped space has no defect, and its commutant, when a
    caller already solved it, may be passed in; commutant_of solves it
    otherwise.  unital is read from the space.
    """

    space: OperatorSubspace
    defect: float | None = None
    commutant: OperatorSubspace | None = None

    @property
    def dim(self):
        return self.space.dim

    @property
    def n(self):
        return self.space.n

    @property
    def unital(self):
        return self.space.contains(linalg.identity(self.n))

    def basis_matrices(self):
        return self.space.basis_matrices()

    def contains(self, x, tol=None):
        return self.space.contains(x, tol=tol)


def closure_defect(space):
    """Largest relative residual of basis products/adjoints outside the span.

    The all-pairs sweep, every product of two basis elements and every
    adjoint, on all n^2 operator entries, one chunk of products at a time:
    it needs nothing from the closure's construction, so it is an
    independent re-check of a finished closure.
    """
    flat, n = space.flat, space.n
    mats = flat.reshape(-1, n, n).transpose(0, 2, 1)
    # vec of the adjoint is the conjugate of the C-order flattening
    worst = np.linalg.norm(space.outside(np.conj(mats.reshape(-1, n * n))),
                           axis=1).max(initial=0.0)
    step = max(1, _PRODUCT_CHUNK // max(len(mats), 1))
    for start in range(0, len(mats), step):
        rows = linalg.product_rows(mats[start:start + step], mats)
        scale = np.maximum(np.linalg.norm(rows, axis=1), 1.0)
        resid = np.linalg.norm(space.outside(rows), axis=1)
        worst = max(worst, (resid / scale).max(initial=0.0))
    return float(worst)


def star_closure(gens, tol=DEFAULT_TOL):
    """Smallest complex *-algebra containing the generators.

    The generators and their adjoints are span-reduced to the seed S.  Its
    commutant C and then V = C' are solved from the spans S and C
    (subspaces.commutant), and when the seed has a common kernel K
    (linalg.left_kernel of the stacked seed matrices) the direction of the
    projection P_K is removed from V; see the module docstring for why that
    is alg(S).  The result carries C and the defect, the largest residual
    of a seed element outside the closure.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise ValueError("star_closure needs at least one generator")
    seed = subspaces.span_of(gens + [g.conj().T for g in gens], tol=tol)
    n = seed.n
    comm = subspaces.commutant(seed)
    if not seed.dim:  # zero generators close onto the zero algebra
        return StarAlgebra(space=seed, defect=0.0, commutant=comm)
    flat = subspaces.commutant(comm).flat
    # the rows v with seed_mats v = 0, stacked, are an orthonormal basis of K
    seed_mats = seed.flat.reshape(-1, n, n).transpose(0, 2, 1)
    kernel = linalg.left_kernel(seed_mats.reshape(-1, n).T, tol)
    if kernel.shape[0]:
        p = linalg.vec(kernel.T @ kernel.conj())
        p /= np.linalg.norm(p)
        flat = linalg.orthonormal_rows(flat - np.outer(flat @ p.conj(), p), tol=tol)
    space = OperatorSubspace(flat, n, tol=tol, orthonormal=True)
    defect = float(np.linalg.norm(space.outside(seed.flat), axis=1).max())
    return StarAlgebra(space=space, defect=defect, commutant=comm)


def commutant_of(algebra, tol):
    """The commutant of an algebra at tol.

    The commutant the algebra carries is reused when it was solved at tol;
    otherwise (none carried, or another tol) it is solved from the algebra's
    span, taken at tol.
    """
    comm = algebra.commutant
    if comm is None or comm.tol != tol:
        space = algebra.space
        comm = subspaces.commutant(OperatorSubspace(space.flat, space.n, tol=tol,
                                                    orthonormal=True))
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
    space = OperatorSubspace(flat, n, tol=algebra.space.tol)
    return StarAlgebra(space=space)
