"""Star-algebras as multiplicatively closed operator subspaces.

A StarAlgebra is read through its space: the basis is space.matrices,
membership space.contains.  commutant_of returns the commutant an algebra
carries or solves one from its span; unitalize adjoins the identity by
subspaces.with_identity.

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


def closure_defect(space):
    """Largest relative residual of basis products/adjoints outside the span.

    The all-pairs sweep, every product of two basis elements and every
    adjoint, on all n^2 operator entries, one chunk of products at a time:
    it needs nothing from the closure's construction, so it is an
    independent re-check of a finished closure.
    """
    mats, n = space.matrices, space.n
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
    if not len(gens):
        raise ValueError("star_closure needs at least one generator")
    seed = subspaces.span_of([*gens, *(np.conj(g).T for g in gens)], tol=tol)
    n = seed.n
    comm = subspaces.commutant(seed)
    if not seed.dim:  # zero generators close onto the zero algebra
        return StarAlgebra(space=seed, defect=0.0, commutant=comm)
    flat = subspaces.commutant(comm).flat
    # the rows v with M v = 0 for every seed matrix M are an orthonormal basis of K
    kernel = linalg.left_kernel(seed.matrices.reshape(-1, n).T, tol)
    if kernel.shape[0]:
        p = linalg.vec(kernel.T @ kernel.conj())
        p /= np.linalg.norm(p)
        flat = linalg.orthonormal_rows(flat - np.outer(flat @ p.conj(), p), tol=tol)
    space = OperatorSubspace(flat, n, tol=tol)
    defect = float(np.linalg.norm(space.outside(seed.flat), axis=1).max())
    return StarAlgebra(space=space, defect=defect, commutant=comm)


def commutant_of(algebra):
    """The commutant the algebra carries, else one solved from its span."""
    comm = algebra.commutant
    return subspaces.commutant(algebra.space) if comm is None else comm


def center(algebra):
    """Z(A) = A intersected with its commutant (commutant_of)."""
    return subspaces.intersect(algebra.space, commutant_of(algebra))


def unitalize(algebra):
    """Adjoin the identity; a no-op when the algebra is already unital."""
    space = subspaces.with_identity(algebra.space)
    return algebra if space is algebra.space else StarAlgebra(space=space)
