"""Star-algebras, each held as the Closure of one commutant solve.

star_closure returns alg(S), the smallest complex *-algebra containing the
generators, as a Closure read off one commutant solve.  The seed S is the
span of the generators and their adjoints, so it is *-closed, and von
Neumann's double commutant theorem gives alg(S) + C 1 = C' for C = S'.
The solver (subspaces.commutant) returns C with its block form, and on each
component C is a *-algebra ⊕_i M_{m_i} ⊗ 1_{n_i} on central supports P_i
of rank n_i m_i, so C' = ⊕_i 1_{m_i} ⊗ M_{n_i} (Krajewski, J. Geom. Phys.
28 (1998) 1); _wedderburn reads the (n_i, m_i).  A component may hold
several P_i, so they are read from C's center, not from the components.

Let K be the common kernel of S.  S is *-closed, so C maps K into K and
holds every operator on K: P_K is central with C P_K = M_{dim K}, the
block (1, dim K), on which every seed element vanishes.  alg(S) vanishes
on K and contains its unit, the projection onto K's complement, so alg(S)
is C' less C P_K: its dimension is sum n_i^2, less 1 for a kernel block,
and x lies in it when x commutes with C and x P_K = 0.  A Closure holds S,
C in the block form of its solve (OperatorSubspace.blocks) and the
columns of P_K's range; its defect and membership sweep commutators
against those blocks with the solver's certificate kernel
(subspaces._commutator_norms), and no basis of alg(S) is formed.
unitalize adjoins the identity: (S + C 1)' = S' = C, so alg(S) + C 1 is
C' itself, the same blocks with no kernel left out, and nothing is
solved.  center is Z(A) = A ∩ A', from A's span and A'.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg, subspaces
from .linalg import DEFAULT_TOL
from .subspaces import OperatorSubspace

_PRODUCT_CHUNK = 512

#: Seed of the random elements that read C's center and central supports,
#: fixed per closure so that the result never depends on call order.
_WEDDERBURN_SEED = 0xB10C5


@dataclass(frozen=True, eq=False)
class Closure:
    """alg(S), held as the seed S, C = S' and C's sorted blocks (n_i, m_i).

    C is held in the block form of its solve, commutant.blocks: (v, parts),
    a unitary v and per component its range q of v's columns with an
    orthonormal basis Z_q of C on it, together one of C.  kernel is the
    (n, m) columns spanning the kernel block's support P_K, or None.
    Operators are read transposed, as the solver reads vec rows.  defect,
    swept on first use, is the largest ||[s, c]|| over the orthonormal
    bases of S and of C.
    """

    seed: OperatorSubspace
    commutant: OperatorSubspace
    blocks: tuple
    kernel: np.ndarray | None

    @property
    def n(self):
        return self.seed.n

    @property
    def dim(self):
        return sum(n * n for n, _ in self.blocks) - (self.kernel is not None)

    @property
    def unital(self):
        return self.kernel is None

    def contains(self, x):
        return self.contains_rows(linalg.vec(x)[None])

    def contains_rows(self, rows):
        """Per vec row x: ||[x, c]|| and ||x P_K|| are at most tol ||x||."""
        v, parts = self.commutant.blocks
        worst = subspaces._commutator_norms(_local(v, rows), parts)
        if self.kernel is not None:
            off = rows.reshape(-1, self.n, self.n) @ self.kernel
            worst = np.maximum(worst, np.linalg.norm(off, axis=(1, 2)))
        return bool(np.all(worst <= self.seed.tol * np.linalg.norm(rows, axis=1)))

    @cached_property
    def defect(self):
        v, parts = self.commutant.blocks
        worst = subspaces._commutator_norms(_local(v, self.seed.flat), parts)
        return float(worst.max(initial=0.0))


def _local(v, rows):
    """Vec rows in the commutant's unitary basis v.

    The operators come transposed, as the solver reads vec rows, which
    keeps commutators and norms.
    """
    return subspaces._conjugate(v, np.asarray(rows).reshape(-1, *v.shape))


def _wedderburn(z, tol, rng):
    """C_Q's blocks, from a component's orthonormal (d, s, s) basis z.

    The center is the part of C_Q commuting with two random elements (which
    generate C_Q), checked against all of z.  A random central Hermitian
    element (subspaces._generic_eigenblocks of the center, as h1 of a
    solve) has one eigenvalue per central support P_i; its unitary
    eigenbasis w takes the supports as index sets p_i.  m_i^2 is the rank
    of the compressions w_i* z w_i to support i, which span C_Q P_i, and
    n_i = rank P_i / m_i.  Returns w and (n_i, m_i, p_i) per support.
    Raises RuntimeError when an identity fails.
    """
    d, s, _ = z.shape
    if not d:
        raise RuntimeError("Wedderburn blocks: a component of C has no basis")
    flat = z.reshape(d, s * s)
    g = (linalg.complex_gaussian(rng, (2, d)) @ flat).reshape(2, 1, s, s)
    g /= np.linalg.norm(g, axis=(2, 3), keepdims=True)
    system = (z @ g - g @ z).transpose(1, 0, 2, 3).reshape(d, -1)
    sigma, vh = linalg.svd_rows(system.conj().T)
    cut = linalg.singular_value_cut(sigma, system.shape, tol)
    center = vh[np.count_nonzero(sigma > cut):] @ flat
    mats = center.reshape(-1, s, s)[:, None]
    if not len(center) or np.linalg.norm(mats @ z - z @ mats, axis=(2, 3)).max() > cut:
        raise RuntimeError("Wedderburn blocks: C's center is empty or fails to commute")
    w, supports = subspaces._generic_eigenblocks(OperatorSubspace(center, s, tol), rng)
    factors = [linalg.svd_rows((w[:, p].conj().T @ z @ w[:, p]).reshape(d, -1))
               for p in supports]
    ranks = [linalg.rank_from_singular_values(sigma, (d, len(p) ** 2), tol)
             for (sigma, _), p in zip(factors, supports)]
    blocks = [(len(p) // max(math.isqrt(r), 1), math.isqrt(r), p)
              for p, r in zip(supports, ranks)]
    if len(supports) != len(center) or sum(ranks) != d or any(
            m * m != r or n * m != len(p) for (n, m, p), r in zip(blocks, ranks)):
        raise RuntimeError("Wedderburn blocks: an integer identity fails on C")
    return w, blocks


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
    """Smallest complex *-algebra containing the generators, as a Closure.

    The generators and their adjoints span the seed S, and C = S' is solved
    once; each component gives its blocks (_wedderburn), and support p of
    component q has the columns v_q w_p.  The kernel block is the one
    where the seed's basis vanishes to tol in HS norm.
    """
    if not len(gens):
        raise ValueError("star_closure needs at least one generator")
    seed = subspaces.span_of([*gens, *(np.conj(g).T for g in gens)], tol=tol)
    comm = subspaces.commutant(seed)
    v, parts = comm.blocks
    # the seed transposed, as the solver reads vec rows
    mats = seed.flat.reshape(-1, seed.n, seed.n)
    rng = random.Random(_WEDDERBURN_SEED)
    blocks, kernel = [], []
    for q, z in parts:
        w, found = _wedderburn(z, tol, rng)
        for n_i, m_i, p in found:
            blocks.append((n_i, m_i))
            support = v[:, q] @ w[:, p]
            if np.linalg.norm(mats @ support) <= tol:
                kernel.append((n_i, support))
    if len(kernel) > 1 or any(n_i != 1 for n_i, _ in kernel):
        raise RuntimeError("Wedderburn blocks: the seed's kernel is not one block (1, m)")
    return Closure(seed=seed, commutant=comm, blocks=tuple(sorted(blocks)),
                   kernel=kernel[0][1] if kernel else None)


def center(space, commutant):
    """Z(A) = A ∩ A', from the span of A and its commutant."""
    return subspaces.intersect(space, commutant)


def unitalize(closure):
    """alg(S) + C 1, the closure of S + C 1; a unital closure as it is.

    (S + C 1)' = S', so it keeps C and the blocks, and only the
    kernel block goes: nothing is solved.
    """
    if closure.unital:
        return closure
    return replace(closure, seed=subspaces.with_identity(closure.seed), kernel=None)
