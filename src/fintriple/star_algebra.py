"""Star-algebras as multiplicatively closed operator subspaces.

A StarAlgebra wraps a span: the basis is space.matrices, membership
space.contains.  commutant_of returns the commutant an algebra carries or
solves one from its span; unitalize adjoins the identity.

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
C and, in a unitary frame whose columns take each P_i as a range, a basis
of each C P_i; its defect and membership are read there.  Its basis,
space, is built on first use: V = C' by a second solve, less the P_K
direction (V = alg(S) + C P_K, an HS-orthogonal sum).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, subspaces
from .linalg import DEFAULT_TOL
from .subspaces import OperatorSubspace

_PRODUCT_CHUNK = 512

#: Seed of the random elements that read C's center and central supports,
#: fixed per closure so that the result never depends on call order.
_WEDDERBURN_SEED = 0xB10C5


@dataclass(frozen=True)
class StarAlgebra:
    """A complex-linear operator subspace closed under products and adjoints.

    Its commutant, when a caller already solved it, may be passed in;
    commutant_of solves it otherwise.  unital is read from the space.
    """

    space: OperatorSubspace
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


@dataclass(frozen=True, eq=False)
class Closure:
    """alg(S), held as the seed S, C = S' and C's sorted blocks (n_i, m_i).

    frame is (f, supports): a unitary f whose columns hold each central
    support P_i as a range, with an orthonormal basis of C P_i in f's
    coordinates (star_closure); kernel is the kernel block's range, or
    None.  defect is the largest ||[s, c]|| over the orthonormal bases of S
    and of the C P_i, which together are one of C.
    """

    seed: OperatorSubspace
    commutant: OperatorSubspace
    blocks: tuple
    frame: tuple
    kernel: slice | None
    defect: float

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
        frame, supports = self.frame
        local = _local(frame, rows)
        worst = _commutator_norms(local, supports)
        if self.kernel is not None:
            worst = np.maximum(worst, np.linalg.norm(local[:, :, self.kernel], axis=(1, 2)))
        return bool(np.all(worst <= self.seed.tol * np.linalg.norm(rows, axis=1)))

    @cached_property
    def space(self):
        """alg(S) as a span: C' by a second solve, less the P_K direction."""
        seed, n, tol = self.seed, self.n, self.seed.tol
        if not seed.dim:  # zero generators close onto the zero algebra
            return seed
        flat = subspaces.commutant(self.commutant).flat
        # the rows v with M v = 0 for every seed matrix M are an orthonormal basis of K
        kernel = linalg.left_kernel(seed.matrices.reshape(-1, n).T, tol)
        if kernel.shape[0]:
            p = linalg.vec(kernel.T @ kernel.conj())
            p /= np.linalg.norm(p)
            flat = linalg.orthonormal_rows(flat - np.outer(flat @ p.conj(), p), tol=tol)
        return OperatorSubspace(flat, n, tol=tol)


def _local(v, rows):
    """Vec rows in a unitary basis v, such as a frame or the commutant's.

    The operators come transposed, as the solver reads vec rows, which
    keeps commutators and norms.
    """
    return subspaces._conjugate(v, np.asarray(rows).reshape(-1, *v.shape))


def _commutator_norms(local, parts):
    """Largest ||[x, c]|| over C's orthonormal basis, per x of a local stack.

    parts lists ranges q of x's coordinates, each with an orthonormal basis
    z of C on it.  For c = z on q, x c is x[:, q] z in the columns q and
    c x is z x[q] in the rows q: [x, c] is their difference where both are
    nonzero and either alone elsewhere, so nothing cancels.  One GEMM per
    side tests a chunk of x, sized as in subspaces._certificate.
    """
    k, n, _ = local.shape
    worst = np.zeros(k)
    for q, z in parts:
        d, s, _ = z.shape
        step = max(1, subspaces._CERTIFICATE_CHUNK // (d * n * s))
        for start in range(0, k, step):
            x = local[start:start + step]
            j = len(x)
            xz = (x[:, :, q].reshape(j * n, s)
                  @ z.transpose(1, 0, 2).reshape(s, d * s)).reshape(j, n, d, s)
            zx = (z.reshape(d * s, s) @ x[:, q].transpose(1, 0, 2).reshape(s, j * n))
            zx = zx.reshape(d, s, j, n).transpose(2, 1, 0, 3)  # (j, s, d, n)
            xz[:, q] -= zx[..., q]
            zx[..., q] = 0
            sq = sum(np.einsum("jadb,jadb->jd", a, a.conj()).real for a in (xz, zx))
            chunk = worst[start:start + j]
            np.maximum(chunk, np.sqrt(sq.max(axis=1)), out=chunk)
    return worst


def _wedderburn(z, tol, rng):
    """C_Q's blocks, from a component's orthonormal (d, s, s) basis z.

    The center is the part of C_Q commuting with two random elements (which
    generate C_Q), checked against all of z.  A random central Hermitian
    element (finest of BLOCK_DRAWS, as for h1) has one eigenvalue per
    central support P_i; its unitary eigenbasis w takes the supports as
    ranges.  m_i^2 is the rank of the compressions w_i* z w_i to support
    i, which span C_Q P_i, and n_i = rank P_i / m_i.  Returns w and per
    support (n_i, m_i, y_i), y_i an orthonormal basis of C_Q P_i in w_i's
    coordinates.  Raises RuntimeError when an identity fails.
    """
    d, s, _ = z.shape
    if not d:
        raise RuntimeError("Wedderburn blocks: a component of C has no basis")
    flat = z.reshape(d, s * s)
    g = (linalg.complex_gaussian(rng, (2, d)) @ flat).reshape(2, 1, s, s)
    g /= np.linalg.norm(g, axis=(2, 3), keepdims=True)
    system = (z @ g - g @ z).transpose(1, 0, 2, 3).reshape(d, -1)
    sigma, vh = linalg.svd_rows(system.conj().T)
    cut = linalg.singular_value_cut(sigma, system.shape, tol, scale=1.0)
    center = vh[np.count_nonzero(sigma > cut):] @ flat
    mats = center.reshape(-1, s, s)[:, None]
    if not len(center) or np.linalg.norm(mats @ z - z @ mats, axis=(2, 3)).max() > cut:
        raise RuntimeError("Wedderburn blocks: C's center is empty or fails to commute")
    draws = (linalg.complex_gaussian(rng, (subspaces.BLOCK_DRAWS, len(center)))
             @ center).reshape(-1, s, s)
    w, supports = subspaces._finest_eigenblocks(
        0.5 * (draws + draws.conj().transpose(0, 2, 1)), tol)
    factors = [linalg.svd_rows((w[:, p].conj().T @ z @ w[:, p]).reshape(d, -1))
               for p in supports]
    ranks = [linalg.rank_from_singular_values(sigma, (d, len(p) ** 2), tol, scale=1.0)
             for (sigma, _), p in zip(factors, supports)]
    blocks = [(len(p) // max(math.isqrt(r), 1), math.isqrt(r), vh[:r].reshape(r, len(p), -1))
              for p, r, (_, vh) in zip(supports, ranks, factors)]
    if len(supports) != len(center) or sum(ranks) != d or any(
            m * m != r or n * m != y.shape[1] for (n, m, y), r in zip(blocks, ranks)):
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
    once; each component gives its blocks (_wedderburn).  The frame takes
    v's columns on each component into w's, so each central support is a
    range of it, and the kernel block is the one where the seed's basis
    vanishes to tol in HS norm.
    """
    if not len(gens):
        raise ValueError("star_closure needs at least one generator")
    seed = subspaces.span_of([*gens, *(np.conj(g).T for g in gens)], tol=tol)
    comm = subspaces.commutant(seed)
    v, parts = comm.blocks
    rng = random.Random(_WEDDERBURN_SEED)
    frame, blocks, supports = [], [], []
    for q, z in parts:
        w, found = _wedderburn(z, tol, rng)
        frame.append(v[:, q] @ w)
        for n_i, m_i, y in found:
            start = supports[-1][0].stop if supports else 0
            supports.append((slice(start, start + n_i * m_i), y))
            blocks.append((n_i, m_i))
    frame = np.hstack(frame)
    local = _local(frame, seed.flat)
    kernel = [(n_i, q) for (n_i, _), (q, _) in zip(blocks, supports)
              if np.linalg.norm(local[:, :, q]) <= tol]
    if len(kernel) > 1 or any(n_i != 1 for n_i, _ in kernel):
        raise RuntimeError("Wedderburn blocks: the seed's kernel is not one block (1, m)")
    return Closure(seed=seed, commutant=comm, blocks=tuple(sorted(blocks)),
                   frame=(frame, supports), kernel=kernel[0][1] if kernel else None,
                   defect=float(_commutator_norms(local, supports).max(initial=0.0)))


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
