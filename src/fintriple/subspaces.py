"""Operator subspaces as first-class values.

An OperatorSubspace is a complex space of n x n operators under one
contract: span_of is the one constructor that orthonormalizes
(with_identity goes through it), the basis reads as vec rows (flat) or as
a (d, n, n) view (matrices), and membership is decided at the space's tol.
Intersection, membership and commutant reduce subspace questions to
the single rank rule in linalg.  product_span spans the
products of stacks of operators one chunk at a time, each on its
structural support.
Real spaces never need a basis of their own: the Hermitian elements of a
span are the Hermitian parts of its largest *-closed subspace, and the real
commutant of morita is a real form of a complex space.

commutant(S) solves S' for a span S by one loop, the same for every span;
S's orthonormal basis is the generator set it runs on.  A generic
Hermitian element h1 of S splits C^n into eigenblocks, and every element
of S' is block-diagonal over them (block-diagonalization of a matrix
*-algebra by a generic element, Murota, Kanno, Kojima and Kojima, Japan J.
Indust. Appl. Math. 27 (2010)).  Read in h1's eigenbasis, the basis
couples only some eigenblocks; those it joins above tol, closed
transitively, form the components (for a *-closed span, the central
supports of the algebra it generates, whose projections are sums of h1's
spectral projections that commute with every generator).  Each component
is solved on its own, by a thin SVD over the units of its eigenblocks,
with one rank cut for all of them; a certificate then bounds the
commutator of every solution with every basis element by its commutator
with the element's block on the component (_commutator_norms) plus the
element's coupling out of it.  The loop is sound because it imposes only
constraints that every element of S' satisfies (dropping a coupling removes constraints),
so its solution space contains S', and the certificate proves the reverse
inclusion.  The result keeps u and each component's basis Z_Q (blocks),
with no n^2-wide stack; projections onto it work in u's basis, and
star_algebra reads every closure from the blocks with no second solve and
sweeps its defect and membership by the same kernel.  The random elements
are drawn from a seeded random.Random, so the solver never loads
numpy.random.  conjugated carries a commutant over to the opposite
algebra, block form to block form, with nothing solved or assembled.
commutator_gram is the dense Gram operator of the same problem, kept as a
test oracle.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property

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

#: Entries d * n * s of the products _commutator_norms forms at once, a chunk
#: of n x n operators against a d x s x s basis.  Each complex temporary then
#: holds 256 KB, and all of them stay under about 1 MB (unless one operator
#: alone is more than a chunk).
_CERTIFICATE_CHUNK = 1 << 14


class OperatorSubspace:
    """Span of n x n operators, held as an orthonormal HS basis.

    A flat space holds the basis as rows of length n*n (column-major vec),
    kept as given: rows from span_of, or from a solver that makes them
    orthonormal; its blocks are None.  A commutant solve gives the block
    form blocks = (v, parts): a unitary v and per component its range q of
    v's columns with an orthonormal (d, s, s) basis Z of the rows
    v_q Z v_q*, read by their row-major reshape as the solver reads vec
    rows.  Its flat is built on first read; dim, contains_rows, outside,
    project, residual and conjugated work on the blocks.  matrices is the
    basis as a (d, n, n) view of flat.  contains, contains_rows and equals
    decide at tol.  Immutable after construction.
    """

    def __init__(self, flat, n, tol=DEFAULT_TOL, blocks=None):
        self.n = n
        self.tol = tol
        self.blocks = blocks
        if blocks is None:
            self.flat = np.asarray(flat, dtype=complex).reshape(-1, n * n)

    @cached_property
    def flat(self):
        """The rows v_q Z v_q* of every component, in order, in one buffer."""
        v, parts = self.blocks
        x = np.empty((self.dim, self.n, self.n), dtype=complex)
        start = 0
        for q, z in parts:
            v_q = v[:, q]
            np.matmul(v_q @ z, v_q.conj().T, out=x[start:start + len(z)])
            start += len(z)
        return x.reshape(-1, self.n * self.n)

    @property
    def dim(self):
        """Complex dimension."""
        return len(self.flat) if self.blocks is None else sum(len(z) for _, z in self.blocks[1])

    @property
    def matrices(self):
        """The basis as a (d, n, n) stack, a view of flat."""
        return self.flat.reshape(-1, self.n, self.n).transpose(0, 2, 1)

    def project(self, x):
        row = linalg.vec(x)[None]
        return linalg.unvec(row[0] - self.outside(row)[0], self.n, self.n)

    def residual(self, x):
        """HS distance from x to the subspace."""
        return linalg.hs_norm(self._residual(linalg.vec(x)[None]))

    def contains(self, x):
        """True iff ||x - P(x)|| <= tol * ||x||; the zero operator is always in."""
        return self.contains_rows(linalg.vec(x)[None])

    def contains_rows(self, rows):
        """contains for every operator given by its vec row."""
        resid = np.linalg.norm(self._residual(rows).reshape(len(rows), self.n * self.n), axis=1)
        return bool(np.all(resid <= self.tol * np.linalg.norm(rows, axis=1)))

    def outside(self, rows):
        """The parts of the vec rows outside the span: rows less their projections."""
        out = self._residual(rows)
        if self.blocks is None:
            return out
        return _conjugate(self.blocks[0].conj().T, out).reshape(len(out), self.n * self.n)

    def _residual(self, rows):
        """outside, as vec rows of a flat space and as v* x v for blocks.

        Flat: the coefficients are conj(conj(rows) @ flat.T), so the basis
        is never copied conjugated, and the conjugated rows, then the
        projections, then the difference are written into the one returned
        buffer.  Blocks: each component's q x q block less its projection
        on Z, and the entries off every block as they are, so norms are read
        off the entries.
        """
        if self.blocks is None:
            out = np.conjugate(rows, dtype=complex)
            coeffs = out @ self.flat.T
            np.conj(coeffs, out=coeffs)
            np.matmul(coeffs, self.flat, out=out)
            return np.subtract(rows, out, out=out)
        v, parts = self.blocks
        local = _conjugate(v, np.reshape(rows, (-1, self.n, self.n)))
        for q, z in parts:
            basis = z.reshape(len(z), -1)
            block = local[:, q, q].reshape(len(local), -1)
            coeffs = np.conj(np.conj(block) @ basis.T)
            local[:, q, q] -= (coeffs @ basis).reshape(-1, *z.shape[1:])
        return local

    def __repr__(self):
        return f"OperatorSubspace(dim={self.dim}, n={self.n})"


def _check_compatible(s, t):
    if s.n != t.n:
        raise ValueError("ambient dimensions differ")


def span_of(mats, tol=DEFAULT_TOL, n=None):
    """Orthonormalized span of operators, a list or a (k, n, n) stack.

    The one constructor that orthonormalizes (linalg.orthonormal_rows).  An
    empty list needs the ambient n.
    """
    if not len(mats):
        if n is None:
            raise ValueError("empty generator list needs an explicit ambient n")
        return OperatorSubspace(np.zeros((0, n * n)), n, tol=tol)
    n = len(mats[0])
    # the vec rows are the C-order rows of the transposes; a stack made
    # from a list is let go before the factorization
    rows = np.transpose(np.asarray(mats, dtype=complex), (0, 2, 1)).reshape(-1, n * n)
    return OperatorSubspace(linalg.orthonormal_rows(rows, tol=tol), n, tol=tol)


def with_identity(space):
    """space + C 1; space itself when it already holds the identity."""
    eye = linalg.identity(space.n)
    if space.contains(eye):
        return space
    return span_of(np.concatenate([space.matrices, eye[None]]), tol=space.tol)


def product_span(left, right, tol=DEFAULT_TOL, middle=None):
    """Span of the products a @ m @ b, a over left, m over middle, b over right.

    left, middle and right are stacks of n x n operators; without middle
    the products are a @ b.  They are listed m-major, then a, then b, and
    never all held: each a @ m enters alone, as one chunk of products
    with every b, on its structural support.  With K the columns of a @ m
    that are nonzero rows of some b, R its rows nonzero on K and C the
    columns of the b nonzero on K, the chunk is the R x C blocks
    (a @ m)[R, K] @ b[K, C] from one GEMM; every other entry is a sum of
    products with an exact zero.  The blocks are gathered on S, the
    boolean product of the union nonzero patterns of the three stacks,
    and the rows that are exactly zero are dropped as they come.  The
    rows kept, in product order, are the nonzero rows of the full stack
    on S.  linalg.orthonormal_rows takes them as these per-chunk blocks,
    never stacked or copied whole, and factors them on their support with
    the full stack's width, so the rank decision, and the bits, are those
    of the full stack.
    """
    n = right.shape[-1]
    patterns = [(stack != 0).any(axis=0) for stack in (left, middle, right)
                if stack is not None]
    support = patterns[0]
    for pattern in patterns[1:]:
        support = support @ pattern
    # vec index c * n + r of entry (r, c), the C-order of the transpose
    coords = np.flatnonzero(support.T)
    slot = np.full(n * n, -1)
    slot[coords] = np.arange(len(coords))
    on_right = right != 0
    right_rows = on_right.any(axis=(0, 2))
    kept = [np.zeros((0, len(coords)), dtype=complex)]
    for m in ([None] if middle is None else middle):
        for a in left:
            am = a if m is None else a @ m
            nonzero = am != 0
            k = np.flatnonzero(nonzero.any(axis=0) & right_rows)
            r = np.flatnonzero(nonzero[:, k].any(axis=1))
            c = np.flatnonzero(on_right[:, k].any(axis=(0, 1)))
            block = linalg.product_rows(am[np.ix_(r, k)][None], right[:, k[:, None], c])
            at = slot[(c[:, None] * n + r).ravel()]
            inside = at >= 0
            rows = np.zeros((len(right), len(coords)), dtype=complex)
            rows[:, at[inside]] = block[:, inside]
            kept.append(rows[rows.any(axis=1)])
    flat = linalg.orthonormal_rows(kept, tol=tol, columns=coords, width=n * n)
    return OperatorSubspace(flat, n, tol=tol)


def intersect(s, t):
    """Intersection, computed inside the span of s.

    The combinations of the basis of s whose part outside t vanishes: the
    right singular vectors of that part's adjoint (the conjugates of its
    transpose's, a view, so no conjugated copy is made) cut by the rank
    rule, whose floor of 1 on sigma_max is the scale of unit basis rows.
    """
    _check_compatible(s, t)
    tol = min(s.tol, t.tol)
    if s.dim == 0 or t.dim == 0:
        return OperatorSubspace(np.zeros((0, s.n * s.n)), s.n, tol=tol)
    outside = t.outside(s.flat)
    sigma, vh = linalg.svd_rows(outside.T)
    rank = linalg.rank_from_singular_values(sigma, outside.shape, tol)
    return OperatorSubspace(vh[rank:].conj() @ s.flat, s.n, tol=tol)


def equals(s, t):
    """Mutual containment, each side at its own tol."""
    _check_compatible(s, t)
    if s.dim != t.dim:
        return False
    return t.contains_rows(s.flat) and s.contains_rows(t.flat)


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


def _generic_eigenblocks(span, rng):
    """Eigenbasis u of h1 and its clusters (_finest_eigenblocks).

    h1 is a random Hermitian element of the span S, the finest of
    BLOCK_DRAWS draws, rng a random.Random.  The Hermitian elements of S
    are the Hermitian parts of W = S ∩ S*, its largest *-closed subspace,
    so each draw is the Hermitian part of a complex Gaussian combination of
    W's basis.  W is S itself when S* lies in S, which one projection of
    S*'s basis decides; the seed, C and every algebra are *-closed, and
    only the other spans pay for the intersection.  Every element of S'
    commutes with h1, so it is block-diagonal in u over the clusters.  A
    single cluster is all of M_n, and u = 1.
    """
    n = span.n
    star = adjoint(span)
    w = span.flat if span.contains_rows(star.flat) else intersect(span, star).flat
    coeffs = linalg.complex_gaussian(rng, (BLOCK_DRAWS, len(w)))
    draws = (coeffs @ w).reshape(-1, n, n)
    u, clusters = _finest_eigenblocks(0.5 * (draws + draws.conj().transpose(0, 2, 1)),
                                      span.tol)
    if len(clusters) == 1:
        return np.eye(n, dtype=complex), clusters
    return u, clusters


def _components(power, clusters, tol):
    """The clusters, grouped into the components the generators couple.

    power is sum_g |g|^2 entrywise over the generators in h1's eigenbasis.
    Clusters c, c' are joined when the entries of power in the blocks
    (c, c') and (c', c) sum to more than tol^2, and the relation is closed
    transitively.
    Each component is the list of its clusters, in order of the first one.
    """
    member = np.repeat(np.eye(len(clusters)), [len(block) for block in clusters], axis=1)
    coupling = member @ power @ member.T
    joined = coupling + coupling.T > tol * tol
    components = []
    free = np.ones(len(clusters), dtype=bool)
    while free.any():
        found = np.arange(len(clusters)) == np.argmax(free)
        grown = found | joined[found].any(axis=0)
        while not np.array_equal(grown, found):
            found, grown = grown, grown | joined[grown].any(axis=0)
        free &= ~found
        components.append([clusters[c] for c in np.nonzero(found)[0]])
    return components


def _unit_commutators(h, rows, cols):
    """Row blocks of the system whose column j is [E_ab, h] flattened row-major.

    (a, b) = (rows[j], cols[j]).  The blocks are a few matrix rows of the
    commutators at a time, all but the last at least as many system rows
    as units, so linalg.svd_rows folds the s^2-row system without it ever
    being whole.
    Built by index scatter: [E_ab, h] is row b of h placed in row a, less
    column a of h placed in column b.
    """
    s, m = h.shape[0], len(rows)
    step = -(-m // s)
    j, k = np.arange(m), np.arange(s)[:, None]
    for top in range(0, s, step):
        lines = np.arange(top, min(top + step, s))
        out = np.zeros((len(lines) * s, m), dtype=complex)
        here = (rows >= top) & (rows < top + step)
        out[(rows[here] - top) * s + k, j[here]] = h[cols[here]].T
        out[(lines[:, None] - top) * s + cols, j] -= h[lines[:, None], rows]
        yield out


def _conjugate(u, mats):
    """u* m u for every m of a (k, n, n) stack, by one GEMM per side."""
    k, n, _ = mats.shape
    right = (mats.reshape(k * n, n) @ u).reshape(k, n, n).transpose(1, 0, 2)
    return (u.conj().T @ right.reshape(n, k * n)).reshape(n, k, n).transpose(1, 0, 2)


def _component(members, local, power):
    """One component of a solve: its units and the generators on it.

    members are the component's clusters, local the generators in h1's
    eigenbasis and power their entrywise |g|^2.  Returns (idx, rows, cols,
    blocks, outside): the indices idx of the clusters, the units E_ab over
    each cluster's diagonal block in turn (_block_entries), local to the
    component (position i stands for index idx[i]), the generators' blocks
    g_QQ on it, and the squared HS norms of g_{Q,Q^c} and g_{Q^c,Q}.
    """
    idx = np.concatenate(members)
    offsets = np.cumsum([len(block) for block in members])[:-1]
    rows, cols = _block_entries(np.split(np.arange(len(idx)), offsets))
    inside = np.zeros(local.shape[1], dtype=bool)
    inside[idx] = True
    outside = (power[:, inside][:, :, ~inside].sum(axis=(1, 2))
               + power[:, ~inside][:, :, inside].sum(axis=(1, 2)))
    return idx, rows, cols, local[:, idx[:, None], idx], outside


def _unit_stack(z, rows, cols, s):
    """The s x s matrices with coefficients z on the units (rows, cols)."""
    mats = np.zeros((len(z), s, s), dtype=complex)
    mats[:, rows, cols] = z
    return mats


def _commutator_norms(local, parts):
    """Largest ||[x, c]|| over an orthonormal block basis, per x of a stack.

    parts lists ranges q of the coordinates of the (k, n, n) stack local,
    each with an orthonormal (d, s, s) stack z; c runs over each z placed
    on q x q.  x c is x[:, q] z in the columns q and c x is z x[q] in the
    rows q: [x, c] is their difference on q x q, subtracted in place, and
    either alone off it, so nothing cancels.  One GEMM per side tests a
    chunk of x against all of z.
    """
    k, n, _ = local.shape
    worst = np.zeros(k)
    for q, z in parts:
        d, s, _ = z.shape
        right = z.transpose(1, 0, 2).reshape(s, d * s)
        left = z.reshape(d * s, s)
        step = max(1, _CERTIFICATE_CHUNK // (d * n * s))
        for start in range(0, k, step):
            x = local[start:start + step]
            j = len(x)
            xz = (x[:, :, q].reshape(j * n, s) @ right).reshape(j, n, d, s)
            zx = (left @ x[:, q].transpose(1, 0, 2).reshape(s, j * n))
            zx = zx.reshape(d, s, j, n).transpose(2, 1, 0, 3)  # (j, s, d, n)
            xz[:, q] -= zx[..., q]
            # squared HS norms, summed on float views: no conjugate is formed
            sq = sum(np.einsum("jadb,jadb->jd", f, f) for f in (
                a.view(float) for a in (xz, zx[..., :q.start], zx[..., q.stop:])))
            chunk = worst[start:start + j]
            np.maximum(chunk, np.sqrt(sq.max(axis=1)), out=chunk)
    return worst


def commutant(space):
    """S': the X commuting with every element of the span S = space, at its tol.

    The orthonormal basis G of S is the generator set, used as it is, and
    is mapped into the eigenbasis u of h1 (_generic_eigenblocks), where
    every element of S' is block-diagonal over h1's clusters.  Two
    clusters are joined when G couples them, sum_g ||g[c, c']||^2 +
    ||g[c', c]||^2 > tol^2, closed transitively (_components); the g have
    unit norm, so this is the working tolerance.  Each component Q is
    solved alone: [Z, h2] = 0 for a random element h2 of S, over the units
    E_ab of Q's clusters, by a thin SVD of the unit commutators
    (_unit_commutators), emitted a few matrix rows at a time into
    linalg.svd_rows' fold, so no component's s^2-row system is held whole.
    The components' systems are the diagonal blocks of one system of
    n_rows x m, m the units of all of them, so one rank cut,
    singular_value_cut on the union of their singular values with that
    shape, covers them all.  The certificate tests each component's
    solutions against each g's block on it and adds g's coupling out of it
    (_commutator_norms), a bound on ||[X, g]|| for X = u Z u*, at the cut
    of the last rank decision; the exact constraints of the failing g are
    folded into every component and the systems re-solved, until a sweep
    is clean.  X = u (+)_Q Z_Q u* is returned in block form: u's columns
    taken component by component and each Z_Q (OperatorSubspace.blocks),
    with no n^2-wide stack assembled.
    Random draws come from a random.Random with a fixed seed per call.
    Vec rows are read by their row-major reshape, the transpose of the
    operator, which keeps commutation and copies nothing.
    The commutant of the zero space is all of M_n.  Raises RuntimeError
    when an element already imposed still fails the sweep.
    """
    n, tol = space.n, space.tol
    if not space.dim:  # the matrix units, one component in v = 1
        units = np.eye(n * n, dtype=complex).reshape(-1, n, n)
        return OperatorSubspace(None, n, tol=tol, blocks=(np.eye(n, dtype=complex),
                                                          [(slice(0, n), units)]))
    rng = random.Random(_COMMUTANT_SEED)
    u, clusters = _generic_eigenblocks(space, rng)
    local = _conjugate(u, space.flat.reshape(-1, n, n))
    c = linalg.complex_gaussian(rng, len(local))
    c /= np.linalg.norm(c)
    power = local.real ** 2 + local.imag ** 2
    parts = [_component(members, local, power)
             for members in _components(power.sum(axis=0), clusters, tol)]
    systems = [_unit_commutators(np.tensordot(c, blocks, axes=1), rows, cols)
               for _, rows, cols, blocks, _ in parts]
    n_rows, m = n * n, sum(len(rows) for _, rows, *_ in parts)
    imposed = set()
    while True:
        factors = [linalg.svd_rows(system) for system in systems]
        # h2 and the generators have unit norm, so the cut's floor of 1 is the
        # scale of the system when they are scalar on it and it is pure roundoff
        cut = linalg.singular_value_cut(np.concatenate([sigma for sigma, _ in factors]),
                                        (n_rows, m), tol)
        sols = [vh[np.count_nonzero(sigma > cut):].conj() for sigma, vh in factors]
        # off Q, [X, g] is Z g_{Q,Q^c} and -g_{Q^c,Q} Z, and ||Z||_2 <= ||Z||_HS
        # = 1, so ||[X, g]||^2 <= ||[Z, g_QQ]||^2 + outside
        bound = 0.0
        for z, (idx, rows, cols, blocks, outside) in zip(sols, parts):
            whole = [(slice(0, len(idx)), _unit_stack(z, rows, cols, len(idx)))]
            bound = np.maximum(bound, np.sqrt(_commutator_norms(blocks, whole) ** 2 + outside))
        failing = set(np.nonzero(bound > cut)[0].tolist())
        if not failing:
            break
        if failing & imposed:
            raise RuntimeError("commutant certificate did not close: an imposed "
                               "generator still fails at the rank cut")
        # diag(sigma) Vh keeps the singular values and right vectors of each
        # system; the failing generators' exact constraints are folded into it
        systems = [itertools.chain([sigma[:, None] * vh],
                                   *[_unit_commutators(blocks[i], rows, cols)
                                     for i in sorted(failing)])
                   for (sigma, vh), (_, rows, cols, blocks, _) in zip(factors, parts)]
        n_rows += n * n * len(failing)
        imposed |= failing
    blocks, start = [], 0
    for z, (idx, rows, cols, *_) in zip(sols, parts):
        blocks.append((slice(start, start + len(idx)), _unit_stack(z, rows, cols, len(idx))))
        start += len(idx)
    v = u[:, np.concatenate([idx for idx, *_ in parts])]
    return OperatorSubspace(None, n, tol=tol, blocks=(v, blocks))


def adjoint(space):
    """S* = {X*: X in S}, the adjoints of S's orthonormal basis, which are one."""
    n = space.n
    # the vec of X* is the conjugate of the row-major flattening of X
    return OperatorSubspace(np.conj(space.matrices).reshape(-1, n * n), n, tol=space.tol)


def conjugated(space, real_structure):
    """J S J^{-1} for a space S and the antiunitary J = K conj.

    X -> K conj(X) K^T is antilinear and keeps the HS norm, so it maps the
    orthonormal basis of S onto one of the image, and complex spans onto
    complex spans; nothing is solved.  For the opposite algebra
    A° = J A J^{-1}, the image of A' is (A°)'.
    """
    n = space.n
    k = real_structure.matrix
    # on row-major reshapes (transposes) the map reads the same, so
    # v_q Z v_q* goes to (K conj v)_q conj(Z) (K conj v)_q*
    if space.blocks is not None:
        v, parts = space.blocks
        return OperatorSubspace(None, n, tol=space.tol,
                                blocks=(k @ v.conj(), [(q, z.conj()) for q, z in parts]))
    mats = real_structure.conjugate_operator(space.flat.reshape(-1, n, n))
    return OperatorSubspace(mats.reshape(-1, n * n), n, tol=space.tol)
