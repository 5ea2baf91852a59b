"""Finite real spectral triples and their axioms.

A FiniteTriple is a plain record of the data (algebra generators, opposite
generators, Dirac operator, real structure, optional grading).  Nothing is
enforced at construction beyond shapes: the axioms are what this workbench
*checks*, so order conditions, sign relations and grading compatibility are
exposed as residual-valued operations.  A residual is zero (up to tolerance)
exactly when the corresponding axiom holds, and each axiom is tested here
alone.  The order conditions take every generator pair in one stacked
commutator per generator, computed only on the rows and columns where the
sparse generator has nonzero entries (_support_commutator_norms); the
terms skipped are exact zeros, so the violations are those of the dense
pair-by-pair products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, AntilinearOperator


class SignIndeterminateError(ValueError):
    """Neither sign satisfies a real-structure relation within tolerance."""


class OrderConditionError(ValueError):
    """The zeroth or first order condition fails where it is required."""


#: KO-dimension lookup, even case: (eps, eps_prime, eps_dblprime) -> n mod 8.
KO_TABLE_EVEN = {(1, 1, 1): 0, (-1, 1, -1): 2, (-1, 1, 1): 4, (1, 1, -1): 6}
#: Odd case: (eps, eps_prime) -> n mod 8.
KO_TABLE_ODD = {(1, -1): 1, (-1, 1): 3, (-1, -1): 5, (1, 1): 7}

#: Smallest tolerance at which sign_table tests a sign relation, and the
#: zero-chain obstruction its witness; a smaller tol, as a config near
#: linalg.TOL_FLOOR gives, is raised to it.
SIGN_TOL_FLOOR = 1e-10

# Commutators [D, a] at most this multiple of ||D|| are roundoff:
# dirac_commutators leaves them out of the first order and the one-forms.
_COMMUTATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class FiniteTriple:
    """Data of a finite real spectral triple on C^n.

    The arrays are never modified in place, so the order-condition
    violations are computed once per triple and cached on it.
    """

    algebra_gens: tuple
    opposite_gens: tuple
    dirac: np.ndarray
    real_structure: AntilinearOperator
    grading: np.ndarray | None = None

    @property
    def n(self):
        return self.dirac.shape[0]

    @cached_property
    def _order_violations(self):
        """(zeroth, first) order-condition violations of this triple."""
        return _order_conditions(self)


@dataclass(frozen=True)
class SignTable:
    """Signs of the real-structure relations and the KO-dimension they select.

    vacuous lists relations where both signs fit (e.g. J D = D J with D = 0);
    the convention there is +1.  ko_dimension is None when the detected signs
    do not appear in the standard table.
    """

    eps: int
    eps_prime: int
    eps_dblprime: int | None
    ko_dimension: int | None
    residuals: dict = field(default_factory=dict)
    vacuous: tuple = ()


def opposite_generators(gens, real_structure):
    """J a J^{-1} for each generator."""
    return tuple(real_structure.conjugate_operator(g) for g in gens)


def _normalized(mats):
    out = []
    for m in mats:
        nrm = linalg.hs_norm(m)
        if nrm > 0.0:
            out.append(np.asarray(m, dtype=complex) / nrm)
    return out


def _support_commutator_norms(stack, g):
    """||[X, g]|| for every X of a (k, n, n) stack, over the support of g.

    With R and C the nonzero rows and columns of g, X g vanishes outside the
    columns C, where it is X[:, :, R] @ g[R, C], and g X vanishes outside the
    rows R, where it is g[R, C] @ X[:, C].  Both blocks of the commutator
    come from one stacked product with the R x C core of g.  The terms left
    out are products with exact zeros of g, which are exact zeros for finite
    inputs, so the norms are those of the dense commutators.
    """
    nonzero = g != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    core = g[np.ix_(rows, cols)]
    on_cols = stack[:, :, rows] @ core
    on_rows = core @ stack[:, cols]
    # the R x C block belongs to both; it is counted once, in on_cols
    on_cols[:, rows] -= on_rows[:, :, cols]
    on_rows[:, :, cols] = 0.0
    k, n = len(stack), len(g)
    return np.hypot(np.linalg.norm(on_cols.reshape(k, n * len(cols)), axis=1),
                    np.linalg.norm(on_rows.reshape(k, len(rows) * n), axis=1))


def dirac_commutators(dirac, stack):
    """The commutators [D, a] of a (k, n, n) stack that are not zero, and their norms.

    A commutator of HS norm at most _COMMUTATOR_FLOOR ||D|| is roundoff and
    is left out.
    """
    d = np.asarray(dirac, dtype=complex)
    forms = d @ stack - stack @ d
    norms = np.linalg.norm(forms, axis=(1, 2))
    keep = norms > _COMMUTATOR_FLOOR * linalg.hs_norm(d)
    return forms[keep], norms[keep]


def zeroth_order_violation(t):
    """Largest ||[a, b°]|| over HS-normalized generator pairs."""
    return t._order_violations[0]


def first_order_violation(t):
    """Largest relative ||[[D, a], b°]|| over generator pairs.

    Each double commutator is normalized by ||[D, a]|| (with b° HS-unit), so
    the result is scale-free in both D and the generators: it vanishes to
    machine precision when the condition holds and is order one when a
    one-form genuinely fails to commute with the opposite algebra.  Pairs
    whose one-form is numerically zero contribute nothing.
    """
    return t._order_violations[1]


def _largest_commutator(stack, gens, scale=1.0):
    """Largest ||[X, g]|| / scale over X of a (k, n, n) stack and g of gens,
    each g entering on its support (_support_commutator_norms)."""
    return float(max((_support_commutator_norms(stack, g) / scale).max(initial=0.0)
                     for g in gens))


def _order_conditions(t):
    """(zeroth, first) order violations from generators HS-normalized once.

    The zeroth order stacks the opposite generators; the first stacks the
    one-forms [D, a] of dirac_commutators, each over its norm.  Each a, or
    b°, enters on its support: catalog generators have 4 to 12 nonzero
    entries.
    """
    left, right = _normalized(t.algebra_gens), _normalized(t.opposite_gens)
    if not left or not right:
        return 0.0, 0.0
    # the stacks are temporaries: held together, their frees trim the heap
    zeroth = _largest_commutator(np.array(right), left)
    forms, norms = dirac_commutators(t.dirac, np.array(left))
    return zeroth, _largest_commutator(forms, right, norms)


def require_order_conditions(t, tol):
    """Raise OrderConditionError unless both order conditions hold within tol."""
    zeroth, first = zeroth_order_violation(t), first_order_violation(t)
    if zeroth > tol or first > tol:
        raise OrderConditionError(f"order-conditions-violated (zeroth {zeroth:.3e}, "
                                  f"first {first:.3e}, tol {tol:g})")


def sign_table(t, tol=SIGN_TOL_FLOOR):
    """Detect (eps, eps', eps'') and look up the KO-dimension.

    Each relation is one row of the loop, with the residual
    ||L - s R|| / ||X|| for s = +-1: J^2 = eps has L = K K (K is real),
    R = 1 and X = 1; J X = s X J has L = K conj(X) and R = X K, for X = D
    and X = gamma.  A clean sign gives ~0 and the opposite sign 2.  A sign
    holds when its residual is at most max(tol, SIGN_TOL_FLOOR); a zero X
    fits both signs, with residual 0, and is listed as vacuous.
    """
    tol = max(tol, SIGN_TOL_FLOOR)
    k = t.real_structure.matrix
    n = t.n
    relations = [("eps", "J^2 = eps", k @ k, np.eye(n), np.sqrt(n))]
    for key, relation, x in (("eps_prime", "J D = eps' D J", t.dirac),
                             ("eps_dblprime", "J gamma = eps'' gamma J", t.grading)):
        if x is not None:
            x = np.asarray(x, dtype=complex)
            relations.append((key, relation, k @ np.conj(x), x @ k, linalg.hs_norm(x)))
    signs, residuals, vacuous = {}, {}, []
    for key, relation, lhs, rhs, norm in relations:
        plus, minus = (float(np.linalg.norm(lhs - s * rhs)) / norm if norm else 0.0
                       for s in (1, -1))
        if plus <= tol and minus <= tol:
            vacuous.append(key)
        if plus <= tol:
            signs[key], residuals[key] = 1, plus
        elif minus <= tol:
            signs[key], residuals[key] = -1, minus
        else:
            raise SignIndeterminateError(
                f"sign-indeterminate: {relation} residuals "
                f"(+1: {plus:.3e}, -1: {minus:.3e}) both exceed tol={tol:g}")
    ko = (KO_TABLE_ODD if t.grading is None else KO_TABLE_EVEN).get(tuple(signs.values()))
    return SignTable(signs["eps"], signs["eps_prime"], signs.get("eps_dblprime"), ko,
                     residuals, tuple(vacuous))


@dataclass(frozen=True)
class DiracDecomposition:
    """Least-squares splitting D = D0 + D1 with D0 in (A°)' and D1 in A'.

    D1 is the minimum-norm solution of the part of D outside (A°)', taken
    one central block of A at a time, and D0 the projection of D - D1 onto
    (A°)'; ambiguity_dim records the dimension of A' ∩ (A°)' responsible
    for the non-uniqueness.  When D commutes with J, j_symmetric_part is a
    self-adjoint D0' with D = D0' + J D0' J and j_residual the achieved
    error.
    """

    free_part: np.ndarray
    commuting_part: np.ndarray
    residual: float
    ambiguity_dim: int
    j_symmetric_part: np.ndarray | None = None
    j_residual: float | None = None


def _outside_on_block(z, h, q, others):
    """A' rows v_q Z v_q* outside (A°)': their q x q blocks, and the rest's norm.

    h is v* w, for A''s basis v and the basis w of (A°)''s parts.  P0 X is
    the sum over parts p of h[:, p] M_p h[:, p]* in v, M_p the projection of
    h[q, p]* Z h[q, p].  Off q x q, its rows r give terms orthogonal across
    p, with the norms of h[r, p] M_p, and its block q x r is summed.
    """
    d = len(z)
    rest = np.ones(len(h), dtype=bool)
    rest[q] = False
    block, cross, off = z.copy(), 0.0, 0.0
    for p, y in others:
        basis = y.reshape(len(y), -1)
        g = h[q, p]
        m = (g.conj().T @ z @ g).reshape(d, -1)
        m = (np.conj(np.conj(m) @ basis.T) @ basis).reshape(d, *y.shape[1:])
        hm = h[:, p] @ m
        block -= hm[:, q] @ g.conj().T
        cross = cross + hm[:, q] @ h[rest, p].conj().T
        off += np.linalg.norm(hm[:, rest]) ** 2
    return block, off + np.linalg.norm(cross) ** 2


def decompose_dirac(t, algebra_commutant, opposite_commutant, tol=DEFAULT_TOL):
    """Split the Dirac operator across the two commutants A' and (A°)'.

    The splitting is that of the first-order structure theorem; raises
    OrderConditionError when an order condition fails.  A' comes in the
    block form of its solve, whose components lie in A + C 1 (central
    supports P_Q of A), and (A°)' in any block form.  Under the zeroth order
    condition each P_Q lies in (A°)', so the part of A''s component-Q rows
    outside (A°)' lies in Q x Q.  These d_Q x s_Q^2 blocks are factored
    one at a time, with one singular_value_cut on the union of their
    singular values and the shape (dim A', n^2) of the whole system: their
    kernels span A' ∩ (A°)', and their kept triplets give the minimum-norm
    D1 whose part outside (A°)' is that of D.  D0 is the (A°)' projection
    of D - D1.  The rows' part off their blocks moves no singular value by
    more than its HS norm (Weyl), as a generator's coupling out of a
    component bounds the commutant solver; RuntimeError is raised when
    that bound reaches the cut.
    """
    require_order_conditions(t, tol)
    n = t.n
    d = np.asarray(t.dirac, dtype=complex)
    v, parts = algebra_commutant.blocks
    w, others = opposite_commutant.blocks
    h = v.conj().T @ w
    # rows are read transposed, so D enters as D^T; per block the factors
    # of the adjoint of its rows, and the pairings <o_i, D>
    factors, leak = [], 0.0
    for q, z in parts:
        block, off = _outside_on_block(z, h, q, others)
        rows = block.reshape(len(z), -1)
        sigma, vh = linalg.svd_rows(rows.T)
        paired = np.conj(rows) @ (v[:, q].conj().T @ d.T @ v[:, q]).ravel()
        factors.append((sigma, vh.conj(), paired))
        leak += off
    cut = linalg.singular_value_cut(np.concatenate([sigma for sigma, *_ in factors]),
                                    (algebra_commutant.dim, n * n),
                                    min(algebra_commutant.tol, opposite_commutant.tol))
    if np.sqrt(leak) >= cut:
        raise RuntimeError(f"Dirac decomposition certificate: the part off the central "
                           f"blocks, {np.sqrt(leak):.3e}, reaches the rank cut {cut:.3e}")
    d1, rank = np.zeros((n, n), dtype=complex), 0
    for (q, z), (sigma, vh, paired) in zip(parts, factors):
        r = int(np.count_nonzero(sigma > cut))
        c = (paired @ vh[:r].conj().T / sigma[:r] ** 2) @ vh[:r]
        d1 += v[:, q] @ np.tensordot(c, z, axes=1) @ v[:, q].conj().T
        rank += r
    d1 = d1.T
    d0 = opposite_commutant.project(d - d1)
    residual = linalg.hs_norm(d - d0 - d1)
    ambiguity = algebra_commutant.dim - rank

    j_sym = None
    j_res = None
    j = t.real_structure
    d_norm = max(linalg.hs_norm(d), 1.0)
    if j.commutation_residual(d) <= tol * d_norm:
        # Constructive route: shift the ambiguity so D1 = J D0 J, then take
        # the self-adjoint part, which absorbs the skew piece.
        correction = d1 - j.conjugate_operator(d0)
        shifted = d0 + 0.5 * correction
        sym = 0.5 * (shifted + shifted.conj().T)
        j_sym = sym
        j_res = linalg.hs_norm(d - sym - j.conjugate_operator(sym))
    return DiracDecomposition(d0, d1, residual, ambiguity, j_sym, j_res)


def axiom_residuals(t):
    """Residuals of every defining axiom, for reports and tests.

    Keys with value ~0 mean the axiom holds.  Grading keys are absent for
    odd triples.
    """
    d = np.asarray(t.dirac, dtype=complex)
    d_scale = max(linalg.hs_norm(d), 1.0)
    out = {
        "dirac_hermitian": linalg.hs_norm(d - d.conj().T) / d_scale,
        "zeroth_order": zeroth_order_violation(t),
        "first_order": first_order_violation(t),
    }
    if t.grading is not None:
        g = np.asarray(t.grading, dtype=complex)
        n = t.n
        out["grading_involution"] = linalg.hs_norm(g @ g - np.eye(n)) / np.sqrt(n)
        out["grading_hermitian"] = linalg.hs_norm(g - g.conj().T) / np.sqrt(n)
        gens = np.array(_normalized(t.algebra_gens)).reshape(-1, n, n)
        out["grading_commutes_algebra"] = _largest_commutator(gens, [g])
        out["grading_anticommutes_dirac"] = linalg.hs_norm(g @ d + d @ g) / (2.0 * d_scale)
    return out
