"""Executable forms of the main structure theorems.

one_forms spans the differentials a [D, b]; clifford closes algebra plus
one-forms (plus the grading for the even variant) into a *-algebra; the
Morita property compares the Clifford commutant with the complexified
opposite algebra; the obstruction and irreducibility checks certify the
negative results by explicit commuting witnesses and real commutants.  The
real commutant, with the antilinear J, is never given a real basis: it and
its Hermitian part are real forms of complex spaces (irreducible).

Derived is the one owner of the shared objects of a triple, each built
once: A' is solved, (A°)' is its J-image, and each Clifford closure is
solved from its own generators; clifford, property_m and irreducible read
what they need from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, star_algebra, subspaces
from .linalg import DEFAULT_TOL
from .triple import (_normalized, _support_commutator_norms, dirac_commutators,
                     j_signs, require_order_conditions)


#: Smallest projection norm at which a probe matrix unit selects a witness.
#: The squared projection norms of all n^2 matrix units onto a nonzero
#: operator space sum to its dimension, so some probe reaches 1/n.  The 2 n^2
#: Hermitian-part probes of the reducing projection, (E_f + E_f^T)/2 and
#: i (E_f - E_f^T)/2, do the same on a *-closed space, so one reaches
#: 1/(n sqrt 2); the floor is always met on the 32-dimensional Hilbert space.
PROBE_FLOOR = 1e-3

#: Decimal places to which entry moduli are rounded before the largest one
#: fixes a witness phase, so that roundoff cannot reorder equal moduli.
MODULUS_DECIMALS = 9

#: Relative eigenvalue gap that separates the lowest cluster of a reducing
#: projection's element from the rest.
CLUSTER_GAP = 1e-6


def algebra_span(t, tol=DEFAULT_TOL):
    """Complex span of the represented algebra."""
    return subspaces.span_of(t.algebra_gens, tol=tol)


def opposite_span(t, tol=DEFAULT_TOL):
    """Complex span of the opposite algebra, with the identity adjoined.

    The Morita comparison for degenerate representations is against this
    minimal unitalization, which has the same commutant.
    """
    return subspaces.with_identity(subspaces.span_of(t.opposite_gens, tol=tol))


def one_forms(t, span):
    """Complex span of a [D, b] over the represented algebra.

    Computed at span.tol over a basis of span, the algebra's complex span, by
    subspaces.product_span, one basis element a at a time; it is a two-sided
    module over the algebra by the Leibniz identity, which the test-suite
    verifies rather than assumes.  The forms [D, b] are those of
    triple.dirac_commutators, as in first_order_violation: a roundoff form
    is left out, and with it the products, which are zero.
    """
    basis = span.matrices
    forms, _ = dirac_commutators(t.dirac, basis)
    return subspaces.product_span(basis, forms, tol=span.tol)


def clifford(derived, even=False):
    """The *-algebra generated by the algebra and its one-forms.

    even=True additionally adjoins the grading; it requires an even triple.
    The closure is star_algebra.star_closure of these generators alone.
    """
    t, tol = derived.t, derived.tol
    if even and t.grading is None:
        raise ValueError("even Clifford algebra requires a grading")
    gens = [*derived.algebra_span.matrices, *derived.one_forms.matrices]
    if even:
        gens.append(np.asarray(t.grading, dtype=complex))
    return star_algebra.star_closure(gens, tol=tol)


class Derived:
    """The shared derived objects of one triple at one tol.

    Each is built on first use by one call through the module attribute (so
    a tracer or a test that replaces the function sees it) and kept; a
    caller may assign one instead, such as a closure of other generators.
    """

    def __init__(self, t, tol=DEFAULT_TOL):
        self.t = t
        self.tol = tol

    @cached_property
    def algebra_span(self):
        return algebra_span(self.t, tol=self.tol)

    @cached_property
    def opposite_span(self):
        return opposite_span(self.t, tol=self.tol)

    @cached_property
    def algebra_commutant(self):
        return subspaces.commutant(self.algebra_span)

    @cached_property
    def opposite_commutant(self):
        # the opposite generators are J a J^{-1}, so their commutant is J A' J^{-1}
        return subspaces.conjugated(self.algebra_commutant, self.t.real_structure)

    @cached_property
    def opposite_center(self):
        # adjoining 1 leaves the commutant of the opposite generators as it is
        return star_algebra.center(self.opposite_span, self.opposite_commutant)

    @cached_property
    def one_forms(self):
        return one_forms(self.t, self.algebra_span)

    @cached_property
    def clifford_odd(self):
        return clifford(self, even=False)

    @cached_property
    def clifford_even(self):
        return clifford(self, even=True)


@dataclass(frozen=True)
class MoritaVerdict:
    """Outcome of one Morita-equivalence comparison.

    holds is True when the commutant of the Clifford closure equals the
    (complexified, minimally unitalized) opposite algebra.  On failure,
    witness is a unit commutant element HS-orthogonal to the opposite
    algebra, chosen canonically so that it depends on the two spaces and not
    on their bases: the normalized projection onto (commutant minus opposite
    algebra) of the first vec-order matrix unit whose projection has norm at
    least PROBE_FLOOR, with the phase that makes its largest-modulus entry
    real and positive (moduli rounded to MODULUS_DECIMALS places, lowest vec
    index on ties).  The opposite algebra lies in the commutant whenever the
    order conditions hold, so the witness is a commutant element.
    """

    clifford_dim: int
    commutant_dim: int
    opposite_dim: int
    holds: bool
    witness: np.ndarray | None


def _orthogonal_witness(commutant_space, opposite):
    """Canonical unit element of the commutant orthogonal to the opposite algebra.

    See MoritaVerdict for the rule; None when the commutant lies inside the
    opposite algebra.
    """
    resid = opposite.outside(commutant_space.flat)
    if np.linalg.norm(resid, axis=1).max() <= commutant_space.tol:
        return None
    q = linalg.orthonormal_rows(resid, tol=commutant_space.tol)
    # the projection of matrix unit f is conj(q[:, f]) @ q, of norm |q[:, f]|
    probe = int(np.argmax(np.linalg.norm(q, axis=0) >= PROBE_FLOOR))
    w = q[:, probe].conj() @ q
    w = w / np.linalg.norm(w)
    top = int(np.argmax(np.round(np.abs(w), MODULUS_DECIMALS)))
    w = w * (abs(w[top]) / w[top])
    return linalg.unvec(w, commutant_space.n, commutant_space.n)


def property_m(derived, even=False):
    """Morita check: does the Clifford commutant equal the opposite algebra?

    Compares the commutant of derived.clifford_odd, or of
    derived.clifford_even when even (which raises ValueError on an odd
    triple), with derived.opposite_span.  Requires the order conditions;
    raises OrderConditionError otherwise.  The commutant is the one the
    closure was read off, so nothing is solved.  The even Clifford
    dimension is that of the bicommutant, read off the closure: a
    finite-dimensional *-algebra A has A'' = A + C 1, so it is the
    closure's dimension, plus one when the closure is not unital.
    """
    require_order_conditions(derived.t, derived.tol)
    cl = derived.clifford_even if even else derived.clifford_odd
    comm = cl.commutant
    opp = derived.opposite_span
    holds = subspaces.equals(comm, opp)
    return MoritaVerdict(
        clifford_dim=cl.dim + (1 if even and not cl.unital else 0),
        commutant_dim=comm.dim,
        opposite_dim=opp.dim,
        holds=holds,
        witness=None if holds else _orthogonal_witness(comm, opp),
    )


def obstruction_check(x, targets, grading, tol=DEFAULT_TOL):
    """Certify that the grading lies outside the algebra the targets generate.

    x must commute with every operator of targets and anticommute with the
    grading: conjugation by such an x fixes the generated algebra pointwise
    but flips the grading, so the grading cannot belong to it.  Each target
    g is met to within tol max(||g||, 1) ||x||.
    """
    x = np.asarray(x, dtype=complex)
    x_norm = linalg.hs_norm(x)
    if x_norm == 0.0:
        return False
    targets = np.asarray(targets, dtype=complex).reshape(-1, *x.shape)
    scales = np.maximum(np.linalg.norm(targets, axis=(1, 2)), 1.0) * x_norm
    if (_support_commutator_norms(targets, x) > tol * scales).any():
        return False
    g = np.asarray(grading, dtype=complex)
    anti = linalg.hs_norm(x @ g + g @ x)
    return anti <= tol * linalg.hs_norm(g) * x_norm


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Real commutant of the full triple data and the projection criterion.

    commutant_dim_real counts real dimensions of everything commuting with
    the algebra, the Dirac operator, the grading (if any) and the real
    structure; selfadjoint_dim counts its Hermitian part.  The triple is
    irreducible exactly when no nontrivial commuting projection exists,
    i.e. when the Hermitian part is spanned by the identity alone.
    """

    irreducible: bool
    commutant_dim_real: int
    selfadjoint_dim: int
    witness: np.ndarray | None


def _complexified_real_commutant(t, tol):
    """M = C0 ∩ J C0 J^{-1}, a complex space whose J-fixed part is the real commutant.

    C0 is the complex commutant of the algebra, the Dirac operator and the
    grading (HS-normalized).  With θ(X) = J X J^{-1}, antilinear, θ^2 = 1
    when J^2 = ±1: an X commuting with J is θ-fixed and lies in C0, hence in
    θ(C0), so the real commutant R is the θ-fixed part of M, and M is
    θ-invariant.  R is then a real form of M (Krajewski, J. Geom. Phys. 28
    (1998) 1): dim_R R = dim_C M.
    Raises ValueError when no sign fits J^2 = ±1 by triple.j_signs.
    """
    n = t.n
    k = t.real_structure.matrix
    if not j_signs(k @ k, np.eye(n), np.sqrt(n), tol)[1]:
        raise ValueError("the real commutant needs J^2 = ±1")
    extra = [t.dirac] + ([] if t.grading is None else [t.grading])
    c0 = subspaces.commutant(subspaces.span_of([*t.algebra_gens, *_normalized(extra)],
                                               tol=tol))
    return subspaces.intersect(c0, subspaces.conjugated(c0, t.real_structure))


def _reducing_projection(flat, n, tol):
    """Canonical reducing projection of a *-closed space of operators.

    flat holds a basis of the complex space, which contains the identity, as
    vec rows.  The space minus its identity component is orthonormalized;
    these probes are projected onto it in order: the diagonal matrix units
    E_kk, then the Hermitian parts (E_f + E_f^T)/2 and then
    i (E_f - E_f^T)/2 of the matrix units in vec order.  The projections
    are Hermitian, and on a *-closed space they equal the real projections
    of E_kk, E_f and i E_f onto its Hermitian elements.  The first with norm
    at least PROBE_FLOOR is the element whose lowest eigenvalue cluster (gap
    threshold CLUSTER_GAP) is returned.  The result depends on the space and
    not on its basis; None when the space holds only the identity.
    """
    eye_dir = linalg.vec(linalg.identity(n)) / np.sqrt(n)
    flat = flat - np.outer(flat @ eye_dir.conj(), eye_dir)
    if np.linalg.norm(flat, axis=1).max() <= tol:
        return None
    k = linalg.orthonormal_rows(flat, tol=tol)
    # the coefficient of a probe P on row k_i is <k_i, P>, and vec(E_f^T)
    # is the transpose-position entry of vec(E_f)
    on_units = k.conj()
    on_transposes = on_units.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n)
    coeffs = np.hstack([on_units[:, np.arange(n) * (n + 1)],
                        0.5 * (on_units + on_transposes),
                        0.5j * (on_units - on_transposes)])
    probe = int(np.argmax(np.linalg.norm(coeffs, axis=0) >= PROBE_FLOOR))
    s = linalg.unvec(coeffs[:, probe] @ k, n, n)
    vals, vecs = np.linalg.eigh(0.5 * (s + s.conj().T))
    scale = max(float(vals[-1] - vals[0]), 1.0)
    # the first gap ends the lowest cluster; with none, it is a single vector
    split = int(np.argmax(np.diff(vals) > CLUSTER_GAP * scale)) + 1
    return vecs[:, :split] @ vecs[:, :split].conj().T


def irreducible(derived):
    """Projection-based irreducibility of the full triple data.

    The real commutant R is a real form of M (_complexified_real_commutant),
    so its real dimension is dim_C M.
    σ(X) = J X* J^{-1} is a linear involution of M that commutes with *, and
    on its fixed part M+ = {(X + σX)/2} an element is J-fixed exactly when
    it is Hermitian; so the Hermitian part of R is a real form of M+ and
    counts dim_C M+.  If that exceeds 1, a non-scalar self-adjoint element
    is spectrally decomposed and the eigenprojection onto its lowest
    eigenvalue cluster (gap threshold CLUSTER_GAP) is returned as an
    explicit reducing projection.  The element is chosen canonically (see
    _reducing_projection): the projection of the first diagonal matrix unit
    E_kk onto M+, less its identity component, so the lowest cluster is the
    side that excludes that unit's slot.  When the Hermitian part is spanned
    by 1 and a projection P containing slot 0 (the lepton projection of the
    Dirac family without lepton-quark mixing, the chirality projection of
    Pati-Salam without Dirac data), the witness is 1 - P.  Raises
    ValueError when J^2 is not ±1.
    """
    t, tol = derived.t, derived.tol
    n = t.n
    comm = _complexified_real_commutant(t, tol)
    # row j of sigma is σ of basis row j of comm
    sigma = subspaces.conjugated(subspaces.adjoint(comm), t.real_structure)
    fixed = subspaces.span_of(0.5 * (comm.matrices + sigma.matrices), tol=tol)
    projection = None if fixed.dim <= 1 else _reducing_projection(fixed.flat, n, tol)
    return IrreducibilityVerdict(projection is None, comm.dim, fixed.dim, projection)


def zero_chain_membership(x, algebra_gens, opposite_gens, tol=DEFAULT_TOL):
    """Is x in the complex linear span of algebra plus opposite algebra?"""
    span = subspaces.span_of(list(algebra_gens) + list(opposite_gens), tol=tol)
    return span.contains(x)
