"""Constructors for the concrete Standard-Model internal geometry.

Everything here is an explicit matrix built from the frozen slot layout: the
three algebra representations (the real algebra C+H+M3, its complex
degenerate cousin C+M2+M3, and the Pati-Salam algebra H+H+M4), the real
structure, both gradings, the Dirac family and its named one-form
generators, the gauge-group representations, and the witness operators used
by the obstruction and irreducibility arguments.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, layout
from .layout import HILBERT_DIM, LEFT_DIM, RIGHT_DIM, left_unit, right_unit
from .linalg import AntilinearOperator, DEFAULT_TOL, TOL_FLOOR, kron_action
from .triple import FiniteTriple, opposite_generators

ALGEBRA_CHOICES = ("A_F", "B_F", "A_ev")
GRADING_CHOICES = ("standard", "nonstandard", "none")
DIRAC_CHOICES = ("zero", "CC", "CC_plus_Gamma", "custom")

_EYE4 = np.eye(RIGHT_DIM, dtype=complex)
_EYE8 = np.eye(LEFT_DIM, dtype=complex)

#: The couplings of the Dirac family: config key -> value type, in
#: DiracParams field order; each field name is its key in lower case.
COUPLINGS = {"ups_nu": complex, "ups_e": complex, "ups_u": complex,
             "ups_d": complex, "ups_R": complex, "omega": complex,
             "delta": float, "gamma": float}

#: The couplings each Dirac kind takes; zero and custom take none.
DIRAC_COUPLINGS = {"CC": tuple(key for key in COUPLINGS if key != "gamma"),
                   "CC_plus_Gamma": tuple(COUPLINGS)}

#: The Majorana-type coupling: its term lies in both commutants, no one-form.
MAJORANA_COUPLING = "ups_R"


@dataclass(frozen=True)
class DiracParams:
    """Coefficients of the Dirac family, one field per entry of COUPLINGS.

    The four Yukawa-type couplings, the right-handed Majorana-type coupling
    and omega are complex; delta and gamma are real.  Zero values are
    allowed everywhere (the theorems impose non-vanishing as hypotheses, not
    the constructors).
    """

    ups_nu: complex = 0j
    ups_e: complex = 0j
    ups_u: complex = 0j
    ups_d: complex = 0j
    ups_r: complex = 0j
    omega: complex = 0j
    delta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not all(cmath.isfinite(getattr(self, key.lower())) for key in COUPLINGS):
            raise ValueError("Dirac coefficients must be finite")

    def couplings(self, dirac):
        """{config key: value} of the couplings that Dirac kind dirac takes."""
        return {key: getattr(self, key.lower()) for key in DIRAC_COUPLINGS.get(dirac, ())}


#: Golden-fixture coefficient values used by the committed matrix fixtures.
FIXTURE_PARAMS = DiracParams(ups_nu=1, ups_e=2, ups_u=3, ups_d=4,
                             ups_r=5, omega=6, delta=7.0, gamma=8.0)


@dataclass(frozen=True)
class TripleConfig:
    """Input parameters selecting one concrete triple.

    The Pati-Salam algebra only pairs with the standard grading; the
    degenerate-representation algebra and the default one accept either
    grading or none.
    """

    algebra: str = "A_F"
    grading: str = "nonstandard"
    dirac: str = "CC"
    params: DiracParams = DiracParams()
    custom_matrix: np.ndarray | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.algebra not in ALGEBRA_CHOICES:
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if self.grading not in GRADING_CHOICES:
            raise ValueError(f"unknown grading {self.grading!r}")
        if self.dirac not in DIRAC_CHOICES:
            raise ValueError(f"unknown dirac kind {self.dirac!r}")
        if self.algebra == "A_ev" and self.grading != "standard":
            raise ValueError("algebra A_ev only pairs with the standard grading")
        if self.dirac == "custom" and self.custom_matrix is None:
            raise ValueError("dirac kind 'custom' needs a matrix")
        if not (TOL_FLOOR <= self.tol < 1):
            raise ValueError(f"tolerance {self.tol} outside [{TOL_FLOOR:g}, 1)")


def quaternion_units():
    """Real basis {1, i s1, i s2, i s3} of the quaternions as 2x2 matrices."""
    return [
        np.eye(2, dtype=complex),
        np.array([[0, 1j], [1j, 0]]),
        np.array([[0, 1], [-1, 0]], dtype=complex),
        np.array([[1j, 0], [0, -1j]]),
    ]


def _embed_af(lam_top, lam_second, q, m):
    """8x8 block matrix diag(lam_top, lam_second, q, lam_top, m)."""
    a = np.zeros((LEFT_DIM, LEFT_DIM), dtype=complex)
    a[0, 0] = lam_top
    a[1, 1] = lam_second
    a[2:4, 2:4] = q
    a[4, 4] = lam_top
    a[5:8, 5:8] = m
    return a


def algebra_af_element(lam, q, m):
    """Representation of (lam, q, m) in C + H + M3 acting from the left."""
    return kron_action(_embed_af(lam, np.conj(lam), q, m), _EYE4)


def algebra_af_generators():
    """Real-linear generating family of the represented C + H + M3.

    Two generators carry the complex scalar slot (value 1 and i, with the
    conjugate entry tracking it), four the quaternion units, and eighteen a
    real basis of the 3x3 block.  The complex span has dimension 15.
    """
    zero2 = np.zeros((2, 2))
    zero3 = np.zeros((3, 3))
    gens = [algebra_af_element(1.0, zero2, zero3),
            algebra_af_element(1j, zero2, zero3)]
    gens += [algebra_af_element(0.0, u, zero3) for u in quaternion_units()]
    for k in range(1, 4):
        for l in range(1, 4):
            m_unit = layout.unit(3, k, l)
            gens.append(algebra_af_element(0.0, zero2, m_unit))
            gens.append(algebra_af_element(0.0, zero2, 1j * m_unit))
    return gens


def algebra_bf_element(lam, q, m):
    """Degenerate representation of (lam, q, m) in C + M2 + M3.

    Identical to the C + H + M3 block form except that the slot tracking the
    conjugate scalar is held at zero, and all three summands are complex.
    """
    return kron_action(_embed_af(lam, 0.0, q, m), _EYE4)


def algebra_bf_generators():
    """Complex-linear generators of the degenerate representation (dim 14)."""
    zero2 = np.zeros((2, 2))
    zero3 = np.zeros((3, 3))
    gens = [algebra_bf_element(1.0, zero2, zero3)]
    gens += [algebra_bf_element(0.0, layout.unit(2, k, l), zero3)
             for k in range(1, 3) for l in range(1, 3)]
    gens += [algebra_bf_element(0.0, zero2, layout.unit(3, k, l))
             for k in range(1, 4) for l in range(1, 4)]
    return gens


def algebra_aev_element(x, y, m):
    """Representation of (x, y, m) in H + H + M4 acting from the left."""
    a = np.zeros((LEFT_DIM, LEFT_DIM), dtype=complex)
    a[0:2, 0:2] = x
    a[2:4, 2:4] = y
    a[4:8, 4:8] = m
    return kron_action(a, _EYE4)


def algebra_aev_generators():
    """Real-linear generating family of the Pati-Salam algebra (dim_C 24)."""
    zero2 = np.zeros((2, 2))
    zero4 = np.zeros((4, 4))
    gens = [algebra_aev_element(u, zero2, zero4) for u in quaternion_units()]
    gens += [algebra_aev_element(zero2, u, zero4) for u in quaternion_units()]
    for k in range(1, 5):
        for l in range(1, 5):
            m_unit = layout.unit(4, k, l)
            gens.append(algebra_aev_element(zero2, zero2, m_unit))
            gens.append(algebra_aev_element(zero2, zero2, 1j * m_unit))
    return gens


@functools.cache
def real_structure():
    """Charge conjugation: swap the particle/antiparticle 4x4 blocks and
    Hermitian-transpose each, giving v -> K conj(v) with K a symmetric
    permutation (so the square is +1).

    Built on first use and shared afterwards; K is read-only, so no caller
    can change the shared instance.
    """
    k = np.zeros((HILBERT_DIM, HILBERT_DIM))
    for r in range(1, LEFT_DIM + 1):
        for c in range(1, RIGHT_DIM + 1):
            if r <= 4:
                target = layout.slot_index(4 + c, r)
            else:
                target = layout.slot_index(c, r - 4)
            k[target, layout.slot_index(r, c)] = 1.0
    k.setflags(write=False)
    return AntilinearOperator(k)


def grading(kind):
    """One of the two diagonal chirality operators.

    The standard one separates left from right handedness uniformly; the
    non-standard one assigns opposite parity to chiral leptons and quarks
    (they agree on leptons and differ by a sign on quarks).
    """
    diag_lr = np.diag([1, 1, -1, -1, 0, 0, 0, 0]).astype(complex)
    if kind == "standard":
        lower = np.diag([0, 0, 0, 0, -1, -1, -1, -1]).astype(complex)
        return (kron_action(diag_lr, _EYE4)
                + kron_action(lower, np.diag([1, 1, -1, -1]).astype(complex)))
    if kind == "nonstandard":
        lower = np.diag([0, 0, 0, 0, -1, 1, 1, 1]).astype(complex)
        return (kron_action(diag_lr, np.diag([1, -1, -1, -1]).astype(complex))
                + kron_action(lower, np.diag([1, 1, -1, -1]).astype(complex)))
    raise ValueError(f"unknown grading kind {kind!r}")


def dirac_free_part(params, dirac):
    """The Dirac component generating one-forms.

    Lepton block: Yukawa entries coupling right and left rows, the omega
    entry mixing the down-type right slot with the antilepton row, and the
    delta entries mixing leptons with quarks inside the antiparticle rows.
    Quark block: Yukawa and delta entries only.  The Dirac kinds that take
    gamma (DIRAC_COUPLINGS) add the extra antiparticle-row coupling in the
    down-type right column.
    """
    p = params
    lepton = np.zeros((LEFT_DIM, LEFT_DIM), dtype=complex)
    lepton[0, 2] = np.conj(p.ups_nu)
    lepton[2, 0] = p.ups_nu
    lepton[1, 3] = np.conj(p.ups_e)
    lepton[3, 1] = p.ups_e
    lepton[1, 4] = np.conj(p.omega)
    lepton[4, 1] = p.omega
    lepton[4, 5] = p.delta
    lepton[5, 4] = p.delta
    quark = np.zeros((LEFT_DIM, LEFT_DIM), dtype=complex)
    quark[0, 2] = np.conj(p.ups_u)
    quark[2, 0] = p.ups_u
    quark[1, 3] = np.conj(p.ups_d)
    quark[3, 1] = p.ups_d
    quark[4, 5] = p.delta
    quark[5, 4] = p.delta
    d0 = (kron_action(lepton, right_unit(1, 1))
          + kron_action(quark, _EYE4 - right_unit(1, 1)))
    if "gamma" in DIRAC_COUPLINGS.get(dirac, ()):
        d0 = d0 + p.gamma * kron_action(left_unit(5, 7) + left_unit(7, 5),
                                        right_unit(2, 2))
    return d0


def dirac_majorana_term(ups_r):
    """The term coupling the right-handed neutrino to its conjugate slot;
    it lies in both commutants and commutes with the real structure."""
    block = ups_r * left_unit(5, 1) + np.conj(ups_r) * left_unit(1, 5)
    return kron_action(block, right_unit(1, 1))


def build_dirac(config):
    """Assemble the Hermitian Dirac operator selected by the config."""
    if config.dirac == "zero":
        return np.zeros((HILBERT_DIM, HILBERT_DIM), dtype=complex)
    if config.dirac == "custom":
        d = linalg.ensure_operator(config.custom_matrix, HILBERT_DIM)
        if linalg.hs_norm(d - d.conj().T) > config.tol * max(linalg.hs_norm(d), 1.0):
            raise ValueError("custom Dirac matrix must be Hermitian")
        return d
    d0 = dirac_free_part(config.params, config.dirac)
    return (d0 + real_structure().conjugate_operator(d0)
            + dirac_majorana_term(config.params.ups_r))


def build_triple(config):
    """FiniteTriple for the configured algebra, grading and Dirac operator."""
    if config.algebra == "A_F":
        gens = algebra_af_generators()
    elif config.algebra == "B_F":
        gens = algebra_bf_generators()
    else:
        gens = algebra_aev_generators()
    j = real_structure()
    gamma_op = None if config.grading == "none" else grading(config.grading)
    return FiniteTriple(
        algebra_gens=tuple(gens),
        opposite_gens=opposite_generators(gens, j),
        dirac=build_dirac(config),
        real_structure=j,
        grading=gamma_op,
    )


# ---------------------------------------------------------------------------
# Gauge group representations


@dataclass(frozen=True)
class GroupElement:
    """Element (phase, weak 2x2 block, color 3x3 block) of the gauge group,
    or k of them as a (k,) phase array and (k, 2, 2), (k, 3, 3) stacks."""

    phase: complex
    weak: np.ndarray
    color: np.ndarray

    def unitarity_defect(self):
        """Largest distance from unitarity of the phase and the blocks, over
        the whole stack."""
        defect = float(np.max(np.abs(np.abs(self.phase) - 1.0)))
        for block in (self.weak, self.color):
            gram = block @ block.conj().swapaxes(-1, -2)
            defect = max(defect, float(np.max(np.linalg.norm(
                gram - np.eye(block.shape[-1]), axis=(-2, -1)))))
        return defect


def _require_unitary(g, tol=1e-9):
    defect = g.unitarity_defect()
    if defect > tol:
        raise ValueError(f"group element is not unitary (defect {defect:.3e})")


def pi_sm(g):
    """Unitary representation of the Standard-Model gauge group.

    Implemented through the factorized form a J a J^{-1} with the rescaled
    arguments (phase^3, weak, conj(phase) * color), with algebra_af_element
    evaluated at a possibly non-quaternionic 2x2 block.
    """
    _require_unitary(g)
    a = algebra_af_element(g.phase ** 3, g.weak, np.conj(g.phase) * g.color)
    j = real_structure()
    return a @ j.conjugate_operator(a)


def rho_degenerate_stack(elements):
    """Unitary representation of U(1) x U(2) x U(3) for the degenerate
    representation, of every group element, as one (k, 32, 32) stack:
    fundamental piece on the conjugate lepton column, its dual, and the
    adjoint piece on the rest.

    The representation is pibar0 + J pibar0 J^{-1} + pi1 J pi1 J^{-1} with
    pibar0 = kron_action(lower(b), E_22) and pi1 = kron_action(upper(u), 1)
    + kron_action(lower(b), 1 - E_22), where b = diag(phase, color) and
    u = diag(phase, 0, weak) are 4 x 4 and upper, lower place a 4 x 4 block
    on the particle or the antiparticle rows.  J swaps the two halves of
    V = [P; A] and conjugate-transposes each, so
    J kron_action(upper(x) + lower(y), c) J^{-1} = kron_action(upper(c*), y*)
    + kron_action(lower(c*), x*), and the sum is two 8 x 8 (x) 4 x 4 terms:
    rho = kron_action(upper(w), b*) + kron_action(lower(b), w*), with
    w = u + E_22 = diag(phase, 1, weak).  The fundamental acts on one side
    of each half and the dual on the other.
    """
    stack = GroupElement(np.array([g.phase for g in elements]),
                         np.array([g.weak for g in elements]),
                         np.array([g.color for g in elements]))
    _require_unitary(stack)
    k = len(elements)
    w = np.zeros((k, RIGHT_DIM, RIGHT_DIM), dtype=complex)
    b = np.zeros((k, RIGHT_DIM, RIGHT_DIM), dtype=complex)
    w[:, 0, 0] = b[:, 0, 0] = stack.phase
    w[:, 1, 1] = 1.0
    w[:, 2:, 2:] = stack.weak
    b[:, 1:, 1:] = stack.color
    # the two terms live on disjoint quarters of rho, (i, p, j, r) <-> entry
    # (8 i + p, 8 j + r), so each is written in place and nothing is added
    rho = np.zeros((k, RIGHT_DIM, LEFT_DIM, RIGHT_DIM, LEFT_DIM), dtype=complex)
    quarter = (k, RIGHT_DIM, 4, RIGHT_DIM, 4)
    rho[:, :, :4, :, :4] = kron_action(w, b.conj().transpose(0, 2, 1)).reshape(quarter)
    rho[:, :, 4:, :, 4:] = kron_action(b, w.conj().transpose(0, 2, 1)).reshape(quarter)
    return rho.reshape(k, HILBERT_DIM, HILBERT_DIM)


def cover_map(g):
    """The covering homomorphism (lam, q, m) -> (lam^6, lam^3 q, lam^2 m)
    from the Standard-Model gauge group into U(1) x U(2) x U(3)."""
    return GroupElement(phase=g.phase ** 6, weak=g.phase ** 3 * g.weak,
                        color=g.phase ** 2 * g.color)


def z6_elements():
    """The six central elements (mu, mu^3 1_2, mu^4 1_3), mu^6 = 1, forming
    the kernel of the Standard-Model representation."""
    out = []
    for k in range(6):
        mu = np.exp(2j * np.pi * k / 6)
        out.append(GroupElement(phase=mu, weak=mu ** 3 * np.eye(2, dtype=complex),
                                color=mu ** 4 * np.eye(3, dtype=complex)))
    return out


def _phase_fixed_q(z):
    """The Q factors of a (k, n, n) stack, by one stacked QR, each column
    times the phase of R's diagonal entry."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_group_elements(rng, k):
    """k random unitary group elements drawn from the random.Random rng.

    Per element the draws are rng.random() for the phase, then the 8 and 18
    Gaussians of the 2x2 and 3x3 blocks, real parts before imaginary parts;
    each block is the phase-fixed Q of its Gaussian matrix (one stacked QR
    per block size, _phase_fixed_q), a Haar-ish unitary.
    """
    phases, draws = [], []
    for _ in range(k):
        phases.append(rng.random())
        draws.append([rng.gauss(0.0, 1.0) for _ in range(26)])
    draws = np.array(draws).reshape(k, 26)
    weak = _phase_fixed_q((draws[:, :4] + 1j * draws[:, 4:8]).reshape(k, 2, 2))
    color = _phase_fixed_q((draws[:, 8:17] + 1j * draws[:, 17:]).reshape(k, 3, 3))
    phase = np.exp(2j * np.pi * np.array(phases))
    return [GroupElement(p, w, c) for p, w, c in zip(phase, weak, color)]


# ---------------------------------------------------------------------------
# One-form generators and witness operators


def one_form_generators(params, dirac):
    """The named generators of the one-form bimodule for Dirac kind dirac.

    omega_nu and omega_e carry the Yukawa couplings on the up- and down-type
    left rows; xi and eta come from the omega and delta entries; zeta (only
    for a kind that takes gamma, DIRAC_COUPLINGS) from the gamma entry.
    """
    p = params
    omega_nu = kron_action(left_unit(3, 1),
                           p.ups_nu * right_unit(1, 1)
                           + p.ups_u * (_EYE4 - right_unit(1, 1)))
    omega_e = kron_action(left_unit(4, 2),
                          p.ups_e * right_unit(1, 1)
                          + p.ups_d * (_EYE4 - right_unit(1, 1)))
    xi = kron_action(left_unit(5, 2), right_unit(1, 1))
    eta = kron_action(left_unit(5, 6), _EYE4)
    gens = [omega_nu, omega_e, xi, eta]
    if "gamma" in DIRAC_COUPLINGS.get(dirac, ()):
        gens.append(kron_action(left_unit(5, 7), right_unit(2, 2)))
    return gens


def lepton_projection():
    """Projection onto the subspace containing only leptons."""
    block = sum(left_unit(i, i) for i in range(1, 5))
    return kron_action(block, right_unit(1, 1)) + kron_action(left_unit(5, 5), _EYE4)


def witness_catalog(params=FIXTURE_PARAMS):
    """Named operators quoted by the obstruction and reducibility arguments."""
    cat = {
        "e55_block": kron_action(left_unit(5, 5), _EYE4 - right_unit(1, 1)),
        "e55_e23": kron_action(left_unit(5, 5), right_unit(2, 3)),
        "e15_e11": kron_action(left_unit(1, 5), right_unit(1, 1)),
        "lepton_projection": lepton_projection(),
    }
    omega_nu, omega_e, xi, eta, zeta = one_form_generators(params, "CC_plus_Gamma")
    cat.update({"omega_nu": omega_nu, "omega_e": omega_e,
                "xi": xi, "eta": eta, "zeta": zeta})
    return cat

