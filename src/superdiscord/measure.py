"""Projective and weak two-outcome measurements on the qubit subsystem B."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import qstate
from .errors import DomainError, NegativeStrength, expect
from .qstate import DensityMatrix

INFINITY = math.inf

DEGENERATE_PROB = 1e-12

_EYE2 = np.eye(2)  # built once: `weak_operators` runs once per kernel call


@dataclass(frozen=True)
class QubitBasis:
    """Orthonormal qubit basis parametrized by polar angle gamma and phase delta.

    |phi>    = cos(gamma/2)|0> + e^{i delta} sin(gamma/2)|1>
    |phibar> = cos(gamma/2)|1> - e^{-i delta} sin(gamma/2)|0>
    """

    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("gamma", "delta"):
            value = getattr(self, name)
            real_strength(value, name)
            if not math.isfinite(value):  # a NaN state would pass the kernel as a degenerate outcome
                raise DomainError(f"{name} must be finite, got {value}")

    def ket(self) -> np.ndarray:
        c, s = np.cos(self.gamma / 2), np.sin(self.gamma / 2)
        return np.array([c, np.exp(1j * self.delta) * s])

    def ket_bar(self) -> np.ndarray:
        c, s = np.cos(self.gamma / 2), np.sin(self.gamma / 2)
        return np.array([-np.exp(-1j * self.delta) * s, c])


def basis_from_ket(v) -> QubitBasis:
    """Canonical (gamma, delta) for a unit ket, modulo global phase."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    if abs(v[0]) < 1e-12:
        return QubitBasis(math.pi, 0.0)
    v = v * (v[0].conjugate() / abs(v[0]))
    gamma = 2.0 * math.atan2(abs(v[1]), v[0].real)
    delta = float(np.angle(v[1])) % (2 * math.pi) if abs(v[1]) > 1e-12 else 0.0
    return QubitBasis(gamma, delta)


def projectors(basis: QubitBasis) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors onto |phi> and |phibar>."""
    expect(basis, QubitBasis, "basis")
    k, kb = basis.ket(), basis.ket_bar()
    return np.outer(k, k.conj()), np.outer(kb, kb.conj())


def same_basis(b1: QubitBasis, b2: QubitBasis, tol: float = 1e-4) -> bool:
    """Whether two bases agree as unordered projector pairs, up to phase."""
    overlap = abs(np.vdot(b1.ket(), b2.ket())) ** 2
    return bool(overlap >= 1.0 - tol or overlap <= tol)


def real_strength(x, name: str = "strength") -> None:
    """Reject a strength that is a bool, not a real number or beyond float range, with DomainError.

    Python ints and floats and numpy real scalars pass; strings, None, complex
    numbers, lists and arrays do not, nor an int such as 10**400 that no float
    holds. The sign is `weak_coefficients`'s check. The state families check
    their parameters, and `QubitBasis` its angles, by the same rule, under
    their own `name`.
    """
    if type(x) is float:
        return
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    try:
        float(x)
    except OverflowError:
        # no repr: a str of over 4300 digits raises ValueError
        raise DomainError(f"{name} must fit in a float, got {type(x).__name__} beyond float range") from None


def weak_coefficients(x: float) -> tuple[float, float, float, float]:
    """a(∓x) for P(x), P(-x), then a(±x) − a(∓x) for each, with a(±x) = sqrt((1 ∓ tanh x)/2).

    The one place a strength is checked and becomes operator coefficients: a
    bool, a non-real x or an int beyond float range raises DomainError
    (`real_strength`), a negative or NaN x NegativeStrength, and x = INFINITY
    gives tanh = 1 exactly, the projective limit a(x) = 0, a(-x) = 1.
    """
    real_strength(x)
    if not x >= 0:
        raise NegativeStrength(f"strength must be >= 0, got {x}")
    t = math.tanh(x)
    ap, am = math.sqrt((1.0 - t) / 2.0), math.sqrt((1.0 + t) / 2.0)
    return am, ap, ap - am, am - ap


def weak_operators(coef, gammas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The (2, *gammas.shape, 2, 2) stack of P(x), P(-x) = a(±x) Pi_phi + a(∓x) Pi_phibar, one per (gamma, delta).

    Pi_phi = |phi><phi| with |phi> as in `QubitBasis.ket`, and P(±x) is built as
    a(∓x) I + (a(±x) − a(∓x)) Pi_phi, so Pi_phibar = I − Pi_phi; both outcomes come
    from one broadcast over the coefficient pair, on axis 0, so
    ``plus, minus = weak_operators(...)`` unpacks them. x = INFINITY gives the
    projective limit P(x) = I − Pi_phi, P(-x) = Pi_phi. coef is
    `weak_coefficients(x)`, one set for every point, or a (4, *gammas.shape)
    array of one set per point; one reshape broadcasts either over the
    operators. The angles may have any shape, such as (k, 1) for k points on a
    batch axis. The kernel, `weak_pair` and the outcomes all take their
    operators from here.
    """
    coef = np.reshape(coef, np.shape(coef) + (1,) * (gammas.ndim + 3 - np.ndim(coef)))
    half = gammas / 2
    kets = np.empty((*gammas.shape, 2), complex)
    kets[..., 0] = np.cos(half)
    kets[..., 1] = np.exp(1j * deltas) * np.sin(half)
    proj = kets[..., :, None] * kets.conj()[..., None, :]
    ops = coef[2:] * proj  # a(±x) − a(∓x), for P(x) and P(-x) on a new axis 0
    ops += coef[:2] * _EYE2  # a(∓x), in place, one (2, n, 2, 2) array fewer; a + b == b + a bit for bit
    return ops


def weak_pair(basis: QubitBasis, x: float) -> np.ndarray:
    """P(x), P(-x) for one basis as a (2, 2, 2) stack from `weak_operators`: ``plus, minus = weak_pair(b, x)``."""
    expect(basis, QubitBasis, "basis")
    return weak_operators(weak_coefficients(x), np.array([basis.gamma]), np.array([basis.delta]))[:, 0]


@dataclass(frozen=True)
class MeasurementOutcome:
    conditional_state: np.ndarray
    probability: float
    degenerate: bool = False


def conditional_blocks(rho4: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """M_ij = Σ_abc P_ab ρ_ibjc P_ca, the unnormalized states of A, for a (..., n, 2, 2) stack of P.

    rho4 is ρ as indices (a, b, a', b'); the result is (..., n, dim_a, dim_a).
    These are, bit for bit, the two matmuls
    ``np.einsum("gab,ibjc,gca->gij", P, ρ, P, optimize=True)`` plans for each
    batch, without its per-call planning: P·P, then its transpose T as (n, 4)
    rows T_bc against ρ copied into the layout (bc, ij). The leading axes, such
    as the two outcomes, are batch axes of each matmul and their rows are never
    stacked: matmul takes another path for one row than for several, so
    stacking would change values at odd dim_a.
    """
    dim_a, batch = rho4.shape[0], ops.shape[:-2]
    r = rho4.transpose(1, 3, 0, 2).reshape(4, dim_a * dim_a)
    t = np.matmul(ops, ops).reshape(*batch, 4)
    t[..., 1:3] = t[..., 2:0:-1]  # T_bc = (P·P)_cb, swapped in place rather than copied
    return np.matmul(t, r).reshape(*batch, dim_a, dim_a)


def _outcome(m: np.ndarray) -> MeasurementOutcome:
    p = float(np.trace(m).real)
    if p <= DEGENERATE_PROB:
        # zero-weight branch: placeholder state, unobservable under 0*log0 = 0
        return MeasurementOutcome(np.eye(len(m)) / len(m), 0.0, degenerate=True)
    return MeasurementOutcome(m / p, p)


def weak_outcomes(
    rho: DensityMatrix, pair: np.ndarray
) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Conditional states and probabilities for the outcomes of a `weak_pair` stack P(x), P(-x), in that order."""
    expect(rho, DensityMatrix, "rho")
    plus, minus = conditional_blocks(rho.as_tensor(), pair[:, None])
    return _outcome(plus[0]), _outcome(minus[0])


def projective_outcomes(
    rho: DensityMatrix, basis: QubitBasis
) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Conditional states and probabilities for Pi_phi, Pi_phibar: the x = INFINITY weak outcomes, reversed."""
    return weak_outcomes(rho, weak_pair(basis, INFINITY))[::-1]


def project_state(rho: DensityMatrix, basis: QubitBasis) -> DensityMatrix:
    """Fully decohered state after a projective measurement of B in `basis`."""
    expect(rho, DensityMatrix, "rho")
    eye_a = np.eye(rho.dim_a)
    acc = np.zeros_like(rho.entries)
    for pi in projectors(basis):
        big = np.kron(eye_a, pi)
        acc += big @ rho.entries @ big
    return qstate.validate(acc, rho.dim_a)
