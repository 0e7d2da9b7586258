"""State families and closed-form oracles used as ground truth in tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .errors import BadDimension, BadRank, DomainError
from .qstate import DensityMatrix


def binary_entropy(p) -> float | np.ndarray:
    """h2(p) = -p log2 p - (1-p) log2 (1-p), elementwise, with 0 log 0 := 0."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(p > 0, p * np.log2(p), 0.0) - np.where(
            p < 1, (1 - p) * np.log2(1 - p), 0.0
        )
    return float(out) if out.ndim == 0 else out


def pure_schmidt(lambda0: float) -> DensityMatrix:
    """Rank-1 state of sqrt(λ0)|00> + sqrt(λ1)|11> with λ1 = 1 - λ0."""
    if not 0.0 <= lambda0 <= 1.0:
        raise DomainError(f"lambda0 must be in [0, 1], got {lambda0}")
    v = np.array([math.sqrt(lambda0), 0.0, 0.0, math.sqrt(1.0 - lambda0)], dtype=complex)
    return qstate.validate(np.outer(v, v.conj()), dim_a=2)


def bell() -> DensityMatrix:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return pure_schmidt(0.5)


def werner(z: float) -> DensityMatrix:
    """z |Psi^-><Psi^-| + (1-z) I/4 with the singlet Psi^- = (|01> - |10>)/sqrt(2)."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must be in [0, 1], got {z}")
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    m = z * np.outer(psi, psi.conj()) + (1.0 - z) * np.eye(4) / 4.0
    return qstate.validate(m, dim_a=2)


def random_state(seed: int, dim_a: int = 2, rank: int = 4) -> DensityMatrix:
    """Ginibre-induced random state GG†/Tr(GG†), deterministic in the seed."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if dim_a < 1:
        raise BadDimension(f"dim_a must be >= 1, got {dim_a}")
    d = 2 * dim_a
    if not 1 <= rank <= d:
        raise BadRank(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return qstate.validate(m / np.trace(m).real, dim_a=dim_a)


def oracle_pure_delta(lambda0: float, x: float, theta) -> float | np.ndarray:
    """Closed-form Δ integrand for the pure Schmidt family at fixed polar angle.

    The caller minimizes over theta; the returned value is
    -Σ_{y=±x} p(y) [k+(y) log2 k+(y) + k-(y) log2 k-(y)].
    """
    if not 0.0 <= lambda0 <= 1.0:
        raise DomainError(f"lambda0 must be in [0, 1], got {lambda0}")
    theta = np.asarray(theta, dtype=float)
    lam1 = 1.0 - lambda0
    t = math.tanh(x) if math.isfinite(x) else 1.0
    ch2 = math.cosh(x) ** 2 if math.isfinite(x) else math.inf
    total = np.zeros_like(theta)
    for sign in (+1.0, -1.0):
        p = 0.5 * (1.0 - sign * (lambda0 - lam1) * t * np.cos(theta))
        radicand = 1.0 - lambda0 * lam1 / (p**2 * ch2) if ch2 != math.inf else np.ones_like(p)
        if np.min(radicand) < -1e-12:
            raise DomainError(f"radicand {np.min(radicand):.3e} below -1e-12")
        root = np.sqrt(np.clip(radicand, 0.0, None))
        total += p * binary_entropy((1.0 + root) / 2.0)
    return float(total) if total.ndim == 0 else total


def oracle_post_pure_wce(lambda0: float, x: float, gamma, delta) -> float | np.ndarray:
    """Weak conditional entropy of the projectively measured pure Schmidt state.

    h2((1+l)/2) with l = sqrt(1 - 4 λ0 λ1 (1 - tanh²x sin²γ cos²δ)).
    """
    gamma = np.asarray(gamma, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lam1 = 1.0 - lambda0
    t = math.tanh(x) if math.isfinite(x) else 1.0
    l = np.sqrt(
        np.clip(1.0 - 4.0 * lambda0 * lam1 * (1.0 - t**2 * np.sin(gamma) ** 2 * np.cos(delta) ** 2), 0.0, 1.0)
    )
    out = binary_entropy((1.0 + l) / 2.0)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class WernerOracle:
    strong_ce: float
    weak_ce: float
    delta: float


def oracle_werner(z: float, x: float) -> WernerOracle:
    """Closed-form minimized conditional entropies for the Werner family (bits)."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must be in [0, 1], got {z}")
    t = math.tanh(x) if math.isfinite(x) else 1.0
    strong = binary_entropy((1.0 + z) / 2.0)
    weak = binary_entropy((1.0 + z * t) / 2.0)
    return WernerOracle(strong_ce=strong, weak_ce=weak, delta=weak - strong)
