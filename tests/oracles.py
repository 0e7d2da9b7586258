"""Closed-form oracles used as ground truth in tests, the computational basis and a product-state helper.

They are independent of the package's numerics: each value comes from a closed
form in the state's parameters, never from a minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from superdiscord.errors import DomainError
from superdiscord.measure import QubitBasis
from superdiscord.qstate import DensityMatrix, validate

COMPUTATIONAL = QubitBasis(0.0, 0.0)  # |0>, |1>


def binary_entropy(p) -> float | np.ndarray:
    """h2(p) = -p log2 p - (1-p) log2 (1-p), elementwise, with 0 log 0 := 0."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(p > 0, p * np.log2(p), 0.0) - np.where(
            p < 1, (1 - p) * np.log2(1 - p), 0.0
        )
    return float(out) if out.ndim == 0 else out


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


def tensor(a, b) -> DensityMatrix:
    """Kronecker product of a state on A with a qubit state on B."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return validate(np.kron(a, b), dim_a=a.shape[0])
