"""The state families the CLI and the tests build: pure Schmidt, Werner and random."""

from __future__ import annotations

import math

import numpy as np

from . import measure, qstate
from .errors import BadDimension, BadRank, DomainError
from .qstate import DensityMatrix


def pure_schmidt(lambda0: float) -> DensityMatrix:
    """Rank-1 state of sqrt(λ0)|00> + sqrt(λ1)|11> with λ1 = 1 - λ0; λ0 = 0.5 is the Bell state."""
    measure.real_strength(lambda0, "lambda0")
    if not 0.0 <= lambda0 <= 1.0:
        raise DomainError(f"lambda0 must be in [0, 1], got {lambda0}")
    v = np.array([math.sqrt(lambda0), 0.0, 0.0, math.sqrt(1.0 - lambda0)], dtype=complex)
    return qstate.validate(np.outer(v, v.conj()), dim_a=2)


def werner(z: float) -> DensityMatrix:
    """z |Psi^-><Psi^-| + (1-z) I/4 with the singlet Psi^- = (|01> - |10>)/sqrt(2)."""
    measure.real_strength(z, "z")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must be in [0, 1], got {z}")
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    m = z * np.outer(psi, psi.conj()) + (1.0 - z) * np.eye(4) / 4.0
    return qstate.validate(m, dim_a=2)


def random_state(seed: int, dim_a: int = 2, rank: int = 4) -> DensityMatrix:
    """Ginibre-induced random state GG†/Tr(GG†), deterministic in the seed."""
    if type(seed) is not int or seed < 0:  # a float or bool would reach numpy
        raise DomainError(f"seed must be an int >= 0, got {seed!r}")
    if type(dim_a) is not int or dim_a < 1:
        raise BadDimension(f"dim_a must be an int >= 1, got {dim_a!r}")
    d = 2 * dim_a
    if type(rank) is not int or not 1 <= rank <= d:
        raise BadRank(f"rank must be an int in [1, {d}], got {rank!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return qstate.validate(m / np.trace(m).real, dim_a=dim_a)
