"""Density-matrix algebra for bipartite states with a qubit on side B.

Conventions: subsystem ordering is A ⊗ B, row-major with B varying fastest;
all entropies are in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, DomainError, NotFinite, NotHermitian, NotPositive, TraceNotOne

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """Validated trace-one positive-semidefinite Hermitian matrix on A ⊗ B.

    The entries are read-only, so each basis minimum `discord` finds for this
    object stays valid and is kept on it; an equal state in another object finds its own.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray
    _minima: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def as_tensor(self) -> np.ndarray:
        """Entries reshaped to indices (a, b, a', b')."""
        return self.entries.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)


def validate(m, dim_a: int, dim_b: int = 2) -> DensityMatrix:
    """Check a raw matrix against the density-matrix invariants.

    The Hermitian part is taken (after checking the asymmetry is within
    tolerance), so tiny floating-point asymmetry is repaired, large asymmetry
    rejected.
    """
    if dim_b != 2:
        raise BadDimension(f"measured subsystem B must be a qubit, got dim_b={dim_b}")
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise NotFinite("matrix has NaN or infinite entries")
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise BadDimension(f"expected a {d}x{d} matrix, got shape {m.shape}")
    asym = float(np.abs(m - m.conj().T).max())
    if asym > HERMITIAN_TOL:
        raise NotHermitian(f"max |m[i,j] - conj(m[j,i])| = {asym:.3e} exceeds {HERMITIAN_TOL:.0e}")
    m = 0.5 * (m + m.conj().T)
    tr_err = abs(complex(np.trace(m)) - 1.0)
    if tr_err > TRACE_TOL:
        raise TraceNotOne(f"|Tr(m) - 1| = {tr_err:.3e} exceeds {TRACE_TOL:.0e}")
    lo = float(np.linalg.eigvalsh(m).min())
    if lo < -EIG_TOL:
        raise NotPositive(f"smallest eigenvalue {lo:.3e} below -{EIG_TOL:.0e}")
    m.flags.writeable = False  # m is a new array, never the caller's
    return DensityMatrix(dim_a, dim_b, m)


def partial_trace_b(rho: DensityMatrix) -> np.ndarray:
    """Reduce to subsystem A."""
    return np.einsum("ibjb->ij", rho.as_tensor())


def partial_trace_a(rho: DensityMatrix) -> np.ndarray:
    """Reduce to subsystem B."""
    return np.einsum("ibic->bc", rho.as_tensor())


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a (sub-)normalized density matrix, descending, clipped to [0, 1].

    Violations beyond EIG_TOL on either side are errors, not clips.
    """
    m = np.asarray(m, dtype=complex)
    w = np.linalg.eigvalsh(m)
    lo = float(w.min())
    if lo < -EIG_TOL:
        raise NotPositive(f"eigenvalue {lo:.3e} below -{EIG_TOL:.0e}")
    hi = float(w.max())
    if hi > 1.0 + EIG_TOL:
        raise DomainError(f"eigenvalue {hi:.3e} exceeds 1 by more than {EIG_TOL:.0e}")
    return np.clip(w, 0.0, 1.0)[::-1]


def von_neumann_entropy(m) -> float:
    """S(ρ) = -Σ λ log2 λ in bits, with 0 log 0 := 0."""
    lams = spectrum(m)
    nz = lams[lams > 0.0]
    if nz.size == 0:
        return 0.0
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(rho: DensityMatrix) -> float:
    """I = S(A) + S(B) - S(AB) in bits."""
    s_a = von_neumann_entropy(partial_trace_b(rho))
    s_b = von_neumann_entropy(partial_trace_a(rho))
    s_ab = von_neumann_entropy(rho.entries)
    return s_a + s_b - s_ab
