"""Density-matrix algebra for bipartite states with a qubit on side B.

Conventions: subsystem ordering is A ⊗ B, row-major with B varying fastest;
all entropies are in bits (log base 2). Every matrix the package reads, given
to `validate` or `spectrum` or read from a CLI state file, passes one entry
rule, `complex_array`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, DomainError, NotFinite, NotHermitian, NotPositive, TraceNotOne, expect

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """Validated trace-one positive-semidefinite Hermitian matrix on A ⊗ B, B a qubit.

    The entries are read-only, so each basis minimum `discord` finds for this
    object stays valid and is kept on it; an equal state in another object finds its own.
    """

    dim_a: int
    entries: np.ndarray
    _minima: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def as_tensor(self) -> np.ndarray:
        """Entries reshaped to indices (a, b, a', b')."""
        return self.entries.reshape(self.dim_a, 2, self.dim_a, 2)


def complex_array(m, name: str = "matrix") -> np.ndarray:
    """m as a complex array, converted entry for entry as numpy converts it, once its entries are known to be numbers.

    The one rule for matrix entries: `validate`, `spectrum` and the CLI's
    state-file reader all read a matrix through it, the reader with its
    field as `name`. numpy reads a digit string or a bool as a number, and
    raises its own errors on the rest; here a bool, str or bytes entry, or any
    entry that is not a number, raises DomainError, a ragged nesting or one
    deeper than numpy's 64 dimensions BadDimension, and an int beyond float
    range, a NaN or an infinity NotFinite. A numeric array's entries are
    not looked at one by one. Every message begins with `name`.
    """
    try:
        a = np.asarray(m)
    except ValueError:  # numpy's "inhomogeneous shape", or more than its 64 dimensions
        deep = np.asarray(m, dtype=object).ndim == 64  # an object array stops at 64 dimensions
        raise BadDimension(f"{name} {'nests over 64 levels deep' if deep else 'is not a rectangular array'}") from None
    if not (isinstance(m, np.ndarray) and a.dtype.kind in "iufc"):
        # a sequence's bool beside ints reads as an int, so each entry is looked at as it was given
        for v in np.asarray(m, dtype=object).flat:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Number):
                raise DomainError(f"{name} entries must be numbers, got {type(v).__name__}")
    try:
        a = np.asarray(m, dtype=complex)
    except OverflowError:  # no repr: a str of over 4300 digits raises ValueError
        raise NotFinite(f"{name} has an int entry beyond float range") from None
    if not np.isfinite(a).all():
        raise NotFinite(f"{name} has NaN or infinite entries")
    return a


def validate(m, dim_a: int) -> DensityMatrix:
    """Check a raw 2·dim_a × 2·dim_a matrix against the density-matrix invariants.

    The Hermitian part is taken (after checking the asymmetry is within
    tolerance), so tiny floating-point asymmetry is repaired, large asymmetry
    rejected. Finite entries near float's limit can overflow the Hermitian
    part or the trace; the checks read the overflow, never a numpy warning,
    and a NaN fails each of them. The entries pass `complex_array` first.
    """
    if type(dim_a) is not int or dim_a < 1:  # a float or bool would reach numpy and the state
        raise BadDimension(f"dim_a must be an int >= 1, got {dim_a!r}")
    m = complex_array(m)
    d = 2 * dim_a
    if m.shape != (d, d):
        raise BadDimension(f"expected a {d}x{d} matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        asym = float(np.abs(m - m.conj().T).max())
        m = 0.5 * (m + m.conj().T)
        tr_err = abs(complex(np.trace(m)) - 1.0)
    if not asym <= HERMITIAN_TOL:
        raise NotHermitian(f"max |m[i,j] - conj(m[j,i])| = {asym:.3e} exceeds {HERMITIAN_TOL:.0e}")
    if not np.isfinite(m).all():
        raise NotFinite("the Hermitian part overflows: entries beyond float range")
    if not tr_err <= TRACE_TOL:
        raise TraceNotOne(f"|Tr(m) - 1| = {tr_err:.3e} exceeds {TRACE_TOL:.0e}")
    lo = float(np.linalg.eigvalsh(m).min())
    if not lo >= -EIG_TOL:
        raise NotPositive(f"smallest eigenvalue {lo:.3e} below -{EIG_TOL:.0e}")
    m.flags.writeable = False  # m is a new array, never the caller's
    return DensityMatrix(dim_a, m)


def partial_trace_b(rho: DensityMatrix) -> np.ndarray:
    """Reduce to subsystem A."""
    return np.einsum("ibjb->ij", expect(rho, DensityMatrix, "rho").as_tensor())


def partial_trace_a(rho: DensityMatrix) -> np.ndarray:
    """Reduce to subsystem B."""
    return np.einsum("ibic->bc", expect(rho, DensityMatrix, "rho").as_tensor())


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a (sub-)normalized density matrix, descending, clipped to [0, 1].

    Violations beyond EIG_TOL on either side are errors, not clips, and so
    is an input that is not a non-empty square matrix; the entries pass
    `complex_array` first.
    """
    m = complex_array(m)
    if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
        raise BadDimension(f"expected a non-empty square matrix, got shape {m.shape}")
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
