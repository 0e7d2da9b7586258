"""Correlation measures: conditional entropies, discord, super discord, and
the post-measurement resurrection check.

The basis minimization is a two-phase scheme: exhaustive evaluation on a
(gamma, delta) lattice, then Nelder-Mead refinement from the best lattice
point. Lattice evaluation is vectorized over all grid points at once. One
kernel, `_batched_weak_ce`, gives every conditional entropy: the lattice, the
refinement's objective and the public strong and weak scalars, bit for bit.
The refinement is an in-package port of scipy's default
Nelder-Mead that keeps its iterates bit for bit, so numpy is the only runtime
dependency. Its constants are fixed, not options: angle tolerance 1e-8, value
tolerance FLAT_TOL and at most MAX_REFINE_ITERS iterations, the settings every
reported number has been computed with. It has no evaluation budget, because
the iteration cap already bounds the evaluations (see `_nm_minimize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, qstate
from .errors import DomainError, NoConvergence
from .measure import INFINITY, QubitBasis
from .qstate import DensityMatrix


@dataclass(frozen=True)
class OptimizerConfig:
    """Size of the (gamma, delta) lattice scanned before refinement.

    grid_gamma points span gamma in [0, pi], poles included, so at least 3 are
    needed for a point off the poles; grid_delta points span delta in [0, 2 pi).
    """

    grid_gamma: int = 64
    grid_delta: int = 64

    def __post_init__(self):
        if self.grid_gamma < 3 or self.grid_delta < 1:
            raise DomainError(
                f"lattice needs grid_gamma >= 3 and grid_delta >= 1, "
                f"got {self.grid_gamma} x {self.grid_delta}"
            )


DEFAULT_CONFIG = OptimizerConfig()

# Lattice tie, flat-landscape and ambiguous-minimizer threshold in bits, also Nelder-Mead's
# fatol; 1e-8 is the refinement tolerance every reported number has been computed with.
FLAT_TOL = 1e-8
MAX_REFINE_ITERS = 500


def quantum_conditional_entropy(rho: DensityMatrix) -> float:
    """S(A|B) = S(AB) - S(B); may be negative for entangled states."""
    return qstate.von_neumann_entropy(rho.entries) - qstate.von_neumann_entropy(
        qstate.partial_trace_a(rho)
    )


def strong_conditional_entropy(rho: DensityMatrix, basis: QubitBasis) -> float:
    """Measured conditional entropy Σ p_i S(ρ^A_i) for projectors in `basis`."""
    return weak_conditional_entropy(rho, basis, INFINITY)


def weak_conditional_entropy(rho: DensityMatrix, basis: QubitBasis, x: float) -> float:
    """p(x) S(ρ_{A|P(x)}) + p(-x) S(ρ_{A|P(-x)}) for the weak pair in `basis`."""
    gammas, deltas = np.array([basis.gamma]), np.array([basis.delta])
    return float(_batched_weak_ce(rho.as_tensor(), x, gammas, deltas)[0])


def _batched_weak_ce(rho4: np.ndarray, x: float, gammas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Weak conditional entropy for a flat batch of (gamma, delta) bases.

    P(±x) come from `measure.weak_operators`, A's conditional states from
    `measure.conditional_blocks`.
    """
    vals = np.zeros(len(gammas))
    for m in measure.conditional_blocks(rho4, *measure.weak_operators(x, gammas, deltas)):
        p = np.real(np.einsum("gii->g", m))
        lam = np.linalg.eigvalsh(m)
        live = p > measure.DEGENERATE_PROB
        lam = np.where(live[:, None], lam / np.maximum(p, 1e-300)[:, None], 0.0)
        lam = np.clip(lam, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0.0, lam * np.log2(lam), 0.0)
        vals += np.where(live, -p * terms.sum(axis=-1), 0.0)
    return vals


@dataclass(frozen=True)
class _NMResult:
    x: tuple[float, float]
    fun: float
    nfev: int
    success: bool


def _nm_minimize(fun, x0) -> _NMResult:
    """Nelder-Mead on two variables, step for step as scipy's default method.

    A port of ``scipy.optimize._optimize._minimize_neldermead`` as
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options=...)``
    runs it (adaptive=False, no bounds, no initial simplex) with options
    xatol = 1e-8, fatol = FLAT_TOL, maxiter = MAX_REFINE_ITERS and
    maxfev = 4 * MAX_REFINE_ITERS. It performs the same float operations in the
    same order, so ``x``, ``fun``, ``nfev`` and ``success`` equal scipy's bit
    for bit. The step coefficients are scipy's rho = 1, chi = 2 and
    psi = sigma = 1/2, and vertices are stably sorted by value, NaN last, as
    numpy's argsort sorts three items.

    That maxfev never binds, so it is not checked: the simplex costs 3
    evaluations and each iteration at most 4 (reflect, contract, two shrink
    points), so nfev <= 3 + 4 * (maxiter - 1) < 4 * maxiter. Success means the
    tolerances were met within maxiter iterations.
    """
    nfev = 0

    def f(p):
        nonlocal nfev
        nfev += 1
        return float(fun(p))

    def lin(a, p, b, q):
        return (a * p[0] + b * q[0], a * p[1] + b * q[1])

    def sort():
        order = sorted(range(3), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
        sim[:] = [sim[k] for k in order]
        fsim[:] = [fsim[k] for k in order]

    x0 = (float(x0[0]), float(x0[1]))
    sim = [x0, ((1 + 0.05) * x0[0] if x0[0] != 0 else 0.00025, x0[1]),
           (x0[0], (1 + 0.05) * x0[1] if x0[1] != 0 else 0.00025)]
    fsim = [f(v) for v in sim]
    sort()

    it = 1
    while it < MAX_REFINE_ITERS:
        s0, s2 = sim[0], sim[2]
        if all(abs(v[i] - s0[i]) <= 1e-8 for v in sim[1:] for i in (0, 1)) and all(
            abs(fsim[0] - fj) <= FLAT_TOL for fj in fsim[1:]
        ):
            break
        xbar = ((s0[0] + sim[1][0]) / 2, (s0[1] + sim[1][1]) / 2)
        xr = lin(2, xbar, -1, s2)  # reflect
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = lin(3, xbar, -2, s2)  # expand
            fxe = f(xe)
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        elif fxr < fsim[2]:
            xc = lin(1.5, xbar, -0.5, s2)  # contract outside
            fxc = f(xc)
            if fxc <= fxr:
                sim[2], fsim[2] = xc, fxc
            else:
                shrink = True
        else:
            xcc = lin(0.5, xbar, 0.5, s2)  # contract inside
            fxcc = f(xcc)
            if fxcc < fsim[2]:
                sim[2], fsim[2] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in (1, 2):
                sim[j] = (s0[0] + 0.5 * (sim[j][0] - s0[0]), s0[1] + 0.5 * (sim[j][1] - s0[1]))
                fsim[j] = f(sim[j])
        it += 1
        sort()
    return _NMResult(sim[0], fsim[0], nfev, it < MAX_REFINE_ITERS)


@dataclass(frozen=True)
class MinimizationResult:
    basis: QubitBasis
    value: float
    grid_spread: float


def _minimize(rho: DensityMatrix, x: float, cfg: OptimizerConfig) -> MinimizationResult:
    rho4 = rho.as_tensor()
    gammas = np.linspace(0.0, math.pi, cfg.grid_gamma)
    deltas = np.linspace(0.0, 2 * math.pi, cfg.grid_delta, endpoint=False)
    gg, dd = np.meshgrid(gammas, deltas, indexing="ij")
    gg, dd = gg.ravel(), dd.ravel()
    vals = _batched_weak_ce(rho4, x, gg, dd)
    vmin = float(vals.min())
    spread = float(vals.max()) - vmin
    # ties broken toward smallest gamma, then delta (row-major, gamma outer)
    idx = int(np.flatnonzero(vals <= vmin + FLAT_TOL)[0])
    g_best, d_best, v_best = float(gg[idx]), float(dd[idx]), float(vals[idx])

    def objective(p):
        return weak_conditional_entropy(rho, QubitBasis(*p), x)

    # on a flat landscape there is nothing to refine, and Nelder-Mead cycles on exact ties
    if spread >= FLAT_TOL:
        res = _nm_minimize(objective, (gg[idx], dd[idx]))
        if not res.success:
            raise NoConvergence(
                f"basis refinement stopped before reaching tol {FLAT_TOL:g} "
                f"(best value {min(res.fun, vmin):.9g})",
                best_value=float(min(res.fun, vmin)),
            )
        if res.fun <= vmin:
            g_best, d_best, v_best = float(res.x[0]), float(res.x[1]), float(res.fun)
        else:
            jmin = int(np.argmin(vals))
            g_best, d_best, v_best = float(gg[jmin]), float(dd[jmin]), vmin
    # fold arbitrary refined angles back into canonical ranges
    basis = measure.basis_from_ket(QubitBasis(g_best, d_best).ket())
    return MinimizationResult(basis, v_best, spread)


def minimize_conditional_entropy(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> tuple[QubitBasis, float]:
    """Basis minimizing the weak (or, at x = INFINITY, strong) conditional entropy."""
    res = _minimize(rho, x, cfg)
    return res.basis, res.value


def normal_discord(
    rho: DensityMatrix, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> tuple[float, QubitBasis]:
    """D_s = min_basis S(A|{Pi}) - S(A|B)."""
    return super_discord(rho, INFINITY, cfg)


def super_discord(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> tuple[float, QubitBasis]:
    """D_w = min_basis S_w(A|{P(x)}) - S(A|B)."""
    res = _minimize(rho, x, cfg)
    return res.value - quantum_conditional_entropy(rho), res.basis


def extra_correlation(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> float:
    """Δ = D_w - D_s, the correlation seen by weak but not projective measurement."""
    return analyze(rho, x, cfg).delta


@dataclass(frozen=True)
class DiscordReport:
    conditional_entropy_qq: float
    mutual_info: float
    discord: float
    super_discord: float
    delta: float
    strong_basis: QubitBasis
    weak_basis: QubitBasis
    strength: float


def _analysis(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig, strong: MinimizationResult | None = None
) -> tuple[DiscordReport, MinimizationResult, MinimizationResult]:
    """The report of `analyze` with the strong and weak minima it was built from.

    `strong`, when given, is rho's strong minimum at cfg, reused instead of
    recomputed (an x-sweep holds the state fixed). At x = INFINITY the weak
    minimum is the strong one.
    """
    measure.weak_amplitudes(x)  # reject a bad strength before any minimization
    cond_qq = quantum_conditional_entropy(rho)
    if strong is None:
        strong = _minimize(rho, INFINITY, cfg)
    weak = strong if x == INFINITY else _minimize(rho, x, cfg)
    ds = strong.value - cond_qq
    dw = weak.value - cond_qq
    report = DiscordReport(
        conditional_entropy_qq=cond_qq,
        mutual_info=qstate.mutual_information(rho),
        discord=ds,
        super_discord=dw,
        delta=dw - ds,
        strong_basis=strong.basis,
        weak_basis=weak.basis,
        strength=x,
    )
    return report, strong, weak


def analyze(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> DiscordReport:
    """All correlation measures of one state at one strength, bundled."""
    return _analysis(rho, x, cfg)[0]


@dataclass(frozen=True)
class ResurrectionRecord:
    delta: float
    post_super_discord: float
    gap: float
    strong_basis: QubitBasis
    post_weak_basis: QubitBasis
    ambiguous_minimizer: bool
    coincidence: bool
    report: DiscordReport


def verify_resurrection(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> ResurrectionRecord:
    """Compare Δ(ρ, x) with the super discord D_w(ρ̃) of the projectively measured state.

    With n_s the projection basis, ρ̃ is decohered in n_s, so a weak measurement
    along m on ρ̃ acts like one along n_s at a smaller effective strength, and
    concavity of the conditional entropy puts its minimum at m = n_s. Hence
    D_w(ρ̃) = S_w(ρ|n_s) − S_s(ρ|n_s), and for the strong minimizer n_s

        D_w(ρ̃) = Δ + [S_w(ρ|n_s) − min_n S_w(ρ|n)] ≥ Δ,

    so the reported gap is the weak conditional entropy's excess in n_s. It is
    zero exactly when n_s also minimizes S_w (pure Schmidt, Bell and Werner
    states) and positive for generic states whose weak and strong minimizers
    differ.

    The projection basis is the strong-conditional-entropy minimizer. When the
    strong landscape is flat over the whole grid the minimizer is ambiguous;
    we then fall back to the weak-entropy minimizer (the basis whose strong
    limit the flat landscape leaves undetermined), and to the computational
    basis when that landscape is flat as well (e.g. Werner states).

    `report` is `analyze(rho, x, cfg)`; the check adds one minimization to its two.
    """
    return _resurrection(rho, x, cfg)


def _resurrection(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig, strong: MinimizationResult | None = None
) -> ResurrectionRecord:
    """`verify_resurrection`, reusing `strong` as `_analysis` does."""
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"resurrection check needs finite x > 0, got {x}")
    report, strong, weak = _analysis(rho, x, cfg, strong)
    delta = weak.value - strong.value
    ambiguous = strong.grid_spread < FLAT_TOL
    # both lattices flat: strong.basis is the first lattice point (0, 0), the computational basis
    proj_basis = weak.basis if ambiguous and weak.grid_spread >= FLAT_TOL else strong.basis
    post = measure.project_state(rho, proj_basis)
    post_weak = _minimize(post, x, cfg)
    post_dw = post_weak.value - quantum_conditional_entropy(post)
    return ResurrectionRecord(
        delta=delta,
        post_super_discord=post_dw,
        gap=abs(delta - post_dw),
        strong_basis=proj_basis,
        post_weak_basis=post_weak.basis,
        ambiguous_minimizer=ambiguous,
        coincidence=measure.same_basis(proj_basis, post_weak.basis),
        report=report,
    )
