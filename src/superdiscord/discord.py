"""Correlation measures: conditional entropies, discord, super discord, and
the post-measurement resurrection check.

The basis minimization is a two-phase scheme: exhaustive evaluation on a
(gamma, delta) lattice, then Nelder-Mead refinement from the best lattice
point. A lattice scan sends the kernel only the points that can decide what
the minimization reads off it, and leaves every other point NaN: not
evaluated. The scan contract: its nanmin, nanmax and nanargmin and its first
point within FLAT_TOL of the min equal the full scan's min, max, argmin and
first tie bit for bit, and every value it holds is the full scan's with ==.
One scan, `_lattice_values`, keeps it for every state: an estimate within
1e-8 of the kernel at every dim_a and lattice, from A's Bloch table
(`_bloch_screen`), built once per scan, picks the points near its min or
max, and the kernel evaluates the picks in one batch. The table's R decides
what the estimate covers: one point when t·R is zero; when the R_k lie along
one axis u, as for the resurrection check's measured state ρ̃, whose
landscape depends on c = |m·u| alone and never rises with c, only the points
from both ends of c that can be its min, a tie or its max; one hemisphere
for every other state. One kernel,
`_batched_weak_ce`, gives every reported conditional entropy, bit for bit:
the lattice, the refinement's objective and `weak_conditional_entropy`
(strong at x = INFINITY). It takes a strength in one form, the operator
coefficients of `measure.weak_coefficients`, made once per scan or
refinement, and both outcomes P(x), P(-x) in one pass, on a batch axis with
their rows never stacked, so a refinement point costs one eigvalsh and one
entropy pass. It and the estimate walk a flat batch in blocks of about
BLOCK_BYTES of conditional states, never splitting off one row, so a scan's
memory is bounded at any dim_a and each point's value is the one a single
pass would give it, bit for bit. The refinement is an in-package port of
scipy's default Nelder-Mead that keeps its iterates bit for bit, so numpy is
the only runtime dependency. Each of its iterations evaluates the reflected
point and the inside contraction in one kernel call, and calls again only
for an expansion, an outside contraction or a shrink; its evaluation count
is still scipy's. One driver, `_nm_minimize`, runs every refinement in one
pass: one run per strength whose lattice is not flat, all advanced in
lockstep, each round's points sent to the kernel in one call on a batch axis,
each point with its own coefficients, so each gets the value it would get
alone. A run that ends neither in success nor flat restarts once from its
best point within the same pass, without waiting for the other runs.
One function, `_minima`, finds every minimum: it checks each strength,
looks up the minima kept on the state object, scans and refines the missing
ones together, keeps each that succeeds and then raises the first
NoConvergence in strength order. `analyze` so refines its strong and weak
minima with as many calls as the longer refinement, restart included, makes
alone, and `_minimize` is its one-strength call. The refinement's constants
are fixed, not options: angle tolerance 1e-8, value tolerance FLAT_TOL and
at most MAX_REFINE_ITERS iterations, the settings every reported number has
been computed with. It has no evaluation budget, because the iteration cap
bounds the evaluations (see `_nm_steps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, qstate
from .errors import DomainError, NoConvergence
from .measure import INFINITY, QubitBasis
from .qstate import DensityMatrix


# the most lattice points a config may ask for (--grid 1024), checked before any lattice array is allocated
MAX_LATTICE_POINTS = 2**20


@dataclass(frozen=True)
class OptimizerConfig:
    """Size of the (gamma, delta) lattice scanned before refinement.

    grid_gamma points span gamma in [0, pi], poles included, so at least 3 are
    needed for a point off the poles; grid_delta points span delta in [0, 2 pi);
    the lattice holds at most MAX_LATTICE_POINTS. The scan estimates every
    point from A's Bloch form, once per antipodal pair when an even
    grid_delta puts every point's antipode on the lattice (only the ends of
    the axis for a state whose R_k lie along one axis, the scan reads which
    off the state), and evaluates only the points near the estimate's min or
    max, at any dim_a and grid_delta.
    The lattice min, max and ties are the full scan's.
    """

    grid_gamma: int = 64
    grid_delta: int = 64

    def __post_init__(self):
        for name in ("grid_gamma", "grid_delta"):
            value = getattr(self, name)
            if type(value) is not int:  # a float or bool size would reach numpy
                raise DomainError(f"{name} must be an int, got {value!r}")
        if self.grid_gamma < 3 or self.grid_delta < 1:
            raise DomainError(
                f"lattice needs grid_gamma >= 3 and grid_delta >= 1, "
                f"got {self.grid_gamma} x {self.grid_delta}"
            )
        if self.grid_gamma * self.grid_delta > MAX_LATTICE_POINTS:
            raise DomainError(
                f"lattice needs at most {MAX_LATTICE_POINTS} points, got {self.grid_gamma} x {self.grid_delta}"
            )


DEFAULT_CONFIG = OptimizerConfig()

# Lattice tie, flat-landscape and ambiguous-minimizer threshold in bits, also Nelder-Mead's
# fatol; 1e-8 is the refinement tolerance every reported number has been computed with.
FLAT_TOL = 1e-8
MAX_REFINE_ITERS = 500
# first chunk of each end of `_lattice_values`'s axial walk, doubled every round
AXIAL_CHUNK = 16
# bytes of conditional states one kernel block holds; smaller blocks cost time in per-block dispatch
BLOCK_BYTES = 1 << 20


def quantum_conditional_entropy(rho: DensityMatrix) -> float:
    """S(A|B) = S(AB) - S(B); may be negative for entangled states."""
    return qstate.von_neumann_entropy(rho.entries) - qstate.von_neumann_entropy(
        qstate.partial_trace_a(rho)
    )


def weak_conditional_entropy(rho: DensityMatrix, basis: QubitBasis, x: float) -> float:
    """p(x) S(ρ_{A|P(x)}) + p(-x) S(ρ_{A|P(-x)}) for the weak pair in `basis`; the strong one at x = INFINITY."""
    coef = measure.weak_coefficients(x)
    gammas, deltas = np.array([basis.gamma]), np.array([basis.delta])
    return float(_batched_weak_ce(rho.as_tensor(), coef, gammas, deltas)[0])


def _batched_weak_ce(rho4: np.ndarray, coef, gammas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Weak conditional entropy for an array of (gamma, delta) bases, of the angles' shape.

    coef is `measure.weak_coefficients(x)`, or, for angles of shape (k, 1), a
    (4, k, 1) array of one set per point. A flat batch is evaluated in the
    blocks of `_blockwise`, so a call holds about BLOCK_BYTES of conditional
    states at any batch size, where the 4096 points of a flat 64×64 lattice
    would hold 8 MiB at dim_a = 8. Angles of shape (k, 1), the refinement's,
    are one block. Each point gets, bit for bit, the value one pass over the
    whole batch (`_weak_ce_block`) gives it. The blocks are a loop, never
    calls through the module attribute, so a call is one kernel call.
    """
    if gammas.ndim != 1:
        return _weak_ce_block(rho4, coef, gammas, deltas)
    return _blockwise(rho4.shape[0], len(gammas), lambda s, e: _weak_ce_block(rho4, coef, gammas[s:e], deltas[s:e]))


def _blockwise(dim_a: int, n: int, block) -> np.ndarray:
    """The values of n points, block(s, e) giving those of points s:e, walked in blocks and concatenated.

    A block holds at most B = max(2, BLOCK_BYTES // (32 dim_a²)) points, 32 dim_a²
    bytes being one point's two complex conditional states: 8192 at dim_a = 2,
    so a lattice is one block, and 512 at dim_a = 8. A trailing one-point block
    joins the one before it: matmul takes another path for one row, off by an
    ulp at odd dim_a, and with two rows or more no row's value depends on the
    batch. The kernel and the lattice estimate (`_bloch_screen`) share it.
    """
    size = max(2, BLOCK_BYTES // (32 * dim_a**2))
    if n <= size + 1:
        return block(0, n)
    cuts = [*range(0, n - 1, size), n]  # to n - 1: a trailing one-point block joins the one before
    return np.concatenate([block(s, e) for s, e in zip(cuts, cuts[1:])])


def _weak_ce_block(rho4: np.ndarray, coef, gammas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """`_batched_weak_ce` in one pass over the whole batch: one block.

    P(±x) come from `measure.weak_operators`, A's conditional states from
    `measure.conditional_blocks`, with the two outcomes on a batch axis and
    rows never stacked, so one trace, one eigvalsh and one `_entropy_sum`
    serve both. A flat batch of n points is one matmul of n rows; angles of
    shape (k, 1) put k points on a batch axis, so each takes the one-row path
    that a lone point takes and gets its value bit for bit. coef is one set
    of coefficients, or one per point, so that points of refinements at
    several strengths share a call. rho4 is ρ as indices (a, b, a', b').
    """
    m = measure.conditional_blocks(rho4, measure.weak_operators(coef, gammas, deltas))
    return _entropy_sum(np.real(np.einsum("...ii->...", m)), np.linalg.eigvalsh(m))


def _entropy_sum(p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Σ p S(lam/p) over the outcomes on axis 0, from the traces p and the spectra lam (overwritten) of M(±x).

    A spectrum is normalized and clipped into [0, 1], an outcome of probability
    at most DEGENERATE_PROB adds 0, and the outcomes are added to zeros one
    after the other, so a pure conditional state's -0.0 per outcome sums to +0.0.
    """
    # a degenerate row's spectrum, clipped into [0, 1], stays finite and is dropped by the last where
    lam /= np.maximum(p, 1e-300)[..., None]
    # np.clip without its wrapper's cost; it differs only in turning -0.0 into +0.0,
    # which the zero-based sums below cannot show
    np.minimum(np.maximum(lam, 0.0, out=lam), 1.0, out=lam)
    terms = np.where(lam > 0.0, lam, 1.0)
    np.log2(terms, out=terms)
    terms *= lam
    c = np.where(p > measure.DEGENERATE_PROB, -p * terms.sum(axis=-1), 0.0)
    vals = np.zeros(p.shape[1:])
    vals += c[0]
    vals += c[1]
    return vals


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_screen(table: np.ndarray, gg: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """The weak conditional entropy of a flat batch of bases from A's Bloch table: the kernel's values within rounding.

    Along n = (sin γ cos δ, sin γ sin δ, cos γ), A's unnormalized conditional
    states are M(±x) = (ρ_A ∓ t n·R)/2, with R_k = Tr_B[(I⊗σ_k)ρ] and
    t = tanh x, 1 at x = INFINITY (cf. Luo, PRA 77, 042303 (2008); Girolami &
    Adesso, PRA 83, 052108 (2011)). table is ρ_A/2 and t R_k/2 as real
    (4, 2 dim_a²) rows, real and imaginary parts side by side, which
    `_lattice_values` builds once per scan; in each block of `_blockwise` the
    rows (1, ±n) times it, one real matmul, give both outcomes' M, whose order
    the sum cannot show. Their spectra are closed form at dim_a = 2,
    p/2 ± |((M_00 − M_11)/2, M_01)| with p = Tr M, and eigvalsh otherwise;
    `_entropy_sum` makes the values. The largest gap to `_batched_weak_ce` was
    1.9e-14, on 64×64 lattices of Ginibre states at dim_a 1 to 12, ranks 1, 2
    and full, x ∈ {0, 0.1, 0.5, 2, 8, INFINITY}.
    """
    dim_a = math.isqrt(table.shape[1] // 2)

    def block(s, e):
        g, d, sin_g = gg[s:e], dd[s:e], np.sin(gg[s:e])
        rows = np.ones((2, e - s, 4))
        rows[0, :, 1:] = np.stack([sin_g * np.cos(d), sin_g * np.sin(d), np.cos(g)], axis=1)
        rows[1, :, 1:] = -rows[0, :, 1:]
        m = (rows @ table).view(complex).reshape(2, e - s, dim_a, dim_a)
        p = np.real(np.einsum("...ii->...", m))
        if dim_a != 2:
            return _entropy_sum(p, np.linalg.eigvalsh(m))
        half_gap = np.sqrt(((m[..., 0, 0].real - m[..., 1, 1].real) / 2) ** 2 + np.abs(m[..., 0, 1]) ** 2)
        return _entropy_sum(p, np.stack([p / 2 - half_gap, p / 2 + half_gap], axis=-1))

    return _blockwise(dim_a, len(gg), block)


def _lattice_values(rho4: np.ndarray, x: float, gg: np.ndarray, dd: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """`_batched_weak_ce` on the row-major lattice where it can decide the summary, NaN elsewhere.

    The estimate `_bloch_screen`, within ε of the kernel at every point, 2ε
    far below the 1e-8 margins, picks the points. Its table of ρ_A/2 and
    t R_k/2 is built once per scan, and the three rows t R_k/2 decide which
    points it covers:

    - flat: t R is exactly zero (x = 0, or R = 0 as when B is maximally mixed
      and uncorrelated), so every point has one M(±x), and one estimate
      serves them all;
    - axial: the rows have rank one, their second singular value at most
      1e-13 of the first, so R_k = u_k V along the first left singular vector
      u. A's conditional states along m are then (ρ_A ∓ t(m·u)V)/2, and S_w(m)
      is an even, concave function of m·u (cf. Hamieh, Kobes & Zaraket, PRA
      70, 052325 (2004)): it never increases with c = |m·u|. Such states are
      the resurrection check's measured state ρ̃, decohered along n_s, whose
      R_k is (n_s·R)n_s, classically correlated states and every state at
      dim_a = 1. The estimate walks the lattice from both ends of c at
      once, in chunks of AXIAL_CHUNK points doubled each round, one
      `_bloch_screen` call a round: largest c first until a chunk's last
      point lies more than FLAT_TOL + 1e-8 above the running min, so no
      point left can be the min or a FLAT_TOL tie, and smallest c first
      until a chunk's last point lies more than 1e-8 below the running max,
      so no point left can reach the max. A flat landscape never ends the
      walk, so every point is covered;
    - hemisphere: every other state. For even grid_delta the estimate covers
      the rows k < ceil(G/2), and each lower point takes its antipode's value
      (n and -n are one measurement with its outcomes swapped, and row
      G-1-k, column j + D/2 mod D is the antipode of row k, column j); an odd
      grid_delta has no antipodes on the lattice, so it covers every point.

    Why 1e-13: the rows' Frobenius norm is at most 1/2, so the part of m·R
    perpendicular to u moves each conditional state by at most about
    σ₂ ≤ 1e-13, and each eigenvalue's entropy term by at most about
    δ log2(1/δ) = 4.3e-12 at δ = 1e-13. Over the 2 dim_a eigenvalues that is
    under 1e-9 even at dim_a = 64, a tenth of the walk's 1e-8 stop and pick
    margins. Measured states sit about 250 times below the threshold.

    The points within FLAT_TOL + 1e-8 of the estimate's min or 1e-8 of its max
    hold the kernel's min, ties and max. They go to the kernel in one batch,
    never of one row: it holds the estimate's argmin and argmax, or every
    point. Every other point stays NaN.
    """
    coef = measure.weak_coefficients(x)  # checks x before the table takes tanh x
    dim_a, n_gamma, n_delta = rho4.shape[0], cfg.grid_gamma, cfg.grid_delta
    table = np.empty((4, dim_a, dim_a), complex)
    table[0] = np.einsum("ibjb->ij", rho4) / 2
    table[1:] = np.einsum("ibjc,kcb->kij", rho4, PAULI) * (math.tanh(x) / 2)
    table = table.reshape(4, dim_a * dim_a).view(float)  # real and imaginary parts side by side: a real matmul
    u, sv, _ = np.linalg.svd(table[1:], full_matrices=False)
    if not table[1:].any():  # flat: every point has the first one's value
        est = np.broadcast_to(_bloch_screen(table, gg[:1], dd[:1]), gg.shape)
    elif sv[1] > 1e-13 * sv[0]:  # hemisphere
        n_top = len(gg) if n_delta % 2 else (n_gamma + 1) // 2 * n_delta
        top = _bloch_screen(table, gg[:n_top], dd[:n_top])
        row, col = np.divmod(np.arange(n_top, len(gg)), n_delta)
        est = np.concatenate([top, top[(n_gamma - 1 - row) * n_delta + (col + n_delta // 2) % n_delta]])
    else:  # axial, along u[:, 0]
        gammas, deltas = gg[::n_delta], dd[:n_delta]
        c = np.multiply.outer(np.sin(gammas), u[0, 0] * np.cos(deltas) + u[1, 0] * np.sin(deltas))
        c += np.cos(gammas)[:, None] * u[2, 0]
        order = np.argsort(np.abs(c, out=c).ravel())  # c ascending; any order of ties will do
        est = np.full(len(gg), np.nan)
        lo, hi, size = 0, len(order), AXIAL_CHUNK  # order[lo:hi] is not estimated yet
        low = high = True  # each end still walking
        while lo < hi and (low or high):
            k_high = min(size, hi - lo) if high else 0
            k_low = min(size, hi - lo - k_high) if low else 0
            idx = np.concatenate([order[hi - k_high : hi], order[lo : lo + k_low]])
            est[idx] = _bloch_screen(table, gg[idx], dd[idx])
            lo, hi, size = lo + k_low, hi - k_high, 2 * size
            high = high and est[order[hi]] <= np.nanmin(est) + FLAT_TOL + 1e-8
            low = low and est[order[lo - 1]] >= np.nanmax(est) - 1e-8
    pick = np.flatnonzero((est <= np.nanmin(est) + FLAT_TOL + 1e-8) | (est >= np.nanmax(est) - 1e-8))
    vals = np.full(len(gg), np.nan)
    vals[pick] = _batched_weak_ce(rho4, coef, gg[pick], dd[pick])
    return vals


@dataclass(frozen=True)
class _NMResult:
    x: tuple[float, float]
    fun: float
    nfev: int
    success: bool
    flat: bool  # the final simplex values lie within FLAT_TOL of the best, scipy's fatol test


def _nm_minimize(fun, runs) -> list[_NMResult]:
    """Drive a list of Nelder-Mead runs, each a generator such as `_nm_steps(x0)`, in lockstep.

    The package's one driver of `_nm_steps`. A run yields each list of points
    it needs, is sent their values, and returns its `_NMResult`; it may chain
    several `_nm_steps` runs, as a refinement that restarts does. Each round
    calls `fun` once with a list of (run, point) pairs, every live run's
    pending points with runs in the order given, and takes their values as a
    list of floats in that order; a run that has finished drops out. So `fun`
    is called as often as the longest run calls it alone and, provided each
    point gets the value it would get alone, each run takes the steps it takes
    alone. Returns the `_NMResult`s in the order of runs.
    """
    pending = {r: next(run) for r, run in enumerate(runs)}  # each live run's points
    results = [None] * len(runs)
    while pending:
        values = fun([(r, p) for r, points in pending.items() for p in points])
        start = 0
        for r, points in list(pending.items()):
            stop = start + len(points)
            try:
                pending[r] = runs[r].send(values[start:stop])
            except StopIteration as done:
                results[r] = done.value
                del pending[r]
            start = stop
    return results


def _nm_steps(x0):
    """Nelder-Mead on two variables as a generator: it yields each list of points it
    needs, is sent their values as a list of floats, and returns the `_NMResult`.

    A port of ``scipy.optimize._optimize._minimize_neldermead`` as
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options=...)``
    runs it (adaptive=False, no bounds, no initial simplex) with options
    xatol = 1e-8, fatol = FLAT_TOL, maxiter = MAX_REFINE_ITERS and
    maxfev = 4 * MAX_REFINE_ITERS. It performs the same float operations in the
    same order, so ``x``, ``fun``, ``nfev`` and ``success`` equal scipy's bit
    for bit. The step coefficients are scipy's rho = 1, chi = 2 and
    psi = sigma = 1/2, and vertices are stably sorted by value, NaN last, as
    numpy's argsort sorts three items.

    Points are asked for together: the three simplex points in one list; then,
    each iteration, the reflected point and the inside contraction in one list,
    the step most iterations take; the expansion or the outside contraction in
    a second list only when the reflected value asks for it; and the two shrink
    points in one list. An inside contraction that the step does not take is
    evaluated and dropped. ``nfev`` counts the evaluations scipy's method
    makes, not the points asked for, so every field is the same as with one
    point per list, provided each point gets the value it would get alone.

    That maxfev never binds, so it is not checked: the simplex costs 3
    evaluations and each iteration at most 4 (reflect, contract, two shrink
    points), so nfev <= 3 + 4 * (maxiter - 1) < 4 * maxiter. Success means the
    tolerances were met within maxiter iterations; ``flat`` that the value
    tolerance alone holds at the end, as on a pole, where delta is degenerate
    and the vertices never meet xatol in it.
    """

    def lin(a, p, b, q):
        return (a * p[0] + b * q[0], a * p[1] + b * q[1])

    def flat():
        return all(abs(fsim[0] - fj) <= FLAT_TOL for fj in fsim[1:])

    def sort():
        order = sorted(range(3), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
        sim[:] = [sim[k] for k in order]
        fsim[:] = [fsim[k] for k in order]

    x0 = (float(x0[0]), float(x0[1]))
    sim = [x0, ((1 + 0.05) * x0[0] if x0[0] != 0 else 0.00025, x0[1]),
           (x0[0], (1 + 0.05) * x0[1] if x0[1] != 0 else 0.00025)]
    fsim = yield list(sim)
    nfev = 3
    sort()

    it = 1
    while it < MAX_REFINE_ITERS:
        s0, s2 = sim[0], sim[2]
        if all(abs(v[i] - s0[i]) <= 1e-8 for v in sim[1:] for i in (0, 1)) and flat():
            break
        xbar = ((s0[0] + sim[1][0]) / 2, (s0[1] + sim[1][1]) / 2)
        xr = lin(2, xbar, -1, s2)  # reflect
        xcc = lin(0.5, xbar, 0.5, s2)  # contract inside, the step taken when fxr >= fsim[2]
        fxr, fxcc = yield [xr, xcc]
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = lin(3, xbar, -2, s2)  # expand
            (fxe,) = yield [xe]
            nfev += 1
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        elif fxr < fsim[2]:
            xc = lin(1.5, xbar, -0.5, s2)  # contract outside
            (fxc,) = yield [xc]
            nfev += 1
            if fxc <= fxr:
                sim[2], fsim[2] = xc, fxc
            else:
                shrink = True
        else:
            nfev += 1
            if fxcc < fsim[2]:
                sim[2], fsim[2] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            sim[1:] = [(s0[0] + 0.5 * (v[0] - s0[0]), s0[1] + 0.5 * (v[1] - s0[1])) for v in sim[1:]]
            fsim[1:] = yield sim[1:]
            nfev += 2
        it += 1
        sort()
    return _NMResult(sim[0], fsim[0], nfev, it < MAX_REFINE_ITERS, flat())


@dataclass(frozen=True)
class MinimizationResult:
    basis: QubitBasis
    value: float
    grid_spread: float


# axis is ignored: the scan reads its walk off the state, and older digest scripts still pass it
def _minimize(rho: DensityMatrix, x: float, cfg: OptimizerConfig, axis=None) -> MinimizationResult:
    """The basis minimizing S_w(rho|.) at x: `_minima` at one strength, kept on rho as it keeps every minimum."""
    return _minima(rho, [x], cfg)[0]


def _minima(rho: DensityMatrix, xs, cfg: OptimizerConfig) -> list[MinimizationResult]:
    """The basis minimizing S_w(rho|.) at each strength of xs, found once per state object and kept on it.

    Every strength is checked (`measure.weak_coefficients`) before any lookup
    or scan; then the minima kept for (x, cfg) are looked up. The lattices of
    the others are scanned one after the other, and every lattice that is not
    flat starts a refinement from its best point: one `_nm_minimize` call runs
    them all, none when every lattice is flat. Its objective reads each
    point's coefficients from one (4, runs) table and puts the point on a
    batch axis, so each point gets the value it would get alone and each
    refinement takes the steps it takes alone: a minimum has the same bits
    whatever strengths share the call. A refinement is one `_nm_steps` run,
    and, when that ends neither in success nor flat, a second from its best
    point, inside the same run of the lockstep; it fails only if the second
    fails too. The kernel calls are as many as the longest refinement's,
    restart included, not the sum over them. Every minimum found is kept;
    then the first NoConvergence, in the order of xs, is raised.

    Each scan chooses its own walk from rho's R (`_lattice_values`): flat,
    axial or hemisphere. Every walk keeps the scan contract, so a minimum
    does not depend on which one ran.
    """
    coef_of = {x: measure.weak_coefficients(x) for x in xs}  # a bad strength raises before any lookup or scan
    missing = [x for x in coef_of if (x, cfg) not in rho._minima]
    if not missing:
        return [rho._minima[x, cfg] for x in xs]
    rho4 = rho.as_tensor()
    gammas = np.linspace(0.0, math.pi, cfg.grid_gamma)
    deltas = np.linspace(0.0, 2 * math.pi, cfg.grid_delta, endpoint=False)
    gg, dd = np.meshgrid(gammas, deltas, indexing="ij")
    gg, dd = gg.ravel(), dd.ravel()
    scans = []
    for x in missing:
        vals = _lattice_values(rho4, x, gg, dd, cfg)
        vmin = float(np.nanmin(vals))
        # ties broken toward smallest gamma, then delta (row-major, gamma outer); NaN is no tie
        scans.append((vals, vmin, float(np.nanmax(vals)) - vmin, int(np.flatnonzero(vals <= vmin + FLAT_TOL)[0])))

    # on a flat landscape there is nothing to refine, and Nelder-Mead cycles on exact ties
    live = [j for j, (_, _, spread, _) in enumerate(scans) if spread >= FLAT_TOL]
    table = np.array([coef_of[missing[j]] for j in live]).T.copy()  # (4, runs), C order

    def objective(pairs):
        # (k, 1) angles: each point on a batch axis, as if alone, with its run's coefficients;
        # take gives each round's (4, k, 1) slice in C order, as the kernel is fastest with
        runs, points = zip(*pairs)
        g, d = np.array(points).T[:, :, None]
        return _batched_weak_ce(rho4, table.take(np.array(runs)[:, None], axis=1), g, d)[:, 0].tolist()

    def refinement(x0):
        res = yield from _nm_steps(x0)
        # a stalled run, such as one whose start at delta = 0 gets a simplex only 0.00025 wide in delta,
        # restarts once from its best point, with a new simplex and never a worse best value
        return res if res.success or res.flat else (yield from _nm_steps(res.x))

    # no call when every lattice is flat, so that an `_nm_minimize` call always refines something
    found = _nm_minimize(objective, [refinement((gg[scans[j][3]], dd[scans[j][3]])) for j in live]) if live else []
    refined = dict(zip(live, found))

    failures = []
    for j, (x, (vals, vmin, spread, idx)) in enumerate(zip(missing, scans)):
        res = refined.get(j)
        if res is None:  # a flat lattice keeps its first tie
            g_best, d_best, v_best = float(gg[idx]), float(dd[idx]), float(vals[idx])
        elif not (res.success or res.flat):
            best = float(min(res.fun, vmin))
            failures.append(NoConvergence(
                f"basis refinement stopped before reaching tol {FLAT_TOL:g} (best value {best:.9g})", best_value=best
            ))
            continue
        elif res.fun <= vmin:
            g_best, d_best, v_best = float(res.x[0]), float(res.x[1]), float(res.fun)
        else:
            jmin = int(np.nanargmin(vals))
            g_best, d_best, v_best = float(gg[jmin]), float(dd[jmin]), vmin
        # fold arbitrary refined angles back into canonical ranges
        basis = measure.basis_from_ket(QubitBasis(g_best, d_best).ket())
        rho._minima[x, cfg] = MinimizationResult(basis, v_best, spread)
    if failures:
        raise failures[0]
    return [rho._minima[x, cfg] for x in xs]


def minimize_conditional_entropy(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> tuple[QubitBasis, float]:
    """Basis minimizing the weak (or, at x = INFINITY, strong) conditional entropy."""
    (res,) = _minima(rho, [x], cfg)
    return res.basis, res.value


def super_discord(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> tuple[float, QubitBasis]:
    """D_w = min_basis S_w(A|{P(x)}) - S(A|B); at x = INFINITY, the discord D_s."""
    (res,) = _minima(rho, [x], cfg)
    return res.value - quantum_conditional_entropy(rho), res.basis


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


def analyze(
    rho: DensityMatrix, x: float, cfg: OptimizerConfig = DEFAULT_CONFIG
) -> DiscordReport:
    """All correlation measures of one state at one strength, bundled."""
    cond_qq = quantum_conditional_entropy(rho)
    strong, weak = _minima(rho, [INFINITY, x], cfg)  # one joint minimization, or one at x = INFINITY
    ds = strong.value - cond_qq
    dw = weak.value - cond_qq
    return DiscordReport(
        conditional_entropy_qq=cond_qq,
        mutual_info=qstate.mutual_information(rho),
        discord=ds,
        super_discord=dw,
        delta=dw - ds,
        strong_basis=strong.basis,
        weak_basis=weak.basis,
        strength=x,
    )


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

    `report` is `analyze(rho, x, cfg)`; after `analyze` on the same state
    object the check adds one minimization, the measured state's. The same
    concavity makes S_w(ρ̃|m) a function of c = |m·n_s| that never increases
    with c. ρ̃'s R_k lie along n_s, so its lattice scan reads the axis off
    the state: its estimate walks the lattice from both ends of c, and the
    kernel evaluates, in one batch, only the points that can be its min,
    FLAT_TOL ties or max (`_lattice_values`), leaving the rest NaN. The
    public `super_discord` on ρ̃ takes the same walk. Of the default 4096
    points that is a few dozen at most for a generic n_s (4 to 28 seen), 132
    to 188 on the equator and 256 on a pole (a Werner state's ρ̃), and all of
    them when the landscape is flat (the maximally mixed state). The
    lattice's summary is the full scan's, bit for bit, and is still refined.
    """
    measure.real_strength(x)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"resurrection check needs finite x > 0, got {x}")
    report = analyze(rho, x, cfg)
    strong, weak = _minima(rho, [INFINITY, x], cfg)  # kept by analyze
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
