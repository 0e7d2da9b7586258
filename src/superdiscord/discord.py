"""Correlation measures: conditional entropies, discord, super discord, and
the post-measurement resurrection check.

The basis minimization is a two-phase scheme: exhaustive evaluation on a
(gamma, delta) lattice, then Nelder-Mead refinement from the best lattice
point. Each lattice scan gives the full scan's min, max, argmin and first tie
bit for bit, but sends the kernel only the points that can decide them. At
dim_a = 2, A's conditional states have a closed form whose 2×2 eigenvalues
screen the whole lattice within rounding, and only the points near the
screen's min or max go to the kernel (see `_screened_values`). At other
dim_a the scan evaluates each measurement once: n and -n are one measurement
with its outcomes swapped, so an even grid_delta evaluates one hemisphere
(see `_lattice_values`). The resurrection check's measured state ρ̃,
decohered along n_s, has a landscape that depends on c = |m·n_s| alone and
never rises with c, so its scan evaluates the lattice from both ends of c
and stops once no point left can be the minimum, a tie or the maximum (see
`_axial_values`). One kernel, `_batched_weak_ce`, gives every reported
conditional entropy, bit for bit: the lattice, the refinement's objective
and `weak_conditional_entropy` (strong at x = INFINITY). It takes both
outcomes P(x), P(-x) in one pass, on a batch axis with their rows never
stacked, so a refinement point costs one eigvalsh and one entropy pass. It
walks a flat batch in blocks of about BLOCK_BYTES of conditional states, never
of one row, so a scan's memory is bounded at any dim_a and each point's value
is the one a single pass would give it, bit for bit. The refinement is an
in-package port of scipy's default Nelder-Mead that keeps its iterates bit
for bit, so numpy is the only runtime dependency. Each of its iterations
evaluates the reflected point and the inside contraction in one kernel call,
and calls again only for an expansion, an outside contraction or a shrink;
its evaluation count is still scipy's. One driver,
`_nm_minimize`, runs every refinement: one run per strength whose lattice is
not flat, all advanced in lockstep, each round's points sent to the kernel
in one call on a batch axis, each point with its own strength, so each gets
the value it would get alone. `analyze` so refines its strong and weak
minima with as many calls as the longer refinement makes alone; every
minimum that succeeds is kept on the state, and the first NoConvergence in
strength order, the strong one first, is raised. The refinement's constants
are fixed, not options: angle tolerance 1e-8, value tolerance FLAT_TOL and at
most MAX_REFINE_ITERS iterations, the settings every reported number has been
computed with. It has no evaluation budget, because the iteration cap already
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Size of the (gamma, delta) lattice scanned before refinement.

    grid_gamma points span gamma in [0, pi], poles included, so at least 3 are
    needed for a point off the poles; grid_delta points span delta in [0, 2 pi).
    At dim_a = 2 a closed-form screen picks the points the kernel evaluates.
    Otherwise an even grid_delta puts every point's antipode on the lattice,
    so only the upper hemisphere is evaluated, plus the lower points that
    could tie its min or max; an odd one is scanned in full. The lattice min,
    max and ties are the full scan's either way.
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


DEFAULT_CONFIG = OptimizerConfig()

# Lattice tie, flat-landscape and ambiguous-minimizer threshold in bits, also Nelder-Mead's
# fatol; 1e-8 is the refinement tolerance every reported number has been computed with.
FLAT_TOL = 1e-8
MAX_REFINE_ITERS = 500
# first chunk of each pass of `_axial_values`, doubled after every chunk that does not end it
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
    measure.real_strength(x)  # one strength, never the per-point array the kernel also takes
    gammas, deltas = np.array([basis.gamma]), np.array([basis.delta])
    return float(_batched_weak_ce(rho.as_tensor(), x, gammas, deltas)[0])


def _batched_weak_ce(rho4: np.ndarray, x, gammas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Weak conditional entropy for an array of (gamma, delta) bases, of the angles' shape.

    A flat batch is evaluated in blocks of at most B = max(2, BLOCK_BYTES //
    (32 dim_a²)) points, 32 dim_a² bytes being one point's two complex
    conditional states, and the blocks' values are concatenated; a per-point
    strength array is split with the angles. So a call holds about
    BLOCK_BYTES of conditional states at any batch size, where the 2048 points
    of a 64×64 hemisphere scan would hold 4 MiB at dim_a = 8 and 64 MiB at
    dim_a = 32. At dim_a = 2, B is 8192 and a lattice is one block; angles of
    shape (k, 1), the refinement's, are always one. A trailing one-point block
    joins the block before it, because matmul takes another path for one row,
    off by an ulp at odd dim_a. With two rows or more, no row's value depends
    on the batch, so each point gets, bit for bit, the value one pass over
    the whole batch (`_weak_ce_block`) gives it. The blocks are a loop, never
    calls through the module attribute, so a call is one kernel call however
    many blocks it takes.
    """
    size = max(2, BLOCK_BYTES // (32 * rho4.shape[0] ** 2))
    if gammas.ndim != 1 or len(gammas) <= size + 1:
        return _weak_ce_block(rho4, x, gammas, deltas)
    n = len(gammas)
    cuts = [*range(0, n - 1, size), n]  # to n - 1: a trailing one-point block joins the one before
    per_point = np.ndim(x) > 0
    return np.concatenate([
        _weak_ce_block(rho4, x[s:e] if per_point else x, gammas[s:e], deltas[s:e])
        for s, e in zip(cuts, cuts[1:])
    ])


def _weak_ce_block(rho4: np.ndarray, x, gammas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """`_batched_weak_ce` in one pass over the whole batch: one block.

    P(±x) come from `measure.weak_operators`, A's conditional states from
    `measure.conditional_blocks`, with the two outcomes on a batch axis and
    rows never stacked, so one trace, one eigvalsh and one entropy pass serve
    both. A flat batch of n points is one matmul of n rows; angles of shape
    (k, 1) put k points on a batch axis, so each takes the one-row path that a
    lone point takes and gets its value bit for bit. x is one strength, or an
    array of the angles' shape with each point's own, so that points of
    refinements at several strengths share a call. rho4 is ρ as indices
    (a, b, a', b'). The outcomes are added to zeros one after the other: a
    pure conditional state gives -0.0 per outcome, and the sum stays +0.0.
    """
    m = measure.conditional_blocks(rho4, measure.weak_operators(x, gammas, deltas))
    p = np.real(np.einsum("...ii->...", m))
    lam = np.linalg.eigvalsh(m)
    # a degenerate row's spectrum, clipped into [0, 1], stays finite and is dropped by the last where
    lam /= np.maximum(p, 1e-300)[..., None]
    # np.clip without its wrapper's cost; it differs only in turning -0.0 into +0.0,
    # which the zero-based sums below cannot show
    np.minimum(np.maximum(lam, 0.0, out=lam), 1.0, out=lam)
    terms = np.where(lam > 0.0, lam, 1.0)
    np.log2(terms, out=terms)
    terms *= lam
    c = np.where(p > measure.DEGENERATE_PROB, -p * terms.sum(axis=-1), 0.0)
    vals = np.zeros(gammas.shape)
    vals += c[0]
    vals += c[1]
    return vals


def _lattice_values(
    rho4: np.ndarray, x: float, gg: np.ndarray, dd: np.ndarray, cfg: OptimizerConfig
) -> np.ndarray:
    """`_batched_weak_ce` on the row-major lattice, evaluated once per measurement.

    The measurement along -n is the one along n with its outcomes swapped, so
    both have one value. For even grid_delta the antipode of row k, column j is
    row G-1-k, column j + D/2 (mod D), and the rows k < ceil(G/2) hold an
    antipode of every lower point. Those rows are evaluated; a lower point only
    when its antipode lies within FLAT_TOL of their min or max. Every other
    lower point gets its antipode's value, strictly inside (min, max), so the
    min, max, argmin and first FLAT_TOL tie equal the full scan's with ==.
    Odd grid_delta has no antipodes on the lattice and is scanned in full.
    """
    n_gamma, n_delta = cfg.grid_gamma, cfg.grid_delta
    if n_delta % 2:
        return _batched_weak_ce(rho4, x, gg, dd)
    n_top = (n_gamma + 1) // 2 * n_delta
    vals = _batched_weak_ce(rho4, x, gg[:n_top], dd[:n_top])
    row, col = np.divmod(np.arange(n_top, len(gg)), n_delta)
    lower = vals[(n_gamma - 1 - row) * n_delta + (col + n_delta // 2) % n_delta]
    need = (lower <= vals.min() + FLAT_TOL) | (lower >= vals.max() - FLAT_TOL)
    if np.count_nonzero(need) == 1:
        need[:2] = True  # matmul takes another path for one row, off by an ulp at odd dim_a
    pick = n_top + np.flatnonzero(need)
    if len(pick):
        lower[need] = _batched_weak_ce(rho4, x, gg[pick], dd[pick])
    return np.concatenate([vals, lower])


def _axial_values(
    rho4: np.ndarray, x: float, gg: np.ndarray, dd: np.ndarray, cfg: OptimizerConfig, axis
) -> np.ndarray:
    """The lattice of a state decohered along `axis`, evaluated from both ends of c = |m·axis|.

    Contract, as for `_lattice_values`: the min, max, argmin and first
    FLAT_TOL tie of the result equal the full scan's with ==. Every evaluated
    point takes the kernel's multi-row path, as the full scan's do, and every
    other point gets an evaluated value that can be none of the four.

    Decohered along n, a state's R_k = Tr_B[(I⊗σ_k)ρ] is (n·R)n, so A's
    conditional states along m are (ρ_A ∓ t(m·n)(n·R))/2 and S_w(m) is an
    even, concave function of m·n (cf. Hamieh, Kobes & Zaraket, PRA 70, 052325
    (2004)): it never increases with c. The points are taken in chunks of
    at least two, largest c first, until the last one lies more than
    FLAT_TOL + 1e-8 above the running min, so no point left can be the min or
    a FLAT_TOL tie; then smallest c first, until the last one lies more than
    1e-8 below the running max, so no point left can reach the max. The 1e-8
    margins cover the kernel's rounding many times over. Each point left gets
    the value at which the first pass stopped, which lies in
    (min + FLAT_TOL, max]. A flat landscape (n·R = 0, as when B is maximally
    mixed and uncorrelated) never stops the first pass, so every point is
    evaluated.
    """
    n_delta = cfg.grid_delta
    gammas, deltas = gg[::n_delta], dd[:n_delta]
    c = np.multiply.outer(np.sin(gammas), axis[0] * np.cos(deltas) + axis[1] * np.sin(deltas))
    c += np.cos(gammas)[:, None] * axis[2]
    order = np.argsort(np.abs(c, out=c).ravel())  # c ascending; any order of ties will do
    vals = np.empty(len(order))
    lo, hi = 0, len(order)  # order[lo:hi] is not evaluated yet

    def chunk(size):
        # never leave one point: matmul takes another path for one row, off by an ulp at odd dim_a
        return hi - lo if hi - lo <= size + 1 else size

    def evaluate(idx):
        v = _batched_weak_ce(rho4, x, gg[idx], dd[idx])
        vals[idx] = v
        return v

    vmin, size = math.inf, AXIAL_CHUNK
    while lo < hi:
        k = chunk(size)
        hi -= k
        v = evaluate(order[hi : hi + k][::-1])
        vmin, stop = min(vmin, v.min()), v[-1]
        if stop > vmin + FLAT_TOL + 1e-8:
            break
        size *= 2
    vmax, size = vals[order[hi:]].max(), AXIAL_CHUNK
    while lo < hi:
        k = chunk(size)
        lo += k
        v = evaluate(order[lo - k : lo])
        vmax = max(vmax, v.max())
        if v[-1] < vmax - 1e-8:
            break
        size *= 2
    vals[order[lo:hi]] = stop
    return vals


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_screen(rho4: np.ndarray, x: float, gg: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """The weak conditional entropy at dim_a = 2 in closed form: the kernel's values within rounding.

    B is a qubit, so A's unnormalized conditional states along n are
    M(±x) = (ρ_A ∓ t n·R)/2, with R_k = Tr_B[(I⊗σ_k)ρ],
    n = (sin γ cos δ, sin γ sin δ, cos γ) and t = tanh x, 1 at x = INFINITY
    (cf. Luo, PRA 77, 042303 (2008)). The value sums both outcomes, so which
    one takes which sign does not matter. A 2×2 M has the eigenvalues
    p/2 ± |((M_00 − M_11)/2, M_01)| with p = Tr M, so each outcome costs a few
    (n,) array operations, and the entropy clips and drops a degenerate
    outcome as the kernel does. Its largest gap to `_batched_weak_ce` was
    1.9e-14, over 153 states, 6 strengths and 4096 points each.
    """
    measure.weak_amplitudes(x)  # a negative or NaN x raises here, as in the kernel
    rho_a = np.einsum("ibjb->ij", rho4)
    r = np.einsum("ibjc,kcb->kij", rho4, PAULI)
    # M's entries 00 and 11 and the real and imaginary parts of 01, as constants
    # (from ρ_A) and as coefficients of n (from R), both halved; n's get t too
    base = np.array([rho_a[0, 0].real, rho_a[1, 1].real, rho_a[0, 1].real, rho_a[0, 1].imag]) / 2
    coef = np.stack([r[:, 0, 0].real, r[:, 1, 1].real, r[:, 0, 1].real, r[:, 0, 1].imag], axis=1)
    sin_g = np.sin(gg)
    tn = np.stack([sin_g * np.cos(dd), sin_g * np.sin(dd), np.cos(gg)], axis=1) @ coef
    tn *= math.tanh(x) / 2
    vals = np.zeros(len(gg))
    for sign in (1.0, -1.0):
        a, d, b_re, b_im = (base[k] - sign * tn[:, k] for k in range(4))
        p = a + d
        gap = np.sqrt(((a - d) / 2) ** 2 + b_re**2 + b_im**2) / np.maximum(p, 1e-300)
        for q in (0.5 + gap, 0.5 - gap):  # the normalized eigenvalues
            np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
            vals -= np.where(p > measure.DEGENERATE_PROB, p * q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
    return vals


def _screened_values(rho4: np.ndarray, x: float, gg: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """The lattice at dim_a = 2, with the kernel run only where its min, max or ties can lie.

    Contract, as for `_lattice_values`: the min, max, argmin and first
    FLAT_TOL tie of the result equal the full scan's with ==.

    `_bloch_screen` gives every point's value within ε of the kernel's, with
    ε ≤ 1.9e-14 measured, so the margins of 1e-8 exceed 2ε many times over.
    Then every point whose kernel value is the min or within FLAT_TOL of it
    has a screen value within FLAT_TOL + 1e-8 of the screen's min, and the
    kernel's max lies on a point within 1e-8 of the screen's max. Those points
    go to the kernel in one batch of rows, as in the full scan, and get its
    values bit for bit. The screen's argmin and argmax are two points unless it
    is flat, and then every point goes, so the batch never has fewer than two
    rows. Every other point lies more than FLAT_TOL above the min and gets the
    largest kernel value.
    """
    screen = _bloch_screen(rho4, x, gg, dd)
    pick = np.flatnonzero((screen <= screen.min() + FLAT_TOL + 1e-8) | (screen >= screen.max() - 1e-8))
    exact = _batched_weak_ce(rho4, x, gg[pick], dd[pick])
    vals = np.full(len(gg), exact.max())
    vals[pick] = exact
    return vals


@dataclass(frozen=True)
class _NMResult:
    x: tuple[float, float]
    fun: float
    nfev: int
    success: bool
    flat: bool  # the final simplex values lie within FLAT_TOL of the best, scipy's fatol test


def _nm_minimize(fun, starts) -> list[_NMResult]:
    """Nelder-Mead on two variables from each start, step for step as scipy's default method.

    The package's one driver of `_nm_steps`: one run per start, advanced in
    lockstep. Each round calls `fun` once with a list of (run, point) pairs,
    every live run's pending points with runs in start order, and takes their
    values as a list of floats in that order; a run that has finished drops
    out. So `fun` is called as often as the longest run calls it alone and,
    provided each point gets the value it would get alone, each run takes the
    steps it takes alone. Returns the `_NMResult`s in start order.
    """
    runs = [_nm_steps(x0) for x0 in starts]
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


def _minimize(rho: DensityMatrix, x: float, cfg: OptimizerConfig, axis=None) -> MinimizationResult:
    """The basis minimizing S_w(rho|.) at x: the lattice's best point, then refined.

    A joint minimization (`_minimize_jointly`) with one strength, whose
    NoConvergence it raises. `axis`, the Bloch vector of the basis rho was
    decohered in, lets the lattice scan skip points that cannot decide its
    summary (`_axial_values`); the result is the same with or without it.
    Without one, dim_a = 2 takes the closed-form screen (`_screened_values`)
    and other dim_a the hemisphere scan (`_lattice_values`), with the same
    result either way.
    """
    (res,) = _minimize_jointly(rho, [x], cfg, axis)
    if isinstance(res, NoConvergence):
        raise res
    return res


def _minimize_jointly(rho: DensityMatrix, xs, cfg: OptimizerConfig, axis=None) -> list:
    """`_minimize(rho, x, cfg, axis)` at each strength of xs, with the refinements run in lockstep.

    Each entry is, at its strength, the MinimizationResult, or the
    NoConvergence that `_minimize` raises; a bad strength raises at once. The
    lattices are scanned one after the other, as `_minimize` scans each. Every
    lattice that is not flat starts a refinement from its best point, and one
    `_nm_minimize` call runs them all. Its objective puts each point on a
    batch axis with its run's strength, so each point gets the value it would
    get alone and each refinement takes the steps it takes alone; the kernel
    calls are as many as the longest refinement's, not the sum over them.
    """
    rho4 = rho.as_tensor()
    gammas = np.linspace(0.0, math.pi, cfg.grid_gamma)
    deltas = np.linspace(0.0, 2 * math.pi, cfg.grid_delta, endpoint=False)
    gg, dd = np.meshgrid(gammas, deltas, indexing="ij")
    gg, dd = gg.ravel(), dd.ravel()
    scans = []
    for x in xs:
        if axis is not None:
            vals = _axial_values(rho4, x, gg, dd, cfg, axis)
        elif rho.dim_a == 2:
            vals = _screened_values(rho4, x, gg, dd)
        else:
            vals = _lattice_values(rho4, x, gg, dd, cfg)
        vmin = float(vals.min())
        # ties broken toward smallest gamma, then delta (row-major, gamma outer)
        scans.append((vals, vmin, float(vals.max()) - vmin, int(np.flatnonzero(vals <= vmin + FLAT_TOL)[0])))

    # on a flat landscape there is nothing to refine, and Nelder-Mead cycles on exact ties
    starts = {j: (gg[idx], dd[idx]) for j, (_, _, spread, idx) in enumerate(scans) if spread >= FLAT_TOL}
    strengths = [xs[j] for j in starts]  # by run

    def objective(pairs):
        # (k, 1) angles: each point on a batch axis, as if alone; one live run passes its
        # strength as a scalar, so a lone minimization's calls cost what they cost before
        if pairs[0][0] == pairs[-1][0]:
            g, d = np.array([p for _, p in pairs]).T[:, :, None]
            x = strengths[pairs[0][0]]
        else:
            g, d, x = np.array([(*p, strengths[r]) for r, p in pairs]).T[:, :, None]
        return _batched_weak_ce(rho4, x, g, d)[:, 0].tolist()

    # no call when every lattice is flat, so that an `_nm_minimize` call always refines something
    refined = dict(zip(starts, _nm_minimize(objective, list(starts.values())))) if starts else {}

    out = []
    for j, (vals, vmin, spread, idx) in enumerate(scans):
        res = refined.get(j)
        if res is None:  # a flat lattice keeps its first tie
            g_best, d_best, v_best = float(gg[idx]), float(dd[idx]), float(vals[idx])
        elif not (res.success or res.flat):
            out.append(NoConvergence(
                f"basis refinement stopped before reaching tol {FLAT_TOL:g} "
                f"(best value {min(res.fun, vmin):.9g})",
                best_value=float(min(res.fun, vmin)),
            ))
            continue
        elif res.fun <= vmin:
            g_best, d_best, v_best = float(res.x[0]), float(res.x[1]), float(res.fun)
        else:
            jmin = int(np.argmin(vals))
            g_best, d_best, v_best = float(gg[jmin]), float(dd[jmin]), vmin
        # fold arbitrary refined angles back into canonical ranges
        basis = measure.basis_from_ket(QubitBasis(g_best, d_best).ket())
        out.append(MinimizationResult(basis, v_best, spread))
    return out


def _minima(rho: DensityMatrix, xs, cfg: OptimizerConfig) -> list[MinimizationResult]:
    """`_minimize(rho, x, cfg)` at each strength of xs, run once per state object and kept on it.

    The strengths not kept yet are minimized together, in one
    `_minimize_jointly` call. Every minimum found is kept; then the first
    NoConvergence, in the order of xs, is raised.
    """
    for x in xs:
        measure.real_strength(x)  # before the lookup, which could not even hash a list or an array
    missing = [x for x in dict.fromkeys(xs) if (x, cfg) not in rho._minima]
    if missing:
        found = _minimize_jointly(rho, missing, cfg)
        rho._minima.update(((x, cfg), res) for x, res in zip(missing, found) if not isinstance(res, NoConvergence))
        for res in found:
            if isinstance(res, NoConvergence):
                raise res
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
    measure.weak_amplitudes(x)  # reject a bad strength before any minimization
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
    with c, so that minimization's lattice scan is given n_s's Bloch vector and
    evaluates only the points that can be its min, FLAT_TOL ties or max
    (`_axial_values`). Of the default 4096 points that is 32 for a generic
    n_s, 256 on the equator and 480 on a pole (a Werner state's ρ̃), and all
    of them when the landscape is flat (the maximally mixed state). The
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
    g, d = proj_basis.gamma, proj_basis.delta
    axis = (math.sin(g) * math.cos(d), math.sin(g) * math.sin(d), math.cos(g))  # proj_basis's Bloch vector
    post_weak = _minimize(post, x, cfg, axis)
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
