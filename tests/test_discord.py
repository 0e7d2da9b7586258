import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import superdiscord as sd
from superdiscord import discord, measure
from superdiscord.discord import DEFAULT_CONFIG, OptimizerConfig
from superdiscord.errors import DomainError, NegativeStrength, NoConvergence
from superdiscord.measure import INFINITY, QubitBasis, same_basis

from conftest import bloch, random_unitary
from oracles import COMPUTATIONAL, binary_entropy, tensor

FAST_CFG = OptimizerConfig(grid_gamma=32, grid_delta=32)


class TestConditionalEntropies:
    def test_strong_pure_any_basis(self, rng):
        rho = sd.pure_schmidt(0.3)
        for _ in range(5):
            b = QubitBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert sd.weak_conditional_entropy(rho, b, INFINITY) == pytest.approx(0.0, abs=1e-9)

    def test_strong_werner_half(self):
        got = sd.weak_conditional_entropy(sd.werner(0.5), COMPUTATIONAL, INFINITY)
        assert got == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_strong_maximally_mixed(self):
        rho = sd.validate(np.eye(4) / 4, dim_a=2)
        assert sd.weak_conditional_entropy(rho, QubitBasis(1.0, 0.2), INFINITY) == pytest.approx(1.0, abs=1e-12)

    def test_weak_at_zero_is_marginal_entropy(self):
        rho = sd.random_state(5)
        expected = sd.von_neumann_entropy(sd.partial_trace_b(rho))
        assert sd.weak_conditional_entropy(rho, QubitBasis(0.9, 1.1), 0.0) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("z", [0.3, 0.7])
    @pytest.mark.parametrize("x", [0.2, 1.0])
    def test_weak_werner_closed_form(self, z, x):
        got = sd.weak_conditional_entropy(sd.werner(z), COMPUTATIONAL, x)
        assert got == pytest.approx(binary_entropy((1 + z * math.tanh(x)) / 2), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_weak_at_infinity_equals_strong(self, seed):
        rho = sd.random_state(seed)
        b = QubitBasis(0.8, 2.4)
        assert sd.weak_conditional_entropy(rho, b, INFINITY) == pytest.approx(
            sd.weak_conditional_entropy(rho, b, INFINITY), abs=1e-10
        )

    @pytest.mark.parametrize("x", [0.0, 0.1, 2.0, INFINITY])
    @pytest.mark.parametrize("dim_a", range(1, 9))
    def test_antipodal_bases_are_one_measurement(self, dim_a, x):
        # -n = (pi - gamma, delta + pi) swaps the two outcomes, so S_w(n) = S_w(-n)
        rng = np.random.default_rng(200 + dim_a)
        rho = sd.random_state(dim_a, dim_a=dim_a, rank=2 * dim_a)
        for _ in range(10):
            g, d = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            s_n = sd.weak_conditional_entropy(rho, QubitBasis(g, d), x)
            s_anti = sd.weak_conditional_entropy(rho, QubitBasis(math.pi - g, d + math.pi), x)
            assert abs(s_n - s_anti) <= 1e-12, (g, d)


# a state as its raw matrix, and a basis as its (gamma, delta) tuple
RAW_STATE, TUPLE_BASIS = np.eye(4) / 4, (0.0, 0.0)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: sd.super_discord(RAW_STATE, 0.5), "DensityMatrix", id="super_discord"),
        pytest.param(lambda: sd.analyze(RAW_STATE, 0.5), "DensityMatrix", id="analyze"),
        pytest.param(lambda: sd.verify_resurrection(RAW_STATE, 0.5), "DensityMatrix", id="verify_resurrection"),
        pytest.param(lambda: sd.minimize_conditional_entropy(RAW_STATE, 0.5), "DensityMatrix", id="minimize"),
        pytest.param(lambda: sd.weak_conditional_entropy(RAW_STATE, COMPUTATIONAL, 0.5), "DensityMatrix",
                     id="weak_ce-state"),
        pytest.param(lambda: sd.weak_conditional_entropy(sd.werner(0.5), TUPLE_BASIS, 0.5), "QubitBasis",
                     id="weak_ce-basis"),
        pytest.param(lambda: sd.quantum_conditional_entropy(RAW_STATE), "DensityMatrix", id="quantum_ce"),
        pytest.param(lambda: sd.mutual_information(RAW_STATE), "DensityMatrix", id="mutual_information"),
        pytest.param(lambda: sd.partial_trace_a(RAW_STATE), "DensityMatrix", id="partial_trace_a"),
        pytest.param(lambda: sd.partial_trace_b(RAW_STATE), "DensityMatrix", id="partial_trace_b"),
        pytest.param(lambda: sd.project_state(RAW_STATE, COMPUTATIONAL), "DensityMatrix", id="project_state-state"),
        pytest.param(lambda: sd.project_state(sd.werner(0.5), TUPLE_BASIS), "QubitBasis", id="project_state-basis"),
        pytest.param(lambda: sd.weak_outcomes(RAW_STATE, sd.weak_pair(COMPUTATIONAL, 0.5)), "DensityMatrix",
                     id="weak_outcomes"),
        pytest.param(lambda: sd.projective_outcomes(RAW_STATE, COMPUTATIONAL), "DensityMatrix",
                     id="projective_outcomes"),
        pytest.param(lambda: sd.weak_pair(TUPLE_BASIS, 0.5), "QubitBasis", id="weak_pair"),
        pytest.param(lambda: sd.projectors(TUPLE_BASIS), "QubitBasis", id="projectors"),
    ],
)
def test_wrong_argument_type_raises_domain_error(call, expected, minimize_calls):
    # not an AttributeError from inside the computation, and before any minimization
    with pytest.raises(DomainError, match=f"must be a {expected}, got (ndarray|tuple)$"):
        call()
    assert minimize_calls == []


CLASSICAL =np.diag([0.2, 0.0, 0.0, 0.8])  # 0.2 |00><00| + 0.8 |11><11|, D_s = 0


def classical_weak_ce(x):
    """S_w along z of CLASSICAL, its minimum: p(±x) h(q(±x)) summed."""
    t = math.tanh(x)
    total = 0.0
    for a0, a1 in (((1 - t) / 2, (1 + t) / 2), ((1 + t) / 2, (1 - t) / 2)):
        p = 0.2 * a0 + 0.8 * a1
        total += p * binary_entropy(0.2 * a0 / p)
    return total


class TestMinimizer:
    def test_pure_minimizer_at_equator(self):
        basis, _ = sd.minimize_conditional_entropy(sd.pure_schmidt(0.2), 0.2)
        assert basis.gamma == pytest.approx(math.pi / 2, abs=1e-4)

    def test_werner_flat_landscape(self):
        from superdiscord.discord import _minimize

        res = _minimize(sd.werner(0.6), 0.5, OptimizerConfig())
        assert res.grid_spread <= 1e-9
        assert res.basis == COMPUTATIONAL  # a flat lattice keeps its first point

    @pytest.mark.parametrize("grid", [(1, 64), (2, 64), (64, 0)])
    def test_config_rejects_lattice_without_off_pole_points(self, grid):
        with pytest.raises(DomainError):
            OptimizerConfig(grid_gamma=grid[0], grid_delta=grid[1])

    @pytest.mark.parametrize("grid", [(1025, 1024), (3, 2**20 + 1), (10**8, 10**8)])
    def test_config_rejects_lattice_beyond_the_bound(self, grid):
        with pytest.raises(DomainError, match="at most 1048576 points"):
            OptimizerConfig(grid_gamma=grid[0], grid_delta=grid[1])

    def test_config_accepts_lattice_at_the_bound(self):
        assert OptimizerConfig(1024, 1024).grid_gamma * 1024 == discord.MAX_LATTICE_POINTS

    @pytest.mark.parametrize("grid", [(16.0, 16), (16.5, 16), (True, 16), (16, 16.0), (16, "16")])
    def test_config_rejects_non_int_sizes(self, grid):
        with pytest.raises(DomainError):
            OptimizerConfig(grid_gamma=grid[0], grid_delta=grid[1])

    @pytest.mark.parametrize("x", [-1.0, math.nan])
    def test_rejects_negative_and_nan_strength(self, x, minimize_calls, kernel_calls):
        with pytest.raises(NegativeStrength):
            sd.analyze(sd.random_state(1), x, FAST_CFG)
        assert minimize_calls == []  # rejected before the strong minimization
        with pytest.raises(NegativeStrength):
            sd.minimize_conditional_entropy(sd.random_state(1), x, FAST_CFG)
        assert kernel_calls == []  # rejected before the first lattice scan

    def test_bad_strength_raises_before_any_scan(self, kernel_calls):
        # the good strength comes first, so a scan per strength would run before the bad one is seen
        rho = sd.random_state(1, dim_a=3, rank=6)
        with pytest.raises(NegativeStrength):
            discord._minima(rho, [0.5, -1.0], DEFAULT_CONFIG)
        with pytest.raises(NegativeStrength):
            discord._minima(rho, [INFINITY, -1.0], DEFAULT_CONFIG)
        assert kernel_calls == [] and rho._minima == {}

    @pytest.mark.parametrize(
        "x", ["0.5", None, 1j, [0.5], np.array([0.5]), np.array(0.5), True, np.True_], ids=repr
    )
    def test_rejects_non_real_strength(self, x, minimize_calls, kernel_calls):
        rho = sd.random_state(1)
        for call in (sd.analyze, sd.super_discord, sd.minimize_conditional_entropy, sd.verify_resurrection):
            with pytest.raises(DomainError, match="strength must be a real number"):
                call(rho, x, FAST_CFG)
        with pytest.raises(DomainError, match="strength must be a real number"):
            sd.weak_conditional_entropy(rho, COMPUTATIONAL, x)
        assert minimize_calls == [] and kernel_calls == []  # rejected before any minimization
        assert rho._minima == {}

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda rho, x: sd.analyze(rho, x, FAST_CFG), id="analyze"),
            pytest.param(lambda rho, x: sd.verify_resurrection(rho, x, FAST_CFG), id="verify_resurrection"),
            pytest.param(lambda rho, x: sd.super_discord(rho, x, FAST_CFG), id="super_discord"),
            pytest.param(lambda rho, x: sd.minimize_conditional_entropy(rho, x, FAST_CFG), id="minimize"),
            pytest.param(lambda rho, x: sd.weak_conditional_entropy(rho, COMPUTATIONAL, x), id="weak_ce"),
            pytest.param(lambda rho, x: sd.weak_pair(COMPUTATIONAL, x), id="weak_pair"),
        ],
    )
    @pytest.mark.parametrize("x", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_rejects_int_strength_beyond_float_range(self, call, x, minimize_calls, kernel_calls):
        rho = sd.random_state(1)
        with pytest.raises(DomainError, match="beyond float range"):
            call(rho, x)
        assert minimize_calls == [] and kernel_calls == []  # rejected before any minimization
        assert rho._minima == {}

    @pytest.mark.parametrize("x", [np.float32(0.5), np.float64(0.5), np.int64(2), 2], ids=repr)
    def test_accepts_real_scalar_strength(self, x):
        assert sd.analyze(sd.random_state(1), x, FAST_CFG) == sd.analyze(sd.random_state(1), float(x), FAST_CFG)

    def test_refinement_out_of_iterations_raises(self, monkeypatch):
        rho = sd.random_state(1)
        gg, dd = np.meshgrid(
            np.linspace(0, math.pi, 64), np.linspace(0, 2 * math.pi, 64, endpoint=False), indexing="ij"
        )
        coef = measure.weak_coefficients(0.5)
        lattice_min = discord._batched_weak_ce(rho.as_tensor(), coef, gg.ravel(), dd.ravel()).min()
        monkeypatch.setattr(discord, "MAX_REFINE_ITERS", 3)
        with pytest.raises(NoConvergence) as exc:
            discord._minimize(rho, 0.5, DEFAULT_CONFIG)
        assert exc.value.best_value <= lattice_min

    def test_stalled_refinement_restarts_from_its_best_point(self, nm_runs):
        # at 16 x 16 the strong refinement of this state starts at (1.0472, 0), where the simplex
        # is 0.00025 wide in delta, and stalls at 0.749089212211
        rho = stalling_state()
        got = discord._minimize(rho, INFINITY, OptimizerConfig(16, 16)).value
        assert nm_runs == [False, True]
        assert got == pytest.approx(discord._minimize(rho, INFINITY, DEFAULT_CONFIG).value, abs=1e-9)
        assert nm_runs[2:] == [True]  # the 64 x 64 refinement needs no restart

    @pytest.mark.parametrize("x", [0.5, INFINITY])
    def test_minimum_on_a_pole_converges(self, x):
        # delta is degenerate on the pole: the values settle, the vertices never meet xatol
        rho = sd.validate(CLASSICAL, dim_a=2)
        res = discord._minimize(rho, x, DEFAULT_CONFIG)
        assert res.value == pytest.approx(classical_weak_ce(x) if x < INFINITY else 0.0, abs=1e-12)
        assert min(res.basis.gamma, math.pi - res.basis.gamma) < 1e-4

    def test_classical_state_discords_and_gap(self):
        rho = sd.validate(CLASSICAL, dim_a=2)
        rec = sd.verify_resurrection(rho, 0.5)
        assert rec.report.discord == pytest.approx(0.0, abs=1e-12)
        assert rec.report.super_discord == pytest.approx(0.618059342414, abs=1e-12)
        assert rec.report.super_discord <= rec.report.mutual_info == pytest.approx(binary_entropy(0.2))
        assert rec.gap == pytest.approx(0.0, abs=1e-12)

    def test_post_werner_minimizer_on_axis(self):
        post = sd.project_state(sd.werner(0.6), COMPUTATIONAL)
        basis, _ = sd.minimize_conditional_entropy(post, 0.5)
        assert min(basis.gamma, abs(math.pi - basis.gamma)) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_value_no_worse_than_sampled_bases(self, seed):
        rng = np.random.default_rng(seed)
        rho = sd.random_state(seed)
        _, vmin = sd.minimize_conditional_entropy(rho, 0.5, FAST_CFG)
        for _ in range(20):
            b = QubitBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert vmin <= sd.weak_conditional_entropy(rho, b, 0.5) + 1e-9


def stalling_state():
    """The 27th rank-4 Ginibre state of this seed, whose refinements stall at 16 x 16: the strong one,
    and the weak one at x = 2 but not at x = 0.1 or 0.5."""
    rng = np.random.default_rng([1, 2])
    for _ in range(27):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return sd.validate(g @ g.conj().T / np.trace(g @ g.conj().T).real, dim_a=2)


@pytest.fixture
def nm_runs(monkeypatch):
    """Whether each Nelder-Mead run (`discord._nm_steps`) ended in success or flat, in the order they end."""
    ended, inner = [], discord._nm_steps

    def recording(x0):
        res = yield from inner(x0)
        ended.append(res.success or res.flat)
        return res

    monkeypatch.setattr(discord, "_nm_steps", recording)
    return ended


def full_lattice(rho4, x, gg, dd, cfg):
    return discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)


def lattice(n_gamma, n_delta):
    gg, dd = np.meshgrid(
        np.linspace(0, math.pi, n_gamma), np.linspace(0, 2 * math.pi, n_delta, endpoint=False), indexing="ij"
    )
    return gg.ravel(), dd.ravel()


def lattice_summary(vals):
    """What `_minimize` reads off a scan: min, max, argmin and first FLAT_TOL tie, NaN not evaluated."""
    vmin = np.nanmin(vals)
    return vmin, np.nanmax(vals), int(np.nanargmin(vals)), int(np.flatnonzero(vals <= vmin + discord.FLAT_TOL)[0])


def assert_scan_contract(got, want, context):
    """A scan against the full lattice `want`: the same summary, the full scan's value with == at every
    evaluated point, and a value strictly inside (min + FLAT_TOL, max) at every point left NaN."""
    assert lattice_summary(got) == lattice_summary(want), context
    done = ~np.isnan(got)
    assert np.array_equal(got[done], want[done]), context
    skipped = want[~done]
    assert np.all((skipped > want.min() + discord.FLAT_TOL) & (skipped < want.max())), context


@pytest.fixture
def walks(monkeypatch):
    """Point counts of every block walk (`discord._blockwise`) while the test is active: the estimate's and the
    kernel's, in call order."""
    sizes = []
    inner = discord._blockwise

    def recording(dim_a, n, block):
        sizes.append(n)
        return inner(dim_a, n, block)

    monkeypatch.setattr(discord, "_blockwise", recording)
    return sizes


HEMISPHERE_GRIDS = [(64, 64), (16, 16), (7, 4), (5, 6), (3, 2), (4, 1), (5, 3)]
# A in {0, 2} with B = 0, A = 1 with B = 1: the minimum ties along a whole pole row
CLASSICAL_3 = np.diag([0.2, 0.0, 0.0, 0.5, 0.3, 0.0])
HEMISPHERE_CASES = [
    *[pytest.param(lambda d=dim_a: sd.random_state(d, dim_a=d, rank=2 * d), x, HEMISPHERE_GRIDS, id=f"{dim_a}-{x}")
      for dim_a in range(1, 9) for x in (0.0, 0.1, 0.5, 2.0, INFINITY)],
    *[pytest.param(lambda: sd.validate(CLASSICAL_3, dim_a=3), x, [(64, 64), (9, 7)], id=f"classical-3-{x}")
      for x in (0.5, INFINITY)],
]


class TestHemisphereScan:
    """`_lattice_values` against the full `_batched_weak_ce` lattice: equal with ==."""

    @pytest.mark.parametrize("make, x, grids", HEMISPHERE_CASES)
    def test_summary_matches_full_lattice(self, make, x, grids):
        rho4 = make().as_tensor()
        for n_gamma, n_delta in grids:
            gg, dd = lattice(n_gamma, n_delta)
            got = discord._lattice_values(rho4, x, gg, dd, OptimizerConfig(n_gamma, n_delta))
            want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
            assert_scan_contract(got, want, (n_gamma, n_delta))

    @pytest.mark.parametrize(
        "rho",
        [
            *[pytest.param(sd.random_state(seed, dim_a=dim_a, rank=2 * dim_a), id=f"random-{dim_a}-{seed}")
              for dim_a in (2, 3) for seed in range(3)],
            pytest.param(sd.pure_schmidt(0.2), id="pure"),
            pytest.param(sd.werner(0.6), id="werner"),
            pytest.param(sd.project_state(sd.werner(0.6), COMPUTATIONAL), id="post-werner"),
        ],
    )
    def test_minimize_matches_full_scan(self, rho, monkeypatch):
        cfgs = [DEFAULT_CONFIG, OptimizerConfig(16, 16), OptimizerConfig(5, 6)]
        cases = [(x, cfg) for x in (0.1, 0.5, 2.0, INFINITY) for cfg in cfgs]
        got = [discord._minimize(rho, x, cfg) for x, cfg in cases]
        monkeypatch.setattr(discord, "_lattice_values", full_lattice)
        fresh = sd.validate(rho.entries, rho.dim_a)  # rho keeps its minima, so the full scans need a new object
        assert got == [discord._minimize(fresh, x, cfg) for x, cfg in cases]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("x", [0.5, INFINITY])
    def test_even_lattice_scans_one_hemisphere(self, seed, x, walks, kernel_calls):
        # the estimate covers the upper rows, each lower point taking its antipode's value; the kernel gets the picks
        rho4 = sd.random_state(seed, dim_a=3, rank=6).as_tensor()
        discord._lattice_values(rho4, x, *lattice(64, 64), DEFAULT_CONFIG)
        assert walks == [4096 // 2, *kernel_calls]
        assert len(kernel_calls) == 1 and 2 <= kernel_calls[0] <= 64  # a one-row batch takes matmul's vector path

    @pytest.mark.parametrize("grid", [(4, 1), (5, 3), (64, 63)])
    def test_odd_lattice_width_scans_every_point(self, grid, walks, kernel_calls):
        # no point's antipode is on the lattice, so the estimate covers every point
        rho4 = sd.random_state(1, dim_a=3, rank=6).as_tensor()
        discord._lattice_values(rho4, 0.5, *lattice(*grid), OptimizerConfig(*grid))
        assert walks == [grid[0] * grid[1], *kernel_calls]
        assert len(kernel_calls) == 1 and kernel_calls[0] >= 2

    def test_flat_lattice_scans_every_point(self, kernel_calls):
        discord._lattice_values(sd.werner(0.6).as_tensor(), 0.5, *lattice(64, 64), DEFAULT_CONFIG)
        assert kernel_calls == [4096]

    def test_flat_lattice_scans_each_point_once(self, walks, kernel_calls):
        # t R = 0, as R = 0 for the maximally mixed state and t = 0 at x = 0: the estimate is one point,
        # every point is picked, and the kernel takes each once
        for rho, x in ((sd.validate(np.eye(6) / 6, dim_a=3), 0.5), (sd.random_state(1, dim_a=3, rank=6), 0.0)):
            walks.clear()
            kernel_calls.clear()
            discord._lattice_values(rho.as_tensor(), x, *lattice(64, 64), DEFAULT_CONFIG)
            assert kernel_calls == [4096] and walks == [1, 4096], x


def decohering_bases(seed):
    """A random basis, both poles and an equator point."""
    rng = np.random.default_rng(200 + seed)
    return [QubitBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), QubitBasis(0.0, 0.0),
            QubitBasis(math.pi, 0.0), QubitBasis(math.pi / 2, rng.uniform(0, 2 * math.pi))]


AXIAL_GRIDS = [(64, 64), (9, 7), (6, 6), (3, 1)]
# unmeasured states whose R_k lie along one axis: classically correlated, product, and every state at dim_a = 1
RANK_ONE_R_STATES = [
    pytest.param(lambda: sd.validate(CLASSICAL, dim_a=2), id="classical"),
    pytest.param(lambda: sd.validate(CLASSICAL_3, dim_a=3), id="classical-3"),
    pytest.param(lambda: sd.pure_schmidt(0.0), id="product"),
    *[pytest.param(lambda r=rank: sd.random_state(r, dim_a=1, rank=r), id=f"ginibre-dim1-rank{rank}")
      for rank in (1, 2)],
]


def bloch_table(rho4, x):
    """`_bloch_screen`'s table: ρ_A/2 and tanh(x) R_k/2, R_k = Tr_B[(I⊗σ_k)ρ], as real (4, 2 dim_a²) rows."""
    scales = [0.5, *[math.tanh(x) / 2] * 3]
    rows = [np.einsum("ibjc,cb->ij", rho4, s) * f for s, f in zip([np.eye(2), *discord.PAULI], scales)]
    return np.stack(rows).reshape(4, -1).view(float)


class TestAxialScan:
    """`_lattice_values` on states whose R_k lie along one axis, a measured state's among them, its estimate
    walking that axis, against the full `_batched_weak_ce` lattice: equal with ==."""

    # at x = 0 the estimate's t·R is zero, so the scan is flat: one point estimated for all
    @pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 2.0, INFINITY])
    @pytest.mark.parametrize("dim_a", range(1, 9))
    def test_summary_matches_full_lattice(self, dim_a, x):
        rho = sd.random_state(dim_a, dim_a=dim_a, rank=2 * dim_a)
        for basis in decohering_bases(dim_a):
            rho4 = sd.project_state(rho, basis).as_tensor()
            for n_gamma, n_delta in AXIAL_GRIDS:
                gg, dd = lattice(n_gamma, n_delta)
                got = discord._lattice_values(rho4, x, gg, dd, OptimizerConfig(n_gamma, n_delta))
                want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
                assert_scan_contract(got, want, (basis, n_gamma, n_delta))

    @pytest.mark.parametrize("z", [0.0, 0.6])
    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0])
    def test_werner_summary_matches_full_lattice(self, z, x):
        # z = 0 is the maximally mixed state, whose measured landscape is flat
        rho4 = sd.project_state(sd.werner(z), COMPUTATIONAL).as_tensor()
        for n_gamma, n_delta in AXIAL_GRIDS:
            gg, dd = lattice(n_gamma, n_delta)
            got = discord._lattice_values(rho4, x, gg, dd, OptimizerConfig(n_gamma, n_delta))
            want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
            assert_scan_contract(got, want, (n_gamma, n_delta))

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("dim_a", [2, 3, 8])
    def test_one_kernel_batch_per_scan(self, dim_a, x, kernel_calls):
        # the estimate walks the axis without the kernel, which then takes the picks in one multi-row batch
        rho = sd.random_state(dim_a, dim_a=dim_a, rank=2 * dim_a)
        for basis in decohering_bases(dim_a):
            kernel_calls.clear()
            rho4 = sd.project_state(rho, basis).as_tensor()
            discord._lattice_values(rho4, x, *lattice(64, 64), DEFAULT_CONFIG)
            assert len(kernel_calls) == 1 and 2 <= kernel_calls[0] <= 256, basis
        kernel_calls.clear()
        rho4 = sd.project_state(sd.werner(0.0), COMPUTATIONAL).as_tensor()  # a flat landscape: every point
        discord._lattice_values(rho4, x, *lattice(64, 64), DEFAULT_CONFIG)
        assert kernel_calls == [4096]

    @staticmethod
    def measured_state_points(rho, kernel_calls):
        """Points `verify_resurrection` passes to the kernel after `analyze`: the measured state's scan and refinement."""
        sd.analyze(rho, 0.5)
        kernel_calls.clear()
        sd.verify_resurrection(rho, 0.5)
        return sum(kernel_calls)

    @pytest.mark.parametrize("dim_a", [2, 8])
    def test_measured_state_point_budget(self, dim_a, kernel_calls):
        rho = sd.random_state(1, dim_a=dim_a, rank=2 * dim_a)
        assert self.measured_state_points(rho, kernel_calls) <= 256

    def test_flat_measured_state_scans_every_point(self, kernel_calls):
        # the maximally mixed state's measured landscape is flat: every point, nothing to refine
        assert self.measured_state_points(sd.werner(0.0), kernel_calls) == 4096

    @pytest.mark.parametrize(
        "rho",
        [
            *[pytest.param(sd.random_state(seed, dim_a=dim_a, rank=2 * dim_a), id=f"random-{dim_a}-{seed}")
              for dim_a in (2, 3) for seed in range(2)],
            pytest.param(sd.pure_schmidt(0.2), id="pure"),
            pytest.param(sd.werner(0.6), id="werner"),
        ],
    )
    def test_minimize_matches_hemisphere_scan(self, rho, monkeypatch):
        cases = [(x, cfg) for x in (0.1, 2.0) for cfg in (DEFAULT_CONFIG, OptimizerConfig(9, 7))]
        for basis in decohering_bases(0):
            post = sd.project_state(rho, basis)
            got = [discord._minimize(post, x, cfg) for x, cfg in cases]
            fresh = sd.validate(post.entries, post.dim_a)  # post keeps its minima: a new object scans again
            with monkeypatch.context() as m:
                m.setattr(discord, "_lattice_values", full_lattice)
                assert got == [discord._minimize(fresh, x, cfg) for x, cfg in cases], basis

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, INFINITY])
    @pytest.mark.parametrize("make", RANK_ONE_R_STATES)
    def test_unmeasured_state_walks_its_axis(self, make, x, screen_calls):
        rho4 = make().as_tensor()
        for n_gamma, n_delta in AXIAL_GRIDS:
            screen_calls.clear()
            gg, dd = lattice(n_gamma, n_delta)
            got = discord._lattice_values(rho4, x, gg, dd, OptimizerConfig(n_gamma, n_delta))
            want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
            assert_scan_contract(got, want, (n_gamma, n_delta))
            if (n_gamma, n_delta) == (64, 64):  # the walk's first round is a chunk from each end, not a hemisphere
                assert screen_calls[0] == 2 * discord.AXIAL_CHUNK

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_walk_threshold(self, factor, screen_calls):
        # a measured state plus an R component perpendicular to its axis, with the rows' second singular value at
        # factor x 1e-13 of the first: below the threshold the estimate walks the axis, above it the hemisphere
        rng = np.random.default_rng(7)
        basis = decohering_bases(3)[0]
        n = np.array(bloch(basis))
        e = np.cross(n, (0.0, 0.0, 1.0))
        sigma_e = np.einsum("k,kij->ij", e / np.linalg.norm(e), discord.PAULI)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        kick = np.kron(g + g.conj().T, sigma_e)  # traceless and Hermitian: it moves R_e alone
        post = sd.project_state(sd.random_state(3, dim_a=3, rank=6), basis).entries

        def ratio(eps):
            sv = np.linalg.svd(bloch_table(sd.validate(post + eps * kick, 3).as_tensor(), 0.5)[1:], compute_uv=False)
            return sv[1] / sv[0]

        eps = 1e-12 * factor * 1e-13 / ratio(1e-12)
        assert ratio(eps) == pytest.approx(factor * 1e-13, rel=0.05)
        rho4 = sd.validate(post + eps * kick, 3).as_tensor()
        for x in (0.5, INFINITY):
            for n_gamma, n_delta in AXIAL_GRIDS:
                screen_calls.clear()
                gg, dd = lattice(n_gamma, n_delta)
                got = discord._lattice_values(rho4, x, gg, dd, OptimizerConfig(n_gamma, n_delta))
                want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
                assert_scan_contract(got, want, (x, n_gamma, n_delta))
                if (n_gamma, n_delta) == (64, 64):
                    assert screen_calls[0] == (2 * discord.AXIAL_CHUNK if factor < 1 else 2048), x

    @pytest.mark.parametrize("dim_a", [2, 3, 8])
    def test_ginibre_state_scans_the_hemisphere(self, dim_a, screen_calls):
        # R_k of a Ginibre state span more than one axis at every rank, so no estimate walks
        for rank in range(1, 2 * dim_a + 1):
            screen_calls.clear()
            rho4 = sd.random_state(rank, dim_a=dim_a, rank=rank).as_tensor()
            discord._lattice_values(rho4, 0.5, *lattice(64, 64), DEFAULT_CONFIG)
            assert screen_calls == [2048], rank

    def test_flat_measured_state_estimates_once(self, screen_calls):
        # the maximally mixed state's measured state has R = 0: one estimate serves every point
        rho = sd.werner(0.0)
        sd.analyze(rho, 0.5)
        screen_calls.clear()
        sd.verify_resurrection(rho, 0.5)
        assert screen_calls == [1]

    def test_public_super_discord_walks_the_axis(self, screen_calls):
        # the measured state reached without the check walks its axis too, and gets the check's value
        rho = sd.random_state(3, dim_a=8, rank=8)
        rec = sd.verify_resurrection(rho, 0.5)
        screen_calls.clear()
        dw, _ = sd.super_discord(sd.project_state(rho, rec.strong_basis), 0.5)
        assert sum(screen_calls) <= 128
        assert dw == rec.post_super_discord == pytest.approx(0.336055646085, abs=1e-11)


SCREEN_STATES = [
    *[pytest.param(sd.random_state(seed, dim_a=2, rank=rank), id=f"ginibre-rank{rank}-{seed}")
      for rank in range(1, 5) for seed in range(2)],
    *[pytest.param(sd.pure_schmidt(lambda0), id=f"pure-{lambda0}") for lambda0 in (0.0, 0.2, 0.5)],
    *[pytest.param(sd.werner(z), id=f"werner-{z}") for z in (0.0, 0.6)],
    pytest.param(sd.validate(CLASSICAL, dim_a=2), id="classical"),  # its minimum is a pole tie
]
SCREEN_STRENGTHS = [0.0, 0.1, 0.5, 2.0, 8.0, INFINITY]
# the estimate at other dim_a, where eigvalsh gives its spectra; R = 0 for the maximally mixed state
ESTIMATE_STATES = [
    *SCREEN_STATES,
    *[pytest.param(sd.random_state(dim_a, dim_a=dim_a, rank=rank), id=f"ginibre-dim{dim_a}-rank{rank}")
      for dim_a in (1, 3, 8) for rank in (1, 2 * dim_a)],
    pytest.param(sd.validate(np.eye(6) / 6, dim_a=3), id="maximally-mixed-dim3"),
]


class TestBlochScreen:
    """`_lattice_values` at dim_a = 2, with the estimate's closed-form spectra, against the full lattice: equal
    with ==; and the estimate `_bloch_screen` at every dim_a against the kernel."""

    @pytest.mark.parametrize("x", SCREEN_STRENGTHS)
    @pytest.mark.parametrize("rho", SCREEN_STATES)
    def test_summary_matches_full_lattice(self, rho, x):
        rho4 = rho.as_tensor()
        for n_gamma, n_delta in AXIAL_GRIDS:
            gg, dd = lattice(n_gamma, n_delta)
            got = discord._lattice_values(rho4, x, gg, dd, OptimizerConfig(n_gamma, n_delta))
            want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
            assert_scan_contract(got, want, (n_gamma, n_delta))

    @pytest.mark.parametrize("rho", ESTIMATE_STATES)
    def test_screen_is_the_kernel_within_rounding(self, rho):
        # the screen's 1e-8 margins must cover this gap many times over
        rho4, (gg, dd) = rho.as_tensor(), lattice(64, 64)
        for x in SCREEN_STRENGTHS:
            want = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gg, dd)
            gap = np.abs(discord._bloch_screen(bloch_table(rho4, x), gg, dd) - want)
            assert gap.max() <= 1e-12, x

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_lattice_sends_few_points(self, seed, kernel_calls):
        # at every dim_a, on an even lattice (one hemisphere estimated) and on odd widths (every point)
        for dim_a in (2, 3, 8):
            rho4 = sd.random_state(seed, dim_a=dim_a, rank=2 * dim_a).as_tensor()
            for grid in ((64, 64), (9, 7), (64, 63)):
                kernel_calls.clear()
                discord._lattice_values(rho4, 0.5, *lattice(*grid), OptimizerConfig(*grid))
                # one multi-row batch, as in the full scan
                assert len(kernel_calls) == 1 and 2 <= kernel_calls[0] <= 64, (dim_a, grid)


class TestDiscordMeasures:
    def test_pure_discord_is_entanglement_entropy(self):
        ds, _ = sd.super_discord(sd.pure_schmidt(0.2), INFINITY)
        assert ds == pytest.approx(binary_entropy(0.2), abs=1e-8)

    def test_product_state_zero_discord(self):
        rho = tensor(np.diag([0.2, 0.8]), np.diag([0.3, 0.7]))
        ds, _ = sd.super_discord(rho, INFINITY)
        assert ds == pytest.approx(0.0, abs=1e-9)

    def test_bell_discord_one(self):
        ds, _ = sd.super_discord(sd.werner(1.0), INFINITY)
        assert ds == pytest.approx(1.0, abs=1e-8)

    def test_bell_super_discord_x02(self):
        dw, _ = sd.super_discord(sd.pure_schmidt(0.5), 0.2)
        expected = 1.0 + binary_entropy((1 + math.tanh(0.2)) / 2)
        assert dw == pytest.approx(expected, abs=1e-8)
        assert dw == pytest.approx(1.9717, abs=1e-3)

    def test_super_discord_at_zero_is_mutual_info(self):
        rho = sd.random_state(7)
        dw, _ = sd.super_discord(rho, 0.0)
        assert dw == pytest.approx(sd.mutual_information(rho), abs=1e-9)

    @pytest.mark.parametrize("z", [0.4, 0.8])
    def test_werner_super_discord_closed_form(self, z):
        x = 0.5
        dw, _ = sd.super_discord(sd.werner(z), x)
        cond = sd.quantum_conditional_entropy(sd.werner(z))
        expected = binary_entropy((1 + z * math.tanh(x)) / 2) - cond
        assert dw == pytest.approx(expected, abs=1e-8)

    def test_extra_correlation_headline(self):
        delta = sd.analyze(sd.pure_schmidt(0.2), 0.2).delta
        assert delta == pytest.approx(0.7010, abs=1e-3)

    def test_extra_correlation_vanishes_at_infinity(self):
        assert sd.analyze(sd.random_state(3), INFINITY).delta == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("x", [0.2, 0.8])
    def test_bell_extra_correlation_closed_form(self, x):
        delta = sd.analyze(sd.pure_schmidt(0.5), x).delta
        assert delta == pytest.approx(binary_entropy((1 + math.tanh(x)) / 2), abs=1e-8)

    def test_readme_library_sketch(self):
        # the sketch runs against the public API, and its commented values hold
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        [sketch] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        names = {}
        exec(sketch, names)
        rho, rec = names["rho"], names["rec"]
        assert names["delta"] == pytest.approx(0.70102, abs=1e-5)
        assert rec.post_super_discord == pytest.approx(0.70102, abs=1e-5)
        assert rec.gap < 1e-12
        assert rec.report == sd.analyze(rho, x=0.2)


PAULIS = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
# correlation vectors c of the four Bell states; a Bell-diagonal state's c is their convex mixture
BELL_CORRELATIONS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


class TestBellDiagonal:
    """ρ = (I + Σ c_i σ_i⊗σ_i)/4 with c = max|c_i| (Luo, PRA 77, 042303 (2008)):
    D_s = h2((1+c)/2) + 1 − S(AB) and D_w = h2((1+c·tanh x)/2) + 1 − S(AB).

    Unlike the pure and Werner families, the strong landscape is not flat: its
    minimum sits on the axis of the largest |c_i|, where the weak one sits too,
    so the resurrection gap is zero.
    """

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("seed", range(12))
    def test_closed_form(self, seed, x):
        c = np.random.default_rng(seed).dirichlet(np.ones(4)) @ BELL_CORRELATIONS
        m = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4
        rho = sd.validate(m, dim_a=2)
        c_max = np.abs(c).max()
        s_ab = sd.von_neumann_entropy(rho.entries)
        rec = sd.verify_resurrection(rho, x, FAST_CFG)
        assert rec.report.discord == pytest.approx(binary_entropy((1 + c_max) / 2) + 1 - s_ab, abs=1e-12)
        assert rec.report.super_discord == pytest.approx(
            binary_entropy((1 + c_max * math.tanh(x)) / 2) + 1 - s_ab, abs=1e-12
        )
        assert not rec.ambiguous_minimizer
        assert rec.gap <= 1e-12


def x_state(seed):
    """A two-qubit X state: a Dirichlet diagonal (a, b, c, d), real coherences 0 ≤ z ≤ √(ad) and 0 ≤ w ≤ √(bc)."""
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.dirichlet(np.ones(4))
    m = np.diag([a, b, c, d])
    m[0, 3] = m[3, 0] = rng.uniform() * math.sqrt(a * d)
    m[1, 2] = m[2, 1] = rng.uniform() * math.sqrt(b * c)
    return sd.validate(m, dim_a=2)


class TestXStates:
    """X states (Ali, Rau & Alber, PRA 81, 042105 (2010); Chen et al., PRA 84, 042313 (2011)),
    used one-sided: each minimum is at most its value at σ_z and at σ_x, the candidate
    bases of the closed forms. σ_x, γ = π/2, is not on the default lattice's 64 γ points,
    so the refinement must reach it. Where the strong and weak minimizers share an axis,
    the resurrection gap is zero.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_minima_within_candidates(self, seed):
        rho = x_state(seed)
        rec = sd.verify_resurrection(rho, 0.5)
        rep = rec.report
        for x, value in ((INFINITY, rep.discord), (0.5, rep.super_discord)):
            candidates = [sd.weak_conditional_entropy(rho, b, x) - rep.conditional_entropy_qq
                          for b in (COMPUTATIONAL, QubitBasis(math.pi / 2, 0.0))]
            assert value <= min(candidates) + 1e-12, x
        if same_basis(rep.strong_basis, rep.weak_basis):
            assert rec.gap <= 1e-9


class TestAnalyze:
    def test_report_consistency(self):
        rep = sd.analyze(sd.werner(0.7), 0.5)
        assert rep.delta == rep.super_discord - rep.discord
        assert rep.mutual_info + 1e-6 >= rep.super_discord >= rep.discord - 1e-6 >= -1e-6

    def test_negative_conditional_entropy_for_entangled(self):
        rep = sd.analyze(sd.pure_schmidt(0.5), 0.5)
        assert rep.conditional_entropy_qq == pytest.approx(-1.0, abs=1e-9)


class TestResurrection:
    def test_pure_headline(self):
        rec = sd.verify_resurrection(sd.pure_schmidt(0.2), 0.2)
        assert rec.delta == pytest.approx(0.7010, abs=1e-3)
        assert rec.post_super_discord == pytest.approx(0.7010, abs=1e-3)
        assert rec.gap <= 1e-6
        assert rec.ambiguous_minimizer  # strong landscape of a pure state is flat

    @pytest.mark.parametrize("z", [0.3, 0.6, 0.9])
    def test_werner(self, z):
        rec = sd.verify_resurrection(sd.werner(z), 0.5)
        assert rec.gap <= 1e-6
        assert rec.coincidence

    def test_bell(self):
        rec = sd.verify_resurrection(sd.pure_schmidt(0.5), 0.4)
        assert rec.gap <= 1e-6
        assert rec.coincidence
        assert rec.post_super_discord == pytest.approx(
            binary_entropy((1 + math.tanh(0.4)) / 2), abs=1e-8
        )

    def test_generic_gap_is_weak_entropy_excess_in_strong_basis(self):
        # a generic state whose weak and strong minimizing bases differ
        rho = sd.random_state(12, dim_a=2, rank=4)
        rec = sd.verify_resurrection(rho, 1.0)
        weak_basis, weak_min = sd.minimize_conditional_entropy(rho, 1.0)
        excess = sd.weak_conditional_entropy(rho, rec.strong_basis, 1.0) - weak_min
        assert rec.gap == pytest.approx(excess, abs=1e-9)
        assert rec.gap == pytest.approx(3.18e-3, abs=1e-5)
        assert not same_basis(weak_basis, rec.strong_basis)
        assert rec.post_super_discord >= rec.delta

    def test_rejects_bad_strength(self):
        with pytest.raises(ValueError):
            sd.verify_resurrection(sd.pure_schmidt(0.5), 0.0)
        with pytest.raises(ValueError):
            sd.verify_resurrection(sd.pure_schmidt(0.5), INFINITY)
        with pytest.raises(DomainError):
            sd.verify_resurrection(sd.pure_schmidt(0.5), math.nan)

    @pytest.mark.parametrize(
        "rho, x", [(sd.random_state(12, dim_a=2, rank=4), 1.0), (sd.werner(0.6), 0.5)]
    )
    def test_report_is_analyze(self, rho, x):
        assert sd.verify_resurrection(rho, x).report == sd.analyze(rho, x)


class TestMinimizationCount:
    # strong and weak minima are computed once and shared; the check adds one
    def test_analyze(self, minimize_calls):
        sd.analyze(sd.random_state(2), 0.5, FAST_CFG)
        assert minimize_calls == [INFINITY, 0.5]

    def test_extra_correlation(self, minimize_calls):
        sd.analyze(sd.random_state(2), 0.5, FAST_CFG).delta
        assert minimize_calls == [INFINITY, 0.5]

    def test_verify_resurrection(self, minimize_calls):
        sd.verify_resurrection(sd.random_state(2), 0.5, FAST_CFG)
        assert minimize_calls == [INFINITY, 0.5, 0.5]

    # at x = INFINITY the weak minimum is the strong one
    def test_analyze_at_infinity(self, minimize_calls):
        rep = sd.analyze(sd.random_state(2), INFINITY, FAST_CFG)
        assert minimize_calls == [INFINITY]
        assert (rep.delta, rep.weak_basis) == (0.0, rep.strong_basis)

    def test_extra_correlation_at_infinity(self, minimize_calls):
        sd.analyze(sd.random_state(2), INFINITY, FAST_CFG).delta
        assert minimize_calls == [INFINITY]

    # a state object keeps every minimum found for it, keyed by (x, cfg)
    def test_verify_resurrection_after_analyze(self, minimize_calls):
        rho = sd.random_state(2)
        rep = sd.analyze(rho, 0.5, FAST_CFG)
        assert sd.verify_resurrection(rho, 0.5, FAST_CFG).report == rep
        assert minimize_calls == [INFINITY, 0.5, 0.5]

    def test_discords_after_analyze(self, minimize_calls):
        rho = sd.random_state(2)
        rep = sd.analyze(rho, 0.5, FAST_CFG)
        assert sd.super_discord(rho, INFINITY, FAST_CFG) == (rep.discord, rep.strong_basis)
        assert sd.super_discord(rho, INFINITY, FAST_CFG) == (rep.discord, rep.strong_basis)
        assert sd.super_discord(rho, 0.5, FAST_CFG) == (rep.super_discord, rep.weak_basis)
        assert minimize_calls == [INFINITY, 0.5]

    def test_new_object_and_new_config_recompute(self, minimize_calls):
        rho = sd.random_state(2)
        sd.minimize_conditional_entropy(rho, 0.5, FAST_CFG)
        sd.minimize_conditional_entropy(sd.validate(rho.entries, dim_a=2), 0.5, FAST_CFG)
        sd.minimize_conditional_entropy(rho, 0.5, OptimizerConfig(16, 16))
        sd.minimize_conditional_entropy(rho, 0.5, OptimizerConfig(32, 32))
        assert minimize_calls == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("x", [0.0, 0.5, INFINITY])
    def test_kept_minimum_equals_fresh(self, x):
        rho = sd.random_state(4, dim_a=3, rank=6)
        kept = sd.minimize_conditional_entropy(rho, x, FAST_CFG)
        assert sd.minimize_conditional_entropy(rho, x, FAST_CFG) == kept
        assert rho._minima[x, FAST_CFG] == discord._minimize(sd.validate(rho.entries, dim_a=3), x, FAST_CFG)
        assert (rho._minima[x, FAST_CFG].basis, rho._minima[x, FAST_CFG].value) == kept

    @pytest.mark.parametrize("x", [0.5, INFINITY])
    def test_minimize_keeps_its_minimum(self, x, kernel_calls, minimize_calls):
        rho = sd.random_state(2)
        first = discord._minimize(rho, x, FAST_CFG)
        kernel_calls.clear()
        assert discord._minimize(rho, x, FAST_CFG) == first
        assert sd.super_discord(rho, x, FAST_CFG)[1] == first.basis
        assert kernel_calls == [] and minimize_calls == [x]

    def test_failure_is_not_kept(self, minimize_calls, monkeypatch):
        rho = sd.random_state(2)
        with monkeypatch.context() as m:
            m.setattr(discord, "MAX_REFINE_ITERS", 3)  # the refinement runs out of iterations
            with pytest.raises(NoConvergence):
                sd.super_discord(rho, 0.5, FAST_CFG)
        with pytest.raises(NegativeStrength):
            sd.super_discord(rho, -1.0, FAST_CFG)
        assert rho._minima == {}
        sd.super_discord(rho, 0.5, FAST_CFG)
        sd.super_discord(rho, 0.5, FAST_CFG)
        assert minimize_calls == [0.5, 0.5]  # the failed minimization, then the one that is kept


def outcome(call):
    """The repr of what a minimization returns, or of the exception it raises."""
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:
        return repr(exc)


JOINT_STATES = [
    *[pytest.param(lambda d=dim_a: sd.random_state(30 + d, dim_a=d, rank=2 * d), id=f"ginibre-{dim_a}")
      for dim_a in range(1, 9)],
    pytest.param(lambda: sd.validate(CLASSICAL, dim_a=2), id="classical-pole-tie"),
    pytest.param(lambda: sd.random_state(40, rank=1), id="rank-1"),
    pytest.param(lambda: sd.werner(0.0), id="werner-0"),
    pytest.param(lambda: sd.werner(0.6), id="werner-0.6"),
]


class TestJointMinimization:
    """`_minima` at (INFINITY, x) against `_minimize` alone at each strength, on new objects: equal by repr."""

    @pytest.mark.parametrize("grid", [(64, 64), (9, 7), (6, 6), (3, 1)], ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize("make", JOINT_STATES)
    def test_joint_equals_alone(self, make, grid):
        rho, cfg = make(), OptimizerConfig(*grid)
        strong = outcome(lambda: discord._minimize(rho, INFINITY, cfg))
        for x in (0.0, 0.1, 0.5, 2.0):
            weak = outcome(lambda: discord._minimize(rho, x, cfg))
            joint = make()
            # a minimum `_minima` does not keep is the one whose NoConvergence it raises; no case here fails twice
            raised = outcome(lambda: discord._minima(joint, [INFINITY, x], cfg))
            found = [joint._minima.get((s, cfg)) for s in (INFINITY, x)]
            for res in found:  # a point a scan left NaN never reaches a result
                if res is not None:
                    assert np.isfinite([res.value, res.grid_spread, res.basis.gamma, res.basis.delta]).all(), x
            assert [raised if res is None else repr(res) for res in found] == [strong, weak], x

    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_joint_equals_alone_with_restarts(self, x, nm_runs, monkeypatch):
        # at 16 x 16 the strong run of this state restarts, and at x = 2 the weak one too
        cfg = OptimizerConfig(16, 16)
        alone = [outcome(lambda: discord._minimize(stalling_state(), s, cfg)) for s in (INFINITY, x)]
        inner, calls = discord._nm_minimize, []

        def counting(fun, runs):
            calls.append(len(runs))
            return inner(fun, runs)

        monkeypatch.setattr(discord, "_nm_minimize", counting)
        del nm_runs[:]
        found = discord._minima(stalling_state(), [INFINITY, x], cfg)
        assert calls == [2]  # one call runs both refinements, the restarts included
        assert nm_runs.count(False) == (1 if x == 0.5 else 2)
        assert [repr(res) for res in found] == alone

    def test_analyze_raises_the_strong_failure(self, monkeypatch):
        rho = sd.random_state(1)
        monkeypatch.setattr(discord, "MAX_REFINE_ITERS", 3)
        with pytest.raises(NoConvergence) as alone:
            discord._minimize(rho, INFINITY, DEFAULT_CONFIG)
        with pytest.raises(NoConvergence) as joint:
            sd.analyze(rho, 0.5)
        assert (str(joint.value), joint.value.best_value) == (str(alone.value), alone.value.best_value)
        assert str(joint.value).startswith("basis refinement stopped before reaching tol 1e-08 (best value ")
        assert rho._minima == {}  # both refinements ran out of iterations

    def test_a_success_is_kept_beside_a_failure(self, monkeypatch):
        # at x = 0 the weak lattice is flat, so that minimum needs no refinement and succeeds
        rho = sd.random_state(1)
        monkeypatch.setattr(discord, "MAX_REFINE_ITERS", 3)
        with pytest.raises(NoConvergence):
            sd.analyze(rho, 0.0)
        assert list(rho._minima) == [(0.0, DEFAULT_CONFIG)]
        monkeypatch.undo()
        fresh = sd.validate(rho.entries, dim_a=2)
        assert rho._minima[0.0, DEFAULT_CONFIG] == discord._minimize(fresh, 0.0, DEFAULT_CONFIG)


class TestJointRefinementCalls:
    """Both refinements share each kernel call: as many calls as the longer one, and every point of both."""

    @staticmethod
    def refinement_calls(monkeypatch, run):
        sizes, inner = [], discord._batched_weak_ce

        def counting(rho4, x, gammas, deltas):
            if gammas.ndim == 2:  # the refinement's points, on a batch axis
                sizes.append(len(gammas))
            return inner(rho4, x, gammas, deltas)

        monkeypatch.setattr(discord, "_batched_weak_ce", counting)
        run()
        monkeypatch.undo()
        return len(sizes), sum(sizes)

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("seed, dim_a", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
    def test_one_call_per_round(self, seed, dim_a, x, monkeypatch):
        rho = sd.random_state(seed, dim_a=dim_a, rank=4)

        def fresh():  # a state object keeps its minima, so each minimization gets a new one
            return sd.validate(rho.entries, dim_a)

        strong = self.refinement_calls(monkeypatch, lambda: discord._minimize(fresh(), INFINITY, FAST_CFG))
        weak = self.refinement_calls(monkeypatch, lambda: discord._minimize(fresh(), x, FAST_CFG))
        joint = self.refinement_calls(monkeypatch, lambda: sd.analyze(fresh(), x, FAST_CFG))
        assert strong[0] > 0 and weak[0] > 0  # both lattices refine
        assert joint == (max(strong[0], weak[0]), strong[1] + weak[1])


class TestEnsembleProperties:
    # acceptance runs the full-size versions; these are fast smoke checks
    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich(self, seed):
        rho = sd.random_state(seed)
        mi = sd.mutual_information(rho)
        ds, _ = sd.super_discord(rho, INFINITY, FAST_CFG)
        for x in (0.1, 0.5, 1.0):
            dw, _ = sd.super_discord(rho, x, FAST_CFG)
            assert mi + 1e-6 >= dw >= ds - 1e-6 >= -1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_monotonic_in_strength(self, seed):
        rho = sd.random_state(seed)
        values = [sd.super_discord(rho, x, FAST_CFG)[0] for x in (0.1, 0.2, 0.5, 1, 2, 5)]
        assert all(a + 1e-6 >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", range(3))
    def test_local_unitary_invariance(self, seed, rng):
        rho = sd.random_state(seed)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = sd.validate(u @ rho.entries @ u.conj().T, dim_a=2)
        assert sd.super_discord(rotated, INFINITY)[0] == pytest.approx(sd.super_discord(rho, INFINITY)[0], abs=1e-6)
        assert sd.super_discord(rotated, 0.5)[0] == pytest.approx(
            sd.super_discord(rho, 0.5)[0], abs=1e-6
        )


def rosenbrock(p):
    return (1 - p[0]) ** 2 + 100 * (p[1] - p[0] ** 2) ** 2


def weak_ce_objective(seed, x):
    return weak_ce_objective_of(sd.random_state(seed), x)


def weak_ce_objective_of(rho, x):
    rho4, coef = rho.as_tensor(), measure.weak_coefficients(x)
    return lambda p: float(discord._batched_weak_ce(rho4, coef, np.array([p[0]]), np.array([p[1]]))[0])


def pointwise(fun):
    """The list-of-(run, point)-pairs objective `_nm_minimize` takes, from a scalar function."""
    return lambda pairs: [fun(p) for _, p in pairs]


class TestNelderMeadPort:
    """`_nm_minimize` against scipy's Nelder-Mead at the refinement's fixed settings:
    equal with ==, not approx."""

    @pytest.mark.parametrize(
        "fun, x0, maxiter",
        [
            *[pytest.param(weak_ce_objective(seed, x), (0.7, 1.3), 500, id=f"weak-ce-{seed}-x{x}")
              for seed in range(3) for x in (0.5, INFINITY)],
            pytest.param(weak_ce_objective(4, 0.5), (0.0, 2.0), 500, id="weak-ce-pole"),
            pytest.param(weak_ce_objective(5, INFINITY), (1.2, 0.0), 500, id="weak-ce-delta0"),
            pytest.param(rosenbrock, (-1.2, 1.0), 500, id="rosenbrock"),
            pytest.param(rosenbrock, (0.0, 0.0), 500, id="rosenbrock-origin"),
            pytest.param(rosenbrock, (-1.2, 1.0), 5, id="maxiter5"),
        ],
    )
    def test_matches_scipy(self, fun, x0, maxiter, monkeypatch):
        minimize = pytest.importorskip("scipy.optimize").minimize
        monkeypatch.setattr(discord, "MAX_REFINE_ITERS", maxiter)
        options = {"xatol": 1e-8, "fatol": 1e-8, "maxiter": maxiter, "maxfev": 4 * maxiter}
        ref = minimize(fun, list(x0), method="Nelder-Mead", options=options)
        (res,) = discord._nm_minimize(pointwise(fun), [discord._nm_steps(x0)])
        assert (tuple(res.x), res.fun, res.nfev, res.success) == (
            tuple(ref.x), ref.fun, ref.nfev, ref.success
        )
        assert res.nfev <= 4 * maxiter - 1  # so scipy's maxfev = 4 * maxiter never binds

    @pytest.mark.parametrize("x", [0.5, INFINITY])
    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_points_share_calls(self, dim_a, x, monkeypatch):
        # the reflected point and the inside contraction go in one call, the step most iterations take
        inner, counts = discord._nm_steps, []

        def counting(x0):
            steps, calls, values = inner(x0), 0, None
            try:
                while True:
                    points = steps.send(values)
                    calls += 1
                    values = yield points
            except StopIteration as done:
                counts.append((calls, done.value.nfev))
                return done.value

        monkeypatch.setattr(discord, "_nm_steps", counting)
        for seed in range(3):
            discord._minimize(sd.random_state(seed, dim_a=dim_a, rank=4), x, FAST_CFG)
        assert len(counts) == 3
        assert all(calls < 0.7 * nfev for calls, nfev in counts), counts

    def test_lockstep_runs_match_scipy_alone(self):
        # three objectives routed by run index, in one call, finishing in different rounds
        minimize = pytest.importorskip("scipy.optimize").minimize
        options = {"xatol": 1e-8, "fatol": 1e-8, "maxiter": 500, "maxfev": 2000}
        funs = [rosenbrock, weak_ce_objective(0, 0.5), weak_ce_objective(1, INFINITY)]
        starts = [(-1.2, 1.0), (0.7, 1.3), (1.2, 0.0)]

        def counted(fun, calls):
            def counting(pairs):
                calls.append(len(pairs))
                return fun(pairs)
            return counting

        alone = []
        for fun, x0 in zip(funs, starts):
            calls = []
            discord._nm_minimize(counted(pointwise(fun), calls), [discord._nm_steps(x0)])
            alone.append(calls)
        assert len({len(calls) for calls in alone}) == len(alone)  # each run ends in its own round
        calls = []
        runs = [discord._nm_steps(x0) for x0 in starts]
        results = discord._nm_minimize(counted(lambda pairs: [funs[r](p) for r, p in pairs], calls), runs)
        assert len(results) == len(starts)
        for fun, x0, res in zip(funs, starts, results):
            ref = minimize(fun, list(x0), method="Nelder-Mead", options=options)
            assert (tuple(res.x), res.fun, res.nfev, res.success) == (
                tuple(ref.x), ref.fun, ref.nfev, ref.success
            )
        assert len(calls) == max(len(c) for c in alone)
        assert sum(calls) == sum(sum(c) for c in alone)  # every run's points, each once

    def test_failure_branches_reached(self, monkeypatch):
        monkeypatch.setattr(discord, "MAX_REFINE_ITERS", 5)
        assert not discord._nm_minimize(pointwise(rosenbrock), [discord._nm_steps((-1.2, 1.0))])[0].success

    def test_flat_simplex_without_success(self):
        # on the pole the values settle at 0 while delta wanders
        fun = weak_ce_objective_of(sd.validate(CLASSICAL, dim_a=2), INFINITY)
        (res,) = discord._nm_minimize(pointwise(fun), [discord._nm_steps((0.0, 0.0))])
        assert (res.success, res.flat, res.fun) == (False, True, 0.0)

    def test_success_is_flat(self, monkeypatch):
        assert discord._nm_minimize(pointwise(rosenbrock), [discord._nm_steps((-1.2, 1.0))])[0].flat
        monkeypatch.setattr(discord, "MAX_REFINE_ITERS", 5)
        assert not discord._nm_minimize(pointwise(rosenbrock), [discord._nm_steps((-1.2, 1.0))])[0].flat


def einsum_weak_ce(rho4, x, gammas, deltas):
    """The kernel as first written: one optimized three-operand einsum per outcome."""
    t = math.tanh(x)
    ap, am = math.sqrt((1 - t) / 2), math.sqrt((1 + t) / 2)
    kets = np.stack([np.cos(gammas / 2), np.exp(1j * deltas) * np.sin(gammas / 2)], axis=-1)
    proj = kets[:, :, None] * kets.conj()[:, None, :]
    vals = np.zeros(len(gammas))
    for c_phi, c_bar in ((ap, am), (am, ap)):
        ops = c_bar * np.eye(2) + (c_phi - c_bar) * proj
        m = np.einsum("gab,ibjc,gca->gij", ops, rho4, ops, optimize=True)
        p = np.real(np.einsum("gii->g", m))
        lam = np.linalg.eigvalsh(m)
        live = p > measure.DEGENERATE_PROB
        lam = np.clip(np.where(live[:, None], lam / np.maximum(p, 1e-300)[:, None], 0.0), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0.0, lam * np.log2(lam), 0.0)
        vals += np.where(live, -p * terms.sum(axis=-1), 0.0)
    return vals


# numpy 2.4's einsum planner runs exactly the kernel's two matmuls, so there the two
# kernels agree bit for bit; another numpy may plan the contraction differently, and
# then only rounding-level agreement can be asked for.
KERNEL_EXACT = np.__version__.startswith("2.4.")


class TestKernelPort:
    """`_batched_weak_ce` against the einsum kernel it replaced: equal with == on numpy 2.4."""

    @pytest.mark.parametrize("x", [0.0, 0.1, 2.0, INFINITY])
    @pytest.mark.parametrize("dim_a", range(1, 9))
    def test_matches_einsum(self, dim_a, x):
        rng = np.random.default_rng(dim_a)
        rho4 = sd.random_state(dim_a, dim_a=dim_a, rank=min(4, 2 * dim_a)).as_tensor()
        batches = []
        for n_gamma, n_delta in ((3, 1), (5, 4), (16, 16)):
            gg, dd = np.meshgrid(
                np.linspace(0, math.pi, n_gamma),
                np.linspace(0, 2 * math.pi, n_delta, endpoint=False),
                indexing="ij",
            )
            batches.append((gg.ravel(), dd.ravel()))
        points = [(0.0, 0.0), (math.pi, 0.0), (0.0, 1.3), (math.pi, 4.0)]
        points += [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(8)]
        batches += [(np.array([g]), np.array([d])) for g, d in points]
        for gammas, deltas in batches:
            got = discord._batched_weak_ce(rho4, measure.weak_coefficients(x), gammas, deltas)
            ref = einsum_weak_ce(rho4, x, gammas, deltas)
            if KERNEL_EXACT:
                assert np.array_equal(got, ref), (gammas, deltas)
            else:
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("x", [0.0, 0.1, 2.0, INFINITY])
    @pytest.mark.parametrize("dim_a", range(1, 9))
    def test_weak_scalar_is_the_kernel(self, dim_a, x):
        rho, coef = sd.random_state(dim_a, dim_a=dim_a, rank=min(4, 2 * dim_a)), measure.weak_coefficients(x)
        for g, d in kernel_points(dim_a):
            want = discord._batched_weak_ce(rho.as_tensor(), coef, np.array([g]), np.array([d]))[0]
            assert sd.weak_conditional_entropy(rho, QubitBasis(g, d), x) == want, (g, d)

    @pytest.mark.parametrize("dim_a", range(1, 9))
    def test_strong_scalar_is_weak_at_infinity(self, dim_a):
        rho, coef = sd.random_state(dim_a, dim_a=dim_a, rank=min(4, 2 * dim_a)), measure.weak_coefficients(INFINITY)
        for g, d in kernel_points(dim_a):
            b = QubitBasis(g, d)
            strong = sd.weak_conditional_entropy(rho, b, INFINITY)
            assert strong == sd.weak_conditional_entropy(rho, b, INFINITY), (g, d)
            assert strong == discord._batched_weak_ce(rho.as_tensor(), coef, np.array([g]), np.array([d]))[0]

    @pytest.mark.parametrize("dim_a", range(1, 9))
    def test_outcomes_match_einsum(self, dim_a):
        rho = sd.random_state(dim_a, dim_a=dim_a, rank=min(4, 2 * dim_a))
        for g, d in kernel_points(dim_a):
            b = QubitBasis(g, d)
            cases = [(sd.projective_outcomes(rho, b), sd.projectors(b))]
            for x in (0.0, 0.1, 2.0, INFINITY):
                pair = sd.weak_pair(b, x)
                cases.append((sd.weak_outcomes(rho, pair), (pair[0], pair[1])))
            for outcomes, ops in cases:
                for o, op in zip(outcomes, ops):
                    m = np.einsum("ab,ibjc,ca->ij", op, rho.as_tensor(), op)
                    p = np.trace(m).real
                    assert o.probability == pytest.approx(p, rel=0, abs=1e-14)
                    np.testing.assert_allclose(o.conditional_state, m / p, rtol=0, atol=1e-14)


class TestKernelBlocks:
    """`_batched_weak_ce` on flat batches of several blocks against one `_weak_ce_block` pass: equal with ==."""

    @staticmethod
    def block_size(dim_a):
        return max(2, discord.BLOCK_BYTES // (32 * dim_a * dim_a))

    @pytest.mark.parametrize("x", [0.0, 0.5, INFINITY])
    @pytest.mark.parametrize("dim_a", [1, 3, 5, 7, 8])
    def test_blocks_equal_one_pass(self, dim_a, x):
        rho4 = sd.random_state(dim_a, dim_a=dim_a, rank=2 * dim_a).as_tensor()
        rng, coef = np.random.default_rng(dim_a), measure.weak_coefficients(x)
        for n in (2 * self.block_size(dim_a) + r for r in (0, 1, 2)):  # n = 0, 1 and 2 (mod B)
            gammas, deltas = rng.uniform(0, math.pi, n), rng.uniform(0, 2 * math.pi, n)
            want = discord._weak_ce_block(rho4, coef, gammas, deltas)
            assert np.array_equal(discord._batched_weak_ce(rho4, coef, gammas, deltas), want), n

    @pytest.mark.parametrize("dim_a", [3, 8])
    def test_blocks_are_bounded_and_never_one_row(self, dim_a, monkeypatch):
        rho4 = sd.random_state(1, dim_a=dim_a, rank=2 * dim_a).as_tensor()
        size, sizes = self.block_size(dim_a), []
        inner = discord._weak_ce_block

        def recording(rho4, x, gammas, deltas):
            sizes.append(len(gammas))
            return inner(rho4, x, gammas, deltas)

        monkeypatch.setattr(discord, "_weak_ce_block", recording)
        for n, blocks in ((size + 1, 1), (2 * size, 2), (2 * size + 1, 2), (2 * size + 2, 3)):
            sizes.clear()
            gg, dd = lattice(n, 1)
            discord._batched_weak_ce(rho4, measure.weak_coefficients(0.5), gg, dd)
            assert len(sizes) == blocks and sum(sizes) == n, (n, sizes)
            assert min(sizes) >= 2 and max(sizes) <= size + 1, (n, sizes)

    def test_lattice_call_memory_is_bounded(self):
        rho4 = sd.random_state(1, dim_a=16, rank=32).as_tensor()
        gg, dd = lattice(64, 64)
        assert 32 * 16**2 * len(gg) >= 8 * discord.BLOCK_BYTES  # what one pass would hold: 32 MiB
        tracemalloc.start()
        try:
            discord._batched_weak_ce(rho4, measure.weak_coefficients(0.5), gg, dd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * discord.BLOCK_BYTES

    def test_lattice_scan_memory_is_bounded(self):
        # the estimate walks the kernel's blocks; its 2048 points in one pass would hold 16 MiB
        rho4 = sd.random_state(1, dim_a=16, rank=32).as_tensor()
        gg, dd = lattice(64, 64)
        assert 32 * 16**2 * len(gg) // 2 >= 16 * discord.BLOCK_BYTES
        tracemalloc.start()
        try:
            discord._lattice_values(rho4, 0.5, gg, dd, DEFAULT_CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * discord.BLOCK_BYTES


class TestKernelInvariants:
    """What the one-pass kernel must keep: the refinement's values and the sign of zero."""

    @pytest.mark.parametrize("x", [0.5, INFINITY])
    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_refinement_points_equal_the_scalar(self, dim_a, x, monkeypatch):
        rho = sd.random_state(dim_a, dim_a=dim_a, rank=4)
        inner, points = discord._batched_weak_ce, []
        strength_of = {measure.weak_coefficients(s): s for s in (INFINITY, x)}

        def recording(rho4, coef, gammas, deltas):
            vals = inner(rho4, coef, gammas, deltas)
            if gammas.ndim == 2:  # the refinement's points, on a batch axis; unused contractions too
                strengths = [strength_of[tuple(c)] for c in coef[:, :, 0].T.tolist()]  # each point's own
                points.extend(zip(gammas[:, 0].tolist(), deltas[:, 0].tolist(), strengths, vals[:, 0]))
            return vals

        monkeypatch.setattr(discord, "_batched_weak_ce", recording)
        discord._minima(rho, [INFINITY, x], OptimizerConfig(8, 8))  # both refinements share calls
        monkeypatch.undo()
        assert len(points) > 20
        for g, d, x, v in points:
            assert v == sd.weak_conditional_entropy(rho, QubitBasis(g, d), x), (g, d)

    @pytest.mark.parametrize("x", [0.5, INFINITY])
    def test_pure_product_state_gives_positive_zero(self, x):
        # each outcome leaves A pure, -p * 0.0 = -0.0, and the sum must stay +0.0
        rho = sd.validate(np.diag([1.0, 0.0, 0.0, 0.0]), dim_a=2)
        gammas = np.array([0.0, 1.0, math.pi / 2, math.pi])
        deltas = np.array([0.0, 0.3, 2.0, 5.0])
        coef = measure.weak_coefficients(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [*discord._batched_weak_ce(rho.as_tensor(), coef, gammas, deltas)]
            for g, d in zip(gammas, deltas):
                vals.append(discord._batched_weak_ce(rho.as_tensor(), coef, np.array([g]), np.array([d]))[0])
                vals.append(sd.weak_conditional_entropy(rho, QubitBasis(g, d), x))
        assert [math.copysign(1.0, v) for v in vals] == [1.0] * len(vals)
        assert vals == [0.0] * len(vals)


def kernel_points(seed):
    """Poles, an equator point and random bases."""
    rng = np.random.default_rng(100 + seed)
    points = [(0.0, 0.0), (math.pi, 0.0), (math.pi / 2, 1.3)]
    return points + [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(5)]
