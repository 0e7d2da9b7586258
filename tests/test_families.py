import math

import numpy as np
import pytest

import superdiscord as sd
from superdiscord import families
from superdiscord.errors import BadDimension, BadRank, DomainError
from superdiscord.measure import COMPUTATIONAL, QubitBasis

from oracles import binary_entropy, oracle_post_pure_wce, oracle_pure_delta, oracle_werner


PUBLIC_NAMES = [
    "DensityMatrix", "DiscordReport", "INFINITY", "MeasurementOutcome", "OptimizerConfig", "QubitBasis",
    "ResurrectionRecord", "WeakOperatorPair", "analyze", "bell", "extra_correlation",
    "minimize_conditional_entropy", "mutual_information", "normal_discord", "partial_trace_a",
    "partial_trace_b", "project_state", "projective_outcomes", "projectors", "pure_schmidt",
    "quantum_conditional_entropy", "random_state", "strong_conditional_entropy", "super_discord",
    "validate", "verify_resurrection", "von_neumann_entropy", "weak_conditional_entropy", "weak_outcomes",
    "weak_pair", "werner",
]


def test_public_surface():
    assert sorted(sd.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(sd, name)] == []
    # the closed-form oracles are test helpers (tests/oracles.py), not package code
    defined = vars(families)
    assert [n for n in defined if n.startswith("oracle_") or n == "binary_entropy"] == []


class TestConstructors:
    def test_pure_product_limit(self):
        rho = sd.pure_schmidt(1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho.entries - expected).max() < 1e-12

    def test_pure_maximally_entangled(self):
        ds, _ = sd.normal_discord(sd.pure_schmidt(0.5))
        assert ds == pytest.approx(1.0, abs=1e-8)

    def test_pure_bad_params(self):
        with pytest.raises(DomainError):
            sd.pure_schmidt(1.2)

    def test_werner_extremes(self):
        assert np.abs(sd.werner(0.0).entries - np.eye(4) / 4).max() < 1e-12
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.abs(sd.werner(1.0).entries - np.outer(singlet, singlet)).max() < 1e-12

    def test_werner_spectrum(self):
        eigs = np.sort(np.linalg.eigvalsh(sd.werner(0.5).entries))[::-1]
        assert np.allclose(eigs, [0.625, 0.125, 0.125, 0.125], atol=1e-12)

    def test_werner_bad_params(self):
        with pytest.raises(DomainError):
            sd.werner(-0.1)

    def test_random_pure(self):
        rho = sd.random_state(9, dim_a=2, rank=1)
        assert sd.von_neumann_entropy(rho.entries) == pytest.approx(0.0, abs=1e-9)

    def test_random_reproducible(self):
        a = sd.random_state(42)
        b = sd.random_state(42)
        assert (a.entries == b.entries).all()

    def test_random_full_rank(self):
        rho = sd.random_state(11, dim_a=2, rank=4)
        assert np.linalg.eigvalsh(rho.entries).min() > 0

    def test_random_bad_rank(self):
        with pytest.raises(BadRank):
            sd.random_state(0, dim_a=2, rank=5)

    def test_random_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            sd.random_state(-1)

    @pytest.mark.parametrize("dim_a", [0, -2])
    def test_random_bad_dimension(self, dim_a):
        with pytest.raises(BadDimension, match="dim_a"):
            sd.random_state(1, dim_a=dim_a)


class TestPureDeltaOracle:
    def test_headline_value(self):
        assert oracle_pure_delta(0.2, 0.2, math.pi / 2) == pytest.approx(0.7010, abs=1e-3)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5])
    def test_maximally_entangled_closed_form(self, x):
        got = oracle_pure_delta(0.5, x, math.pi / 2)
        assert got == pytest.approx(binary_entropy((1 + math.tanh(x)) / 2), abs=1e-12)

    def test_product_state_zero(self):
        assert oracle_pure_delta(1.0, 0.7, 1.1) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lam0", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
    def test_matches_numerical_extra_correlation(self, lam0, x):
        thetas = np.linspace(0.0, math.pi, 2001)
        oracle_min = float(np.min(oracle_pure_delta(lam0, x, thetas)))
        numeric = sd.extra_correlation(sd.pure_schmidt(lam0), x)
        assert numeric == pytest.approx(oracle_min, abs=1e-6)


class TestPostPureOracle:
    def test_gamma_zero_is_strength_independent(self):
        lam0 = 0.3
        expected = binary_entropy((1 + math.sqrt(1 - 4 * lam0 * (1 - lam0))) / 2)
        assert oracle_post_pure_wce(lam0, 0.2, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert oracle_post_pure_wce(lam0, 2.0, 0.0, 0.3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("x", [0.2, 0.8])
    def test_maximally_entangled_at_minimum(self, x):
        got = oracle_post_pure_wce(0.5, x, math.pi / 2, 0.0)
        assert got == pytest.approx(binary_entropy((1 + math.tanh(x)) / 2), abs=1e-12)

    @pytest.mark.parametrize("lam0", [0.2, 0.4])
    @pytest.mark.parametrize("x", [0.2, 1.0])
    def test_minimum_matches_measured_state_numerics(self, lam0, x):
        post = sd.project_state(sd.pure_schmidt(lam0), QubitBasis(math.pi / 2, 0.0))
        numeric = sd.weak_conditional_entropy(post, QubitBasis(math.pi / 2, 0.0), x)
        assert numeric == pytest.approx(
            float(oracle_post_pure_wce(lam0, x, math.pi / 2, 0.0)), abs=1e-9
        )

    def test_minimized_at_equator_phase_zero(self):
        lam0, x = 0.2, 0.2
        gammas = np.linspace(0, math.pi, 101)
        deltas = np.linspace(0, 2 * math.pi, 101)
        gg, dd = np.meshgrid(gammas, deltas, indexing="ij")
        vals = oracle_post_pure_wce(lam0, x, gg.ravel(), dd.ravel())
        best = np.argmin(vals)
        assert gg.ravel()[best] == pytest.approx(math.pi / 2, abs=0.05)
        d_best = dd.ravel()[best] % math.pi
        assert min(d_best, math.pi - d_best) < 0.05


class TestWernerOracle:
    def test_maximally_mixed(self):
        o = oracle_werner(0.0, 0.7)
        assert o.strong_ce == pytest.approx(1.0, abs=1e-12)
        assert o.weak_ce == pytest.approx(1.0, abs=1e-12)
        assert o.delta == pytest.approx(0.0, abs=1e-12)

    def test_strong_limit(self):
        assert oracle_werner(1.0, math.inf).delta == pytest.approx(0.0, abs=1e-12)

    def test_cross_check_with_numerics(self):
        z, x = 0.8, 0.5
        o = oracle_werner(z, x)
        w = sd.werner(z)
        _, weak_min = sd.minimize_conditional_entropy(w, x)
        _, strong_min = sd.minimize_conditional_entropy(w, sd.INFINITY)
        assert weak_min == pytest.approx(o.weak_ce, abs=1e-9)
        assert strong_min == pytest.approx(o.strong_ce, abs=1e-9)

    def test_weak_ce_grid_against_direct_evaluation(self):
        for z in np.linspace(0.0, 0.9, 10):
            for x in np.linspace(0.1, 2.0, 10):
                got = sd.weak_conditional_entropy(sd.werner(float(z)), COMPUTATIONAL, float(x))
                assert got == pytest.approx(oracle_werner(float(z), float(x)).weak_ce, abs=1e-9)
