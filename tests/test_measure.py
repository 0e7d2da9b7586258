import math

import numpy as np
import pytest

import superdiscord as sd
from superdiscord import measure
from superdiscord.errors import NegativeStrength
from superdiscord.measure import COMPUTATIONAL, INFINITY, QubitBasis, basis_from_ket, same_basis

from oracles import tensor


def random_basis(rng):
    return QubitBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


class TestQubitBasis:
    @pytest.mark.parametrize("gamma,delta", [(0.0, 0.0), (math.pi / 2, 0.0), (1.3, 4.5), (math.pi, 1.0)])
    def test_orthonormal(self, gamma, delta):
        b = QubitBasis(gamma, delta)
        assert abs(np.linalg.norm(b.ket()) - 1) < 1e-12
        assert abs(np.linalg.norm(b.ket_bar()) - 1) < 1e-12
        assert abs(np.vdot(b.ket(), b.ket_bar())) < 1e-12

    def test_projectors_sum_to_identity(self):
        p, pb = sd.projectors(QubitBasis(0.7, 2.1))
        assert np.abs(p + pb - np.eye(2)).max() < 1e-12

    def test_computational_basis(self):
        p, pb = sd.projectors(QubitBasis(0.0, 0.0))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(pb, np.diag([0.0, 1.0]), atol=1e-12)

    def test_plus_minus_basis(self):
        p, pb = sd.projectors(QubitBasis(math.pi / 2, 0.0))
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.abs(p - plus).max() < 1e-12
        assert np.abs(pb - minus).max() < 1e-12

    def test_circular_basis(self):
        p, _ = sd.projectors(QubitBasis(math.pi / 2, math.pi / 2))
        v = np.array([1.0, 1j]) / math.sqrt(2)
        assert np.abs(p - np.outer(v, v.conj())).max() < 1e-12

    def test_idempotent(self):
        for pi in sd.projectors(QubitBasis(1.1, 0.3)):
            assert np.abs(pi @ pi - pi).max() < 1e-12

    def test_basis_from_ket_roundtrip(self, rng):
        for _ in range(50):
            b = random_basis(rng)
            b2 = basis_from_ket(b.ket())
            assert same_basis(b, b2, tol=1e-10)


class TestWeakPair:
    def test_zero_strength_is_scaled_identity(self, rng):
        pair = sd.weak_pair(random_basis(rng), 0.0)
        assert np.abs(pair.op_plus - np.eye(2) / math.sqrt(2)).max() < 1e-12
        assert np.abs(pair.op_minus - np.eye(2) / math.sqrt(2)).max() < 1e-12

    def test_projective_limit(self):
        pair = sd.weak_pair(COMPUTATIONAL, INFINITY)
        assert np.allclose(pair.op_minus, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(pair.op_plus, np.diag([0.0, 1.0]), atol=1e-15)

    def test_amplitudes_at_x02(self):
        # scalar evaluation, tanh 0.2 ~ 0.197375
        pair = sd.weak_pair(COMPUTATIONAL, 0.2)
        a_plus = math.sqrt((1 - math.tanh(0.2)) / 2)
        a_minus = math.sqrt((1 + math.tanh(0.2)) / 2)
        assert np.allclose(pair.op_plus, np.diag([a_plus, a_minus]), atol=1e-15)
        assert np.allclose(pair.op_minus, np.diag([a_minus, a_plus]), atol=1e-15)

    def test_negative_strength_rejected(self):
        for x in (-1.0, math.nan):
            with pytest.raises(NegativeStrength):
                sd.weak_pair(COMPUTATIONAL, x)

    def test_nan_strength_rejected_by_weak_conditional_entropy(self):
        with pytest.raises(NegativeStrength):
            sd.weak_conditional_entropy(sd.werner(0.6), COMPUTATIONAL, math.nan)

    @pytest.mark.parametrize("x", [0.0, 0.3, 2.0, INFINITY])
    def test_pair_is_a_row_of_the_kernel_batch(self, x, rng):
        # weak_pair is one row of the batch the minimizer's kernel contracts
        gammas = np.concatenate([[0.0, math.pi], rng.uniform(0, math.pi, 6)])
        deltas = np.concatenate([[0.0, 1.0], rng.uniform(0, 2 * math.pi, 6)])
        plus, minus = measure.weak_operators(x, gammas, deltas)
        for i, (g, d) in enumerate(zip(gammas, deltas)):
            pair = sd.weak_pair(QubitBasis(g, d), x)
            assert (pair.op_plus == plus[i]).all() and (pair.op_minus == minus[i]).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_completeness_and_commutation(self, seed):
        rng = np.random.default_rng(seed)
        pair = sd.weak_pair(random_basis(rng), rng.uniform(0, 3))
        p, m = pair.op_plus, pair.op_minus
        assert np.abs(p.conj().T @ p + m.conj().T @ m - np.eye(2)).max() < 1e-12
        assert np.abs(p @ m - m @ p).max() < 1e-12

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("y", [0.1, 0.3, 0.7])
    def test_composition(self, x, y, rng):
        b = random_basis(rng)
        px = sd.weak_pair(b, x).op_plus
        py = sd.weak_pair(b, y).op_plus
        pxy = sd.weak_pair(b, x + y).op_plus
        prod = px @ py
        assert np.abs(prod / np.linalg.norm(prod) - pxy / np.linalg.norm(pxy)).max() < 1e-10


class TestOutcomes:
    def test_bell_zero_strength(self, bell_state):
        pair = sd.weak_pair(COMPUTATIONAL, 0.0)
        for o in sd.weak_outcomes(bell_state, pair):
            assert o.probability == pytest.approx(0.5, abs=1e-12)
            assert np.abs(o.conditional_state - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.6, 3.0])
    def test_schmidt_probabilities(self, theta):
        # p(±x) = [1 ∓ (λ0-λ1) tanh x cos θ]/2
        lam0, x = 0.2, 0.4
        rho = sd.pure_schmidt(lam0)
        op, om = sd.weak_outcomes(rho, sd.weak_pair(QubitBasis(theta, 0.0), x))
        scale = (2 * lam0 - 1) * math.tanh(x) * math.cos(theta)
        assert op.probability == pytest.approx((1 - scale) / 2, abs=1e-12)
        assert om.probability == pytest.approx((1 + scale) / 2, abs=1e-12)

    def test_post_measured_pure_conditional(self):
        # closed-form conditional of the decohered Schmidt state
        lam0, x, gamma, delta = 0.2, 0.3, 1.0, 0.7
        post = sd.project_state(sd.pure_schmidt(lam0), QubitBasis(math.pi / 2, 0.0))
        o, _ = sd.weak_outcomes(post, sd.weak_pair(QubitBasis(gamma, delta), x))
        lam1 = 1 - lam0
        expected = np.diag([lam0, lam1]).astype(complex)
        expected -= (
            math.sqrt(lam0 * lam1) * math.sin(gamma) * math.cos(delta) * math.tanh(x)
        ) * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert o.probability == pytest.approx(0.5, abs=1e-12)
        assert np.abs(o.conditional_state - expected).max() < 1e-12

    def test_projective_schmidt(self):
        rho = sd.pure_schmidt(0.3)
        o1, o2 = sd.projective_outcomes(rho, COMPUTATIONAL)
        assert o1.probability == pytest.approx(0.3, abs=1e-12)
        assert o2.probability == pytest.approx(0.7, abs=1e-12)
        assert np.abs(o1.conditional_state - np.diag([1.0, 0.0])).max() < 1e-12
        assert np.abs(o2.conditional_state - np.diag([0.0, 1.0])).max() < 1e-12

    def test_projective_bell_any_basis(self, bell_state, rng):
        for _ in range(5):
            for o in sd.projective_outcomes(bell_state, random_basis(rng)):
                assert o.probability == pytest.approx(0.5, abs=1e-12)
                purity = np.trace(o.conditional_state @ o.conditional_state).real
                assert purity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("z", [0.2, 0.5, 0.9])
    def test_projective_werner_conditional_entropy(self, z):
        outcomes = sd.projective_outcomes(sd.werner(z), COMPUTATIONAL)
        got = sum(o.probability * sd.von_neumann_entropy(o.conditional_state) for o in outcomes)
        expected = -(1 - z) / 2 * math.log2((1 - z) / 2) - (1 + z) / 2 * math.log2((1 + z) / 2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_degenerate_outcome_flagged(self):
        rho = tensor(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
        _, o2 = sd.projective_outcomes(rho, COMPUTATIONAL)
        assert o2.degenerate and o2.probability == 0.0
        # placeholder is still a valid state
        assert abs(np.trace(o2.conditional_state) - 1) < 1e-12

    def test_degenerate_threshold_matches_kernel(self):
        # the kernel counts p <= DEGENERATE_PROB as a zero-weight branch, and so do the outcomes
        for p, degenerate in ((measure.DEGENERATE_PROB, True), (2 * measure.DEGENERATE_PROB, False)):
            assert measure._outcome(np.diag([p, 0.0])).degenerate is degenerate

    @pytest.mark.parametrize("seed", range(10))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        rho = sd.random_state(seed, dim_a=2, rank=4)
        b = random_basis(rng)
        for outcomes in (
            sd.projective_outcomes(rho, b),
            sd.weak_outcomes(rho, sd.weak_pair(b, rng.uniform(0, 2))),
        ):
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_average_conditional_equals_marginal(self, seed):
        rng = np.random.default_rng(seed)
        rho = sd.random_state(seed, dim_a=2, rank=4)
        b = random_basis(rng)
        marginal = sd.partial_trace_b(rho)
        for outcomes in (
            sd.projective_outcomes(rho, b),
            sd.weak_outcomes(rho, sd.weak_pair(b, 0.6)),
        ):
            avg = sum(o.probability * o.conditional_state for o in outcomes)
            assert np.abs(avg - marginal).max() < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_weak_at_infinity_matches_projective(self, seed):
        rng = np.random.default_rng(seed)
        rho = sd.random_state(seed, dim_a=2, rank=4)
        b = random_basis(rng)
        wplus, wminus = sd.weak_outcomes(rho, sd.weak_pair(b, INFINITY))
        pphi, pbar = sd.projective_outcomes(rho, b)
        # P(-x) -> Pi_phi, P(x) -> Pi_phibar in the strong limit
        assert wminus.probability == pytest.approx(pphi.probability, abs=1e-10)
        assert np.abs(wminus.conditional_state - pphi.conditional_state).max() < 1e-10
        assert wplus.probability == pytest.approx(pbar.probability, abs=1e-10)
        assert np.abs(wplus.conditional_state - pbar.conditional_state).max() < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_weak_at_zero_returns_marginal(self, seed):
        rng = np.random.default_rng(seed)
        rho = sd.random_state(seed, dim_a=2, rank=4)
        marginal = sd.partial_trace_b(rho)
        for o in sd.weak_outcomes(rho, sd.weak_pair(random_basis(rng), 0.0)):
            assert o.probability == pytest.approx(0.5, abs=1e-12)
            assert np.abs(o.conditional_state - marginal).max() < 1e-12


class TestProjectState:
    @pytest.mark.parametrize("z", [0.2, 0.6])
    def test_werner_decoheres_to_diagonal(self, z):
        post = sd.project_state(sd.werner(z), COMPUTATIONAL)
        expected = np.diag([(1 - z) / 4, (1 + z) / 4, (1 + z) / 4, (1 - z) / 4])
        assert np.abs(post.entries - expected).max() < 1e-12

    def test_pure_in_plus_minus_basis(self):
        # two-term mixture p1 rho1 ⊗ |+><+| + p2 rho2 ⊗ |-><-| built by hand
        lam0 = 0.2
        rho = sd.pure_schmidt(lam0)
        basis = QubitBasis(math.pi / 2, 0.0)
        post = sd.project_state(rho, basis)
        expected = np.zeros((4, 4), dtype=complex)
        for o, pi in zip(sd.projective_outcomes(rho, basis), sd.projectors(basis)):
            expected += o.probability * np.kron(o.conditional_state, pi)
        assert np.abs(post.entries - expected).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        rho = sd.random_state(seed, dim_a=2, rank=4)
        b = random_basis(rng)
        once = sd.project_state(rho, b)
        twice = sd.project_state(once, b)
        assert np.abs(twice.entries - once.entries).max() < 1e-12

    def test_block_diagonal_fixed_point(self):
        rho = tensor(np.diag([0.4, 0.6]), np.diag([0.3, 0.7]))
        post = sd.project_state(rho, COMPUTATIONAL)
        assert np.abs(post.entries - rho.entries).max() < 1e-12
