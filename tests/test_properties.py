"""Hypothesis property tests of the discords, the resurrection law and the measured state's landscape; skipped where hypothesis is not installed."""

import math

import numpy as np
import pytest

import superdiscord as sd
from superdiscord.discord import OptimizerConfig
from superdiscord.measure import INFINITY, QubitBasis, basis_from_ket, same_basis

from conftest import bloch, random_unitary

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st


def rotate(v, axis, angle):
    """v rotated by angle about the unit vector axis (Rodrigues)."""
    v, axis = np.asarray(v), np.asarray(axis)
    return v * math.cos(angle) + np.cross(axis, v) * math.sin(angle) + axis * (axis @ v) * (1 - math.cos(angle))


def basis_of(v):
    """The QubitBasis whose Bloch vector is the unit vector v."""
    return QubitBasis(math.acos(min(1.0, max(-1.0, v[2]))), math.atan2(v[1], v[0]) % (2 * math.pi))


# On a failure Hypothesis imports its patch writer, whose libcst import warns; as an error
# that warning would abort the whole test run with an INTERNALERROR instead of reporting the
# example. Every test of this module is a Hypothesis test, so the mark is module-wide.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

ANGLES = st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi))


class TestMeasuredStateSymmetry:
    """On ρ̃ = project_state(ρ, n), S_w along m depends on |m·n| alone and never rises with it."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10**6), dim_a=st.integers(1, 4), x=st.floats(0.05, 4.0),
           n=ANGLES, m=ANGLES, angle=st.floats(0, 2 * math.pi))
    def test_rotation_about_the_axis_keeps_the_entropy(self, seed, dim_a, x, n, m, angle):
        axis = np.array(bloch(QubitBasis(*n)))
        post = sd.project_state(sd.random_state(seed, dim_a=dim_a, rank=2 * dim_a), QubitBasis(*n))
        m1 = np.array(bloch(QubitBasis(*m)))
        m2 = rotate(m1, axis, angle)
        s1 = sd.weak_conditional_entropy(post, basis_of(m1), x)
        assert abs(sd.weak_conditional_entropy(post, basis_of(m2), x) - s1) <= 1e-12

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 10**6), dim_a=st.integers(1, 4), x=st.floats(0.05, 4.0),
           n=ANGLES, m1=ANGLES, m2=ANGLES)
    def test_entropy_never_rises_with_alignment(self, seed, dim_a, x, n, m1, m2):
        axis = np.array(bloch(QubitBasis(*n)))
        post = sd.project_state(sd.random_state(seed, dim_a=dim_a, rank=2 * dim_a), QubitBasis(*n))
        near, far = sorted((QubitBasis(*m1), QubitBasis(*m2)), key=lambda b: -abs(axis @ bloch(b)))
        assert sd.weak_conditional_entropy(post, near, x) <= sd.weak_conditional_entropy(post, far, x) + 1e-12


SMALL = OptimizerConfig(12, 12)
GINIBRE = st.tuples(st.integers(0, 10**6), st.sampled_from([2, 3]))  # seed, dim_a


def ginibre(seed, dim_a):
    return sd.random_state(seed, dim_a=dim_a, rank=2 * dim_a)


class TestDiscordProperties:
    """The order, limits, monotonicity and local-unitary invariance (on A and on B) of D_s and D_w on Ginibre states."""

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(state=GINIBRE, x=st.floats(0.05, 4.0))
    def test_sandwich(self, state, x):
        rep = sd.analyze(ginibre(*state), x, SMALL)
        assert rep.mutual_info + 1e-9 >= rep.super_discord
        assert rep.super_discord + 1e-9 >= rep.discord >= -1e-9

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(state=GINIBRE)
    def test_super_discord_at_zero_is_mutual_information(self, state):
        rho = ginibre(*state)
        assert abs(sd.super_discord(rho, 0.0, SMALL)[0] - sd.mutual_information(rho)) <= 1e-9

    @settings(max_examples=8, derandomize=True, deadline=None, database=None)
    @given(state=GINIBRE)
    def test_super_discord_never_rises_with_strength(self, state):
        rho = ginibre(*state)
        values = [sd.super_discord(rho, x, SMALL)[0] for x in (0.0, 0.1, 0.3, 0.7, 1.5, 3.0, INFINITY)]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:])), values

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(state=GINIBRE, x=st.floats(0.05, 4.0), unitary_seed=st.integers(0, 10**6))
    def test_local_unitary_on_a_keeps_both_discords(self, state, x, unitary_seed):
        rho = ginibre(*state)
        u = np.kron(random_unitary(np.random.default_rng(unitary_seed), rho.dim_a), np.eye(2))
        rotated = sd.validate(u @ rho.entries @ u.conj().T, dim_a=rho.dim_a)
        before, after = sd.analyze(rho, x, SMALL), sd.analyze(rotated, x, SMALL)
        assert abs(after.discord - before.discord) <= 1e-8
        assert abs(after.super_discord - before.super_discord) <= 1e-8

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(state=GINIBRE, x=st.floats(0.05, 4.0), unitary_seed=st.integers(0, 10**6))
    def test_local_unitary_on_b_keeps_both_discords_and_rotates_the_basis(self, state, x, unitary_seed):
        rho = ginibre(*state)
        u_b = random_unitary(np.random.default_rng(unitary_seed), 2)
        u = np.kron(np.eye(rho.dim_a), u_b)
        rotated = sd.validate(u @ rho.entries @ u.conj().T, dim_a=rho.dim_a)
        before, after = sd.analyze(rho, x, SMALL), sd.analyze(rotated, x, SMALL)
        assert abs(after.discord - before.discord) <= 1e-8
        assert abs(after.super_discord - before.super_discord) <= 1e-8
        # measuring ρ along n is measuring (I⊗U)ρ(I⊗U)† along U n
        assert same_basis(after.strong_basis, basis_from_ket(u_b @ before.strong_basis.ket()))


class TestResurrectionLaw:
    """D_w(ρ̃) = S_w(ρ|n_s) − S(A|B)(ρ̃) exactly, with ρ̃ the state measured in the strong basis n_s."""

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(state=GINIBRE, x=st.floats(0.05, 4.0))
    def test_post_super_discord_is_the_weak_entropy_in_the_strong_basis(self, state, x):
        rho = ginibre(*state)
        rec = sd.verify_resurrection(rho, x, SMALL)
        n_s = rec.strong_basis
        post = sd.project_state(rho, n_s)
        want = sd.weak_conditional_entropy(rho, n_s, x) - sd.quantum_conditional_entropy(post)
        assert abs(rec.post_super_discord - want) <= 1e-9
