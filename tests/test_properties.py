"""Hypothesis property tests of the measured state's landscape; skipped where hypothesis is not installed."""

import math

import numpy as np
import pytest

import superdiscord as sd
from superdiscord.measure import QubitBasis

from conftest import bloch

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
