import dataclasses
import math
import warnings

import numpy as np
import pytest

import superdiscord as sd
from superdiscord.errors import BadDimension, DomainError, NotFinite, NotHermitian, NotPositive, TraceNotOne
from superdiscord.qstate import DensityMatrix, spectrum

from conftest import random_unitary
from oracles import tensor

H2_02 = 0.7219280948873623  # -0.2 log2 0.2 - 0.8 log2 0.8


def bell_matrix():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return np.outer(v, v.conj())


class TestValidate:
    def test_maximally_mixed(self):
        rho = sd.validate(np.eye(4) / 4, dim_a=2)
        assert rho.dim_a == 2
        assert abs(np.trace(rho.entries) - 1) < 1e-12

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            sd.validate(np.diag([0.5, 0.6, 0.0, -0.1]), dim_a=2)

    def test_bell_projector_rank_one(self):
        rho = sd.validate(bell_matrix(), dim_a=2)
        eigs = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
        assert np.allclose(eigs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_not_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            sd.validate(m, dim_a=2)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            sd.validate(np.eye(4) / 2, dim_a=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NotFinite):
            sd.validate(m, dim_a=2)
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = complex(0.0, bad)
        with pytest.raises(NotFinite):
            sd.validate(m, dim_a=2)

    def test_bad_dimensions(self):
        with pytest.raises(BadDimension):
            sd.validate(np.eye(6) / 6, dim_a=2)

    @pytest.mark.parametrize(
        "m, dim_a",
        [
            pytest.param([[0.5, 1e308], [1e308, 0.5]], 1, id="qubit-off-diagonal"),  # eigenvalues 0.5 ± 1e308
            pytest.param(np.eye(4) / 4 + np.diag([1e308], k=3) + np.diag([1e308], k=-3), 2, id="corners"),
            pytest.param(np.diag([1e308, 0.25, 0.25, 0.25]), 2, id="diagonal"),
        ],
    )
    def test_overflowing_hermitian_part_rejected(self, m, dim_a):
        # finite entries whose Hermitian part overflows to inf+nanj, which the eigenvalue check would not see
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite, match="Hermitian part overflows"):
                sd.validate(m, dim_a)

    def test_overflowing_trace_rejected(self):
        # each entry's Hermitian part is finite, their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceNotOne, match="= inf exceeds"):
                sd.validate(np.diag([8e307] * 4), dim_a=2)

    def test_empty_matrix_with_zero_dim_a(self):
        # the zero-size max would raise numpy's own ValueError
        with pytest.raises(BadDimension, match="dim_a must be an int >= 1, got 0"):
            sd.validate(np.zeros((0, 0)), 0)

    @pytest.mark.parametrize("dim_a", [2.0, True, -1, np.int64(2)])
    def test_dim_a_must_be_a_positive_int(self, dim_a):
        with pytest.raises(BadDimension, match="dim_a must be an int >= 1"):
            sd.validate(np.eye(4) / 4, dim_a)

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param([["0.5", "0"], ["0", "0.5"]], id="digit-strings"),
            pytest.param([[0.5, 0], [0, "0.5"]], id="one-string"),
            pytest.param([[True, 0], [0, False]], id="bools-beside-ints"),
            pytest.param(np.eye(2, dtype=bool), id="bool-array"),
            pytest.param([[np.True_, 0.0], [0.0, 0.0]], id="numpy-bool"),
            pytest.param([[b"0.5", 0], [0, 0.5]], id="bytes"),
            pytest.param([[None, 0], [0, 1]], id="none"),
            pytest.param("abc", id="string"),
            pytest.param({"a": 1}, id="dict"),
            pytest.param(np.array([[0.5, "x"], [0, 0.5]], dtype=object), id="object-array"),
        ],
    )
    def test_non_numeric_entries_rejected(self, m):
        # numpy reads digit strings and bools as numbers, and raises its own errors on the rest
        with pytest.raises(DomainError, match="entries must be numbers"):
            sd.validate(m, 1)
        with pytest.raises(DomainError, match="entries must be numbers"):
            spectrum(m)
        with pytest.raises(DomainError, match="entries must be numbers"):
            sd.von_neumann_entropy(m)

    @pytest.mark.parametrize("m", [[[0.5, 0], [0]], [[0.5], [0, 0.5]]], ids=["short-row", "long-row"])
    def test_ragged_entries_rejected(self, m):
        for call in (lambda: sd.validate(m, 1), lambda: spectrum(m)):
            with pytest.raises(BadDimension, match="rectangular"):
                call()

    def test_int_beyond_float_range_rejected(self):
        m = [[10**400, 0], [0, 0]]
        for call in (lambda: sd.validate(m, 1), lambda: spectrum(m), lambda: sd.von_neumann_entropy(m)):
            with pytest.raises(NotFinite, match="beyond float range"):
                call()

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param([[0.1, 0.2 - 0.05j], [0.2 + 0.05j, 0.9]], id="list"),
            pytest.param([[1, 0], [0, 0]], id="int-list"),
            pytest.param(np.array([[0.1, 0.2], [0.2, 0.9]], dtype=object), id="object-array"),
            pytest.param(np.array([[0.25, 0.1], [0.1, 0.75]], dtype=np.float32), id="float32"),  # a float32 trace of 1
            pytest.param(np.array([[1, 0], [0, 0]], dtype=np.uint8), id="uint8"),
            pytest.param([[np.float64(0.1), np.int64(0)], [0, np.complex128(0.9)]], id="numpy-scalars"),
        ],
    )
    def test_numeric_entries_keep_every_bit(self, m):
        want = np.asarray(m, dtype=complex)
        assert np.array_equal(sd.validate(m, 1).entries.view(np.uint64), (0.5 * (want + want.conj().T)).view(np.uint64))
        assert np.array_equal(spectrum(m), spectrum(want))

    def test_entries_read_only_and_input_untouched(self):
        m = np.eye(4, dtype=complex) / 4  # complex already, so asarray passes m itself through
        rho = sd.validate(m, dim_a=2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0
        with pytest.raises(ValueError):
            rho.as_tensor()[0, 0, 0, 0] = 0
        assert m.flags.writeable
        m[0, 0] = 0  # the caller's array stays theirs to change
        assert rho.entries[0, 0] == 0.25

    def test_minima_are_not_a_field_callers_set(self):
        rho = sd.validate(np.eye(4) / 4, dim_a=2)
        assert rho._minima == {} and "_minima" not in repr(rho)
        with pytest.raises(TypeError):
            DensityMatrix(2, 2, rho.entries, {})
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho._minima = {}


class TestTensor:
    def test_mixed_with_projector(self):
        rho = tensor(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert np.allclose(rho.entries, np.diag([0.5, 0.0, 0.5, 0.0]))

    def test_basis_projectors(self):
        rho = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(rho.entries, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_diagonal_product(self):
        rho = tensor(np.diag([0.2, 0.8]), np.diag([0.3, 0.7]))
        assert np.allclose(rho.entries, np.diag([0.06, 0.14, 0.24, 0.56]))


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self, bell_state):
        assert np.allclose(sd.partial_trace_b(bell_state), np.eye(2) / 2, atol=1e-12)
        assert np.allclose(sd.partial_trace_a(bell_state), np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        b = np.diag([0.4, 0.6])
        rho = tensor(a, b)
        assert np.allclose(sd.partial_trace_b(rho), a, atol=1e-12)

    def test_werner_marginal(self):
        assert np.allclose(sd.partial_trace_b(sd.werner(0.5)), np.eye(2) / 2, atol=1e-12)

    def test_schmidt_marginal(self):
        rho = sd.pure_schmidt(0.3)
        assert np.allclose(sd.partial_trace_a(rho), np.diag([0.3, 0.7]), atol=1e-12)

    def test_post_measured_pure_marginal_entropy_one(self):
        post = sd.project_state(sd.pure_schmidt(0.2), sd.QubitBasis(math.pi / 2, 0.0))
        assert sd.von_neumann_entropy(sd.partial_trace_a(post)) == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        assert sd.von_neumann_entropy(bell_matrix()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert sd.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_binary_spectrum(self):
        assert sd.von_neumann_entropy(np.diag([0.2, 0.8])) == pytest.approx(H2_02, abs=1e-12)

    def test_spectrum_descending_and_clipped(self):
        s = spectrum(np.diag([0.1, 0.9, -1e-10, 1e-12]))
        assert (np.diff(s) <= 0).all()
        assert s.min() >= 0.0
        assert abs(s.sum() - 1.0) < 1e-9

    def test_spectrum_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive, match="below"):
            spectrum(np.diag([0.5, -1e-6]))

    def test_spectrum_rejects_eigenvalue_above_one(self):
        with pytest.raises(DomainError, match="exceeds 1"):
            spectrum(np.diag([1.0 + 1e-6, 0.0]))

    @pytest.mark.parametrize(
        "m", [np.full((2, 2), np.nan), np.diag([np.nan, 1.0]), np.diag([np.inf, 0.0])], ids=["nan", "nan-1", "inf-0"]
    )
    def test_non_finite_matrix_rejected(self, m):
        with pytest.raises(NotFinite):
            sd.von_neumann_entropy(m)

    @pytest.mark.parametrize("shape", [(2,), (0, 0), (2, 3), (1, 2, 2)], ids=str)
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(BadDimension, match="non-empty square matrix"):
            sd.von_neumann_entropy(np.zeros(shape))

    def test_zero_spectrum_entropy_is_zero(self):
        # a zero-weight block has no nonzero eigenvalue to sum over
        assert sd.von_neumann_entropy(np.zeros((2, 2))) == 0.0


class TestMutualInformation:
    def test_product_state(self):
        rho = tensor(np.diag([0.2, 0.8]), np.diag([0.3, 0.7]))
        assert sd.mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell(self, bell_state):
        assert sd.mutual_information(bell_state) == pytest.approx(2.0, abs=1e-12)

    def test_werner_half(self):
        # independent route: Werner spectrum {(1+3z)/4, (1-z)/4 x3}
        z = 0.5
        lams = np.array([(1 + 3 * z) / 4] + [(1 - z) / 4] * 3)
        expected = 2.0 - float(-(lams * np.log2(lams)).sum())
        assert sd.mutual_information(sd.werner(z)) == pytest.approx(expected, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_entropy_range_and_mi_nonnegative(self, seed):
        rho = sd.random_state(seed, dim_a=2, rank=4)
        s = sd.von_neumann_entropy(rho.entries)
        assert -1e-9 <= s <= 2.0 + 1e-9
        assert sd.mutual_information(rho) >= -1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_entropy_range_dim_a_3(self, seed):
        rho = sd.random_state(seed, dim_a=3, rank=6)
        assert -1e-9 <= sd.von_neumann_entropy(rho.entries) <= math.log2(6) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_tensor_roundtrip(self, seed, rng):
        a = sd.random_state(seed, dim_a=1, rank=2).entries  # 2x2 state
        b = sd.random_state(seed + 100, dim_a=1, rank=2).entries
        rho = tensor(a, b)
        assert np.abs(sd.partial_trace_b(rho) - a).max() < 1e-12
        assert abs(np.trace(sd.partial_trace_b(rho)) - np.trace(rho.entries)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_entropy_unitary_invariance(self, seed, rng):
        rho = sd.random_state(seed, dim_a=2, rank=3)
        u = random_unitary(rng, 4)
        rotated = u @ rho.entries @ u.conj().T
        assert abs(
            sd.von_neumann_entropy(rotated) - sd.von_neumann_entropy(rho.entries)
        ) < 1e-9
