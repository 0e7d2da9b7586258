import math

import numpy as np
import pytest

import superdiscord as sd
from superdiscord import discord


@pytest.fixture
def bell_state():
    return sd.pure_schmidt(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_unitary(rng, d):
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bloch(basis):
    """The Bloch vector of a QubitBasis."""
    g, d = basis.gamma, basis.delta
    return (math.sin(g) * math.cos(d), math.sin(g) * math.sin(d), math.cos(g))


@pytest.fixture
def minimize_calls(monkeypatch):
    """Strengths of every basis minimization run while the test is active, in the order their lattices are scanned.

    Each minimization scans its lattice (`discord._lattice_values`) once, and a kept minimum scans none.
    """
    strengths = []
    inner = discord._lattice_values

    def counting(rho4, x, gg, dd, cfg):
        strengths.append(x)
        return inner(rho4, x, gg, dd, cfg)

    monkeypatch.setattr(discord, "_lattice_values", counting)
    return strengths


@pytest.fixture
def kernel_calls(monkeypatch):
    """Point counts of every entropy-kernel call made while the test is active."""
    sizes = []
    inner = discord._batched_weak_ce

    def counting(rho4, coef, gammas, deltas):
        sizes.append(gammas.size)
        return inner(rho4, coef, gammas, deltas)

    monkeypatch.setattr(discord, "_batched_weak_ce", counting)
    return sizes


@pytest.fixture
def screen_calls(monkeypatch):
    """Point counts of every lattice-estimate call (`discord._bloch_screen`) made while the test is active."""
    sizes = []
    inner = discord._bloch_screen

    def counting(table, gg, dd):
        sizes.append(len(gg))
        return inner(table, gg, dd)

    monkeypatch.setattr(discord, "_bloch_screen", counting)
    return sizes
