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


@pytest.fixture
def minimize_calls(monkeypatch):
    """Strengths of every basis minimization run while the test is active."""
    strengths = []
    inner = discord._minimize

    def counting(rho, x, cfg):
        strengths.append(x)
        return inner(rho, x, cfg)

    monkeypatch.setattr(discord, "_minimize", counting)
    return strengths
