"""Shared fixtures: the two benchmark noise points and cached heavy states,
and the reference helpers that several test modules use.

Everything expensive (noisy density matrices, trained runs) is session-scoped
so the suite stays well under its time budget.
"""

import math

import numpy as np
import pytest

from gridsense import (
    NoiseParams,
    SensorSpec,
    perr_analytic,
    prepare_codeword,
    sensor_state,
)

# The two benchmark noise points used throughout.
LOW_NOISE = NoiseParams(eta=0.9, gamma=0.05)
HIGH_NOISE = NoiseParams(eta=0.8, gamma=0.10)

D = 30
EPS = 0.063
R_LOW = 1.092
R_HIGH = 1.082


def ket_density(psi):
    """|ψ⟩⟨ψ| as a density matrix."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def joint_optimum_reference(noise, r_bounds=(0.8, 1.5), grid_n=48):
    """Minimize the analytic P_err over (θ, r); returns (θ, r, p_err).

    The scan of one scalar `perr_analytic` call per cell of the grid_n² grid
    over (0, π/2) × r_bounds, taking the first minimum in θ-major order, then
    a Nelder–Mead polish from it.
    """
    from scipy.optimize import minimize

    def f(x):
        t, rr = x
        return perr_analytic(t, rr, noise).p_total

    thetas = np.linspace(0.0, math.pi / 2.0, grid_n + 2)[1:-1]
    rs = np.linspace(r_bounds[0], r_bounds[1], grid_n)
    best = min(((t, rr) for t in thetas for rr in rs), key=f)
    res = minimize(f, x0=np.array(best), method="Nelder-Mead",
                   bounds=[(1e-9, math.pi / 2.0 - 1e-9), r_bounds],
                   options={"xatol": 1e-12, "fatol": 1e-30, "maxiter": 4000})
    t, rr = res.x
    return float(t), float(rr), float(res.fun)


@pytest.fixture(scope="session")
def low_noise():
    return LOW_NOISE


@pytest.fixture(scope="session")
def high_noise():
    return HIGH_NOISE


@pytest.fixture(scope="session")
def codeword0():
    return prepare_codeword(0, EPS, D)


@pytest.fixture(scope="session")
def codeword1():
    return prepare_codeword(1, EPS, D)


@pytest.fixture(scope="session")
def vacuum():
    ket = np.zeros(D, dtype=complex)
    ket[0] = 1.0
    return ket


def _noisy(theta_deg, bloch_theta=0.0, bloch_phi=0.0, r=R_LOW, noise=LOW_NOISE):
    spec = SensorSpec(theta=math.radians(theta_deg), r=r, epsilon=EPS,
                      bloch_theta=bloch_theta, bloch_phi=bloch_phi, cutoff=D)
    return sensor_state(spec, noise)


@pytest.fixture(scope="session")
def noisy_square():
    """|0̄⟩ sensor state through the low-noise channels, square lattice."""
    return _noisy(0.0)


@pytest.fixture(scope="session")
def noisy_states_by_theta():
    """Low-noise sensor states at the four benchmark angles, keyed by degrees."""
    return {t: _noisy(t) for t in (0.0, 45.0, 67.5, 90.0)}
