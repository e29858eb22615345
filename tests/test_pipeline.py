"""The cached noisy basis against the direct ket-then-channel route."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gridsense import (
    NoiseParams,
    SensorSpec,
    TrainConfig,
    TrainableParams,
    apply_dephasing,
    apply_loss,
    logical_state,
    pipeline_qfi,
    rotate,
    sensor_state,
    squeeze,
    train,
)
from gridsense import pipeline, states
from gridsense.channels import loss_kraus
from gridsense.pipeline import noisy_basis

from conftest import LOW_NOISE, ket_density


def sensor_ket(spec):
    """Pure sensor state before the noise channels; returns (ket, leakage)."""
    psi = logical_state(spec.bloch_theta, spec.bloch_phi, spec.epsilon,
                        spec.cutoff)
    psi, leakage = squeeze(psi, math.log(spec.r))
    psi = rotate(psi, spec.theta)
    return psi, leakage


def direct_state(spec, noise):
    """Reference: codeword → squeeze → rotate as a ket, then the channels."""
    psi, _ = sensor_ket(spec)
    return apply_dephasing(apply_loss(ket_density(psi), noise.eta), noise.gamma)


def _random_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec = SensorSpec(theta=rng.uniform(-math.pi, math.pi),
                          r=rng.uniform(0.5, 2.0),
                          epsilon=rng.uniform(0.05, 0.3),
                          bloch_theta=rng.uniform(0.0, math.pi),
                          bloch_phi=rng.uniform(-math.pi, math.pi))
        noise = NoiseParams(eta=rng.uniform(0.6, 1.0),
                            gamma=rng.uniform(0.0, 0.3))
        yield spec, noise


EDGE_SPEC = SensorSpec(theta=0.7, r=1.092, bloch_theta=1.1, bloch_phi=0.4)
EDGE_CASES = [
    (SensorSpec(theta=0.7, r=1.092, bloch_theta=0.0, bloch_phi=0.4), LOW_NOISE),
    (SensorSpec(theta=0.7, r=1.092, bloch_theta=math.pi, bloch_phi=0.4),
     LOW_NOISE),
    (SensorSpec(theta=0.7, r=1.0, bloch_theta=1.1, bloch_phi=0.4), LOW_NOISE),
    (EDGE_SPEC, NoiseParams(eta=1.0, gamma=0.05)),
    (EDGE_SPEC, NoiseParams(eta=0.9, gamma=0.0)),
    (EDGE_SPEC, NoiseParams(eta=1.0, gamma=0.0)),
    (SensorSpec(theta=0.7, r=1.3, epsilon=0.15, bloch_theta=1.1,
                bloch_phi=0.4, cutoff=20), LOW_NOISE),
    (SensorSpec(theta=0.7, r=0.8, bloch_theta=2.0, bloch_phi=-1.0,
                cutoff=40), LOW_NOISE),
]


@pytest.mark.parametrize("spec,noise",
                         [*_random_cases(11, 8), *EDGE_CASES])
def test_cached_state_matches_direct_route(spec, noise):
    cached = sensor_state(spec, noise)
    assert np.max(np.abs(cached - direct_state(spec, noise))) <= 1e-13


@pytest.mark.parametrize("bloch_theta,index", [(0.0, 0), (math.pi, 2)])
def test_poles_return_the_basis_matrix_exactly(bloch_theta, index):
    spec = SensorSpec(theta=0.0, r=1.092, bloch_theta=bloch_theta,
                      bloch_phi=0.4)
    basis, _, _ = noisy_basis(spec.epsilon, spec.r, LOW_NOISE.eta,
                              LOW_NOISE.gamma, spec.cutoff)
    assert np.array_equal(sensor_state(spec, LOW_NOISE), basis[index])


def test_qfi_is_exactly_theta_independent():
    base = SensorSpec(theta=0.0, r=1.092, bloch_theta=1.2, bloch_phi=0.3)
    ref = pipeline_qfi(base, LOW_NOISE)
    for theta in (0.3, math.pi / 4, 1.178, math.pi, -2.0):
        spec = SensorSpec(theta=theta, r=1.092, bloch_theta=1.2, bloch_phi=0.3)
        assert pipeline_qfi(spec, LOW_NOISE) == ref


@pytest.mark.parametrize("bloch_theta", [0.0, 1.2])
def test_mutating_a_returned_state_leaves_the_cache_intact(bloch_theta):
    spec = SensorSpec(theta=0.0, r=1.092, bloch_theta=bloch_theta)
    first = sensor_state(spec, LOW_NOISE)
    expected = first.copy()
    qfi = pipeline_qfi(spec, LOW_NOISE)
    first[:] = 0.0
    assert np.array_equal(sensor_state(spec, LOW_NOISE), expected)
    assert pipeline_qfi(spec, LOW_NOISE) == qfi


def test_basis_matrices_are_read_only():
    for M in noisy_basis(0.063, 1.092, 0.9, 0.05, 30):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


@pytest.mark.parametrize("spec_change,noise_change", [
    ({}, {"eta": 0.8}),
    ({}, {"gamma": 0.1}),
    ({"epsilon": 0.08}, {}),
    ({"r": 1.2}, {}),
])
def test_changing_one_input_changes_the_state(spec_change, noise_change):
    spec = SensorSpec(theta=0.7, r=1.092, bloch_theta=1.1, bloch_phi=0.4)
    before = sensor_state(spec, LOW_NOISE)
    spec2 = replace(spec, **spec_change)
    noise2 = replace(LOW_NOISE, **noise_change)
    after = sensor_state(spec2, noise2)
    assert np.max(np.abs(after - before)) > 1e-4
    assert np.max(np.abs(after - direct_state(spec2, noise2))) <= 1e-13


@pytest.mark.parametrize("eta,dim", [(0.9, 30), (0.6, 20), (0.999, 40)])
def test_apply_loss_matches_kraus_sum(eta, dim):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    X /= np.linalg.norm(X)
    rho = X @ X.conj().T
    rho /= np.trace(rho)
    kraus = sum(K @ rho @ K.conj().T for K in loss_kraus(eta, dim))
    assert np.max(np.abs(apply_loss(rho, eta) - kraus)) <= 1e-14
    # linear, so a non-Hermitian input maps term by term as well
    kraus_x = sum(K @ X @ K.conj().T for K in loss_kraus(eta, dim))
    assert np.max(np.abs(apply_loss(X, eta) - kraus_x)) <= 1e-14


def test_training_builds_the_basis_once(monkeypatch):
    calls = {"squeeze": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "squeeze",
                        counted("squeeze", pipeline.squeeze))
    noisy_basis.cache_clear()
    states._squeeze_spectrum.cache_clear()
    cfg = TrainConfig(noise=LOW_NOISE, steps=5)
    train(cfg, TrainableParams(bloch_theta=1.5708, bloch_phi=1.5708))
    info = noisy_basis.cache_info()
    assert info.misses == 1
    # one state per step, looked up for its stack and for its gradient
    assert info.hits == 2 * 5 - 1
    assert calls == {"squeeze": 1}
    assert states._squeeze_spectrum.cache_info().misses == 1


@pytest.mark.parametrize("freeze", [{"ell", "epsilon"}, {"ell", "r"},
                                    {"ell"}], ids=["r", "epsilon", "both"])
def test_free_r_or_epsilon_builds_one_basis_per_step(freeze):
    # r and ε are differentiated through the basis slopes, never probed
    noisy_basis.cache_clear()
    cfg = TrainConfig(noise=LOW_NOISE, steps=4, freeze=frozenset(freeze))
    train(cfg, TrainableParams(bloch_theta=1.5708, bloch_phi=1.5708))
    assert noisy_basis.cache_info().misses == 4


# Each ε lies well inside a stretch of fixed peak count S, where the
# ε slope is exact.
@pytest.mark.parametrize("args", [
    (0.063, 1.092, 0.9, 0.05, 30),
    (0.15, 0.6, 0.7, 0.2, 20),
    (0.1, 1.0, 1.0, 0.0, 40),
])
@pytest.mark.parametrize("index,name", [(1, "r"), (2, "epsilon")])
def test_basis_slope_matches_differences_of_the_basis(args, index, name):
    point = dict(zip(("epsilon", "r", "eta", "gamma", "cutoff"), args))
    h = 1e-5
    slope = noisy_basis(*args)[index]
    plus, _, _ = noisy_basis(**point | {name: point[name] + h})
    minus, _, _ = noisy_basis(**point | {name: point[name] - h})
    assert not slope.flags.writeable
    for dM, M_plus, M_minus in zip(slope, plus, minus, strict=True):
        diff = (M_plus - M_minus) / (2 * h)
        assert np.max(np.abs(dM - diff)) <= 1e-6 * np.max(np.abs(diff))


def test_qfi_gradient_gives_the_pipeline_qfi():
    spec = SensorSpec(theta=0.0, r=1.092, bloch_theta=1.1, bloch_phi=0.4)
    qfi, _ = pipeline._qfi_gradient(spec, LOW_NOISE)
    assert np.float64(qfi).tobytes() == \
        np.float64(pipeline_qfi(spec, LOW_NOISE)).tobytes()


@pytest.mark.parametrize("bloch_theta", [0.0, 1.1, math.pi])
def test_qfi_gradient_matches_differences(bloch_theta):
    # the poles return a codeword's state exactly; there the azimuth is a
    # global phase
    spec = SensorSpec(theta=0.0, r=1.092, bloch_theta=bloch_theta,
                      bloch_phi=0.4)
    _, got = pipeline._qfi_gradient(spec, LOW_NOISE)
    h = 1e-5

    def qfi(**over):
        return pipeline_qfi(replace(spec, **over), LOW_NOISE)

    if 0.0 < bloch_theta < math.pi:
        d_theta = (qfi(bloch_theta=bloch_theta + h)
                   - qfi(bloch_theta=bloch_theta - h)) / (2 * h)
        assert got[0] == pytest.approx(d_theta, rel=1e-6)
    d_phi = (qfi(bloch_phi=0.4 + h) - qfi(bloch_phi=0.4 - h)) / (2 * h)
    assert got[1] == pytest.approx(d_phi, rel=1e-6, abs=1e-9)
    d_r = (qfi(r=1.092 + h) - qfi(r=1.092 - h)) / (2 * h)
    assert got[2] == pytest.approx(d_r, rel=1e-6)
    d_epsilon = (qfi(epsilon=0.063 + h) - qfi(epsilon=0.063 - h)) / (2 * h)
    assert got[3] == pytest.approx(d_epsilon, rel=1e-6)


def test_basis_from_cached_codewords_matches_an_uncached_build(monkeypatch):
    args = (0.063, 1.3, 0.85, 0.07, 30)
    for mu in (0, 1):
        states.prepare_codeword(mu, 0.063, 30)
    hits = states.prepare_codeword.cache_info().hits
    noisy_basis.cache_clear()
    cached = noisy_basis(*args)
    assert states.prepare_codeword.cache_info().hits == hits + 2
    monkeypatch.setattr(pipeline, "prepare_codeword",
                        states.prepare_codeword.__wrapped__)
    noisy_basis.cache_clear()
    uncached = noisy_basis(*args)
    noisy_basis.cache_clear()
    for M, ref in zip(cached, uncached):
        assert np.array_equal(M, ref)


def test_mutating_a_codeword_copy_leaves_the_cache_intact():
    ket = states.prepare_codeword(0, 0.063, 30)
    expected = states.prepare_codeword.__wrapped__(0, 0.063, 30)
    with pytest.raises(ValueError):
        ket[0] = 1.0
    # Callers that need to write get a copy, e.g. an identity squeeze.
    copy, _ = states.squeeze(states.logical_state(0.0, 0.0, 0.063, 30), 0.0)
    copy[:] = 0.0
    assert np.array_equal(states.prepare_codeword(0, 0.063, 30), expected)


def basis_reference(epsilon, r, eta, gamma, cutoff):
    """The noisy basis with each outer product through the channels alone."""
    codewords = np.stack([states.prepare_codeword(0, epsilon, cutoff),
                          states.prepare_codeword(1, epsilon, cutoff)], axis=1)
    squeezed, _ = states.squeeze(codewords, math.log(r))
    k0, k1 = squeezed.T
    return tuple(apply_dephasing(apply_loss(np.outer(a, b.conj()), eta), gamma)
                 for a, b in ((k0, k0), (k0, k1), (k1, k1)))


@pytest.mark.parametrize("args", [
    (0.063, 1.092, 0.9, 0.05, 30),
    (0.15, 0.6, 0.7, 0.2, 20),
    (0.063, 1.5, 1.0, 0.05, 30),
    (0.063, 1.092, 0.9, 0.0, 30),
    (0.1, 1.0, 1.0, 0.0, 40),
])
def test_stacked_basis_is_bit_identical_to_one_matrix_at_a_time(args):
    noisy_basis.cache_clear()
    basis = noisy_basis(*args)
    noisy_basis.cache_clear()
    for M, ref in zip(basis[0], basis_reference(*args), strict=True):
        assert M.tobytes() == ref.tobytes()


@pytest.mark.parametrize("eta,gamma", [(0.8, 0.1), (1.0, 0.3), (0.95, 0.0)])
def test_channels_map_a_stack_matrix_by_matrix(eta, gamma):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(4, 12, 12)) + 1j * rng.normal(size=(4, 12, 12))
    lost, dephased = apply_loss(X, eta), apply_dephasing(X, gamma)
    for i, M in enumerate(X):
        assert np.array_equal(lost[i], apply_loss(M, eta))
        assert np.array_equal(dephased[i], apply_dephasing(M, gamma))


def test_stacked_states_match_the_one_spec_views_exactly():
    # the oracle's stack mixes specs with one shared basis and specs whose
    # r or ε moved, and may include a pole
    base = SensorSpec(theta=0.0, r=1.092, bloch_theta=1.1, bloch_phi=0.4)
    specs = [base, replace(base, bloch_theta=0.0), replace(base, r=1.2),
             replace(base, epsilon=0.08), replace(base, bloch_theta=math.pi),
             replace(base, bloch_phi=-2.5), replace(base, theta=0.9)]
    rho = pipeline._unrotated_states(specs, LOW_NOISE)
    qfis = pipeline._qfis(specs, LOW_NOISE)
    for i, spec in enumerate(specs):
        assert np.array_equal(rho[i], sensor_state(replace(spec, theta=0.0),
                                                   LOW_NOISE))
        assert qfis[i] == pipeline_qfi(spec, LOW_NOISE)
    assert rho.flags.writeable
