import math

import numpy as np
import pytest

from dfsdist.oracle import (
    DenseFockSpace,
    engine_protocol_probabilities,
    oracle_check,
    oracle_protocol_probabilities,
)
from dfsdist.protocol import ExperimentConfig


def test_dense_space_counts():
    space = DenseFockSpace(4, 2)
    assert space.dim == math.comb(4 + 2, 2)
    vac = space.state({(0, 0, 0, 0): 1.0})
    assert abs(np.linalg.norm(vac) - 1.0) < 1e-12


def test_dense_mode_unitary_preserves_norm():
    space = DenseFockSpace(2, 3)
    theta = 0.3
    mat = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    u = space.mode_unitary([0, 1], mat)
    assert np.abs(u @ u.conj().T - np.eye(space.dim)).max() < 1e-10


def test_dense_loss_kraus_completeness():
    space = DenseFockSpace(2, 3)
    kraus = space.loss_kraus(0, 0.37)
    total = sum(op.conj().T @ op for op in kraus)
    assert np.abs(total - np.eye(space.dim)).max() < 1e-12


def test_random_circuit_agreement_twenty_seeds():
    report = oracle_check(None, n_seeds=20)
    assert report.passed, report.worst_case
    assert report.max_deviation < 1e-9


@pytest.mark.parametrize("base_seed", [6845, 1, 100, 12345])
def test_random_circuits_allow_repeated_loss_on_one_label(base_seed):
    # Seed 6845 draws two losses on one label within its first circuits.
    report = oracle_check(None, n_seeds=10, base_seed=base_seed)
    assert report.passed, report.worst_case


def test_protocol_agreement_small_config():
    cfg = ExperimentConfig(cutoff=3)
    for phi_h, phi_v in ((0.0, 0.0), (0.0, math.pi / 4.0)):
        got = engine_protocol_probabilities(cfg, phi_h, phi_v)
        want = oracle_protocol_probabilities(cfg, phi_h, phi_v)
        for key, val in want.items():
            assert abs(got[key] - val) < 1e-9, key


def test_protocol_agreement_ideal_limit():
    cfg = ExperimentConfig(gamma=1e-4, mu=1e-3, transmittance=0.9, eta=1.0,
                           eta_g=1.0, dark_g=0.0, gp_reflectance=0.0, cutoff=3)
    got = engine_protocol_probabilities(cfg, 0.0, 0.3)
    want = oracle_protocol_probabilities(cfg, 0.0, 0.3)
    for key, val in want.items():
        assert abs(got[key] - val) < 1e-12, key


def test_protocol_agreement_single_photon_variant():
    cfg = ExperimentConfig(cutoff=3, variant="single_photon_ancilla")
    got = engine_protocol_probabilities(cfg, 0.0, math.pi / 2.0)
    want = oracle_protocol_probabilities(cfg, 0.0, math.pi / 2.0)
    for key, val in want.items():
        assert abs(got[key] - val) < 1e-9, key


def test_protocol_agreement_randomized_parameters():
    rng = np.random.default_rng(424242)
    for _ in range(3):
        cfg = ExperimentConfig(
            gamma=float(rng.uniform(1e-4, 5e-3)),
            mu=float(rng.uniform(0.01, 0.3)),
            transmittance=float(rng.uniform(0.01, 0.9)),
            eta=float(rng.uniform(0.1, 1.0)),
            eta_g=float(rng.uniform(0.1, 1.0)),
            dark_g=float(rng.uniform(0.0, 1e-4)),
            gp_reflectance=float(rng.uniform(0.0, 0.2)),
            phase_delta=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
            cutoff=3)
        phi_h, phi_v = rng.uniform(0, 2 * math.pi, size=2)
        got = engine_protocol_probabilities(cfg, phi_h, phi_v)
        want = oracle_protocol_probabilities(cfg, phi_h, phi_v)
        for key, val in want.items():
            assert abs(got[key] - val) < 1e-9, key
