import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm, logm

from dfsdist import oracle, protocol
from dfsdist.oracle import (
    DenseFockSpace,
    engine_protocol_probabilities,
    oracle_check,
    oracle_protocol_probabilities,
)
from dfsdist.protocol import PHASE_SET_8, ExperimentConfig, _analyzer_matrix
from helpers import exact_click_parts


def test_dense_space_counts():
    space = DenseFockSpace(4, 2)
    assert space.dim == math.comb(4 + 2, 2)
    vac = space.state({(0, 0, 0, 0): 1.0})
    assert abs(np.linalg.norm(vac) - 1.0) < 1e-12
    # 65 states, but their base-2 occupation codes need 64 bits.
    with pytest.raises(ValueError, match="overflow"):
        DenseFockSpace(64, 1)


def test_dense_mode_unitary_preserves_norm():
    space = DenseFockSpace(2, 3)
    theta = 0.3
    mat = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    u = space.mode_unitary([0, 1], mat)
    assert np.abs(u @ u.conj().T - np.eye(space.dim)).max() < 1e-10


def _full_generator_unitary(space, modes, matrix):
    """expm of the whole dense generator sum_ab k_ab a_a^dag a_b, unblocked."""
    k = logm(np.asarray(matrix, dtype=complex))
    gen = np.zeros((space.dim, space.dim), dtype=complex)
    for a, ma in enumerate(modes):
        for b, mb in enumerate(modes):
            gen += k[a, b] * (space.annihilation(ma).T
                              @ space.annihilation(mb)).toarray()
    return expm(gen)


def _random_unitary(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_block_mode_unitary_matches_full_expm():
    space = DenseFockSpace(10, 3)
    idx = {name: i for i, name in enumerate(oracle._ORACLE_MODES)}
    # The parity-check PBS permutation of oracle_protocol_probabilities.
    order = ["AH", "AV", "RH", "RV", "EH", "EV", "FH", "FV"]
    perm = np.zeros((8, 8))
    for src, dst in (("AH", "EH"), ("AV", "FV"), ("RH", "FH"), ("RV", "EV")):
        perm[order.index(dst), order.index(src)] = 1.0
        perm[order.index(src), order.index(dst)] = 1.0
    cases = [
        (["FH", "FV"], _analyzer_matrix("D")),
        (["RH", "RV"], np.array([[0.0, 1.0], [1.0, 0.0]])),
        (["BH", "BV"], np.diag([np.exp(0.3j), np.exp(1.1j)])),
        (order, perm),
    ]
    for names, matrix in cases:
        modes = [idx[name] for name in names]
        u = space.mode_unitary(modes, matrix)
        want = _full_generator_unitary(space, modes, matrix)
        assert np.abs(u.toarray() - want).max() <= 1e-13, names
        assert u.nnz <= 0.02 * space.dim ** 2, names
    rng = np.random.default_rng(2024)
    small = DenseFockSpace(4, 3)
    for _ in range(5):
        matrix = _random_unitary(rng, 2)
        modes = [int(m) for m in rng.choice(4, size=2, replace=False)]
        u = small.mode_unitary(modes, matrix)
        want = _full_generator_unitary(small, modes, matrix)
        assert np.abs(u.toarray() - want).max() <= 1e-13, modes
    # 455 states, the size of the protocol spaces with temporal twin modes.
    big = DenseFockSpace(12, 3)
    modes, matrix = [9, 2, 5], _random_unitary(rng, 3)
    u = big.mode_unitary(modes, matrix)
    want = _full_generator_unitary(big, modes, matrix)
    assert np.abs(u.toarray() - want).max() <= 1e-13
    assert u.nnz <= 0.02 * big.dim ** 2


def test_mode_unitary_schur_log_edge_cases():
    space = DenseFockSpace(4, 3)
    modes = [1, 3]
    n = space.occupations[:, modes].sum(axis=1)
    identity = space.mode_unitary(modes, np.eye(2))
    assert (identity.toarray() == np.eye(space.dim)).all()
    flip = space.mode_unitary(modes, -np.eye(2))
    assert flip.nnz == space.dim
    assert np.abs(flip.toarray() - np.diag((-1.0) ** n)).max() <= 1e-13
    # Half-wave plates have the eigenvalue -1, on the log's branch cut.
    for theta in (0.0, 0.3, math.pi / 8, math.pi / 4, 2.0):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        hwp = rot @ np.diag([1.0, np.exp(1j * math.pi)]) @ rot.conj().T
        want = _full_generator_unitary(space, modes, hwp)
        got = space.mode_unitary(modes, hwp).toarray()
        assert np.abs(got - want).max() <= 1e-13, theta


def test_new_mode_unitary_calls_expm_once(monkeypatch):
    # One expm on the small space of the modes, whatever the big space.
    calls = []
    expm = oracle.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(oracle, "expm", counted)
    rng = np.random.default_rng(5)
    for n_modes in (2, 4, 10, 16):
        space = DenseFockSpace(n_modes, 3)
        for modes in ([0, 1], list(range(n_modes))[::-1][:4]):
            matrix = _random_unitary(rng, len(modes))
            calls.clear()
            u = space.mode_unitary(modes, matrix)
            assert calls == [(math.comb(len(modes) + 3, 3),) * 2], n_modes
            assert space.mode_unitary(modes, matrix) is u
            assert len(calls) == 1


def test_click_povm_matches_exact_rationals():
    space = DenseFockSpace(2, 3)
    n = [sum(occ) for occ in space.basis]
    assert sorted(set(n)) == [0, 1, 2, 3]
    # At efficiency 0.97, 1 - click would be 95 and 244 ulp off at n = 2, 3.
    for eta in (0.09, 0.13, 0.97, 1.0):
        for dark in (0.0, 1.5e-6, 0.9):
            diag = space.click_povm([0, 1], eta, dark)
            none = space.click_povm([0, 1], eta, dark, click=False)
            for got, got_none, k in zip(diag.tolist(), none.tolist(), n):
                want = sum(exact_click_parts(eta, dark, k))
                assert abs(Fraction(got) - want) <= 4 * math.ulp(float(want)), (
                    eta, dark, k)
                want_none = 1 - want
                assert (abs(Fraction(got_none) - want_none)
                        <= 4 * math.ulp(float(want_none))), (eta, dark, k)
                if k == 0:
                    assert got == dark  # no photon: the dark count, exactly


def test_dense_loss_kraus_completeness():
    space = DenseFockSpace(2, 3)
    kraus = space.loss_kraus(0, 0.37)
    total = sum(op.conj().T @ op for op in kraus)
    assert np.abs(total - np.eye(space.dim)).max() < 1e-12
    assert space.loss_kraus(0, 0.37) is kraus
    for op in kraus:
        for arr in (op.data, op.indices, op.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


def test_factor_update_matches_dense_density_matrix():
    space = DenseFockSpace(4, 3)
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    # A tiny column stays: branches are dropped only when exactly zero.
    psi = psi / np.linalg.norm(psi) * [1.0, 1.0, 1e-30]
    rho = psi @ psi.conj().T
    u = space.mode_unitary([0, 2], _analyzer_matrix("D"))
    rotated = u @ psi
    dense_u = u.toarray()
    assert np.abs(rotated @ rotated.conj().T
                  - dense_u @ rho @ dense_u.conj().T).max() <= 1e-13
    # At t = 1 every branch that loses a photon is exactly zero.
    for mode, t, columns in ((0, 0.37, 12), (3, 1.0, 3), (1, 0.0, 12)):
        kraus = space.loss_kraus(mode, t)
        out = oracle.apply_kraus(psi, kraus)
        want = sum(k.toarray() @ rho @ k.toarray().conj().T for k in kraus)
        assert np.abs(out @ out.conj().T - want).max() <= 1e-13, t
        assert abs(np.sum(np.abs(out) ** 2) - np.sum(np.abs(psi) ** 2)) <= 1e-13
        assert out.shape[1] == columns and out.any(axis=0).all(), t
        povm = space.click_povm([mode], 0.6, 1e-3)
        assert abs(oracle.diagonal_expectation(out, povm)
                   - np.real(np.trace(want * povm))) <= 1e-13, t


def test_protocol_factor_keeps_only_nonzero_branches(monkeypatch):
    # Pure sources and four (six) loss Kraus maps: every branch that loses a
    # photon the state does not hold is dropped.
    seen = []
    expectation = oracle.diagonal_expectation

    def spy(psi, povm):
        seen.append(psi.shape[1])
        return expectation(psi, povm)

    monkeypatch.setattr(oracle, "diagonal_expectation", spy)
    space = DenseFockSpace(10, 3)
    for variant, columns in (("counter_propagating", 5),
                             ("single_photon_ancilla", 15)):
        small, phi_h, phi_v = next(
            point for point in _oracle_points(ExperimentConfig())
            if point[0].variant == variant)
        seen.clear()
        oracle_protocol_probabilities(small, phi_h, phi_v, space)
        assert seen == [columns] * 9, variant


def test_random_circuit_agreement_twenty_seeds():
    report = oracle_check(None, n_seeds=20)
    assert report.passed, report.worst_case
    assert report.max_deviation < 1e-9


def test_protocol_agreement_is_relative_to_each_statistic():
    # Z:HV is ~1e-12 at the reference: an engine twice it off would pass
    # the absolute bound alone.
    report = oracle_check(replace(ExperimentConfig(overlap_s0=0.94091796875),
                                  cutoff=3), n_seeds=20)
    assert report.n_checks == 854
    assert report.passed, report.worst_relative_case
    assert 0.0 < report.max_relative_deviation <= 1e-12


def test_report_fails_on_a_relative_deviation():
    small = (2e-12, 1e-12, "Z:HV")
    report = oracle._report([(0.5, 0.5, "triple"), small])
    assert report.max_deviation == 1e-12 and report.worst_case == "Z:HV"
    assert report.max_relative_deviation == 1.0
    assert not report.passed
    assert oracle._report([(1e-300, 0.0, "zero")]).max_relative_deviation \
        == math.inf
    assert oracle._report([(0.0, 0.0, "zero")]).passed


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


def _oracle_points(cfg):
    """The protocol configs and phase points oracle_check compares."""
    for variant in ("counter_propagating", "single_photon_ancilla"):
        small = replace(cfg, cutoff=3, overlap_s0=1.0, delay_um=0.0,
                        variant=variant, include_feedforward_branch=False)
        for phi_h, phi_v in PHASE_SET_8[:3]:
            yield small, phi_h, phi_v


@pytest.mark.parametrize("transmittance", [0.1, 0.003])
def test_protocol_agreement_is_relative(transmittance):
    # Protocol probabilities are ~1e-8, where an absolute 1e-9 bound is blind.
    cfg = ExperimentConfig(transmittance=transmittance)
    space = DenseFockSpace(10, 3)
    n_keys = 0
    for small, phi_h, phi_v in _oracle_points(cfg):
        got = engine_protocol_probabilities(small, phi_h, phi_v)
        want = oracle_protocol_probabilities(small, phi_h, phi_v, space)
        assert got.keys() == want.keys()
        for key, val in want.items():
            if val != 0.0:
                n_keys += 1
                assert abs(got[key] - val) <= 1e-10 * abs(val), (
                    small.variant, phi_v, key)
    assert n_keys == 6 * 9


def test_shared_space_equals_fresh_space():
    points = list(_oracle_points(ExperimentConfig()))
    space = DenseFockSpace(10, 3)
    for small, phi_h, phi_v in points:
        oracle_protocol_probabilities(small, phi_h, phi_v, space)
    # Every operator of the last point is now taken from the space's cache.
    small, phi_h, phi_v = points[-1]
    shared = oracle_protocol_probabilities(small, phi_h, phi_v, space)
    fresh = oracle_protocol_probabilities(small, phi_h, phi_v)
    for key, val in fresh.items():
        assert abs(shared[key] - val) <= 1e-14 * abs(val), key
    with pytest.raises(ValueError, match="cutoff"):
        oracle_protocol_probabilities(small, phi_h, phi_v,
                                      DenseFockSpace(10, 2))


def test_mode_unitary_cache_keys_on_matrix_values():
    space = DenseFockSpace(2, 3)
    first = space.mode_unitary([0, 1], np.diag([np.exp(0.3j), 1.0]))
    other = space.mode_unitary([0, 1], np.diag([np.exp(0.4j), 1.0]))
    swapped = space.mode_unitary([1, 0], np.diag([np.exp(0.3j), 1.0]))
    assert np.abs(first - other).max() > 0.1
    assert np.abs(first - swapped).max() > 0.1
    assert space.mode_unitary([0, 1], np.diag([np.exp(0.3j), 1.0])) is first
    assert not first.data.flags.writeable
    assert not first.indices.flags.writeable


def test_oracle_check_repeats_in_one_process():
    cfg = ExperimentConfig(cutoff=3)
    first = oracle_check(cfg, n_seeds=2)
    # Per circuit: 4 click patterns and 36 basis-pair probabilities.
    assert first.n_checks == 2 * 40 + 2 * 3 * 9
    assert oracle_check(cfg, n_seeds=2) == first


def test_oracle_protocol_does_not_call_the_engine(monkeypatch):
    cfg = ExperimentConfig(cutoff=3, variant="single_photon_ancilla")
    want = oracle_protocol_probabilities(cfg, 0.0, 0.3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense oracle called the sparse engine")

    for module in (oracle, protocol):
        monkeypatch.setattr(module, "apply_transform", forbidden)
        monkeypatch.setattr(module, "run_fixed_phase", forbidden)
    assert oracle_protocol_probabilities(cfg, 0.0, 0.3) == want
    with pytest.raises(AssertionError, match="sparse engine"):
        engine_protocol_probabilities(cfg, 0.0, 0.3)
