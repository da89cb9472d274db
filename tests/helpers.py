"""State and density-matrix comparisons used by the tests only, and the
reference route that propagates the train at a config's own overlap and
transmittance."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from dfsdist import protocol
from dfsdist.fock import (
    H,
    ConfigurationError,
    FockStateVector,
    Mode,
    PolarizationDensityMatrix,
    ValidationError,
    apply_transform,
)
from dfsdist.optics import jones_transform, loss_channel, overlap_split, pbs


def exact_click_parts(efficiency: float, dark: float,
                      n: int) -> tuple[Fraction, Fraction]:
    """A threshold click's photon part 1 - (1 - efficiency)^n and dark part
    dark (1 - efficiency)^n, exactly, as rationals of the float inputs."""
    miss = (1 - Fraction(efficiency)) ** int(n)
    return 1 - miss, Fraction(dark) * miss


def inner_product(a: FockStateVector, b: FockStateVector) -> complex:
    """<a|b> over the shared occupation basis."""
    total = 0.0 + 0.0j
    for occ, amp in a.terms.items():
        other = b.terms.get(occ)
        if other is not None:
            total += np.conj(amp) * other
    return complex(total)


def states_allclose(a: FockStateVector, b: FockStateVector, tol: float = 1e-10,
                    up_to_global_phase: bool = False) -> bool:
    if up_to_global_phase:
        ov = inner_product(a, b)
        na, nb = a.norm_squared(), b.norm_squared()
        return abs(abs(ov) ** 2 - na * nb) <= tol and abs(na - nb) <= tol
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol for k in keys)


def project_occupation(state: FockStateVector, mode: Mode | int,
                       n: int) -> FockStateVector:
    """Unnormalized projection onto exactly n photons in one mode."""
    idx = mode if isinstance(mode, int) else state.registry.index(mode)
    if not 0 <= idx < state.registry.n_modes:
        raise ConfigurationError(f"mode index {idx} outside registry")
    if n > state.cutoff:
        raise ValidationError("projection occupation exceeds cutoff")
    keep = state.occupations[:, idx] == n
    return FockStateVector.from_arrays(state.registry, state.cutoff,
                                       state.occupations[keep],
                                       state.amplitudes[keep],
                                       state.truncated_weight,
                                       state.labels[keep])


def trace_distance(a: PolarizationDensityMatrix | np.ndarray,
                   b: PolarizationDensityMatrix | np.ndarray) -> float:
    ma = a.matrix if isinstance(a, PolarizationDensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, PolarizationDensityMatrix) else np.asarray(b)
    eig = np.linalg.eigvalsh(ma - mb)
    return 0.5 * float(np.abs(eig).sum())


def dm_visibilities(dm: PolarizationDensityMatrix) -> tuple[float, float]:
    """The correlations <Z Z> and <X X> read directly from a two-qubit state."""
    rho = dm.normalized().matrix
    vz = float(np.real(rho[0, 0] + rho[3, 3] - rho[1, 1] - rho[2, 2]))
    xx = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
    vx = float(np.real(np.trace(rho @ xx)))
    return vz, vx


def direct_train(cfg, reg):
    """The optical train at the config's own T and overlap s, one element
    at a time: the channel loss of a loss variant, the flip, the overlap
    split (none at s = 1), the PBS and the herald analyzer."""
    if cfg.variant == "direct_no_dfs":
        return []
    train = []
    if cfg.variant == "forward_all_from_bob":
        train.append(loss_channel(reg, "A", cfg.transmittance, "LA"))
    if cfg.variant == "single_photon_ancilla":
        train.append(loss_channel(reg, "R", cfg.transmittance, "LR"))
    train.append(jones_transform(reg, "R", np.array([[0.0, 1.0], [1.0, 0.0]])))
    if cfg.overlap_amplitude < 1.0:
        train.append(overlap_split(reg, "R", cfg.overlap_amplitude))
    return [*train, pbs(reg, "A", "R", "E", "F"),
            jones_transform(reg, "F", protocol.ANALYZERS["X"])]


def source_phase_state(cfg, phi_h=None, phi_v=None, direct=False):
    """The final state with the collective phase put in at the source: each
    initial term times e^{i (n_H phi_H + n_V phi_V)}, n_H and n_V its photons
    on the phase-carrying modes, then the optical train without labels.
    With no phase, each term is labelled by n_V instead, for the phase
    average.

    The train is the engine's, at s^2 = T = 1/2, or with ``direct`` the
    ``direct_train`` at the config's own s and T, returned with a plan
    that reads its tables as they are."""
    plan = protocol._build_plan(cfg)
    reg = plan.wiring.registry
    v_modes = plan.wiring.charge
    h_modes = [reg.index(reg.modes[i]._replace(pol=H)) for i in v_modes]
    state = protocol._initial_state(cfg, reg)
    n_h = state.occupations[:, h_modes].sum(axis=1)
    n_v = state.occupations[:, v_modes].sum(axis=1)
    if phi_h is None:
        amplitudes, labels = state.amplitudes, n_v
    else:
        amplitudes = state.amplitudes * np.exp(1j * (n_h * phi_h + n_v * phi_v))
        labels = None
    state = FockStateVector.from_arrays(reg, cfg.cutoff, state.occupations,
                                        amplitudes, state.truncated_weight,
                                        labels)
    if direct:
        train = direct_train(cfg, reg)
        plan = replace(plan, overlap_s2=0.5, transmittance=0.5)
    else:
        train = plan.wiring.receiver
    for transform in train:
        state = apply_transform(state, transform)
    return plan, state


def measure(plan, state):
    """``protocol._measure`` of ``state``, rotated into the X basis as the
    engine rotates its final states."""
    return protocol._measure(plan, protocol._Final(plan.wiring, state))
