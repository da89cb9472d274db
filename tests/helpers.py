"""State and density-matrix comparisons used by the tests only."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dfsdist.fock import (
    ConfigurationError,
    FockStateVector,
    Mode,
    PolarizationDensityMatrix,
    ValidationError,
)


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
