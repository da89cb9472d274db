"""Photon-pair and coherent-pulse sources plus threshold-detector models.

Convention: the pair source parameter ``gamma`` is the per-pulse probability
of emitting exactly one pair, to leading order.  The underlying two-mode
squeezing amplitude is ``sqrt(gamma/2)`` per polarization, so the two-pair to
one-pair probability ratio is (3/4)*gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    H,
    MATCHED,
    V,
    FockStateVector,
    Mode,
    ModeRegistry,
    ValidationError,
)

DIAGONAL_JONES = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class SpdcParams:
    """Down-conversion source strength.

    gamma: per-pulse one-pair emission probability (leading order).
    pair_cutoff: highest retained pair number.
    """

    gamma: float
    pair_cutoff: int = 2

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError("gamma must lie in [0, 1)")
        if self.pair_cutoff < 1:
            raise ValidationError("pair cutoff must be >= 1")


@dataclass(frozen=True)
class CoherentParams:
    """Coherent ancilla pulse at its preparation point."""

    mean_photons: float
    jones: tuple[complex, complex] = DIAGONAL_JONES

    def __post_init__(self):
        if self.mean_photons < 0.0:
            raise ValidationError("mean photon number must be >= 0")
        norm = abs(self.jones[0]) ** 2 + abs(self.jones[1]) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError("polarization Jones vector must be normalized")


def spdc_state(params: SpdcParams, registry: ModeRegistry, cutoff: int,
               signal: str = "A", idler: str = "B") -> FockStateVector:
    """Truncated two-polarization squeezed state on (signal, idler).

    exp[g (a_sH^dag a_iH^dag + a_sV^dag a_iV^dag)] |vac> with g = sqrt(gamma/2),
    truncated at ``pair_cutoff`` pairs and renormalized.  The one-pair sector
    is proportional to |HH> + |VV|.
    """
    g = math.sqrt(params.gamma / 2.0)
    sig_h = registry.index(Mode(signal, H, MATCHED))
    sig_v = registry.index(Mode(signal, V, MATCHED))
    idl_h = registry.index(Mode(idler, H, MATCHED))
    idl_v = registry.index(Mode(idler, V, MATCHED))
    vac = registry.vacuum_occupation()
    terms: dict[tuple[int, ...], complex] = {}
    max_pairs = min(params.pair_cutoff, cutoff // 2)
    for k in range(max_pairs + 1):          # H pairs
        for l in range(max_pairs + 1 - k):  # V pairs
            occ = list(vac)
            occ[sig_h] += k
            occ[idl_h] += k
            occ[sig_v] += l
            occ[idl_v] += l
            terms[tuple(occ)] = g ** (k + l)
    state = FockStateVector(registry, cutoff, terms)
    norm2 = state.norm_squared()
    # Weight of the discarded > pair_cutoff tail of the untruncated state.
    full_norm2 = (1.0 / (1.0 - g * g)) ** 2 if g < 1.0 else math.inf
    tail = 1.0 - norm2 / full_norm2
    if tail > 1e-6:
        warnings.warn(f"pair-number truncation discards weight {tail:.3g}",
                      stacklevel=2)
    return state.normalized()


def pair_state(registry: ModeRegistry, cutoff: int, signal: str = "A",
               idler: str = "B",
               amplitudes: tuple[complex, complex] | None = None) -> FockStateVector:
    """Exact one-pair state alpha|HH> + beta|VV> (defaults to the Bell state)."""
    alpha, beta = amplitudes if amplitudes is not None else DIAGONAL_JONES
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError("pair amplitudes must be normalized")
    vac = registry.vacuum_occupation()
    terms: dict[tuple[int, ...], complex] = {}
    for amp, pol in ((alpha, H), (beta, V)):
        if abs(amp) == 0.0:
            continue
        occ = list(vac)
        occ[registry.index(Mode(signal, pol, MATCHED))] = 1
        occ[registry.index(Mode(idler, pol, MATCHED))] = 1
        terms[tuple(occ)] = amp
    return FockStateVector(registry, cutoff, terms)


def coherent_state(params: CoherentParams, registry: ModeRegistry, cutoff: int,
                   spatial: str = "R",
                   phases: tuple[float, float] = (0.0, 0.0)) -> FockStateVector:
    """Truncated coherent state in one polarization mode pair.

    Amplitudes keep their exact Poisson values (no renormalization after
    truncation); the discarded tail weight is recorded on the state and a
    warning is raised if it exceeds 1e-6.
    """
    alpha_h = math.sqrt(params.mean_photons) * params.jones[0] * np.exp(1j * phases[0])
    alpha_v = math.sqrt(params.mean_photons) * params.jones[1] * np.exp(1j * phases[1])
    idx_h = registry.index(Mode(spatial, H, MATCHED))
    idx_v = registry.index(Mode(spatial, V, MATCHED))
    vac = registry.vacuum_occupation()
    prefactor = math.exp(-params.mean_photons / 2.0)
    terms: dict[tuple[int, ...], complex] = {}
    for m in range(cutoff + 1):
        for n in range(cutoff + 1 - m):
            amp = (prefactor * alpha_h ** m * alpha_v ** n
                   / math.sqrt(math.factorial(m) * math.factorial(n)))
            occ = list(vac)
            occ[idx_h] = m
            occ[idx_v] = n
            terms[tuple(occ)] = amp
    state = FockStateVector(registry, cutoff, terms)
    tail = max(0.0, 1.0 - state.norm_squared())
    if tail > 1e-6:
        warnings.warn(f"coherent truncation discards weight {tail:.3g}",
                      stacklevel=2)
    return FockStateVector(registry, cutoff, terms, tail)


def single_photon_state(registry: ModeRegistry, cutoff: int, spatial: str,
                        jones: tuple[complex, complex] = DIAGONAL_JONES,
                        phases: tuple[float, float] = (0.0, 0.0)) -> FockStateVector:
    """One photon in the matched temporal component with the given polarization."""
    vac = registry.vacuum_occupation()
    terms: dict[tuple[int, ...], complex] = {}
    for amp, pol, phase in ((jones[0], H, phases[0]), (jones[1], V, phases[1])):
        if abs(amp) == 0.0:
            continue
        occ = list(vac)
        occ[registry.index(Mode(spatial, pol, MATCHED))] = 1
        terms[tuple(occ)] = amp * np.exp(1j * phase)
    return FockStateVector(registry, cutoff, terms)


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector: click/no-click with efficiency and dark probability."""

    name: str
    efficiency: float
    dark: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark < 1.0:
            raise ValidationError("dark probability must lie in [0, 1)")

    def miss_probability(self, n_photons: int) -> float:
        """(1 - efficiency)^n: none of n photons is detected."""
        return (1.0 - self.efficiency) ** n_photons

    def photon_probability(self, n_photons: int) -> float:
        """1 - (1 - efficiency)^n, as -expm1(n log1p(-efficiency)): the
        difference would cancel away the digits of a small efficiency."""
        if self.efficiency == 1.0:  # log(0): only n = 0 is missed
            return np.greater(n_photons, 0) * 1.0
        return -np.expm1(np.multiply(n_photons, math.log1p(-self.efficiency)))

    def click_probability(self, n_photons: int) -> float:
        return (self.photon_probability(n_photons)
                + self.dark * self.miss_probability(n_photons))

    def no_click_probability(self, n_photons: int) -> float:
        """(1 - dark)(1 - efficiency)^n, free of 1 - click's cancellation."""
        return (1.0 - self.dark) * self.miss_probability(n_photons)


def click_table(state: FockStateVector,
                groups: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each term's |amplitude|^2 and its photon count on each mode group.

    Returns the weights w, one per term, and the counts n, with n[t, k] the
    photons of term t on group k, summed over the group's modes.
    Groups may overlap.  Every detector pattern is a contraction of w with
    click columns ``DetectorModel.click_probability(n[:, k])`` and no-click
    columns ``DetectorModel.no_click_probability(n[:, k])``.
    """
    # Row sums of the transposed occupations: numpy's integer matmul runs
    # outside BLAS and is several times slower.
    modes = np.ascontiguousarray(state.occupations.T)
    counts = [modes[list(group)].sum(axis=0, dtype=modes.dtype)
              for group in groups]
    return np.abs(state.amplitudes) ** 2, np.stack(counts, axis=1)
