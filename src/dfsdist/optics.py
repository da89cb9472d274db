"""Linear-optical element builders.

Every element is returned as an isometric :class:`~dfsdist.fock.ModeTransform`.
Beamsplitters use the real rotation convention [[cos t, -sin t], [sin t, cos t]]
and the polarizing beamsplitter carries no extra reflection phases; all
reported observables are convention-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    H,
    MATCHED,
    ORTHOGONAL,
    V,
    ConfigurationError,
    Mode,
    ModeRegistry,
    ModeTransform,
    ValidationError,
)


def beamsplitter(registry: ModeRegistry, mode_a: Mode | int, mode_b: Mode | int,
                 theta: float) -> ModeTransform:
    """Two-mode rotation: a -> cos(t) a + sin(t) b, b -> -sin(t) a + cos(t) b."""
    ia = mode_a if isinstance(mode_a, int) else registry.index(mode_a)
    ib = mode_b if isinstance(mode_b, int) else registry.index(mode_b)
    c, s = math.cos(theta), math.sin(theta)
    mat = np.array([[c, -s], [s, c]], dtype=complex)
    return ModeTransform(registry, (ia, ib), (ia, ib), mat, name="beamsplitter")


def pbs(registry: ModeRegistry, in_1: str, in_2: str, out_1: str,
        out_2: str) -> ModeTransform:
    """Polarizing beamsplitter acting identically on each temporal component.

    H of input 1 -> H of output 1, V of input 1 -> V of output 2,
    H of input 2 -> H of output 2, V of input 2 -> V of output 1.
    """
    taus = registry.temporals(in_1)
    for label in (in_2, out_1, out_2):
        if registry.temporals(label) != taus:
            raise ConfigurationError("PBS ports must share temporal structure")
    routing = {(in_1, H): (out_1, H), (in_1, V): (out_2, V),
               (in_2, H): (out_2, H), (in_2, V): (out_1, V)}
    inputs: list[int] = []
    outputs: list[int] = []
    for tau in taus:
        for (src, pol), (dst, _) in routing.items():
            inputs.append(registry.index(Mode(src, pol, tau)))
            outputs.append(registry.index(Mode(dst, pol, tau)))
    if len(set(outputs)) < len(outputs):
        raise ConfigurationError("PBS output modes collide")
    mat = np.eye(len(outputs), len(inputs), dtype=complex)
    return ModeTransform(registry, tuple(inputs), tuple(outputs), mat, name="PBS")


def jones_transform(registry: ModeRegistry, spatial: str,
                    jones: np.ndarray, name: str = "jones") -> ModeTransform:
    """Apply a 2x2 Jones matrix on (H, V) of one spatial label, per temporal slot."""
    jones = np.asarray(jones, dtype=complex)
    inputs: list[int] = []
    mats: list[np.ndarray] = []
    for tau in registry.temporals(spatial):
        inputs += [registry.index(Mode(spatial, H, tau)),
                   registry.index(Mode(spatial, V, tau))]
        mats.append(jones)
    full = np.zeros((len(inputs), len(inputs)), dtype=complex)
    for k, block in enumerate(mats):
        full[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = block
    idx = tuple(inputs)
    return ModeTransform(registry, idx, idx, full, name=name)


def waveplate(registry: ModeRegistry, spatial: str, theta: float,
              delta: float) -> ModeTransform:
    """Waveplate with fast axis at theta and retardance delta.

    Jones action R(theta) diag(1, e^{i delta}) R(-theta); a half waveplate
    (delta=pi) at 22.5 degrees maps H to D.
    """
    if not (math.isfinite(theta) and math.isfinite(delta)):
        raise ValidationError("waveplate parameters must be finite")
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    jones = rot @ np.diag([1.0, np.exp(1j * delta)]) @ rot.conj().T
    return jones_transform(registry, spatial, jones,
                           name=f"waveplate(theta={theta:.4g})")


def hwp(registry: ModeRegistry, spatial: str, theta: float) -> ModeTransform:
    return waveplate(registry, spatial, theta, math.pi)


def qwp(registry: ModeRegistry, spatial: str, theta: float) -> ModeTransform:
    return waveplate(registry, spatial, theta, math.pi / 2.0)


def phase_shifter(registry: ModeRegistry, spatial: str, phi_h: float,
                  phi_v: float) -> ModeTransform:
    """Multiply the H amplitude by e^{i phi_h} and the V amplitude by e^{i phi_v}."""
    jones = np.diag([np.exp(1j * phi_h), np.exp(1j * phi_v)])
    return jones_transform(registry, spatial, jones, name="phase_shifter")


def attenuator(registry: ModeRegistry, src: str, dst: str, dump: str,
               transmittance: float) -> ModeTransform:
    """Route src -> dst with amplitude sqrt(T), remainder into the dump label."""
    if not 0.0 <= transmittance <= 1.0:
        raise ValidationError("transmittance must lie in [0, 1]")
    inputs = registry.indices(src)
    outputs = [registry.index(Mode(label, mode.pol, mode.temporal))
               for label in (dst, dump)
               for mode in (registry.modes[i] for i in inputs)]
    eye = np.eye(len(inputs))
    mat = np.vstack([math.sqrt(transmittance) * eye,
                     math.sqrt(1.0 - transmittance) * eye]).astype(complex)
    return ModeTransform(registry, tuple(inputs), tuple(outputs), mat,
                         name=f"attenuator(T={transmittance:.4g})")


def loss_channel(registry: ModeRegistry, spatial: str, transmittance: float,
                 loss_label: str) -> ModeTransform:
    """Polarization-independent loss: sqrt(T) survives, sqrt(1-T) to fresh modes."""
    return attenuator(registry, spatial, spatial, loss_label, transmittance)


def overlap_split(registry: ModeRegistry, spatial: str, s: float) -> ModeTransform:
    """Rotate each polarization of a pulse into s*(matched) + sqrt(1-s^2)*(orthogonal).

    Models imperfect mode matching against a reference pulse that occupies the
    matched component only; two-photon interference visibility then scales as
    s^2 while photon-counting statistics are unchanged.
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError("overlap amplitude must lie in [0, 1]")
    taus = registry.temporals(spatial)
    if MATCHED not in taus or ORTHOGONAL not in taus:
        raise ConfigurationError(f"{spatial!r} has no temporal twin modes")
    c = math.sqrt(1.0 - s * s)
    inputs: list[int] = []
    for pol in (H, V):
        inputs += [registry.index(Mode(spatial, pol, MATCHED)),
                   registry.index(Mode(spatial, pol, ORTHOGONAL))]
    mat = np.zeros((4, 4), dtype=complex)
    rot = np.array([[s, -c], [c, s]], dtype=complex)
    mat[:2, :2] = rot
    mat[2:, 2:] = rot
    idx = tuple(inputs)
    return ModeTransform(registry, idx, idx, mat, name=f"overlap_split(s={s:.4g})")


@dataclass(frozen=True)
class OverlapModel:
    """Gaussian delay dependence of the pulse overlap amplitude."""

    s0: float
    sigma_um: float

    def __post_init__(self):
        if not 0.0 <= self.s0 <= 1.0:
            raise ValidationError("zero-delay overlap must lie in [0, 1]")
        if self.sigma_um <= 0.0:
            raise ValidationError("overlap width must be positive")


def overlap_at_delay(model: OverlapModel, delay_um: float) -> float:
    """s(dx) = s0 * exp(-dx^2 / (2 sigma^2))."""
    x = delay_um / model.sigma_um
    return model.s0 * math.exp(-0.5 * x * x)
