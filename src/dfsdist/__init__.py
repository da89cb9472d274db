"""Fock-space simulator of decoherence-free entanglement distribution."""

from .fock import (
    H,
    MATCHED,
    ORTHOGONAL,
    V,
    ConfigurationError,
    FockStateVector,
    Mode,
    ModeRegistry,
    ModeTransform,
    PolarizationDensityMatrix,
    UndefinedFidelityError,
    ValidationError,
    apply_transform,
    fidelity_to_phi_plus,
    make_registry,
    tensor,
)
from .optics import (
    OverlapModel,
    attenuator,
    beamsplitter,
    hwp,
    jones_transform,
    loss_channel,
    overlap_at_delay,
    overlap_split,
    pbs,
    phase_shifter,
    qwp,
    waveplate,
)
from .protocol import (
    PHASE_SET_8,
    REP_RATE_HZ,
    ExperimentConfig,
    ProtocolOutcome,
    ScalingReport,
    chsh_violated,
    component_scaling,
    distribute_qubit,
    f_low,
    forward_variant_scaling,
    run_fixed_phase,
    run_phase_averaged,
    sharing_rate,
    two_qubit_state,
    visibilities,
)
from .sources import (
    CoherentParams,
    DetectorModel,
    SpdcParams,
    coherent_state,
    pair_state,
    single_photon_state,
    spdc_state,
)

__version__ = "0.1.0"
