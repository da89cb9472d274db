"""Full entanglement-distribution protocol wiring and measurement statistics.

The counter-propagating scheme sends one photon of a polarization-entangled
pair through a lossy collective-dephasing channel while a weak coherent pulse
traverses the same channel in the opposite direction.  The receiver flips the
pulse polarization, interferes pulse and retained photon on a polarizing
beamsplitter (quantum parity check), projects one output onto |D> and keeps
threshold triple coincidences.  The surviving two-photon state lives in a
subspace immune to the collective phase noise.

Because a coherent pulse stays coherent under loss and glass-plate reflection
(the complementary ports carry unentangled coherent states that are never
detected), the pulse is prepared directly at the receiver with its delivered
mean photon number; the launched intensity scales as 1/T and could not be
represented in a truncated Fock space.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .fock import (
    MAX_CUTOFF,
    H,
    ORTHOGONAL,
    V,
    ConfigurationError,
    FockStateVector,
    ModeRegistry,
    ModeTransform,
    PolarizationDensityMatrix,
    ValidationError,
    _merge_labels,
    make_registry,
    apply_transform,
    compose,
    tensor,
)
from .optics import (
    OverlapModel,
    jones_transform,
    loss_channel,
    overlap_at_delay,
    overlap_split,
    pbs,
)
from .sources import (
    CoherentParams,
    DetectorModel,
    SpdcParams,
    _integer_power,
    click_table,
    coherent_state,
    pair_state,
    single_photon_state,
    spdc_state,
)

REP_RATE_HZ = 82e6
CHSH_FIDELITY_BOUND = 1.0 / math.sqrt(2.0)

# Phases (phi_H, phi_V) for sampling; at cutoff <= 7 their mean is uniform.
PHASE_SET_8 = tuple((0.0, n * math.pi / 4.0) for n in range(8))

# Transmittances of the forward variant's unwanted-component fit.
FORWARD_T_GRID = (0.003, 0.01, 0.03)

VARIANTS = ("counter_propagating", "forward_all_from_bob",
            "single_photon_ancilla", "direct_no_dfs")
SOURCES = ("spdc", "exact_pair")

_SQ2 = 1.0 / math.sqrt(2.0)
ANALYZER_KETS: dict[str, tuple[complex, complex]] = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "D": (_SQ2, _SQ2),
    "Dbar": (_SQ2, -_SQ2),
    "R": (_SQ2, 1j * _SQ2),
    "L": (_SQ2, -1j * _SQ2),
}
Z_SETTINGS = ("H", "V")
X_SETTINGS = ("D", "Dbar")
# The analyzer setting each tomography basis puts on the H modes: the +1
# eigenstate of its Pauli operator.
ANALYZER_BASES = {"Z": "H", "X": "D", "Y": "R"}
_PAULI = {"Z": np.diag([1.0, -1.0]), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
          "Y": np.array([[0.0, -1j], [1j, 0.0]])}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameter record for one protocol configuration.

    ``mu`` is the ancilla mean photon number delivered to the receiver; the
    launched value mu/T is reported by :attr:`mu_bob`.  ``gamma`` is the
    per-pulse pair-emission probability of the source.
    """

    gamma: float = 3.0e-3
    mu: float = 1.4e-2 / 0.13
    transmittance: float = 0.1
    eta: float = 0.13
    eta_g: float = 0.09
    dark_g: float = 1.5e-6
    dark_e: float = 0.0
    dark_f: float = 0.0
    overlap_s0: float = 1.0
    overlap_sigma_um: float = 100.0
    delay_um: float = 0.0
    gp_reflectance: float = 0.05
    phase_delta: tuple[float, float] = (0.0, 0.0)
    cutoff: int = 4
    variant: str = "counter_propagating"
    source: str = "spdc"
    input_qubit: tuple[complex, complex] | None = None
    include_feedforward_branch: bool = False
    pair_cutoff: int = 2

    def __post_init__(self):
        # NaN passes every range comparison below, so reject it first.
        numbers = [v for v in vars(self).values() if isinstance(v, float)]
        numbers += [*self.phase_delta, *(self.input_qubit or ())]
        if not np.isfinite(np.asarray(numbers, dtype=complex)).all():
            raise ValidationError("config values and phases must be finite")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.source not in SOURCES:
            raise ConfigurationError(f"unknown source {self.source!r}")
        for name in ("transmittance", "eta", "eta_g", "gp_reflectance",
                     "overlap_s0"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.mu < 0.0:
            raise ValidationError("mu must be >= 0")
        for name in ("gamma", "dark_g", "dark_e", "dark_f"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must lie in [0, 1)")
        if self.pair_cutoff < 1:
            raise ValidationError("pair_cutoff must be >= 1")
        if self.overlap_sigma_um <= 0.0:
            raise ValidationError("overlap width must be positive")
        if not 1 <= self.cutoff <= MAX_CUTOFF:
            raise ValidationError(f"cutoff must lie in [1, {MAX_CUTOFF}]")
        if self.input_qubit is not None:
            a, b = self.input_qubit
            if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
                raise ValidationError("input qubit must be normalized")

    @property
    def mu_bob(self) -> float:
        """Launched ancilla mean photon number (1/T scaling)."""
        if self.transmittance == 0.0:
            return math.inf if self.mu > 0 else 0.0
        return self.mu / self.transmittance

    @property
    def overlap_amplitude(self) -> float:
        model = OverlapModel(self.overlap_s0, self.overlap_sigma_um)
        return overlap_at_delay(model, self.delay_um)

    @classmethod
    def ideal(cls, variant: str = "single_photon_ancilla",
              **overrides) -> "ExperimentConfig":
        """Lossless single-pair configuration with perfect detectors."""
        base = dict(
            gamma=0.0, mu=0.0, transmittance=1.0, eta=1.0, eta_g=1.0,
            dark_g=0.0, overlap_s0=1.0, gp_reflectance=0.0,
            variant=variant, source="exact_pair", cutoff=4,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class ProtocolOutcome:
    """Coincidence statistics of one run."""

    zz_probs: dict[tuple[str, str], float]
    xx_probs: dict[tuple[str, str], float]
    triple_probability: float
    components: dict[tuple[int, int, str], float]
    truncated_weight: float = 0.0

    @property
    def desired_probability(self) -> float:
        return self.components.get((1, 1, "photon"), 0.0)

    @property
    def ancilla_multiphoton_probability(self) -> float:
        return sum(val for (_, r, org), val in self.components.items()
                   if r >= 2 and org == "photon")

    @property
    def multi_pair_probability(self) -> float:
        return sum(val for (p, r, org), val in self.components.items()
                   if p >= 2 and org == "photon")

    @property
    def dark_probability(self) -> float:
        return sum(val for (_, _, org), val in self.components.items()
                   if org == "dark")


@dataclass
class _Plan:
    registry: ModeRegistry
    side_e: str
    side_g: str
    herald: str | None
    pair_side_indices: list[int]
    detectors: dict[str, DetectorModel]
    # V modes of the source labels that carry the collective phase.
    charge_indices: list[int]
    # Keep the second herald outcome too (needs a herald).
    feedforward: bool = False
    # The loss modes of the pulse (LR) and the pair photon (LA), and the s^2
    # and T ``_table`` reads at: 1/2 reads a state as it was propagated.
    loss_indices: tuple[Sequence[int], Sequence[int]] = ((), ())
    overlap_s2: float = 0.5
    transmittance: float = 0.5


def _analyzer_matrix(setting: str) -> np.ndarray:
    ket = ANALYZER_KETS[setting]
    orth = {"H": "V", "V": "H", "D": "Dbar", "Dbar": "D", "R": "L", "L": "R"}
    ket2 = ANALYZER_KETS[orth[setting]]
    return np.array([[np.conj(ket[0]), np.conj(ket[1])],
                     [np.conj(ket2[0]), np.conj(ket2[1])]], dtype=complex)


def _charge_indices(reg: ModeRegistry, labels: Sequence[str]) -> list[int]:
    return [i for lab in labels for i in reg.indices(lab, pol=V)]


# Each loss variant's lossy label and the loss modes its photons go to.
_CHANNEL_LOSS = {"single_photon_ancilla": ("R", "LR"),
                 "forward_all_from_bob": ("A", "LA")}


@functools.cache
def _registry(variant: str) -> ModeRegistry:
    """The modes of ``variant``, one registry per process."""
    if variant == "direct_no_dfs":
        return make_registry(["A", "B"])
    loss = [(_CHANNEL_LOSS[variant][1], True)] if variant in _CHANNEL_LOSS else []
    return make_registry([("A", True), ("R", True), ("E", True), ("F", True),
                          "B", *loss])


def _build_plan(cfg: ExperimentConfig) -> _Plan:
    det_e = DetectorModel("D_E", cfg.eta, cfg.dark_e)
    det_f = DetectorModel("D_F", cfg.eta, cfg.dark_f)
    # Where the pair photon B crosses the channel, its loss and the pickoff
    # plate act alike on H and V and nothing interferes with B after them:
    # they commute with its analyzer and are part of D_G's efficiency.
    eta_g = cfg.eta_g
    if cfg.variant != "forward_all_from_bob":
        eta_g *= cfg.transmittance * (1.0 - cfg.gp_reflectance)
    det_g = DetectorModel("D_G", eta_g, cfg.dark_g)
    reg = _registry(cfg.variant)
    s = cfg.overlap_amplitude
    reads = dict(overlap_s2=s * s, transmittance=cfg.transmittance)

    if cfg.variant == "direct_no_dfs":
        return _Plan(reg, "A", "B", None, reg.indices("B"),
                     {"E": det_e, "G": det_g}, _charge_indices(reg, ["B"]),
                     **reads)

    forward = cfg.variant == "forward_all_from_bob"
    loss = (reg.indices("LR") if cfg.variant == "single_photon_ancilla"
            else [], reg.indices("LA") if forward else [])
    return _Plan(reg, "E", "B", "F", reg.indices("B"),
                 {"E": det_e, "G": det_g, "F": det_f},
                 _charge_indices(reg, ["A" if forward else "B", "R"]),
                 cfg.include_feedforward_branch, loss, **reads)


def _initial_state(cfg: ExperimentConfig, reg: ModeRegistry) -> FockStateVector:
    """Sources at zero collective phase; the ancilla carries ``phase_delta``."""
    if cfg.source == "exact_pair":
        pair = pair_state(reg, cfg.cutoff, "A", "B", cfg.input_qubit)
    else:
        pair = spdc_state(SpdcParams(cfg.gamma, cfg.pair_cutoff), reg,
                          cfg.cutoff, "A", "B")
    if cfg.variant == "direct_no_dfs":
        return pair
    if cfg.variant == "single_photon_ancilla":
        # Launched at the sender; the receiver map applies its loss.
        ancilla = single_photon_state(reg, cfg.cutoff, "R",
                                      phases=cfg.phase_delta)
    else:
        ancilla = coherent_state(CoherentParams(_delivered_mu(cfg)), reg,
                                 cfg.cutoff, "R", phases=cfg.phase_delta)
    return tensor(pair, ancilla)


def _delivered_mu(cfg: ExperimentConfig) -> float:
    """The pulse's mean photon number at the receiver: none at T = 0."""
    return cfg.mu if cfg.transmittance > 0.0 else 0.0


@functools.cache
def _receiver(variant: str) -> tuple[ModeTransform, ...]:
    """The phase-independent optical train after the sources as one
    composed map on the variant's registry, built once per process; none
    without a pulse.  It runs at the s^2 = T = 1/2 that ``_table`` reads
    from: the channel loss, if the variant has one, the polarization flip,
    the overlap split, the PBS and the herald analyzer."""
    if variant == "direct_no_dfs":
        return ()
    reg = _registry(variant)
    seq = []
    if variant in _CHANNEL_LOSS:
        label, lost = _CHANNEL_LOSS[variant]
        seq.append(loss_channel(reg, label, 0.5, lost))
    seq += [
        # Polarization flip before the PBS, built as the exact swap.
        jones_transform(reg, "R", _PAULI["X"], name="waveplate(flip)"),
        overlap_split(reg, "R", _SQ2),
        pbs(reg, "A", "R", "E", "F"),
        # The herald analyzer puts |D> on the H modes F's detector watches;
        # |Dbar> leaves through the unused port.
        jones_transform(reg, "F", _analyzer_matrix("D"), name="F analyzer")]
    return (compose(seq, "receiver"),)


@dataclass(eq=False)
class _Final:
    """A labelled final state and, built on first use, the ``_Counts`` of
    each analyzer basis pair it is read in; ``plan`` is the one it was built
    with."""

    plan: _Plan
    state: FockStateVector
    _counts: dict = field(default_factory=dict, init=False, repr=False)
    _bytes: list = field(init=False, repr=False)

    def __post_init__(self):
        self._bytes = [sum(a.nbytes for a in (
            self.state.occupations, self.state.amplitudes, self.state.labels))]

    def counts(self, basis_e: str, basis_g: str,
               phase: tuple[float, float] | None = None) -> "_Counts":
        """The ``_Counts`` of the state, at the collective ``phase`` if one
        is given, with each side ``_rotated`` into its analyzer basis."""
        key = (basis_e, basis_g, phase)
        if key not in self._counts:
            state = (self.state if phase is None
                     else _at_phases(self.state, [phase])[0])
            self._counts[key] = _count_table(self.plan, _rotated(
                self.plan, state, basis_e, basis_g), self._bytes)
        return self._counts[key]

    @property
    def nbytes(self) -> int:
        """The bytes of the state's arrays and of every table held, in a
        cell the tables add to: a callback would make a reference cycle."""
        return self._bytes[0]


# The final states of the configurations last used, least recently used
# first, with their count tables, while their arrays total at most
# MEMO_BYTES.  A reproduction has 12 entries, 0.64 MB at cutoff 4 and
# 9.9 MB at cutoff 7 (pair cutoff 3), where the bound keeps 9 and still
# propagates each once; there an entry is 0.88 MB after an averaged read
# and 1.41 MB once the delay scan has read it too.
MEMO_BYTES = 8 << 20
_FINAL_STATES: OrderedDict[tuple, _Final] = OrderedDict()


def _final_state(cfg: ExperimentConfig) -> tuple[_Plan, _Final]:
    """The plan of ``cfg``, and its sources plus optical train propagated
    at s^2 = T = 1/2, each term labelled with its photon number n_V on the
    V modes that carry the collective phase.  The phase (phi_H, phi_V), the
    same on both channel passes, reaches those modes before any element
    mixes them.  Averaged uniformly over it, terms of different n_V never
    interfere; ``_at_phases`` merges the labels at fixed phases.

    The state is propagated once per process for its key, the fields the
    sources and the receiver map read: ``variant``, ``source``, ``gamma``,
    ``pair_cutoff``, ``cutoff``, ``mu`` (0 at T = 0, which turns the pulse
    off), ``phase_delta`` and ``input_qubit``.  T, s and the detectors enter
    only the ``_Table`` reads.
    """
    plan = _build_plan(cfg)
    key = (cfg.variant, cfg.source, cfg.gamma, cfg.pair_cutoff, cfg.cutoff,
           _delivered_mu(cfg), cfg.phase_delta, cfg.input_qubit)
    final = _FINAL_STATES.pop(key, None)
    if final is None:
        state = _initial_state(cfg, plan.registry)
        n_v = state.occupations[:, plan.charge_indices].sum(axis=1)
        state = FockStateVector.from_arrays(
            plan.registry, cfg.cutoff, state.occupations, state.amplitudes,
            state.truncated_weight, n_v)
        for receiver in _receiver(cfg.variant):
            state = apply_transform(state, receiver)
        final = _Final(plan, state)
    _FINAL_STATES[key] = final
    # Reads add tables to entries after this lookup: the bound is kept at
    # every lookup, on the entries' sizes then, and never drops this entry.
    total = sum(f.nbytes for f in _FINAL_STATES.values())
    while len(_FINAL_STATES) > 1 and total > MEMO_BYTES:
        total -= _FINAL_STATES.popitem(last=False)[1].nbytes
    return plan, final


def _at_phases(final: FockStateVector, phases: Sequence[tuple[float, float]],
               ) -> list[FockStateVector]:
    """The labelled ``final`` state at each collective phase (phi_H, phi_V):
    its n_V labels summed with the characters e^{i n_V (phi_V - phi_H)}.

    Every element keeps the photon number N = n_H + n_V of the phase-carrying
    modes and each final row fixes N, so phi_H only adds one phase
    e^{i N phi_H} per row.  That changes no statistic and is dropped.
    """
    return _merge_labels(final, [np.exp(1j * (phi_v - phi_h) * final.labels)
                                 for phi_h, phi_v in phases])


def prepare_final_state(cfg: ExperimentConfig, phi_h: float,
                        phi_v: float) -> tuple[_Plan, FockStateVector]:
    """Sources plus optical train for one collective phase setting."""
    plan, final = _final_state(cfg)
    return plan, _at_phases(final.state, [(phi_h, phi_v)])[0]


def run_fixed_phase(cfg: ExperimentConfig, phi_h: float,
                    phi_v: float) -> ProtocolOutcome:
    """Run the protocol for one collective phase setting."""
    plan, state = prepare_final_state(cfg, phi_h, phi_v)
    return _measure(plan, _Final(plan, state))


@dataclass(frozen=True)
class _Counts:
    """The detector-free click table of a state: each row's photons on the
    ``_analyzed_groups`` (E_H, E_V, G_H, G_V and, with a herald, F_H, F_V),
    then on the pair side, on all modes, on orthogonal modes and on the
    loss modes LR and LA.  The state is propagated at s^2 = T = 1/2, and the
    overlap split and the channel loss are beamsplitter dilations whose port
    counts each row fixes: m matched and k orthogonal pulse photons past the
    split; lost ones on LR (or LA) and kept ones, 1 - lost (or B photons -
    lost).  So a row's weight at p = s^2 and T is its propagated one times
    (2p)^a (2(1 - p))^b for (a, b) = (m, k) and for (a, b) = (kept, lost);
    ``scaled`` holds the propagated weight times 2^(m + k + kept + lost).
    """

    counts: np.ndarray
    scaled: np.ndarray
    matched: np.ndarray
    orthogonal: np.ndarray
    kept: np.ndarray
    lost: np.ndarray
    owner_bytes: list | None = None  # see ``_count_table``

    @cached_property
    def classes(self) -> tuple[list, np.ndarray]:
        """The sorted (pair count, ancilla photon count) classes of
        ``triple``'s components, and each row's class index."""
        pairs, photons = self.counts[:, -5], self.counts[:, -4]
        # One int64 key per (pairs, ancilla photons), sorted as those pairs:
        # the ancilla count lies in [-MAX_CUTOFF, MAX_CUTOFF], negative only
        # in states the protocol does not make.
        radix = 2 * MAX_CUTOFF + 1
        keys, inverse = np.unique(
            pairs.astype(np.int64) * radix + (photons - 2 * pairs + MAX_CUTOFF),
            return_inverse=True)
        n_pairs_of, ancilla_of = divmod(keys, radix)
        ancilla_of -= MAX_CUTOFF
        if self.owner_bytes is not None:
            self.owner_bytes[0] += inverse.nbytes
        return list(zip(n_pairs_of.tolist(), ancilla_of.tolist())), inverse


def _count_table(plan: _Plan, state: FockStateVector,
                 owner_bytes: list | None = None) -> _Counts:
    """The ``_Counts`` of ``state``, its sides already in their bases; its
    arrays, and ``classes`` once built, add their bytes to owner_bytes[0]."""
    reg = plan.registry
    orthogonal = [i for i, mode in enumerate(reg.modes)
                  if mode.temporal == ORTHOGONAL]
    w, counts = click_table(state, [
        *_analyzed_groups(plan), plan.pair_side_indices, range(reg.n_modes),
        orthogonal, *plan.loss_indices])
    pairs, total, k, lost_pulse, lost_pair = counts[:, -5:].T
    # Each photon is one of a pair (two per pair-side photon) or the
    # pulse's: lost before the split, or counted in m + k.
    m = total - 2 * pairs - k - lost_pulse
    pulse_loss, pair_loss = (len(modes) > 0 for modes in plan.loss_indices)
    kept = pulse_loss * (m + k) + pair_loss * (pairs - lost_pair)
    lost = lost_pulse + lost_pair
    table = _Counts(counts, w * _integer_power(2.0, m + k + kept + lost), m,
                    k, kept, lost, owner_bytes)
    if owner_bytes is not None:
        owner_bytes[0] += sum(a.nbytes for a in (counts, table.scaled, m, k,
                                                  kept, lost))
    return table


@dataclass(frozen=True)
class _Table:
    """A ``_Counts`` read at the plan's T, overlap and detectors: each row's
    weight, its herald click probabilities and the click columns of E_H,
    E_V and of G_H, G_V.  ``pair_probs`` reads it at any other overlap."""

    plan: _Plan
    source: _Counts
    heralds: list  # per-row click probability of F_H and F_V, or [1.0]
    clicks: tuple[np.ndarray, np.ndarray]
    scaled: np.ndarray  # each row's weight at T times 2^(m + k)

    def weights_at(self, s2: float) -> np.ndarray:
        """Each row's weight at the overlap s^2 = ``s2``."""
        return (self.scaled * _integer_power(s2, self.source.matched)
                * _integer_power(1.0 - s2, self.source.orthogonal))

    @cached_property
    def weights(self) -> np.ndarray:
        return self.weights_at(self.plan.overlap_s2)

    def pair_probs(self, herald: int = 0,
                   s2: float | None = None) -> np.ndarray:
        """Coincidences of E port i and G port j (port 0 the +1 outcome)
        with herald outcome ``herald``, as a 2x2 array, at the overlap
        s^2 = ``s2`` or the table's own.  Photons behind the orthogonal
        analyzer port are discarded, not detected."""
        w = self.weights if s2 is None else self.weights_at(s2)
        e, g = self.clicks
        return (e * (w * self.heralds[herald])[:, None]).T @ g

    def kept_pair_probs(self, basis_e: str,
                        s2: float | None = None) -> np.ndarray:
        """``pair_probs`` of the kept herald outcomes, E's analyzer basis
        being ``basis_e``.  The feed-forward branch also keeps the second
        outcome (|Dbar>): a sign flip on the retained photon restores the
        target state, i.e. its X and Y outcomes swap."""
        probs = self.pair_probs(s2=s2)
        if self.plan.feedforward:
            flipped = self.pair_probs(1, s2)
            probs = probs + (flipped if basis_e == "Z" else flipped[::-1])
        return probs

    def triple(self) -> tuple[float, dict[tuple[int, int, str], float]]:
        """The probability that E, G and a kept herald outcome all click,
        and its components by (pair count, ancilla photon count, click
        origin of the pair-side detector)."""
        n = self.source.counts
        det_e, det_g = self.plan.detectors["E"], self.plan.detectors["G"]
        w_eh = (self.weights * det_e.click_probability(n[:, 0] + n[:, 1])
                * sum(self.heralds[:1 + self.plan.feedforward]))
        # The pair-side click from a photon, or else from a dark count.
        n_g = n[:, 2] + n[:, 3]
        g_photon = det_g.photon_probability(n_g)
        g_dark = det_g.dark * det_g.miss_probability(n_g)
        classes, inverse = self.source.classes
        comps: dict[tuple[int, int, str], float] = {}
        for origin, part in (("photon", w_eh * g_photon),
                             ("dark", w_eh * g_dark)):
            sums = np.bincount(inverse, part, len(classes))
            comps.update({(*c, origin): val for c, val
                          in zip(classes, sums.tolist()) if val})
        return float(w_eh @ (g_photon + g_dark)), comps

    def patterns(self) -> dict[tuple[bool, bool, bool], float]:
        """The probability of each (E, F, G) click pattern, F being the
        herald's |D> port; without a herald F never clicks."""
        n = self.source.counts
        dets = self.plan.detectors
        sides = [(dets["E"], n[:, 0] + n[:, 1]), (dets["G"], n[:, 2] + n[:, 3])]
        if self.plan.herald is not None:
            sides.insert(1, (dets["F"], n[:, 4]))
        columns = [(det.no_click_probability(k), det.click_probability(k))
                   for det, k in sides]
        dist = {}
        for bits in itertools.product((False, True), repeat=len(columns)):
            p = self.weights
            for b, column in zip(bits, columns):
                p = p * column[b]
            key = bits if len(bits) == 3 else (bits[0], False, bits[1])
            dist[key] = float(p.sum())
        return dist


def _table(plan: _Plan, source: _Counts) -> _Table:
    """``source`` read at the plan's s^2, T and detectors; see ``_Table``."""
    n = source.counts
    dets = plan.detectors
    heralds = ([1.0] if plan.herald is None else
               [dets["F"].click_probability(n[:, c]) for c in (4, 5)])
    t = plan.transmittance
    scaled = (source.scaled * _integer_power(t, source.kept)
              * _integer_power(1.0 - t, source.lost))
    clicks = (dets["E"].click_probability(n[:, :2]),
              dets["G"].click_probability(n[:, 2:4]))
    return _Table(plan, source, heralds, clicks, scaled)


def delay_coincidences(cfg: ExperimentConfig,
                       ) -> Callable[[float], tuple[float, float]]:
    """Circular-basis coincidences against the pulse overlap s.

    ``delay_coincidences(cfg)(s)`` is (p_rd, p_ld): the partner in L, the
    retained photon in R or in L.  The retained photon is heralded into a
    circular polarization by analyzing its partner in the orthogonal
    circular basis, at zero channel phase, since single-run interference is
    only visible without averaging.  Both sides are rotated to put R on the
    H modes, so both coincidences come from the memo's one Y-Y table.
    """
    if cfg.variant == "direct_no_dfs":
        raise ConfigurationError("variant 'direct_no_dfs' has no pulse, "
                                 "so no delay dependence")
    plan, final = _final_state(cfg)
    table = _table(plan, final.counts("Y", "Y", (0.0, 0.0)))

    @functools.cache  # a symmetric scan reads each s at +dx and at -dx
    def coincidences(s: float) -> tuple[float, float]:
        probs = table.pair_probs(s2=_overlap_s2(s))
        return float(probs[0, 1]), float(probs[1, 1])
    return coincidences


def overlap_x_visibility(cfg: ExperimentConfig) -> Callable[[float], float]:
    """Phase-averaged V_X against the zero-delay overlap amplitude s.

    ``overlap_x_visibility(cfg)(s)`` is
    ``visibilities(run_phase_averaged(replace(cfg, overlap_s0=s,
    delay_um=0.0)))[1]``, read from the memo's X-X table.
    """
    plan, final = _final_state(cfg)
    table = _table(plan, final.counts("X", "X"))

    def v_x(s: float) -> float:
        probs = table.kept_pair_probs("X", _overlap_s2(s))
        return _correlation(_labelled(probs, X_SETTINGS), X_SETTINGS)
    return v_x


def _overlap_s2(s: float) -> float:
    """s^2 of an overlap amplitude s, which must lie in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError("overlap amplitude must lie in [0, 1]")
    return s * s


def _analyzed_groups(plan: _Plan) -> list[list[int]]:
    """Mode groups E_H, E_V, G_H, G_V and, with a herald, F_H, F_V.

    The herald analyzer puts |D> on F_H and |Dbar> on F_V.
    """
    reg = plan.registry
    sides = [plan.side_e, plan.side_g]
    if plan.herald is not None:
        sides.append(plan.herald)
    return [reg.indices(side, pol=pol) for side in sides for pol in (H, V)]


def _labelled(probs: np.ndarray,
              settings: tuple[str, str]) -> dict[tuple[str, str], float]:
    return {(se, sg): p for se, row in zip(settings, probs.tolist())
            for sg, p in zip(settings, row)}


@functools.cache
def _rotation(reg: ModeRegistry, side_e: str, basis_e: str, side_g: str,
              basis_g: str) -> ModeTransform | None:
    """One composed map, built once per process, that rotates each side so
    that the +1 eigenstate of its analyzer basis (keys of
    ``ANALYZER_BASES``) lies on its H modes; none for Z on both sides."""
    rotations = [jones_transform(reg, side,
                                 _analyzer_matrix(ANALYZER_BASES[basis]),
                                 name=f"{side} {basis}")
                 for side, basis in ((side_e, basis_e), (side_g, basis_g))
                 if basis != "Z"]
    return compose(rotations, "jones") if rotations else None


def _rotated(plan: _Plan, state: FockStateVector, basis_e: str,
             basis_g: str) -> FockStateVector:
    """The state with each side rotated into its analyzer basis."""
    rotation = _rotation(plan.registry, plan.side_e, basis_e, plan.side_g,
                         basis_g)
    return state if rotation is None else apply_transform(state, rotation)


def _measure(plan: _Plan, final: _Final) -> ProtocolOutcome:
    """Every coincidence statistic from the Z-Z and X-X tables of ``final``."""
    table = _table(plan, final.counts("Z", "Z"))
    xx = _table(plan, final.counts("X", "X")).kept_pair_probs("X")
    triple, comps = table.triple()
    return ProtocolOutcome(_labelled(table.kept_pair_probs("Z"), Z_SETTINGS),
                           _labelled(xx, X_SETTINGS), triple, comps,
                           final.state.truncated_weight)


def _tomography(plan: _Plan, state: FockStateVector) -> np.ndarray:
    """Linear-inversion two-qubit tomography of E and G over the 3 x 3
    analyzer bases (James et al., PRA 64, 052312 (2001)).

    Each basis pair's table is built on ``state`` rotated into it and not
    kept: the tomography reads a configuration once per process (``dfsdist
    tomography``, ``dfsdist qubit``, the reproduction), so the memo holds
    none of the nine tables.  Each pair's coincidences are normalized
    by their own total and give one correlation <a x b>; each single-side
    Pauli expectation is the mean over the three bases of the other side.
    The 4x4 result has trace 1 and is Hermitian by construction; with
    multi-photon terms it need not be PSD.
    """
    sign = np.array([1.0, -1.0])
    eye = np.eye(2)
    rho = np.eye(4, dtype=complex)
    for a in ANALYZER_BASES:
        for b in ANALYZER_BASES:
            p = _table(plan, _count_table(
                plan, _rotated(plan, state, a, b))).kept_pair_probs(a)
            total = p.sum()
            if total <= 0.0:
                raise ValidationError("no coincidences; state undefined")
            p = p / total
            rho += (sign @ p @ sign) * np.kron(_PAULI[a], _PAULI[b])
            rho += (sign @ p.sum(axis=1)) / 3.0 * np.kron(_PAULI[a], eye)
            rho += (p.sum(axis=0) @ sign) / 3.0 * np.kron(eye, _PAULI[b])
    return rho / 4.0


def pattern_distribution(cfg: ExperimentConfig,
                         ) -> dict[tuple[int, tuple[bool, bool, bool]], float]:
    """Probability of each (phase index, (E, F, G) click pattern) of a pulse
    whose phase is drawn uniformly from ``PHASE_SET_8``; see
    ``_Table.patterns``.  Each final row's n_V is fixed by its occupation,
    so ``_at_phases`` merges no rows, only turns each by a unit phase: every
    phase has the labelled state's patterns.
    """
    plan, final = _final_state(cfg)
    dist = _table(plan, final.counts("Z", "Z")).patterns()
    norm = sum(dist.values())  # < 1 only by the recorded truncation weight
    return {(k, bits): p / (norm * len(PHASE_SET_8))
            for k in range(len(PHASE_SET_8)) for bits, p in dist.items()}


def run_phase_averaged(cfg: ExperimentConfig) -> ProtocolOutcome:
    """Uniform average over the collective V-vs-H channel phase, exactly.

    The phase phi acts as e^{i n_V phi} on the V-photon number n_V of the
    phase-carrying source modes, so averaged over phi the n_V classes never
    interfere.  The state labelled by n_V is propagated and measured once,
    at any cutoff; ``truncated_weight`` is that state's own.
    """
    return _measure(*_final_state(cfg))


def two_qubit_state(cfg: ExperimentConfig,
                    phase: tuple[float, float] | None = None,
                    ) -> PolarizationDensityMatrix:
    """The conditional two-qubit state of E and G by tomography.

    At the collective phase ``phase`` = (phi_H, phi_V), or with ``None``
    exactly averaged over the phase, as ``run_phase_averaged`` averages it.
    Raises ``ValidationError`` if the reconstruction is not a state.
    """
    plan, final = _final_state(cfg)
    state = (final.state if phase is None
             else _at_phases(final.state, [phase])[0])
    return PolarizationDensityMatrix(_tomography(plan, state))


def _correlation(probs: Mapping[tuple[str, str], float],
                 names: tuple[str, str]) -> float:
    """<A B> from the coincidences of the two settings ``names``."""
    a, b = names
    total = sum(probs.values())
    if total <= 0.0:
        raise ValidationError("no coincidences; visibility undefined")
    return (probs[(a, a)] + probs[(b, b)] - probs[(a, b)]
            - probs[(b, a)]) / total


def visibilities(outcome: ProtocolOutcome) -> tuple[float, float]:
    """Correlations <Z Z> and <X X> from the per-basis coincidence rates."""
    return (_correlation(outcome.zz_probs, Z_SETTINGS),
            _correlation(outcome.xx_probs, X_SETTINGS))


def f_low(v_z: float, v_x: float) -> float:
    """Fidelity lower bound (V_Z + V_X) / 2."""
    return 0.5 * (v_z + v_x)


def chsh_violated(fidelity_bound: float) -> bool:
    return fidelity_bound > CHSH_FIDELITY_BOUND


def sharing_rate(cfg: ExperimentConfig) -> tuple[float, float]:
    """Phase-averaged coincidence probability per pulse and rate per second."""
    out = run_phase_averaged(cfg)
    return out.triple_probability, out.triple_probability * REP_RATE_HZ


@dataclass
class ScalingReport:
    parameter: str
    component: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    stderr: float


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of log(y) against log(x)."""
    if len(points) < 3:
        raise ValidationError("slope fit needs at least three points")
    xs, ys = zip(*points)
    if min(xs) <= 0.0 or min(ys) <= 0.0:
        raise ValidationError("slope fit requires positive coordinates")
    if len(set(xs)) < 2:
        raise ValidationError("slope fit needs two distinct x values")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    sx = float(((lx - lx.mean()) ** 2).sum())
    design = np.vstack([lx, np.ones(len(lx))]).T
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    stderr = math.sqrt(float(resid @ resid) / (len(lx) - 2) / sx)
    return SlopeFit(float(coef[0]), stderr)


def component_scaling(cfg: ExperimentConfig, parameter: str,
                      grid: Sequence[float], component: str) -> ScalingReport:
    """Fitted log-log exponent of one coincidence component vs one parameter.

    component is one of desired, ancilla_multiphoton, multi_pair, dark, total.
    """
    values = []
    for val in grid:
        out = run_phase_averaged(replace(cfg, **{parameter: val}))
        values.append(getattr(out, "triple_probability" if component == "total"
                              else f"{component}_probability"))
    fit = fit_loglog_slope(list(zip(grid, values)))
    return ScalingReport(parameter, component, tuple(grid), tuple(values),
                         fit.slope, fit.stderr)


def forward_variant_scaling(cfg: ExperimentConfig,
                            mu_grid: Sequence[float] = (0.005, 0.01, 0.02, 0.04),
                            t_grid: Sequence[float] = FORWARD_T_GRID,
                            ) -> dict[str, ScalingReport]:
    """Exponent fits for the all-pulses-from-the-sender comparison."""
    fwd = replace(cfg, variant="forward_all_from_bob")
    ctr = replace(cfg, variant="counter_propagating")
    return {
        "forward_unwanted_vs_mu": component_scaling(
            fwd, "mu", mu_grid, "ancilla_multiphoton"),
        "forward_unwanted_vs_t": component_scaling(
            fwd, "transmittance", t_grid, "ancilla_multiphoton"),
        "forward_desired_vs_mu": component_scaling(
            fwd, "mu", mu_grid, "desired"),
        "counter_unwanted_vs_t": component_scaling(
            ctr, "transmittance", t_grid, "ancilla_multiphoton"),
        "counter_desired_vs_mu": component_scaling(
            ctr, "mu", mu_grid, "desired"),
    }


def distribute_qubit(cfg: ExperimentConfig,
                     amplitudes: tuple[complex, complex]) -> tuple[float, ProtocolOutcome]:
    """Distribute alpha|H> + beta|V> encoded as alpha|HH> + beta|VV>.

    Returns the phase-averaged fidelity of the shared state to the target
    encoding together with the full outcome record.
    """
    a, b = complex(amplitudes[0]), complex(amplitudes[1])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if norm <= 0.0:
        raise ValidationError("qubit amplitudes must not both vanish")
    a, b = a / norm, b / norm
    run_cfg = replace(cfg, source="exact_pair", input_qubit=(a, b))
    # Propagated once, for both the statistics and the state.
    plan, final = _final_state(run_cfg)
    rho = PolarizationDensityMatrix(_tomography(plan, final.state)).matrix
    target = np.array([a, 0.0, 0.0, b], dtype=complex)
    fid = float(np.real(target.conj() @ rho @ target))
    return fid, _measure(plan, final)
