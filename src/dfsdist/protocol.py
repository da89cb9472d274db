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

import itertools
import math
from dataclasses import dataclass, replace
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
    PolarizationDensityMatrix,
    ValidationError,
    _cmul,
    _merge_labels,
    make_registry,
    apply_transform,
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
    # H and V modes of the source labels that carry the collective phase.
    charge_indices: tuple[list[int], list[int]]
    # Keep the second herald outcome too (needs a herald).
    feedforward: bool = False
    # Modes the pulse loses photons to before the overlap split.
    pulse_loss_indices: Sequence[int] = ()


def _analyzer_matrix(setting: str) -> np.ndarray:
    ket = ANALYZER_KETS[setting]
    orth = {"H": "V", "V": "H", "D": "Dbar", "Dbar": "D", "R": "L", "L": "R"}
    ket2 = ANALYZER_KETS[orth[setting]]
    return np.array([[np.conj(ket[0]), np.conj(ket[1])],
                     [np.conj(ket2[0]), np.conj(ket2[1])]], dtype=complex)


def _charge_indices(reg: ModeRegistry,
                    labels: Sequence[str]) -> tuple[list[int], list[int]]:
    return ([i for lab in labels for i in reg.indices(lab, pol=H)],
            [i for lab in labels for i in reg.indices(lab, pol=V)])


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

    if cfg.variant == "direct_no_dfs":
        reg = make_registry(["A", "B"])
        return _Plan(reg, "A", "B", None, reg.indices("B"),
                     {"E": det_e, "G": det_g}, _charge_indices(reg, ["B"]))

    labels: list = [("A", True), ("R", True), ("E", True), ("F", True), "B"]
    channel = "B"
    if cfg.variant == "forward_all_from_bob":
        labels.append(("LA", True))
        channel = "A"
    pulse_loss = ["LR"] if cfg.variant == "single_photon_ancilla" else []
    labels += [(lab, True) for lab in pulse_loss]
    reg = make_registry(labels)
    return _Plan(reg, "E", "B", "F", reg.indices("B"),
                 {"E": det_e, "G": det_g, "F": det_f},
                 _charge_indices(reg, [channel, "R"]),
                 cfg.include_feedforward_branch,
                 [i for lab in pulse_loss for i in reg.indices(lab)])


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
        # Launched at the sender; loss is applied explicitly.
        ancilla = single_photon_state(reg, cfg.cutoff, "R",
                                      phases=cfg.phase_delta)
    else:
        mu_delivered = cfg.mu if cfg.transmittance > 0.0 else 0.0
        ancilla = coherent_state(CoherentParams(mu_delivered), reg, cfg.cutoff,
                                 "R", phases=cfg.phase_delta)
    return tensor(pair, ancilla)


def _transforms(cfg: ExperimentConfig, reg: ModeRegistry) -> list:
    """The phase-independent optical train after the sources."""
    if cfg.variant == "direct_no_dfs":
        return []
    seq = []
    if cfg.variant == "forward_all_from_bob":
        seq.append(loss_channel(reg, "A", cfg.transmittance, "LA"))
    if cfg.variant == "single_photon_ancilla":
        seq.append(loss_channel(reg, "R", cfg.transmittance, "LR"))
    # Polarization flip before the PBS, built as the exact swap.
    seq.append(jones_transform(reg, "R", _PAULI["X"], name="waveplate(flip)"))
    s = cfg.overlap_amplitude
    if s < 1.0:
        seq.append(overlap_split(reg, "R", s))
    seq.append(pbs(reg, "A", "R", "E", "F"))
    # Rotate the pulse output so its |D> component sits on the H modes watched
    # by the herald detector; the |Dbar> component leaves through the unused port.
    seq.append(jones_transform(reg, "F", _analyzer_matrix("D"), name="F analyzer"))
    return seq


def _propagate(state: FockStateVector, transforms: Sequence) -> FockStateVector:
    for t in transforms:
        state = apply_transform(state, t)
    return state


def _final_state(cfg: ExperimentConfig, plan: _Plan,
                 phase: tuple[float, float] | None = None) -> FockStateVector:
    """Sources plus optical train, propagated once.

    The collective phase (phi_H, phi_V), the same on both channel passes,
    reaches the source modes before any element mixes them: it multiplies
    each initial term by e^{i (n_H phi_H + n_V phi_V)}, with n_H, n_V its
    photon numbers on the phase-carrying modes.  With ``phase`` None each
    term is labelled with its n_V instead: averaged uniformly over the
    phase, terms of different n_V never interfere.
    """
    state = _initial_state(cfg, plan.registry)
    n_h, n_v = (state.occupations[:, modes].sum(axis=1)
                for modes in plan.charge_indices)
    amps, labels = state.amplitudes, n_v
    if phase is not None:
        amps = _cmul(amps, np.exp(1j * (n_h * phase[0] + n_v * phase[1])))
        labels = None
    return _propagate(FockStateVector.from_arrays(
        plan.registry, cfg.cutoff, state.occupations, amps,
        state.truncated_weight, labels), _transforms(cfg, plan.registry))


def prepare_final_state(cfg: ExperimentConfig, phi_h: float,
                        phi_v: float) -> tuple[_Plan, FockStateVector]:
    """Sources plus optical train for one collective phase setting."""
    plan = _build_plan(cfg)
    return plan, _final_state(cfg, plan, (phi_h, phi_v))


def run_fixed_phase(cfg: ExperimentConfig, phi_h: float,
                    phi_v: float) -> ProtocolOutcome:
    """Run the protocol for one collective phase setting."""
    plan, state = prepare_final_state(cfg, phi_h, phi_v)
    return _measure(plan, state)


@dataclass(frozen=True)
class _Table:
    """A state's click table: each row's |amplitude|^2 and its photons on
    the ``_analyzed_groups`` (E_H, E_V, G_H, G_V and, with a herald, F_H,
    F_V), then on the pair side, on all modes, on orthogonal modes and on the
    pulse-loss modes.  Each side is ``_rotated`` into its analyzer basis.
    """

    plan: _Plan
    weights: np.ndarray
    counts: np.ndarray
    heralds: list  # per-row click probability of F_H and F_V, or [1.0]

    def pair_probs(self, weights: np.ndarray | None = None,
                   herald: int = 0) -> np.ndarray:
        """Coincidences of E port i and G port j (port 0 the +1 outcome)
        with herald outcome ``herald``, as a 2x2 array, at the row
        ``weights`` (default: the table's own).  Photons behind the
        orthogonal analyzer port are discarded, not detected."""
        if weights is None:
            weights = self.weights
        n = self.counts
        e = (self.plan.detectors["E"].click_probability(n[:, :2])
             * (weights * self.heralds[herald])[:, None])
        return e.T @ self.plan.detectors["G"].click_probability(n[:, 2:4])

    def kept_pair_probs(self, basis_e: str,
                        weights: np.ndarray | None = None) -> np.ndarray:
        """``pair_probs`` of the kept herald outcomes, E's analyzer basis
        being ``basis_e``.  The feed-forward branch also keeps the second
        outcome (|Dbar>): a sign flip on the retained photon restores the
        target state, i.e. its X and Y outcomes swap."""
        probs = self.pair_probs(weights)
        if self.plan.feedforward:
            flipped = self.pair_probs(weights, herald=1)
            probs = probs + (flipped if basis_e == "Z" else flipped[::-1])
        return probs

    def triple(self) -> tuple[float, dict[tuple[int, int, str], float]]:
        """The probability that E, G and a kept herald outcome all click,
        and its components by (pair count, ancilla photon count, click
        origin of the pair-side detector)."""
        n = self.counts
        det_e, det_g = self.plan.detectors["E"], self.plan.detectors["G"]
        w_eh = (self.weights * det_e.click_probability(n[:, 0] + n[:, 1])
                * sum(self.heralds[:1 + self.plan.feedforward]))
        # The pair-side click from a photon, or else from a dark count.
        n_g = n[:, 2] + n[:, 3]
        g_photon = det_g.photon_probability(n_g)
        g_dark = det_g.dark * det_g.miss_probability(n_g)
        pairs, photons = n[:, -4], n[:, -3]
        keys, inverse = np.unique(np.stack([pairs, photons - 2 * pairs]),
                                  axis=1, return_inverse=True)
        comps: dict[tuple[int, int, str], float] = {}
        for origin, part in (("photon", w_eh * g_photon),
                             ("dark", w_eh * g_dark)):
            sums = np.bincount(inverse, part, keys.shape[1])
            for (n_pairs, ancilla), val in zip(keys.T.tolist(), sums.tolist()):
                if val:
                    comps[(n_pairs, ancilla, origin)] = val
        return float(w_eh @ (g_photon + g_dark)), comps

    def patterns(self) -> dict[tuple[bool, bool, bool], float]:
        """The probability of each (E, F, G) click pattern, F being the
        herald's |D> port; without a herald F never clicks."""
        n = self.counts
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

    @cached_property
    def _overlap_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pairs, total, k, lost = self.counts[:, -4:].T
        # Each photon is one of a pair (two per pair-side photon) or the
        # pulse's: lost before the split, or counted in m + k.
        m = total - 2 * pairs - k - lost
        return self.weights * 2.0 ** (m + k), m, k

    def weights_at(self, s: float) -> np.ndarray:
        """Each row's weight at overlap ``s``, in an ``_overlap_table``."""
        if not 0.0 <= s <= 1.0:
            raise ValidationError("overlap amplitude must lie in [0, 1]")
        s2 = s * s
        scaled, m, k = self._overlap_rows
        return scaled * s2 ** m * (1.0 - s2) ** k


def _table(plan: _Plan, state: FockStateVector) -> _Table:
    """The click table of ``state``; see ``_Table`` for its columns."""
    reg = plan.registry
    orthogonal = [i for i, mode in enumerate(reg.modes)
                  if mode.temporal == ORTHOGONAL]
    w, counts = click_table(state, [
        *_analyzed_groups(plan), plan.pair_side_indices, range(reg.n_modes),
        orthogonal, plan.pulse_loss_indices])
    heralds = ([1.0] if plan.herald is None else
               [plan.detectors["F"].click_probability(counts[:, c])
                for c in (4, 5)])
    return _Table(plan, w, counts, heralds)


def _overlap_table(cfg: ExperimentConfig, phase: tuple[float, float] | None,
                   basis: str) -> _Table:
    """The click table of ``cfg`` at zero delay, at the collective ``phase``
    (None: the labelled phase average of ``_final_state``), with both sides
    ``_rotated`` into ``basis``, readable at any overlap by ``weights_at``.

    The overlap split sends each pulse photon to the matched mode with
    amplitude s and to its orthogonal twin with amplitude sqrt(1 - s^2).
    Every final row fixes both counts: k, its photons on orthogonal modes,
    and m, its matched pulse photons past the split.  So a row's weight at s
    is its weight at s^2 = 1/2 times 2^(m+k) (s^2)^m (1 - s^2)^k, and one
    propagation at that overlap serves every s, whatever delay and overlap
    width give it.
    """
    plan = _build_plan(cfg)
    state = _final_state(replace(cfg, overlap_s0=_SQ2, delay_um=0.0), plan,
                         phase)
    return _table(plan, _rotated(plan, state, basis, basis))


class DelayEvaluator:
    """Circular-basis coincidences against the pulse overlap s for one config.

    The retained photon is heralded into a circular polarization by
    analyzing its partner in the orthogonal circular basis, at zero channel
    phase, since single-run interference is only visible without averaging.
    Both sides are rotated to put R on the H modes, so the (R, L) and
    (L, L) coincidences come from one ``_overlap_table``.
    """

    def __init__(self, cfg: ExperimentConfig):
        if cfg.variant == "direct_no_dfs":
            raise ConfigurationError("variant 'direct_no_dfs' has no pulse, "
                                     "so no delay dependence")
        self._table = _overlap_table(cfg, (0.0, 0.0), "Y")

    def __call__(self, s: float) -> tuple[float, float]:
        """(p_rd, p_ld): partner in L, retained photon in R or in L."""
        probs = self._table.pair_probs(self._table.weights_at(s))
        return float(probs[0, 1]), float(probs[1, 1])


def overlap_x_visibility(cfg: ExperimentConfig) -> Callable[[float], float]:
    """Phase-averaged V_X against the zero-delay overlap amplitude s.

    ``overlap_x_visibility(cfg)(s)`` is
    ``visibilities(run_phase_averaged(replace(cfg, overlap_s0=s,
    delay_um=0.0)))[1]`` up to rounding, read from one ``_overlap_table``.
    """
    table = _overlap_table(cfg, None, "X")

    def v_x(s: float) -> float:
        probs = table.kept_pair_probs("X", table.weights_at(s))
        return _correlation(_labelled(probs, X_SETTINGS), X_SETTINGS)
    return v_x


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


def _rotated(plan: _Plan, state: FockStateVector, basis_e: str,
             basis_g: str) -> FockStateVector:
    """The state with each side rotated so that the +1 eigenstate of its
    analyzer basis (keys of ``ANALYZER_BASES``) lies on its H modes."""
    for side, basis in ((plan.side_e, basis_e), (plan.side_g, basis_g)):
        if basis != "Z":
            state = apply_transform(state, jones_transform(
                plan.registry, side, _analyzer_matrix(ANALYZER_BASES[basis])))
    return state


def _measure(plan: _Plan, state: FockStateVector) -> ProtocolOutcome:
    """Every coincidence statistic from two click tables: one on the final
    state and one on the state rotated into the X basis on both sides."""
    table = _table(plan, state)
    xx = _table(plan, _rotated(plan, state, "X", "X")).kept_pair_probs("X")
    triple, comps = table.triple()
    return ProtocolOutcome(_labelled(table.kept_pair_probs("Z"), Z_SETTINGS),
                           _labelled(xx, X_SETTINGS), triple, comps,
                           state.truncated_weight)


def _tomography(plan: _Plan, state: FockStateVector) -> np.ndarray:
    """Linear-inversion two-qubit tomography of E and G over the 3 x 3
    analyzer bases (James et al., PRA 64, 052312 (2001)).

    Side E is rotated once per basis, then G once per basis pair, and each
    pair's coincidences are normalized by their own total.  Each pair gives
    one correlation <a x b>; each single-side Pauli expectation is the mean
    over the three bases of the other side.  The 4x4 result has trace 1 and
    is Hermitian by construction; with multi-photon terms it need not be
    PSD.
    """
    sign = np.array([1.0, -1.0])
    eye = np.eye(2)
    rho = np.eye(4, dtype=complex)
    for a in ANALYZER_BASES:
        on_e = _rotated(plan, state, a, "Z")
        for b in ANALYZER_BASES:
            p = _table(plan, _rotated(plan, on_e, "Z", b)).kept_pair_probs(a)
            total = p.sum()
            if total <= 0.0:
                raise ValidationError("no coincidences; state undefined")
            p = p / total
            rho += (sign @ p @ sign) * np.kron(_PAULI[a], _PAULI[b])
            rho += (sign @ p.sum(axis=1)) / 3.0 * np.kron(_PAULI[a], eye)
            rho += (p.sum(axis=0) @ sign) / 3.0 * np.kron(eye, _PAULI[b])
    return rho / 4.0


def phase_point_states(cfg: ExperimentConfig,
                       ) -> tuple[_Plan, list[FockStateVector]]:
    """Final state at each point of ``PHASE_SET_8``, in order: the n_V
    labels of one propagation, summed with their characters e^{i n_V phi}."""
    plan = _build_plan(cfg)
    final = _final_state(cfg, plan)
    return plan, _merge_labels(final, [np.exp(1j * phi_v * final.labels)
                                       for _, phi_v in PHASE_SET_8])


def pattern_distribution(cfg: ExperimentConfig,
                         ) -> dict[tuple[int, tuple[bool, bool, bool]], float]:
    """Probability of each (phase index, (E, F, G) click pattern) of a pulse
    whose phase is drawn uniformly from ``PHASE_SET_8``; see
    ``_Table.patterns``."""
    plan, states = phase_point_states(cfg)
    exact = {}
    for k, state in enumerate(states):
        dist = _table(plan, state).patterns()
        norm = sum(dist.values())  # < 1 only by the recorded truncation weight
        for bits, p in dist.items():
            exact[(k, bits)] = p / (norm * len(states))
    return exact


def run_phase_averaged(cfg: ExperimentConfig) -> ProtocolOutcome:
    """Uniform average over the collective V-vs-H channel phase, exactly.

    The phase phi acts as e^{i n_V phi} on the V-photon number n_V of the
    phase-carrying source modes, so averaged over phi the n_V classes never
    interfere.  The state labelled by n_V is propagated and measured once,
    at any cutoff; ``truncated_weight`` is that state's own.
    """
    plan = _build_plan(cfg)
    return _measure(plan, _final_state(cfg, plan))


def two_qubit_state(cfg: ExperimentConfig,
                    phase: tuple[float, float] | None = None,
                    ) -> PolarizationDensityMatrix:
    """The conditional two-qubit state of E and G by tomography.

    At the collective phase ``phase`` = (phi_H, phi_V), or with ``None``
    exactly averaged over the phase, as ``run_phase_averaged`` averages it.
    Raises ``ValidationError`` if the reconstruction is not a state.
    """
    plan = _build_plan(cfg)
    return PolarizationDensityMatrix(
        _tomography(plan, _final_state(cfg, plan, phase)))


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
        values.append({
            "desired": out.desired_probability,
            "ancilla_multiphoton": out.ancilla_multiphoton_probability,
            "multi_pair": out.multi_pair_probability,
            "dark": out.dark_probability,
            "total": out.triple_probability,
        }[component])
    fit = fit_loglog_slope(list(zip(grid, values)))
    return ScalingReport(parameter, component, tuple(grid), tuple(values),
                         fit.slope, fit.stderr)


def forward_variant_scaling(cfg: ExperimentConfig,
                            mu_grid: Sequence[float] = (0.005, 0.01, 0.02, 0.04),
                            t_grid: Sequence[float] = (0.003, 0.01, 0.03),
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
    plan = _build_plan(run_cfg)
    # Propagated once, for both the statistics and the state.
    state = _final_state(run_cfg, plan)
    rho = PolarizationDensityMatrix(_tomography(plan, state)).matrix
    target = np.array([a, 0.0, 0.0, b], dtype=complex)
    fid = float(np.real(target.conj() @ rho @ target))
    return fid, _measure(plan, state)
