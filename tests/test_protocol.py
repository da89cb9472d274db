import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdist import protocol
from dfsdist.fock import (
    MAX_CUTOFF,
    H,
    MATCHED,
    V,
    FockStateVector,
    Mode,
    ModeRegistry,
    ModeTransform,
    ValidationError,
    apply_transform,
    fidelity_to_phi_plus,
    make_registry,
)
from dfsdist.optics import attenuator, jones_transform, loss_channel
from dfsdist.protocol import (
    PHASE_SET_8,
    ExperimentConfig,
    chsh_violated,
    component_scaling,
    delay_coincidences,
    distribute_qubit,
    f_low,
    forward_variant_scaling,
    overlap_x_visibility,
    pattern_distribution,
    prepare_final_state,
    run_fixed_phase,
    run_phase_averaged,
    sharing_rate,
    two_qubit_state,
    visibilities,
)
from dfsdist.sources import DetectorModel
from helpers import (
    dm_visibilities,
    exact_click_parts,
    measure,
    source_phase_state,
    states_allclose,
    trace_distance,
)

PHI_PLUS_DM = np.zeros((4, 4), dtype=complex)
PHI_PLUS_DM[0, 0] = PHI_PLUS_DM[0, 3] = PHI_PLUS_DM[3, 0] = PHI_PLUS_DM[3, 3] = 0.5

PAPER = ExperimentConfig()  # reference parameter set


def test_config_validation():
    with pytest.raises(Exception):
        ExperimentConfig(variant="bogus")
    with pytest.raises(ValidationError, match="cutoff"):
        ExperimentConfig(cutoff=MAX_CUTOFF + 1)
    assert ExperimentConfig(cutoff=MAX_CUTOFF).cutoff == MAX_CUTOFF
    with pytest.raises(ValidationError):
        ExperimentConfig(transmittance=1.5)
    with pytest.raises(ValidationError):
        ExperimentConfig(input_qubit=(1.0, 1.0))
    cfg = ExperimentConfig(transmittance=0.05)
    assert abs(cfg.mu_bob - cfg.mu / 0.05) < 1e-12
    # Rejected at the boundary, not first when an SPDC state is built.
    for overrides in (dict(gamma=1.5), dict(gamma=1.0), dict(gamma=-0.1),
                      dict(pair_cutoff=0),
                      dict(source="exact_pair", pair_cutoff=-3)):
        with pytest.raises(ValidationError, match="gamma|pair_cutoff"):
            ExperimentConfig(**overrides)


@pytest.mark.parametrize("overrides", [
    dict(mu=math.nan),
    dict(gamma=math.nan),
    dict(overlap_sigma_um=math.nan),
    dict(delay_um=math.nan),
    dict(mu=math.inf),
    dict(phase_delta=(0.0, math.nan)),
    dict(phase_delta=(math.nan, 0.5)),
    dict(phase_delta=(0.0, math.inf)),
    dict(input_qubit=(complex(math.nan, 0.0), 1.0)),
], ids=["mu", "gamma", "overlap_sigma", "delay", "mu_inf", "phase_delta",
        "phase_shift", "phase_shift_inf", "input_qubit"])
def test_config_rejects_non_finite_values(overrides):
    with pytest.raises(ValidationError, match="finite"):
        ExperimentConfig(**overrides)


def _assert_rel_close(got, want, tol=1e-12):
    assert abs(got - want) <= tol * abs(want), (got, want)


@pytest.mark.parametrize("overrides,phases", [
    (dict(), PHASE_SET_8),
    (dict(cutoff=5), PHASE_SET_8),
    (dict(variant="forward_all_from_bob"), PHASE_SET_8),
    (dict(variant="single_photon_ancilla"), PHASE_SET_8),
    (dict(variant="direct_no_dfs"), PHASE_SET_8),
    (dict(include_feedforward_branch=True), PHASE_SET_8),
    (dict(phase_delta=(0.3, 1.1)), PHASE_SET_8),
    (dict(), PHASE_SET_8[::2]),
    (dict(variant="direct_no_dfs"), PHASE_SET_8[::2]),
], ids=["reference", "cutoff5", "forward", "single_photon", "direct",
        "feedforward", "phase_delta", "four_points", "direct_four_points"])
def test_sector_average_equals_mean_of_fixed_phase_runs(overrides, phases):
    # At cutoff <= 7 the eight points {n pi/4} average every e^{i m phi}
    # with 0 < |m| <= 7 to zero, exactly as the uniform average does.  Four
    # points {n pi/2} do so for |m| <= 3: enough for the direct variant,
    # whose n_V never exceeds 2, and for the DFS, whose fixed-phase runs
    # are all equal.
    cfg = replace(PAPER, overlap_s0=0.94, transmittance=0.03, **overrides)
    runs = [run_fixed_phase(cfg, *phi) for phi in phases]
    n = len(runs)
    got = run_phase_averaged(cfg)

    _assert_rel_close(got.triple_probability,
                      sum(r.triple_probability for r in runs) / n)
    for attr in ("zz_probs", "xx_probs", "components"):
        want = {}
        for r in runs:
            for key, val in getattr(r, attr).items():
                want[key] = want.get(key, 0.0) + val / n
        assert set(getattr(got, attr)) == set(want), attr
        for key, val in want.items():
            _assert_rel_close(getattr(got, attr)[key], val)
    _assert_rel_close(got.truncated_weight,
                      max(r.truncated_weight for r in runs))


@pytest.mark.parametrize("overrides,n_classes", [
    (dict(), 5),
    (dict(cutoff=6), 7),
    (dict(variant="direct_no_dfs"), 3),
], ids=["reference", "cutoff6", "direct"])
def test_phase_average_measures_each_v_photon_number_once(monkeypatch,
                                                          count_calls,
                                                          overrides,
                                                          n_classes):
    # Photon numbers on the two sides of the PBS are conserved separately,
    # so sectors of equal n_V and unequal n_H never interfere in a count:
    # labelling terms by (n_H, n_V), or merging n_V classes, leaves every
    # number above unchanged to rounding and shows only in the labels.
    cfg = replace(PAPER, overlap_s0=0.94, **overrides)
    measured = []
    inner = protocol._measure

    def counted(plan, final):
        measured.append(final.state)
        return inner(plan, final)

    monkeypatch.setattr(protocol, "_measure", counted)
    propagated = count_calls("_final_state")
    run_phase_averaged(cfg)
    assert len(measured) == propagated["_final_state"] == 1
    # n_V = 0, 1, ... up to the most V photons, all in one labelled state.
    assert sorted(set(measured[0].labels.tolist())) == list(range(n_classes))
    # Another T, overlap and detector read the memo's states.
    warm = count_calls("_initial_state", "jones_transform")
    run_phase_averaged(replace(cfg, transmittance=0.03, overlap_s0=0.5,
                               eta_g=0.2))
    assert warm == {"_initial_state": 0, "jones_transform": 0}
    assert measured[1] is measured[0]


def test_three_photon_state_term_structure():
    """The post-channel state carries the four expected terms.

    For an exact pair with a single ancilla photon the amplitudes are 1/2 on
    |H>_B|HV>_AR and |V>_B|VH>_AR with the common phase factor, and 1/2 on
    the parity-violating terms with doubled phases.
    """
    phi_h, phi_v = 0.7, 1.9
    cfg = ExperimentConfig.ideal()
    plan, _ = prepare_final_state(cfg, phi_h, phi_v)
    # Rebuild the state up to the channel only: undo receiver optics by
    # running the wiring pieces directly.
    from dfsdist.fock import apply_transform, tensor
    from dfsdist.optics import phase_shifter
    from dfsdist.sources import pair_state, single_photon_state

    reg = plan.wiring.registry
    state = tensor(pair_state(reg, cfg.cutoff, "A", "B"),
                   single_photon_state(reg, cfg.cutoff, "R",
                                       phases=(phi_h, phi_v)))
    state = apply_transform(state, phase_shifter(reg, "B", phi_h, phi_v))

    def amp(b_pol, a_pol, r_pol):
        occ = [0] * reg.n_modes
        occ[reg.index(Mode("B", b_pol, MATCHED))] = 1
        occ[reg.index(Mode("A", a_pol, MATCHED))] = 1
        occ[reg.index(Mode("R", r_pol, MATCHED))] = 1
        return state.amplitude(tuple(occ))

    common = cmath.exp(1j * (phi_h + phi_v)) / 2.0
    assert abs(amp(H, H, V) - common) < 1e-12
    assert abs(amp(V, V, H) - common) < 1e-12
    assert abs(amp(H, H, H) - cmath.exp(2j * phi_h) / 2.0) < 1e-12
    assert abs(amp(V, V, V) - cmath.exp(2j * phi_v) / 2.0) < 1e-12


def test_parity_check_annihilates_even_input_terms():
    """Single-photon inputs HH or VV on (A, R) never give one photon in both
    outputs after the flip and the polarizing beamsplitter."""
    from dfsdist.fock import FockStateVector, apply_transform
    from dfsdist.optics import hwp, pbs
    from dfsdist.fock import make_registry

    reg = make_registry([("A", True), ("R", True), ("E", True), ("F", True)])

    def run(a_pol, r_pol):
        occ = [0] * reg.n_modes
        occ[reg.index(Mode("A", a_pol, MATCHED))] = 1
        occ[reg.index(Mode("R", r_pol, MATCHED))] = 1
        state = FockStateVector(reg, 2, {tuple(occ): 1.0})
        state = apply_transform(state, hwp(reg, "R", math.pi / 4.0))
        state = apply_transform(state, pbs(reg, "A", "R", "E", "F"))
        kept = 0.0
        for occ2, amp2 in state.terms.items():
            n_e = sum(occ2[i] for i in reg.indices("E"))
            n_f = sum(occ2[i] for i in reg.indices("F"))
            if n_e >= 1 and n_f >= 1:
                kept += abs(amp2) ** 2
        return kept

    assert run(H, H) < 1e-15
    assert run(V, V) < 1e-15
    assert abs(run(H, V) - 1.0) < 1e-12
    assert abs(run(V, H) - 1.0) < 1e-12


def test_dfs_invariance_per_phase():
    cfg = ExperimentConfig.ideal()
    for phi_h, phi_v in PHASE_SET_8:
        dm = two_qubit_state(cfg, (phi_h, phi_v))
        assert trace_distance(dm.matrix, PHI_PLUS_DM) < 1e-10
        out = run_fixed_phase(cfg, phi_h, phi_v)
        assert abs(out.triple_probability - 0.25) < 1e-12


def test_direct_variant_phases():
    cfg = ExperimentConfig.ideal(variant="direct_no_dfs")
    dm0 = two_qubit_state(cfg, (0.0, 0.0))
    assert trace_distance(dm0.matrix, PHI_PLUS_DM) < 1e-12
    averaged = two_qubit_state(cfg)
    assert abs(fidelity_to_phi_plus(averaged) - 0.5) < 1e-12
    assert abs(averaged.matrix[0, 3]) < 1e-12


def test_counter_propagating_averaged_is_bell():
    dm = two_qubit_state(ExperimentConfig.ideal())
    assert trace_distance(dm.matrix, PHI_PLUS_DM) < 1e-10


def test_visibility_examples():
    cfg = ExperimentConfig.ideal()
    v_z, v_x = visibilities(run_phase_averaged(cfg))
    assert abs(v_z - 1.0) < 1e-10
    assert abs(v_x - 1.0) < 1e-10
    vz2, vx2 = dm_visibilities(two_qubit_state(cfg))
    assert abs(vz2 - 1.0) < 1e-10 and abs(vx2 - 1.0) < 1e-10
    from dfsdist.fock import PolarizationDensityMatrix

    dephased = PolarizationDensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
    vz3, vx3 = dm_visibilities(dephased)
    assert abs(vz3 - 1.0) < 1e-12 and abs(vx3) < 1e-12


T_GRID = (0.1, 0.03, 0.01, 0.005, 0.003)
CAL_S0 = 0.940896  # results/calibration.json


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(variant="forward_all_from_bob"),
    dict(variant="single_photon_ancilla"),
    dict(variant="direct_no_dfs"),
    dict(include_feedforward_branch=True),
], ids=["counter", "forward", "single_photon", "direct", "feedforward"])
def test_tomography_reads_the_click_visibilities(overrides):
    # The state is read from the same click kernel as the sweep rows, so
    # its correlations are their visibilities, multi-photon terms included.
    for t in T_GRID:
        cfg = replace(PAPER, overlap_s0=CAL_S0, transmittance=t, **overrides)
        dm = two_qubit_state(cfg)
        got = dm_visibilities(dm)
        want = visibilities(run_phase_averaged(cfg))
        assert abs(got[0] - want[0]) <= 1e-14 and abs(got[1] - want[1]) <= 1e-14
        assert abs(dm.trace - 1.0) <= 1e-14
        assert np.linalg.eigvalsh(dm.matrix).min() > 0.0


def test_dark_counts_near_one_keep_statistics_and_state_valid():
    cfg = replace(PAPER, overlap_s0=CAL_S0, dark_e=0.9, dark_f=0.9, dark_g=0.9)
    out = run_phase_averaged(cfg)
    probs = [out.triple_probability, *out.zz_probs.values(),
             *out.xx_probs.values(), *out.components.values()]
    assert np.isfinite(probs).all() and 0.0 < out.triple_probability <= 1.0
    dm = two_qubit_state(cfg)
    assert abs(dm.trace - 1.0) <= 1e-14
    assert np.linalg.eigvalsh(dm.matrix).min() >= 0.0


def test_state_outputs_propagate_each_class_once(count_calls):
    from dfsdist.analysis import tomography_payload

    calls = count_calls("_final_state", "_initial_state")
    distribute_qubit(ExperimentConfig.ideal(), (0.6, 0.8))
    # The n_V = 0, 1, 2 classes travel together as labels.
    assert calls == {"_final_state": 1, "_initial_state": 1}
    calls.update(dict.fromkeys(calls, 0))
    tomography_payload(PAPER)
    # Zero phase, then the labelled average, both merged from one state.
    assert calls == {"_final_state": 1 + 1, "_initial_state": 1}


def test_one_propagation_per_configuration(monkeypatch, final_states):
    # The train is one receiver map: the channel loss of a loss variant,
    # the flip, the overlap split, the PBS and the herald analyzer; the
    # pair photon's loss and pickoff are part of D_G.  Measuring adds one X
    # rotation of both sides, and the tomography one rotation per basis
    # pair but Z-Z; ``distribute_qubit`` measures on the tomography's
    # tables.  Another T, overlap or detector setting reads the memo's Z-Z
    # and X-X tables: only the tomography rotates again.
    cfg = replace(PAPER, overlap_s0=CAL_S0)
    calls = []
    apply = protocol.apply_transform
    monkeypatch.setattr(protocol, "apply_transform",
                        lambda *args: calls.append(None) or apply(*args))
    single = replace(cfg, variant="single_photon_ancilla")

    def qubit(run_cfg):
        return distribute_qubit(run_cfg, (0.6, 0.8))

    for run, run_cfg, n_calls, n_warm in (
            (run_phase_averaged, cfg, 1 + 1, 0),
            (two_qubit_state, cfg, 1 + 8, 8),
            (qubit, cfg, 1 + 8, 8),
            (pattern_distribution, cfg, 1, 0),
            (run_phase_averaged, single, 1 + 1, 0)):
        final_states.clear()
        calls.clear()
        run(run_cfg)
        assert len(calls) == n_calls, (run.__name__, run_cfg.variant)
        for changed in (dict(transmittance=0.03), dict(overlap_s0=0.5),
                        dict(eta=0.2, dark_e=1e-6, gp_reflectance=0.3)):
            calls.clear()
            run(replace(run_cfg, **changed))
            assert len(calls) == n_warm, (run.__name__, changed)


def _patch_builders(monkeypatch) -> list[str]:
    """Record each registry, element or composed map built from now on."""
    built = []
    for name in ("make_registry", "jones_transform", "loss_channel",
                 "overlap_split", "pbs", "compose"):
        monkeypatch.setattr(protocol, name,
                            lambda *args, name=name, **kw: built.append(name))
    return built


@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_second_final_state_builds_no_transform(monkeypatch, final_states,
                                                variant):
    # The registry and the receiver map depend on the variant only, so
    # they are built once per process; a new cutoff propagates again with
    # them.
    cfg = replace(PAPER, variant=variant, overlap_s0=CAL_S0)
    protocol._final_state(cfg)
    built = _patch_builders(monkeypatch)
    cfg = replace(cfg, transmittance=0.03, overlap_s0=0.5, cutoff=5)
    protocol._final_state(cfg)
    assert built == []
    assert len(final_states) == 2


@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_second_two_qubit_state_builds_no_transform(monkeypatch, variant):
    # Each rotation into an analyzer basis depends on the variant and the
    # bases only, so it is built once per process, and serves a new cutoff.
    cfg = replace(PAPER, variant=variant, overlap_s0=CAL_S0,
                  include_feedforward_branch=True)
    want = two_qubit_state(cfg).matrix
    run_phase_averaged(cfg)
    built = _patch_builders(monkeypatch)
    assert np.array_equal(two_qubit_state(cfg).matrix, want)
    two_qubit_state(replace(cfg, cutoff=5))
    run_phase_averaged(replace(cfg, cutoff=5))
    assert built == []


@pytest.mark.parametrize("feedforward", [False, True])
@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_memo_tables_read_as_fresh_ones_bit_for_bit(final_states, variant,
                                                    feedforward):
    # The entry's tables are built by reads at another T, overlap,
    # detectors and feed-forward flag: Z-Z and X-X by the averaged outcome
    # and Y-Y by the delay scan, each keyed by its basis pair alone; the
    # tomography keeps none of its nine.  Read at cfg's, each held table and
    # each tomography table gives the bits of a table built afresh on the
    # rotated labelled state, with every power evaluated row by row.  The
    # held Y-Y table also gives those of one built on the zero-phase merge.
    cfg = replace(PAPER, variant=variant, overlap_s0=CAL_S0, dark_e=1e-4,
                  dark_f=2e-4, include_feedforward_branch=feedforward)
    other = replace(cfg, transmittance=0.37, overlap_s0=0.6, eta=0.3,
                    dark_g=1e-3, include_feedforward_branch=not feedforward)
    run_phase_averaged(other)
    two_qubit_state(other)
    two_qubit_state(other, (0.0, 0.0))
    held = {("Z", "Z"), ("X", "X")}
    cases = [(a, b, None) for a in "ZXY" for b in "ZXY"]
    if variant != "direct_no_dfs":
        delay_coincidences(other)
        held.add(("Y", "Y"))
        cases.append(("Y", "Y", (0.0, 0.0)))
    plan, final = protocol._final_state(cfg)
    assert set(final._counts) == held
    t, s2 = plan.transmittance, plan.overlap_s2
    for a, b, phase in cases:
        state = (final.state if phase is None
                 else protocol._at_phases(final.state, phase))
        rotation = protocol._rotation(final.wiring, a, b)
        if rotation is not None:
            state = apply_transform(state, rotation)
        fresh = protocol._table(plan,
                                protocol._count_table(final.wiring, state))
        source = final._counts.get((a, b), fresh.source)
        got = protocol._table(plan, source)
        assert np.array_equal(source.counts, fresh.source.counts)
        m, k = source.matched, source.orthogonal
        kept, lost = source.kept, source.lost
        want = (np.abs(state.amplitudes) ** 2 * 2.0 ** (m + k + kept + lost)
                * t ** kept * (1.0 - t) ** lost * s2 ** m * (1.0 - s2) ** k)
        for table in (got, fresh):
            assert table.weights.tobytes() == want.tobytes(), (a, b, phase)
        assert got.kept_pair_probs(a).tobytes() == \
            fresh.kept_pair_probs(a).tobytes()
        assert got.triple() == fresh.triple()
        assert got.patterns() == fresh.patterns()


def test_memo_entry_at_cutoff_7_keeps_three_tables(final_states):
    # MEMO_BYTES is sized on this entry: every output that reads the
    # configuration adds at most the Z-Z, X-X and Y-Y tables, 1.45 MB with
    # the state, and the bound keeps five such entries.
    cfg = replace(PAPER, overlap_s0=CAL_S0, cutoff=7, pair_cutoff=3)
    run_phase_averaged(cfg)
    two_qubit_state(cfg)
    two_qubit_state(cfg, (0.0, 0.0))
    delay_coincidences(cfg)
    (final,) = final_states.values()
    assert set(final._counts) == {("Z", "Z"), ("X", "X"), ("Y", "Y")}
    assert final.nbytes <= 1.5e6
    assert protocol.MEMO_BYTES >= 5 * final.nbytes


def _memo_reads(cfg, cold=False):
    """Every output that reads ``cfg``'s final state, or the error it
    raises instead, in a form that compares bit for bit, each read from
    the memo as it is or, with ``cold``, from an empty one."""
    from dfsdist.analysis import calibrate_overlap

    reads = []
    for read in (run_phase_averaged, lambda c: run_fixed_phase(c, 0.3, 1.1),
                 lambda c: two_qubit_state(c).matrix.tobytes(),
                 lambda c: two_qubit_state(c, (0.0, 0.0)).matrix.tobytes(),
                 pattern_distribution, calibrate_overlap,
                 lambda c: delay_coincidences(c)(0.7)):
        if cold:
            protocol._FINAL_STATES.clear()
        try:
            reads.append(read(cfg))
        except ValueError as err:
            reads.append(repr(err))
    return reads


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("overrides", [
    dict(),
    dict(source="exact_pair", input_qubit=(0.6, 0.8j)),
    dict(include_feedforward_branch=True, dark_e=1e-4, dark_f=2e-4),
    dict(transmittance=0.0),
    dict(phase_delta=(0.2, -0.4)),
], ids=["spdc", "exact_pair", "feedforward_dark", "t0", "phase_delta"])
def test_warm_memo_reads_give_the_bits_of_a_cold_one(count_calls, variant,
                                                      overrides):
    # States propagated for another T, overlap, delay and detectors serve
    # every read of cfg with the bits of states propagated for cfg itself.
    # At T = 0 the pulse is off, as it is for mu = 0 at any T.
    cfg = replace(PAPER, variant=variant, overlap_s0=CAL_S0, **overrides)
    calls = count_calls("_initial_state")
    cold = _memo_reads(cfg, cold=True)
    protocol._FINAL_STATES.clear()
    other = replace(cfg, transmittance=0.37, overlap_s0=0.6, delay_um=30.0,
                    eta=0.3, eta_g=0.5, dark_g=1e-3, gp_reflectance=0.2,
                    include_feedforward_branch=not
                    cfg.include_feedforward_branch)
    if cfg.transmittance == 0.0:
        other = replace(other, mu=0.0)
    _memo_reads(other)
    calls["_initial_state"] = 0
    assert _memo_reads(cfg) == cold
    # Only the calibration, at its anchor T = 0.1, sees the pulse of a
    # config at T = 0.
    assert calls["_initial_state"] == (cfg.transmittance == 0.0)


def _field_change(kind, change, base=None, propagations=None):
    name = "-".join([kind, *(base or {}), *change])
    return pytest.param(base or {}, change, propagations, id=name)


@pytest.mark.parametrize("base,change,propagations", [
    *(_field_change("key", change, propagations=1) for change in [
        dict(variant="forward_all_from_bob"), dict(source="exact_pair"),
        dict(gamma=1e-3), dict(pair_cutoff=3), dict(cutoff=5), dict(mu=0.05),
        dict(phase_delta=(0.2, -0.4)), dict(input_qubit=(0.6, 0.8)),
        dict(transmittance=0.0)]),
    *(_field_change("read", change, propagations=0) for change in [
        dict(transmittance=0.03), dict(transmittance=1.0),
        dict(overlap_s0=0.5), dict(overlap_sigma_um=50.0),
        dict(delay_um=40.0), dict(eta=0.2), dict(eta_g=0.3),
        dict(dark_g=1e-4), dict(dark_e=1e-4), dict(dark_f=1e-4),
        dict(gp_reflectance=0.3), dict(include_feedforward_branch=True)]),
    # At T = 0 no pulse arrives, whatever its mu, and a T > 0 turns it on.
    _field_change("read", dict(mu=0.05), dict(transmittance=0.0), 0),
    _field_change("key", dict(transmittance=0.1), dict(transmittance=0.0), 1),
])
def test_memo_key_holds_the_fields_the_propagation_reads(count_calls, base,
                                                          change,
                                                          propagations):
    cfg = replace(PAPER, overlap_s0=CAL_S0, **base)
    protocol._final_state(cfg)
    calls = count_calls("_initial_state")
    protocol._final_state(replace(cfg, **change))
    assert calls == {"_initial_state": propagations}


def test_memo_is_bounded_least_recently_used_first(final_states,
                                                     monkeypatch):
    # Each lookup drops the least recently used entries until the arrays
    # of all fit MEMO_BYTES, but never the entry it returns.
    cfgs = [replace(PAPER, mu=mu) for mu in np.linspace(0.01, 0.1, 6).tolist()]
    entries = [protocol._final_state(cfg)[1] for cfg in cfgs[:4]]
    monkeypatch.setattr(protocol, "MEMO_BYTES",
                        sum(entry.nbytes for entry in entries))
    # The first config, used again, is kept; the second goes instead.
    assert protocol._final_state(cfgs[0])[1] is entries[0]
    fifth = protocol._final_state(cfgs[4])[1]
    kept = list(final_states.values())
    assert kept[-2:] == [entries[0], fifth]
    assert entries[1] not in kept
    assert sum(entry.nbytes for entry in kept) <= protocol.MEMO_BYTES
    # Reads add tables to an entry after its lookup; the next lookup
    # counts them.
    size = fifth.nbytes
    run_phase_averaged(cfgs[4])
    assert fifth.nbytes > size
    protocol._final_state(cfgs[4])
    kept = list(final_states.values())
    assert kept[-1] is fifth
    assert (sum(entry.nbytes for entry in kept) <= protocol.MEMO_BYTES
            or kept == [fifth])
    # An entry over the bound on its own is kept until the next lookup.
    monkeypatch.setattr(protocol, "MEMO_BYTES", 1)
    sixth = protocol._final_state(cfgs[5])[1]
    assert list(final_states.values()) == [sixth]


def test_tomography_without_coincidences_is_undefined():
    cfg = ExperimentConfig.ideal(eta=0.0)
    with pytest.raises(ValidationError, match="no coincidences"):
        two_qubit_state(cfg)


def test_f_low_and_chsh_flag():
    assert abs(f_low(0.88, 0.82) - 0.85) < 1e-12
    assert abs(f_low(1.0, 1.0) - 1.0) < 1e-12
    assert abs(f_low(0.74, 0.66) - 0.70) < 1e-12
    assert chsh_violated(0.71)
    assert not chsh_violated(0.70)


def test_triple_probability_is_phase_independent_at_reference_params():
    # Verified against the dense oracle: with equal phases on both channel
    # passes every interference survives the collective shift, so the
    # post-selected rate is exactly phase independent.
    cfg = replace(PAPER, overlap_s0=0.94)
    p0 = run_fixed_phase(cfg, 0.0, 0.0).triple_probability
    p1 = run_fixed_phase(cfg, 0.0, math.pi / 2.0).triple_probability
    assert abs(p0 - p1) < 1e-10 * p0


def test_phase_delta_breaks_dfs():
    cfg = ExperimentConfig.ideal(phase_delta=(0.0, math.pi))
    dm = two_qubit_state(cfg, (0.0, math.pi / 4.0))
    assert fidelity_to_phi_plus(dm) < 0.999


def test_overlap_zero_kills_x_visibility():
    cfg = ExperimentConfig.ideal(overlap_s0=0.0)
    out = run_phase_averaged(cfg)
    v_z, v_x = visibilities(out)
    assert abs(v_z - 1.0) < 1e-10
    assert abs(v_x) < 1e-10


def test_feedforward_branch_doubles_rate_same_state():
    base = ExperimentConfig.ideal()
    both = replace(base, include_feedforward_branch=True)
    out1 = run_phase_averaged(base)
    out2 = run_phase_averaged(both)
    assert abs(out2.triple_probability - 2.0 * out1.triple_probability) < 1e-12
    assert trace_distance(two_qubit_state(both).matrix,
                          two_qubit_state(base).matrix) < 1e-10
    v_z, v_x = visibilities(out2)
    assert abs(v_z - 1.0) < 1e-10 and abs(v_x - 1.0) < 1e-10


def test_component_breakdown_accounts_for_total():
    out = run_phase_averaged(replace(PAPER, overlap_s0=0.94))
    assert abs(sum(out.components.values()) - out.triple_probability) < 1e-15
    assert out.desired_probability > 0.0
    assert out.ancilla_multiphoton_probability > 0.0
    assert out.multi_pair_probability > 0.0
    assert out.dark_probability > 0.0


def test_sharing_rate_zero_transmittance_floor():
    prob, per_second = sharing_rate(replace(PAPER, transmittance=0.0))
    # Nothing arrives and only the pair detector has dark counts, so triple
    # coincidences require a double-pair emission on the sender side.
    assert prob < 1e-12
    assert per_second == prob * 82e6


def test_rate_proportional_to_transmittance():
    # The photon-driven coincidence rate scales linearly; the total rate adds
    # the transmittance-independent dark floor on top.
    cfg = replace(PAPER, overlap_s0=0.94)
    ratios = []
    for t in (0.1, 0.03, 0.01, 0.005, 0.003):
        out = run_phase_averaged(replace(cfg, transmittance=t))
        photon_rate = out.triple_probability - out.dark_probability
        ratios.append(photon_rate / t)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.02


def test_single_photon_variant_rate_quadratic():
    cfg = replace(PAPER, variant="single_photon_ancilla")
    ratios = []
    for t in (0.1, 0.03, 0.01):
        prob, _ = sharing_rate(replace(cfg, transmittance=t))
        ratios.append(prob / t ** 2)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.02


def test_monotonicity_in_parameters():
    cfg = replace(PAPER, overlap_s0=0.94, transmittance=0.01)
    base = sharing_rate(cfg)[0]
    for name, values in (("eta", (0.2, 0.5)), ("eta_g", (0.2, 0.5)),
                         ("mu", (0.2, 0.3)), ("gamma", (0.01, 0.02)),
                         ("transmittance", (0.05, 0.2))):
        prev = base
        for val in values:
            cur = sharing_rate(replace(cfg, **{name: val}))[0]
            assert cur >= prev * (1.0 - 1e-12), name
            prev = cur


def test_component_scaling_exponents_fast():
    # Coarse two-point sanity versions of the exponent fits; the acceptance
    # suite runs the full grids.
    cfg = replace(PAPER, overlap_s0=0.94)
    rep = component_scaling(cfg, "transmittance", (0.01, 0.02, 0.04),
                            "desired")
    assert abs(rep.slope - 1.0) < 0.01
    rep = component_scaling(cfg, "transmittance", (0.01, 0.02, 0.04),
                            "ancilla_multiphoton")
    assert abs(rep.slope - 1.0) < 0.01
    rep = component_scaling(cfg, "gamma", (5e-4, 1e-3, 2e-3), "multi_pair")
    assert abs(rep.slope - 2.0) < 0.02


def test_forward_variant_unwanted_constant_in_t():
    cfg = replace(PAPER, overlap_s0=0.94)
    reports = forward_variant_scaling(cfg)
    assert abs(reports["forward_unwanted_vs_t"].slope) < 0.05
    assert abs(reports["counter_unwanted_vs_t"].slope - 1.0) < 0.05
    assert abs(reports["forward_unwanted_vs_mu"].slope - 2.0) < 0.05
    assert abs(reports["counter_desired_vs_mu"].slope - 1.0) < 0.05


def test_distribute_qubit_examples():
    # The outcome, read from the tomography's Z-Z and X-X tables, has the
    # bits of the averaged run of the same exact-pair configuration.
    cfg = ExperimentConfig.ideal()
    for amps in ((1.0, 0.0), (0.0, 1.0),
                 (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
                 (math.sqrt(0.8), math.sqrt(0.2))):
        fid, outcome = distribute_qubit(cfg, amps)
        assert abs(fid - 1.0) < 1e-10
        # Normalized as distribute_qubit normalizes them.
        norm = math.sqrt(abs(amps[0]) ** 2 + abs(amps[1]) ** 2)
        qubit = (complex(amps[0]) / norm, complex(amps[1]) / norm)
        want = run_phase_averaged(replace(cfg, source="exact_pair",
                                          input_qubit=qubit))
        assert outcome == want, amps


def test_distribute_qubit_rejects_zero():
    with pytest.raises(ValidationError):
        distribute_qubit(ExperimentConfig.ideal(), (0.0, 0.0))


def _full_train_coincidence(cfg, delay_um, setting_e, setting_g):
    """Circular coincidence by the direct definition: the whole train at
    this delay and the config's T, separate E and G rotations putting each
    setting on the H modes, then the product of the H-mode click
    probabilities."""
    plan, state = source_phase_state(replace(cfg, delay_um=delay_um),
                                      0.0, 0.0, direct=True)
    wiring = plan.wiring
    reg = wiring.registry
    # The Y analyzer puts R on the H modes; with its rows swapped, L.
    circular = {"R": protocol.ANALYZERS["Y"],
                "L": protocol.ANALYZERS["Y"][::-1]}
    for side, setting in ((wiring.side_e, setting_e),
                          (wiring.side_g, setting_g)):
        state = apply_transform(state, jones_transform(
            reg, side, circular[setting]))
    groups = [(plan.detectors["E"], reg.indices(wiring.side_e, pol=H)),
              (plan.detectors["G"], reg.indices(wiring.side_g, pol=H))]
    if wiring.herald is not None:
        groups.append((plan.detectors["F"], reg.indices(wiring.herald, pol=H)))
    total = 0.0
    for occ, amp in state.terms.items():
        w = abs(amp) ** 2
        for det, idx in groups:
            w *= det.click_probability(sum(occ[k] for k in idx))
        total += w
    return total


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(variant="single_photon_ancilla"),
    dict(variant="forward_all_from_bob"),
    dict(variant="single_photon_ancilla", include_feedforward_branch=True),
    # At zero delay s = 1: the full train has no overlap element, and the
    # delay read gives every row on the orthogonal modes weight 0.
    dict(overlap_s0=1.0),
    # At s = 0 every row with a matched pulse photon past the split does.
    dict(overlap_s0=0.0),
    dict(cutoff=6),
    dict(source="exact_pair"),
    dict(include_feedforward_branch=True),
    # Two pairs fit beside the lost pulse photon, so rows on the pulse's
    # loss modes reach a triple coincidence.
    dict(variant="single_photon_ancilla", cutoff=6),
])
def test_delay_evaluator_matches_full_propagation(overrides):
    cfg = replace(PAPER, **{"overlap_s0": 0.94, "overlap_sigma_um": 108.1,
                            **overrides})
    evaluate = delay_coincidences(cfg)
    for dx in (0.0, 60.0, -60.0, 250.0, -250.0):
        p_rd, p_ld = evaluate(replace(cfg, delay_um=dx).overlap_amplitude)
        want_rd = _full_train_coincidence(cfg, dx, "R", "L")
        want_ld = _full_train_coincidence(cfg, dx, "L", "L")
        assert want_rd > 0.0 and want_ld > 0.0
        assert abs(p_rd - want_rd) <= 1e-12 * want_rd
        assert abs(p_ld - want_ld) <= 1e-12 * want_ld


@pytest.mark.parametrize("overrides", [
    dict(),
    # The only case with photons on the pulse's loss modes.
    dict(variant="single_photon_ancilla", cutoff=6),
    dict(variant="forward_all_from_bob"),
    # No pulse: V_X does not depend on the overlap.
    dict(variant="direct_no_dfs"),
    dict(include_feedforward_branch=True),
    dict(cutoff=6),
])
def test_overlap_x_visibility_matches_averaged_runs(overrides):
    # The reweighted table at each s against the phase average of a state
    # propagated at that overlap; s = 1 and s = 0 drop the split or one of
    # its outputs, and 0.94091796875 lies near the calibrated overlap.
    cfg = replace(PAPER, **overrides)
    v_x = overlap_x_visibility(cfg)
    for s in (0.0, 0.3, 1.0 / math.sqrt(2.0), 0.9, 0.94091796875, 1.0):
        want = visibilities(measure(*source_phase_state(
            replace(cfg, overlap_s0=s), direct=True)))[1]
        # An averaged run reads the same table the same way.
        assert v_x(s) == visibilities(
            run_phase_averaged(replace(cfg, overlap_s0=s)))[1]
        assert abs(v_x(s) - want) <= 1e-13, s
    with pytest.raises(ValidationError, match="overlap amplitude"):
        v_x(math.nan)


def test_delay_reads_each_overlap_once(monkeypatch):
    # A symmetric scan meets each s at +dx and -dx: the second is a lookup
    # of the first read's floats.
    reads = []
    pair_probs = protocol._Table.pair_probs
    monkeypatch.setattr(protocol._Table, "pair_probs", lambda self, *args,
                        **kwargs: reads.append(kwargs["s2"])
                        or pair_probs(self, *args, **kwargs))
    evaluate = delay_coincidences(replace(PAPER, overlap_s0=0.94))
    first = [evaluate(s) for s in (0.5, 0.7, 0.0)]
    assert [evaluate(s) for s in (0.5, 0.7, 0.0)] == first
    assert reads == [0.25, 0.7 * 0.7, 0.0]


def test_delay_evaluator_rejects_nan_delay():
    evaluate = delay_coincidences(replace(PAPER, overlap_s0=0.94))
    with pytest.raises(ValidationError, match="overlap amplitude"):
        evaluate(math.nan)


def test_delay_evaluator_evaluates_each_overlap_once(count_calls):
    # Each overlap is a reweighting of the memo's one Y-Y click table: no
    # call propagates the train or measures again, and neither does a
    # second ``delay_coincidences`` of the config.
    cfg = replace(PAPER, overlap_s0=0.94, overlap_sigma_um=108.1)
    calls = count_calls("_final_state", "click_table")
    evaluate = delay_coincidences(cfg)
    overlaps = [replace(cfg, delay_um=dx).overlap_amplitude
                for dx in (0.0, 60.0, -60.0, 0.0, 60.0)]
    got = [evaluate(s) for s in overlaps]
    assert calls == {"_final_state": 1, "click_table": 1}
    # s(dx) is even in dx: two distinct overlaps.
    assert got[1] == got[2] == got[4] and got[0] == got[3]
    assert got[0] != got[1]
    fresh = delay_coincidences(cfg)
    assert [fresh(s) for s in overlaps[2:4]] == [got[1], got[0]]
    assert calls == {"_final_state": 2, "click_table": 1}


@pytest.mark.parametrize("overrides", [
    dict(), dict(include_feedforward_branch=True),
    dict(variant="direct_no_dfs")], ids=["herald", "feedforward", "direct"])
def test_measure_builds_two_click_tables(monkeypatch, overrides):
    cfg = replace(PAPER, overlap_s0=0.94, **overrides)
    plan, state = prepare_final_state(cfg, 0.0, 0.3)
    tables = []
    build = protocol.click_table
    monkeypatch.setattr(protocol, "click_table",
                        lambda *args: tables.append(args) or build(*args))
    measure(plan, state)
    assert len(tables) == 2


def _click(det, n):
    return float(sum(exact_click_parts(det.efficiency, det.dark, n)))


def _per_term_measurement(plan, state, x_state, feedforward):
    """Triple probability, components and Z/X pairs, one term at a time."""
    wiring = plan.wiring
    reg = wiring.registry
    det_e, det_g = plan.detectors["E"], plan.detectors["G"]
    heralds = [None] if wiring.herald is None else [H, V][:1 + feedforward]

    def count(occ, side, pol=None):
        return sum(occ[i] for i in reg.indices(side, pol=pol))

    def herald_click(occ, pol):
        return (1.0 if pol is None
                else _click(plan.detectors["F"], count(occ, wiring.herald, pol)))

    triple, comps = 0.0, {}
    zz = dict.fromkeys([(a, b) for a in "HV" for b in "HV"], 0.0)
    for occ, amp in state.terms.items():
        w = abs(amp) ** 2
        pairs = sum(occ[i] for lab in wiring.pair_side
                    for i in reg.indices(lab))
        n_g = count(occ, wiring.side_g)
        photon, dark = map(float, exact_click_parts(det_g.efficiency,
                                                    det_g.dark, n_g))
        for pol in heralds:
            x = w * herald_click(occ, pol) * _click(det_e, count(occ, wiring.side_e))
            triple += x * (photon + dark)
            for origin, part in (("photon", photon), ("dark", dark)):
                key = (pairs, sum(occ) - 2 * pairs, origin)
                comps[key] = comps.get(key, 0.0) + x * part
            for se in "HV":
                for sg in "HV":
                    zz[(se, sg)] += (w * herald_click(occ, pol)
                                     * _click(det_e, count(occ, wiring.side_e, se))
                                     * _click(det_g, count(occ, wiring.side_g, sg)))
    xx = dict.fromkeys([(a, b) for a in ("D", "Dbar") for b in ("D", "Dbar")],
                       0.0)
    for occ, amp in x_state.terms.items():
        for pol in heralds:
            for pe, se in zip("HV", ("D", "Dbar")):
                for pg, sg in zip("HV", ("D", "Dbar")):
                    # After the |Dbar> herald the feed-forward flip swaps
                    # the retained photon's X outcomes.
                    label = se if pol != V else {"D": "Dbar", "Dbar": "D"}[se]
                    xx[(label, sg)] += (abs(amp) ** 2 * herald_click(occ, pol)
                                        * _click(det_e, count(occ, wiring.side_e, pe))
                                        * _click(det_g, count(occ, wiring.side_g, pg)))
    return triple, {k: v for k, v in comps.items() if v}, zz, xx


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want) + 1e-300


@st.composite
def _measure_cases(draw):
    cfg = replace(
        PAPER, cutoff=4,
        variant=draw(st.sampled_from(
            ["counter_propagating", "forward_all_from_bob", "direct_no_dfs"])),
        include_feedforward_branch=draw(st.booleans()),
        eta=draw(st.floats(0.0, 1.0)), eta_g=draw(st.floats(0.0, 1.0)),
        # Every dark count ExperimentConfig accepts.
        dark_e=draw(st.floats(0.0, 1.0, exclude_max=True)),
        dark_f=draw(st.floats(0.0, 1.0, exclude_max=True)),
        dark_g=draw(st.floats(0.0, 1.0, exclude_max=True)))
    # The drawn state is measured as it is: read at s^2 = T = 1/2, where
    # the engine propagates.
    plan = replace(protocol._build_plan(cfg), overlap_s2=0.5,
                   transmittance=0.5)
    wiring = plan.wiring
    reg = wiring.registry
    # Photons go to the detected and pair-side modes, the groups before
    # all modes, the orthogonal ones and the loss ports, and to one other.
    measured = {i for group in wiring.groups[:-4] for i in group}
    modes = sorted(measured) + sorted(set(range(reg.n_modes)) - measured)[:1]
    e_hv = [reg.index(Mode(wiring.side_e, pol)) for pol in (H, V)]
    g_hv = [reg.index(Mode(wiring.side_g, pol)) for pol in (H, V)]
    # Up to one photon on E and on G, and up to two more on those modes.
    base = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(e_hv), max_size=1),
                  st.lists(st.sampled_from(g_hv), max_size=1),
                  st.lists(st.sampled_from(modes), max_size=2))
        .map(lambda parts: [i for part in parts for i in part]),
        min_size=1, max_size=4))
    # Each occupation also appears with H and V swapped on E, on G and on
    # both, so the X basis sees interference between them.
    swaps = [{}, dict(zip(e_hv, e_hv[::-1])), dict(zip(g_hv, g_hv[::-1]))]
    swaps.append({**swaps[1], **swaps[2]})
    occupations = list(dict.fromkeys(
        tuple([swap.get(i, i) for i in photons].count(m)
              for m in range(reg.n_modes))
        for photons in base for swap in swaps))
    amps = draw(st.lists(st.complex_numbers(min_magnitude=1e-3,
                                            max_magnitude=1.0),
                         min_size=len(occupations),
                         max_size=len(occupations)))
    return cfg, plan, dict(zip(occupations, amps))


@settings(max_examples=40, deadline=None)
@given(_measure_cases())
def test_measure_matches_per_term_definition(case):
    cfg, plan, terms = case
    wiring = plan.wiring
    reg = wiring.registry
    state = FockStateVector(reg, cfg.cutoff, terms)
    out = measure(plan, state)
    x_state = state
    for side in (wiring.side_e, wiring.side_g):
        x_state = apply_transform(x_state, jones_transform(
            reg, side, protocol.ANALYZERS["X"]))
    feedforward = cfg.include_feedforward_branch and wiring.herald is not None
    triple, comps, zz, xx = _per_term_measurement(plan, state, x_state,
                                                  feedforward)
    assert _close(out.triple_probability, triple)
    assert _close(sum(out.components.values()), out.triple_probability)
    # A component absent on one side must be within the absolute floor of
    # zero on the other: with a dark count of 5e-324 a product rounds to 0
    # or to 5e-324 depending on how its factors are grouped.
    for key in {*out.components, *comps}:
        assert _close(out.components.get(key, 0.0), comps.get(key, 0.0)), key
    for got, want in ((out.zz_probs, zz), (out.xx_probs, xx)):
        assert set(got) == set(want)
        for key, val in want.items():
            assert _close(got[key], val), key


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(cutoff=6, pair_cutoff=3),
    dict(include_feedforward_branch=True),
    dict(source="exact_pair"),
    dict(variant="single_photon_ancilla"),
    dict(variant="single_photon_ancilla", cutoff=6),
    dict(variant="forward_all_from_bob"),
], ids=["counter", "counter_c6", "feedforward", "exact_pair", "single_c4",
        "single_c6", "forward"])
def test_dfs_makes_the_phase_average_exact(monkeypatch, final_states,
                                          overrides):
    # The whole state, not only its post-selected part, is immune to the
    # collective phase: averaging over it changes no bit of any statistic.
    # So the delay scan reads the Y-Y table of the labelled state: at each
    # s, and in its polynomial, it gives the bits of the zero-phase merge.
    cfg = replace(PAPER, overlap_s0=CAL_S0, **overrides)
    assert run_phase_averaged(cfg) == run_fixed_phase(cfg, 0.0, 0.0)
    got = delay_coincidences(cfg)
    plan, final = protocol._final_state(cfg)
    merged = protocol._Final(final.wiring,
                             protocol._at_phases(final.state, (0.0, 0.0)))
    monkeypatch.setattr(protocol, "_final_state", lambda c: (plan, merged))
    want = delay_coincidences(cfg)
    for s in (0.0, 0.3, 0.7, CAL_S0, 1.0):
        assert got(s) == want(s), s
    assert len(got.polynomial) == len(want.polynomial) == 2
    for g, w in zip(got.polynomial, want.polynomial):
        assert g.tobytes() == w.tobytes()


def test_analyzers_put_each_eigenstate_on_its_port():
    # Each analyzer's rows are the bras of the +1 and -1 eigenstates of its
    # Pauli operator, keyed in the order the tomography sums the bases.
    assert list(protocol.ANALYZERS) == ["Z", "X", "Y"]
    for basis, a in protocol.ANALYZERS.items():
        assert np.abs(a @ a.conj().T - np.eye(2)).max() <= 1e-15, basis
        assert np.abs(a @ protocol._PAULI[basis] @ a.conj().T
                      - np.diag([1.0, -1.0])).max() <= 1e-15, basis


@settings(max_examples=80, deadline=None)
@given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0, exclude_min=True),
       variant=st.sampled_from(protocol.VARIANTS),
       feedforward=st.booleans(), dark=st.floats(0.0, 0.5))
def test_reweighted_reads_match_the_direct_route(s, t, variant, feedforward,
                                                 dark):
    # Every statistic read from the one propagation at s^2 = T = 1/2
    # against the train propagated at the config's own s and T.  That
    # route drops amplitudes below PRUNE_THRESHOLD = 1e-15 as a tiny s or
    # T makes them, so it misses weights below 1e-30 that the reads keep.
    cfg = replace(PAPER, overlap_s0=s, transmittance=t, variant=variant,
                  include_feedforward_branch=feedforward, dark_e=dark,
                  dark_f=dark / 2.0, dark_g=dark / 3.0)
    got = run_phase_averaged(cfg)
    want = measure(*source_phase_state(cfg, direct=True))

    def close(a, b):
        return abs(a - b) <= 1e-14 * abs(b) + 1e-28

    assert close(got.triple_probability, want.triple_probability)
    assert got.truncated_weight == want.truncated_weight
    for g, w in ((got.zz_probs, want.zz_probs), (got.xx_probs, want.xx_probs),
                 (got.components, want.components)):
        assert all(close(g.get(key, 0.0), w.get(key, 0.0))
                   for key in {*g, *w}), (g, w)


def test_direct_variant_loses_x_correlations_to_the_phase_average():
    cfg = replace(PAPER, variant="direct_no_dfs")
    v_z, v_x = visibilities(run_phase_averaged(cfg))
    assert v_x == 0.0
    fixed_z, fixed_x = visibilities(run_fixed_phase(cfg, 0.0, 0.0))
    assert fixed_z == v_z and fixed_x == fixed_z


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("phase", [(0.3, 1.1), (1.0, -0.5)])
def test_fixed_phase_matches_the_source_phase_reference(variant, phase):
    cfg = replace(PAPER, overlap_s0=CAL_S0, variant=variant)
    got = run_fixed_phase(cfg, *phase)
    want = measure(*source_phase_state(cfg, *phase))

    def close(a, b):
        return abs(a - b) <= 1e-14 * abs(b) + 1e-300

    assert close(got.triple_probability, want.triple_probability)
    assert close(got.truncated_weight, want.truncated_weight)
    for g, w in ((got.zz_probs, want.zz_probs), (got.xx_probs, want.xx_probs),
                 (got.components, want.components)):
        assert set(g) == set(w)
        assert all(close(g[key], w[key]) for key in w)


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(variant="forward_all_from_bob", overlap_s0=0.9),
    dict(phase_delta=(0.2, -0.4)),
])
def test_phase_point_states_match_fixed_phase_preparation(overrides):
    cfg = replace(PAPER, **overrides)
    final = protocol._final_state(cfg)[1].state
    for phi_h, phi_v in PHASE_SET_8:
        state = protocol._at_phases(final, (phi_h, phi_v))
        _, want = source_phase_state(cfg, phi_h, phi_v)
        assert states_allclose(state, want, tol=1e-15)
        assert state.truncated_weight == pytest.approx(want.truncated_weight,
                                                       rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("overrides", [
    dict(), dict(cutoff=6, phase_delta=(0.2, -0.4)),
    dict(include_feedforward_branch=True, source="exact_pair")])
def test_pattern_distribution_is_each_phase_table(variant, overrides):
    # Each phase's rows are the labelled rows turned by unit phases, so
    # the one table gives every phase index its patterns.
    cfg = replace(PAPER, variant=variant, overlap_s0=CAL_S0, **overrides)
    got = pattern_distribution(cfg)
    plan, final = protocol._final_state(cfg)
    for k, phase in enumerate(PHASE_SET_8):
        state = protocol._at_phases(final.state, phase)
        dist = protocol._table(
            plan, protocol._count_table(final.wiring, state)).patterns()
        norm = sum(dist.values())
        for bits, p in dist.items():
            want = p / (norm * len(PHASE_SET_8))
            assert abs(got[(k, bits)] - want) <= 1e-15 * want, (k, bits)
    assert len(got) == len(PHASE_SET_8) * len(dist)


def test_f_low_monotone_in_transmittance_on_grid():
    cfg = replace(PAPER, overlap_s0=0.94)
    values = []
    for t in (0.1, 0.03, 0.01, 0.005, 0.003):
        out = run_phase_averaged(replace(cfg, transmittance=t))
        values.append(f_low(*visibilities(out)))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_zero_ancilla_coincidence_floor():
    # With no ancilla pulse the only triple coincidences come from
    # double-pair emissions (real detections) plus a tiny dark-driven part;
    # values frozen from the exact engine and the dense oracle.
    out = run_phase_averaged(replace(PAPER, mu=0.0, overlap_s0=0.94))
    assert out.triple_probability < 1e-9
    assert out.multi_pair_probability > 0.9 * out.triple_probability
    assert out.dark_probability < 1e-3 * out.triple_probability


def test_receiver_side_ancilla_preparation_matches_explicit_propagation():
    """Preparing the coherent pulse at the receiver is exact.

    Launch mean mu/(T*R) at the sender, reflect off the plate (sqrt(R)) and
    attenuate through the channel (sqrt(T)); because coherent states
    factorize across beamsplitter ports and the discarded ports are never
    measured, the delivered statistics equal the direct preparation with
    mean mu.  The explicit side also propagates the pair photon's channel
    loss and pickoff, which the engine folds into D_G, and measures G at
    eta_g.  Checked at parameters where the launched pulse still fits the
    truncation.
    """
    from dfsdist.fock import apply_transform, make_registry, tensor
    from dfsdist.optics import attenuator, hwp, loss_channel, pbs, phase_shifter
    from dfsdist.protocol import ANALYZERS, _Plan, _Wiring
    from dfsdist.optics import jones_transform
    from dfsdist.sources import (
        CoherentParams,
        DetectorModel,
        coherent_state,
        pair_state,
    )

    mu, t_chan, r_gp = 0.05, 0.5, 0.4
    phi = (0.3, 1.2)
    cfg = replace(PAPER, mu=mu, transmittance=t_chan, gp_reflectance=r_gp,
                  source="exact_pair", cutoff=8, overlap_s0=1.0)
    reference = run_fixed_phase(cfg, *phi)

    # Explicit wiring: launched pulse, plate reflection, lossy channel.
    reg = make_registry([("A", True), ("R", True), ("E", True), ("F", True),
                         "B", "G", "LB", "DB", ("RD", True), ("LR", True)])
    pair = pair_state(reg, cfg.cutoff, "A", "B")
    launched = coherent_state(CoherentParams(mu / (t_chan * r_gp)), reg,
                              cfg.cutoff, "R")
    state = tensor(pair, launched)
    state = apply_transform(state, attenuator(reg, "R", "R", "RD", r_gp))
    state = apply_transform(state, phase_shifter(reg, "R", *phi))
    state = apply_transform(state, loss_channel(reg, "R", t_chan, "LR"))
    state = apply_transform(state, phase_shifter(reg, "B", *phi))
    state = apply_transform(state, loss_channel(reg, "B", t_chan, "LB"))
    state = apply_transform(state, attenuator(reg, "B", "G", "DB", 1.0 - r_gp))
    state = apply_transform(state, hwp(reg, "R", math.pi / 4.0))
    state = apply_transform(state, pbs(reg, "A", "R", "E", "F"))
    state = apply_transform(state, jones_transform(reg, "F", ANALYZERS["X"]))
    plan = _Plan(_Wiring(reg, "E", "G", "F", ("B", "G", "LB", "DB")),
                 {"E": DetectorModel("D_E", cfg.eta, cfg.dark_e),
                  "G": DetectorModel("D_G", cfg.eta_g, cfg.dark_g),
                  "F": DetectorModel("D_F", cfg.eta, cfg.dark_f)})
    explicit = measure(plan, state)

    # The launched pulse (mean 0.25) loses 9.7e-9 to the cutoff.
    assert explicit.truncated_weight < 1e-8
    pairs = [(explicit.triple_probability, reference.triple_probability)]
    for got, want in ((explicit.zz_probs, reference.zz_probs),
                      (explicit.xx_probs, reference.xx_probs)):
        assert set(got) == set(want)
        pairs += [(got[key], want[key]) for key in want]
    for got, want in pairs:
        assert abs(got - want) <= 1e-5 * want


def _explicit_pair_loss(monkeypatch, cfg):
    """Make the engine propagate ``cfg``'s pair photon channel loss
    B -> LB and pickoff B -> G/DB as elements and measure G at eta_g,
    instead of folding both into D_G."""
    build, wiring = protocol._build_plan, protocol._wiring(cfg.variant)
    # Appended, so every mode keeps its index.
    reg = ModeRegistry([*wiring.registry.modes,
                        *make_registry(["G", "LB", "DB"]).modes])
    explicit = replace(
        wiring, registry=reg, side_g="G", pair_side=("B", "G", "LB", "DB"),
        receiver=(
            loss_channel(reg, "B", cfg.transmittance, "LB"),
            attenuator(reg, "B", "G", "DB", 1.0 - cfg.gp_reflectance),
            # The receiver map moved onto the larger registry.
            *(ModeTransform(reg, t.input_indices, t.output_indices, t.matrix)
              for t in wiring.receiver)))

    def build_explicit(cfg):
        plan = build(cfg)
        det_g = DetectorModel("D_G", cfg.eta_g, cfg.dark_g)
        return replace(plan, detectors={**plan.detectors, "G": det_g})

    monkeypatch.setattr(protocol, "_wiring", {cfg.variant: explicit}.get)
    monkeypatch.setattr(protocol, "_build_plan", build_explicit)


def _fold_records(cfg):
    """Every number the averaged and fixed-phase runs and, with a pulse,
    the delay read give for ``cfg``."""
    records = {}
    for name, out in (("avg", run_phase_averaged(cfg)),
                      ("fixed", run_fixed_phase(cfg, 0.3, 1.1))):
        records[name, "triple"] = out.triple_probability
        records[name, "truncated"] = out.truncated_weight
        for table in ("zz_probs", "xx_probs", "components"):
            for key, val in getattr(out, table).items():
                records[name, table, key] = val
    if cfg.variant != "direct_no_dfs":
        evaluate = delay_coincidences(cfg)
        for s in (0.0, 0.5, 1.0 / math.sqrt(2.0), CAL_S0, 1.0):
            records["delay", s] = evaluate(s)
    return records


@pytest.mark.parametrize("variant", ["counter_propagating",
                                     "single_photon_ancilla", "direct_no_dfs"])
def test_pair_loss_fold_matches_explicit_chain(monkeypatch, final_states,
                                               variant):
    # The fold is exact: both losses act alike on H and V and commute with
    # G's analyzer, and a detector of efficiency eta behind a loss T is one
    # of efficiency eta T.  Without a herald the feed-forward flag is moot.
    # The folded configs share memo entries; the explicit train depends on
    # T and R, which the memo's key leaves out, so each explicit config
    # propagates on an empty memo.
    flags = [dict(dark_e=1.5e-6, dark_f=1.5e-6),
             dict(include_feedforward_branch=True, dark_g=0.0)]
    if variant == "direct_no_dfs":
        flags = flags[:1]
    cfgs = [replace(PAPER, variant=variant, transmittance=t,
                    gp_reflectance=r, overlap_s0=CAL_S0, **extra)
            for t in (0.0, 1e-6, 0.003, 0.1, 1.0)
            for r in (0.0, 0.05, 0.4) for extra in flags]
    folded = [_fold_records(cfg) for cfg in cfgs]
    for cfg, want in zip(cfgs, folded):
        final_states.clear()
        with monkeypatch.context() as patch:
            _explicit_pair_loss(patch, cfg)
            got = _fold_records(cfg)
        assert set(got) == set(want), cfg
        for key, val in want.items():
            for g, w in zip(np.ravel(got[key]), np.ravel(val)):
                assert abs(g - w) <= 1e-13 * abs(w), (cfg, key)
