import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dfsdist import analysis, protocol
from dfsdist.analysis import (
    CalibrationError,
    ResultsTable,
    SweepSpec,
    calibrate_delay_width,
    calibrate_overlap,
    delay_scan,
    delay_scan_csv,
    delay_study,
    measure_dip_fwhm,
    rate_crossing,
    sample_events,
    sweep_transmittance,
    tomography_experiment,
)
from dfsdist.fock import H, ConfigurationError, ValidationError
from dfsdist.protocol import (
    ExperimentConfig,
    fit_loglog_slope,
    run_phase_averaged,
    visibilities,
)
from helpers import exact_click_parts

PAPER = ExperimentConfig()
CAL_S0 = 0.940918  # reference calibration output, re-derived in tests below


def test_fit_loglog_slope_exact_power_laws():
    pts1 = [(t, 3.0 * t) for t in (0.01, 0.03, 0.1, 0.3)]
    fit = fit_loglog_slope(pts1)
    assert abs(fit.slope - 1.0) < 1e-12
    assert fit.stderr < 1e-12
    pts2 = [(t, 0.5 * t * t) for t in (0.01, 0.03, 0.1, 0.3)]
    assert abs(fit_loglog_slope(pts2).slope - 2.0) < 1e-12


def test_fit_loglog_slope_validation():
    with pytest.raises(ValidationError):
        fit_loglog_slope([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValidationError):
        fit_loglog_slope([(0.1, 1.0), (0.2, -2.0), (0.3, 3.0)])
    # Equal x values leave the slope undetermined, not exact.
    with pytest.raises(ValidationError, match="two distinct x"):
        fit_loglog_slope([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])


def test_rate_crossing_of_exact_power_laws():
    grid = (0.003, 0.01, 0.03, 0.1)
    coherent = [(t, 2.0 * t) for t in grid]
    single = [(t, 2.0 * t * t / 0.07) for t in grid]
    assert rate_crossing(coherent, single) == pytest.approx(0.07, rel=1e-12)
    with pytest.raises(ValidationError, match="one transmittance grid"):
        rate_crossing(coherent, single[:-1])
    # Identical curves (factor 1) and parallel ones never cross.
    for factor in (1.0, 10.0, 100.0):
        with pytest.raises(ValidationError, match="do not cross"):
            rate_crossing(coherent, [(t, factor * r) for t, r in coherent])


def test_calibration_matches_target_and_is_idempotent():
    res = calibrate_overlap(PAPER)
    assert 0.0 < res.s0 < 1.0
    assert abs(res.v_x_achieved - 0.82) < 1e-4
    assert abs(res.s0 - CAL_S0) < 1e-3
    # Re-calibrating against the model's own achieved value returns the same
    # overlap within the bisection tolerance.
    again = calibrate_overlap(PAPER, target_v_x=res.v_x_achieved)
    assert abs(again.s0 - res.s0) < 1e-4
    assert abs(res.implied_mode_matching - res.s0 ** 2) < 1e-12


def test_calibration_fixed_point_at_maximum():
    out = run_phase_averaged(replace(PAPER, overlap_s0=1.0))
    top = visibilities(out)[1]
    res = calibrate_overlap(PAPER, target_v_x=top)
    assert res.s0 == 1.0


def test_calibration_unreachable_target():
    with pytest.raises(CalibrationError) as err:
        calibrate_overlap(PAPER, target_v_x=0.999)
    assert "maximum attainable" in str(err.value)


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls of the named ``protocol`` functions from here on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(protocol, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(protocol, name, counted(name))
    return calls


def test_calibration_raises_when_bisection_does_not_converge(monkeypatch):
    # V_X is near 0 at zero overlap and rises with it, so -0.5 is never
    # met; unchecked, the bisection returns s0 -> 0 as if calibrated.  Both
    # ends of the range are checked before any bisection step, on the one
    # propagated train.
    calls = _count_calls(monkeypatch, "_propagate")
    with pytest.raises(CalibrationError, match="minimum attainable"):
        calibrate_overlap(PAPER, target_v_x=-0.5)
    assert calls == {"_propagate": 1}


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_calibration_rejects_non_finite_target(monkeypatch, target):
    # NaN fails every comparison, so unchecked it bisected 80 steps and then
    # reported the target as not met.
    calls = _count_calls(monkeypatch, "_propagate")
    with pytest.raises(ValidationError, match="must be finite"):
        calibrate_overlap(PAPER, target_v_x=target)
    assert calls == {"_propagate": 0}


def test_calibration_propagates_once(monkeypatch):
    # Every V_X of the bisection, both range checks included, reweights the
    # rows of one click table.
    calls = _count_calls(monkeypatch, "_propagate", "click_table")
    res = calibrate_overlap(PAPER)
    assert calls == {"_propagate": 1, "click_table": 1}
    assert res.iterations > 1
    assert abs(res.s0 - CAL_S0) < 1e-3


def _bisect_with_averaged_runs(cfg: ExperimentConfig, target: float,
                               ) -> tuple[float, int]:
    """The calibration's bisection, one full averaged run per V_X."""
    def v_x_at(s0):
        return visibilities(run_phase_averaged(
            replace(cfg, transmittance=0.1, overlap_s0=s0, delay_um=0.0)))[1]

    top = v_x_at(1.0)
    assert v_x_at(0.0) < target < top
    if abs(top - target) <= analysis.CALIBRATION_TOL:
        return 1.0, 1
    lo, hi = 0.0, 1.0
    for it in range(1, analysis.CALIBRATION_MAX_STEPS + 1):
        mid = 0.5 * (lo + hi)
        val = v_x_at(mid)
        if abs(val - target) < analysis.CALIBRATION_TOL:
            return mid, it
        lo, hi = (mid, hi) if val < target else (lo, mid)
    raise AssertionError("bisection did not converge")


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(variant="single_photon_ancilla"),
    dict(include_feedforward_branch=True),
    dict(cutoff=5),
])
def test_calibration_matches_bisection_over_averaged_runs(overrides):
    # The config's own transmittance is not the anchor: both bisections
    # must evaluate V_X at T = 0.1.
    cfg = replace(PAPER, transmittance=0.03, **overrides)
    res = calibrate_overlap(cfg)
    assert (res.s0, res.iterations) == _bisect_with_averaged_runs(cfg, 0.82)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, 1.5])
def test_sweep_spec_rejects_anchor_outside_unit_interval(value):
    with pytest.raises(ValidationError, match="anchor transmittances"):
        SweepSpec(anchor_t=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sweep_spec_rejects_non_finite_target(value):
    # Unchecked, a sweep without calibration wrote a bare NaN into its JSON.
    with pytest.raises(ValidationError, match="must be finite"):
        SweepSpec(target_v_x=value, auto_calibrate=False)


@pytest.mark.parametrize("value", [0.0, 1.5])
def test_sweep_spec_accepts_finite_target(value):
    # Reachability is the calibration's check, not the spec's.
    assert SweepSpec(target_v_x=value).target_v_x == value


def test_sweep_table_consistency(tmp_path):
    spec = SweepSpec(transmittances=(0.03, 0.1), auto_calibrate=False)
    cfg = replace(PAPER, overlap_s0=CAL_S0)
    table = sweep_transmittance(cfg, spec)
    assert [r.transmittance for r in table.rows] == [0.1, 0.03]
    for row in table.rows:
        assert row.f_low == 0.5 * (row.v_z + row.v_x)
        assert row.chsh_flag == (row.f_low > 1.0 / math.sqrt(2.0))
        assert abs(row.rate_per_second - row.rate_per_pulse * 82e6) < 1e-9
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    table.write(csv_path, json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == ResultsTable.CSV_HEADER
    meta = json.loads(json_path.read_text())
    assert meta["metadata"]["config"]["gamma"] == PAPER.gamma


def test_sweep_outputs_are_deterministic(tmp_path):
    spec = SweepSpec(transmittances=(0.1,), auto_calibrate=False)
    cfg = replace(PAPER, overlap_s0=CAL_S0)
    paths = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        sweep_transmittance(cfg, spec).write(csv_path, json_path)
        paths.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert paths[0] == paths[1]


def test_delay_scan_limits_and_csv():
    cfg = replace(PAPER, overlap_s0=CAL_S0, overlap_sigma_um=108.1)
    rows = delay_scan(cfg, [0.0, 1e5])
    assert rows[0].visibility > 0.5
    assert rows[1].visibility < 1e-6
    assert abs(rows[1].p_rd - rows[1].p_ld) < 1e-15 * rows[1].p_rd
    text = delay_scan_csv(rows)
    assert text.splitlines()[0] == "delay_um,p_rd,p_ld,visibility"


def test_delay_width_calibration_roundtrip():
    cfg = replace(PAPER, overlap_s0=CAL_S0, overlap_sigma_um=100.0)
    sigma = calibrate_delay_width(cfg, 180.0)
    fwhm = measure_dip_fwhm(replace(cfg, overlap_sigma_um=sigma))
    assert abs(fwhm - 180.0) < 0.5
    # Analytic Gaussian relation as a cross-check: FWHM = 2 sqrt(ln 2) sigma.
    assert abs(sigma - 180.0 / (2.0 * math.sqrt(math.log(2.0)))) < 0.5


def test_fwhm_targeted_delay_study_propagates_once(monkeypatch):
    # The width calibration, the scan, the zero-delay visibility and the
    # FWHM all read one propagated train through one click table.
    calls = _count_calls(monkeypatch, "_propagate", "click_table")
    study = delay_study(replace(PAPER, overlap_s0=CAL_S0),
                        np.linspace(-100.0, 100.0, 5), 180.0)
    assert calls == {"_propagate": 1, "click_table": 1}
    assert study.fwhm_um == pytest.approx(180.0, abs=0.5)
    assert study.sigma_um != PAPER.overlap_sigma_um


@pytest.mark.parametrize("study", [
    lambda cfg: delay_study(cfg, np.linspace(-200.0, 200.0, 9), 180.0),
    measure_dip_fwhm,
    calibrate_delay_width,
], ids=["delay_study", "measure_dip_fwhm", "calibrate_delay_width"])
def test_delay_studies_reject_a_variant_without_pulse(monkeypatch, study):
    # No pulse, no dip: rejected before any propagation.
    calls = _count_calls(monkeypatch, "_propagate")
    cfg = replace(ExperimentConfig(variant="direct_no_dfs"), overlap_s0=0.94)
    with pytest.raises(ConfigurationError, match="has no pulse"):
        study(cfg)
    assert calls == {"_propagate": 0}


def test_tomography_ideal_and_reference():
    ideal = ExperimentConfig.ideal(variant="direct_no_dfs")
    res_off = tomography_experiment(ideal, phase_noise=False)
    res_on = tomography_experiment(ideal, phase_noise=True)
    assert abs(res_off.fidelity - 1.0) < 1e-10
    assert abs(res_on.fidelity - 0.5) < 1e-10
    for i, j in ((0, 3), (3, 0), (0, 1), (2, 3)):
        assert abs(res_on.matrix[i, j]) < 1e-12
    ref = tomography_experiment(PAPER, phase_noise=True)
    assert abs(ref.fidelity - 0.5) < 0.01


def test_sample_events_deterministic_and_empty():
    cfg = replace(PAPER, overlap_s0=CAL_S0)
    empty = sample_events(cfg, 0, 1)
    assert len(empty) == 0
    a = sample_events(cfg, 5000, 99)
    b = sample_events(cfg, 5000, 99)
    assert np.array_equal(a.phase_index, b.phase_index)
    assert np.array_equal(a.e_click, b.e_click)
    assert np.array_equal(a.g_click, b.g_click)
    c = sample_events(cfg, 5000, 100)
    assert not (np.array_equal(a.e_click, c.e_click)
                and np.array_equal(a.phase_index, c.phase_index))


def test_sample_events_rates_converge_to_exact():
    # Boosted parameters so a tractable pulse count carries real statistics.
    cfg = replace(PAPER, eta=1.0, eta_g=1.0, gamma=0.05, transmittance=0.5,
                  overlap_s0=1.0)
    out = run_phase_averaged(cfg)
    exact = out.triple_probability
    n = 400_000
    sample = sample_events(cfg, n, 2026)
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(sample.triple_rate() - exact) < 3.0 * sigma
    # Marginal click distribution matches the exact pattern distribution.
    key_total = sum(p for (k, bits), p in
                    sample.exact_pattern_probabilities.items())
    assert abs(key_total - 1.0) < 1e-9


def _exact_pattern_probabilities(cfg):
    """``exact_pattern_probabilities`` term by term in exact rationals: E
    and G watch all their modes, F the herald's H modes."""
    plan, states = protocol.phase_point_states(cfg)
    reg, dets = plan.registry, plan.detectors
    sides = [(dets["E"], reg.indices(plan.side_e)),
             (dets["G"], reg.indices(plan.side_g))]
    if plan.herald is not None:
        sides.insert(1, (dets["F"], reg.indices(plan.herald, pol=H)))
    exact = {}
    for k, state in enumerate(states):
        dist = {}
        for occ, amp in state.terms.items():
            parts = [exact_click_parts(det.efficiency, det.dark,
                                       sum(occ[i] for i in group))
                     for det, group in sides]
            for bits in itertools.product((False, True), repeat=len(sides)):
                p = Fraction(abs(amp) ** 2)
                for b, (photon, dark) in zip(bits, parts):
                    p *= photon + dark if b else 1 - photon - dark
                key = bits if len(bits) == 3 else (bits[0], False, bits[1])
                dist[key] = dist.get(key, 0) + p
        norm = sum(dist.values())
        for bits, p in dist.items():
            exact[(k, bits)] = p / (norm * len(states))
    return exact


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(include_feedforward_branch=True, dark_e=0.2, dark_f=0.1),
    dict(variant="direct_no_dfs"),
    # E stays dark after a photon with probability (1 - dark)(1 - eta) =
    # 1e-8; taken as 1 - click it was 8e-11 relative off.
    dict(eta=0.99, dark_e=0.999999),
], ids=["reference", "feedforward", "direct", "near_certain_click"])
def test_sample_pattern_probabilities_match_exact_rationals(overrides):
    cfg = replace(PAPER, overlap_s0=CAL_S0, **overrides)
    got = sample_events(cfg, 0, 1).exact_pattern_probabilities
    want = _exact_pattern_probabilities(cfg)
    assert set(got) == set(want)
    for key, val in want.items():
        assert abs(Fraction(got[key]) - val) <= 1e-12 * val, key


def test_sample_events_csv_format():
    cfg = replace(PAPER, overlap_s0=CAL_S0)
    sample = sample_events(cfg, 3, 7)
    lines = sample.to_csv_text().splitlines()
    assert lines[0] == "pulse,phase_index,e_click,f_click,g_click"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def _per_pulse_csv(sample) -> str:
    lines = ["pulse,phase_index,e_click,f_click,g_click"]
    for i in range(len(sample)):
        lines.append(f"{i},{sample.phase_index[i]},{int(sample.e_click[i])},"
                     f"{int(sample.f_click[i])},{int(sample.g_click[i])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(variant="direct_no_dfs"),  # no herald: f_click is always 0
])
def test_sample_csv_equals_per_pulse_formatting(overrides):
    # Boosted rates so that many distinct click records occur.
    cfg = replace(PAPER, eta=1.0, eta_g=1.0, gamma=0.05, transmittance=0.5,
                  overlap_s0=1.0, dark_g=0.3, **overrides)
    sample = sample_events(cfg, 20_000, 11)
    text = sample.to_csv_text()
    assert text == _per_pulse_csv(sample)
    assert len({line.split(",", 1)[1] for line in text.splitlines()[1:]}) > 8
    empty = sample_events(cfg, 0, 11)
    assert empty.to_csv_text() == _per_pulse_csv(empty)


def test_sample_events_reference_scale_ten_million():
    # At the reference parameters the per-pulse triple probability is ~1e-8,
    # so ten million pulses yield at most a few counts; the empirical rate
    # must sit within 3 sigma of the exact value.
    cfg = replace(PAPER, overlap_s0=CAL_S0)
    exact = run_phase_averaged(cfg).triple_probability
    n = 10_000_000
    sample = sample_events(cfg, n, 314159)
    sigma = math.sqrt(exact / n)
    assert abs(sample.triple_rate() - exact) <= 3.0 * sigma


def test_delay_visibility_shape_is_gaussian():
    # With a single ancilla photon the interference term carries s(dx)^2 and
    # nothing else depends on the delay, so the visibility is an exact
    # Gaussian; the coherent pulse adds multi-photon terms with other powers
    # of the overlap, leaving a sub-1e-3 deviation at reference parameters.
    sigma = 108.1
    ideal = replace(ExperimentConfig.ideal(), overlap_s0=0.95,
                    overlap_sigma_um=sigma)
    rows = delay_scan(ideal, [0.0, 60.0, 120.0])
    v0 = rows[0].visibility
    for row in rows[1:]:
        expect = v0 * math.exp(-(row.delay_um / sigma) ** 2)
        assert abs(row.visibility - expect) < 1e-12
    cfg = replace(PAPER, overlap_s0=CAL_S0, overlap_sigma_um=sigma)
    for row in delay_scan(cfg, [60.0, 120.0]):
        v_ref = delay_scan(cfg, [0.0])[0].visibility
        expect = v_ref * math.exp(-(row.delay_um / sigma) ** 2)
        assert abs(row.visibility - expect) < 1e-3
