"""Calibration, parameter sweeps, slope fits, delay scans and event sampling.

All outputs are deterministic: identical configuration (and seed, for
sampling) produces byte-identical CSV/JSON files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .fock import ValidationError, fidelity_to_phi_plus
from .optics import OverlapModel, overlap_at_delay
from .protocol import (
    REP_RATE_HZ,
    ExperimentConfig,
    chsh_violated,
    delay_coincidences,
    f_low,
    overlap_x_visibility,
    pattern_distribution,
    run_phase_averaged,
    two_qubit_state,
    visibilities,
)


class CalibrationError(ValidationError):
    """The calibration target cannot be reached by any overlap value."""


@dataclass(frozen=True)
class SweepSpec:
    """Transmittance sweep at constant delivered ancilla intensity."""

    transmittances: tuple[float, ...] = (0.1, 0.03, 0.01, 0.005, 0.003)
    anchor_t: float = 0.1
    target_v_x: float = 0.82
    auto_calibrate: bool = True

    def __post_init__(self):
        if not self.transmittances:
            raise ValidationError("sweep needs at least one transmittance")
        # NaN fails every comparison, so each check is written to pass only
        # on valid values.
        for t in (*self.transmittances, self.anchor_t):
            if not 0.0 < t <= 1.0:
                raise ValidationError(
                    "sweep and anchor transmittances must lie in (0, 1]")
        if not math.isfinite(self.target_v_x):
            raise ValidationError(
                f"target V_X must be finite, got {self.target_v_x}")


@dataclass(frozen=True)
class CalibrationResult:
    s0: float
    v_x_achieved: float
    anchor_t: float
    target_v_x: float
    iterations: int

    @property
    def implied_mode_matching(self) -> float:
        """Intensity-overlap reading of the calibrated amplitude."""
        return self.s0 ** 2


# The bisection stops once V_X is this close to the target; both ends of
# the overlap range are checked first, so the step bound is only a guard.
CALIBRATION_TOL = 1e-4
CALIBRATION_MAX_STEPS = 80


def calibrate_overlap(cfg: ExperimentConfig, anchor_t: float = 0.1,
                      target_v_x: float = 0.82) -> CalibrationResult:
    """Bisect the zero-delay overlap amplitude until V_X matches the target.

    The configuration is propagated once: every V_X the bisection needs
    reads one click table at the anchor T and a new overlap.  Raises
    :class:`CalibrationError` at once if the target lies above the V_X at
    full overlap or below the V_X at zero overlap.  The anchor and the
    target pass the sweep's checks: at T = 0 no pulse arrives to calibrate.
    """
    SweepSpec((anchor_t,), anchor_t, target_v_x)
    v_x_at = overlap_x_visibility(replace(cfg, transmittance=anchor_t))
    top = v_x_at(1.0)
    if target_v_x > top + CALIBRATION_TOL:
        raise CalibrationError(
            f"target V_X={target_v_x} unreachable; maximum attainable {top:.6f}")
    if abs(top - target_v_x) <= CALIBRATION_TOL:
        return CalibrationResult(1.0, top, anchor_t, target_v_x, 1)
    bottom = v_x_at(0.0)
    if target_v_x < bottom - CALIBRATION_TOL:
        raise CalibrationError(
            f"target V_X={target_v_x} unreachable; minimum attainable "
            f"{bottom:.6f}")
    lo, hi = 0.0, 1.0
    for it in range(1, CALIBRATION_MAX_STEPS + 1):
        mid = 0.5 * (lo + hi)
        val = v_x_at(mid)
        if abs(val - target_v_x) < CALIBRATION_TOL:
            return CalibrationResult(mid, val, anchor_t, target_v_x, it)
        if val < target_v_x:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(f"target V_X={target_v_x} not met within "
                           f"{CALIBRATION_MAX_STEPS} bisection steps")


@dataclass(frozen=True)
class SweepRow:
    transmittance: float
    v_z: float
    v_x: float
    f_low: float
    rate_per_pulse: float
    rate_per_second: float
    chsh_flag: bool


@dataclass
class ResultsTable:
    rows: list[SweepRow]
    metadata: dict

    CSV_HEADER = ("transmittance,v_z,v_x,f_low,rate_per_pulse,"
                  "rate_per_second,chsh_flag")

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                _fmt(r.transmittance), _fmt(r.v_z), _fmt(r.v_x), _fmt(r.f_low),
                _fmt(r.rate_per_pulse), _fmt(r.rate_per_second),
                "true" if r.chsh_flag else "false",
            ]))
        return "\n".join(lines) + "\n"

    def write(self, csv_path: str | Path, json_path: str | Path) -> None:
        Path(csv_path).write_text(self.to_csv_text())
        payload = {"metadata": self.metadata,
                   "rows": [asdict(r) for r in self.rows]}
        write_json(json_path, payload)


def _fmt(x: float) -> str:
    """Scientific notation with 12 significant digits."""
    return f"{x:.11e}"


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def sweep_transmittance(cfg: ExperimentConfig,
                        spec: SweepSpec = SweepSpec()) -> ResultsTable:
    """One row per transmittance, evaluated with a single calibrated overlap.

    Rows are ordered by descending transmittance and satisfy
    f_low = (v_z + v_x)/2 exactly.
    """
    calibration = None
    if spec.auto_calibrate:
        calibration = calibrate_overlap(cfg, spec.anchor_t, spec.target_v_x)
        cfg = replace(cfg, overlap_s0=calibration.s0)
    rows = []
    max_truncated = 0.0
    for t in sorted(set(spec.transmittances), reverse=True):
        out = run_phase_averaged(replace(cfg, transmittance=t))
        v_z, v_x = visibilities(out)
        bound = f_low(v_z, v_x)
        rows.append(SweepRow(t, v_z, v_x, bound, out.triple_probability,
                             out.triple_probability * REP_RATE_HZ,
                             chsh_violated(bound)))
        max_truncated = max(max_truncated, out.truncated_weight)
    metadata = {
        "config": _config_dict(cfg),
        "version": __version__,
        "sweep": {"anchor_t": spec.anchor_t, "target_v_x": spec.target_v_x,
                  "auto_calibrate": spec.auto_calibrate},
        "calibration": (None if calibration is None else {
            "s0": calibration.s0,
            "v_x_achieved": calibration.v_x_achieved,
            "iterations": calibration.iterations,
            "implied_mode_matching": calibration.implied_mode_matching,
        }),
        "diagnostics": {"max_truncated_weight": max_truncated},
    }
    return ResultsTable(rows, metadata)


def _config_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["phase_delta"] = list(cfg.phase_delta)
    if cfg.input_qubit is not None:
        d["input_qubit"] = [str(cfg.input_qubit[0]), str(cfg.input_qubit[1])]
    return d


def rate_crossing(coherent: Sequence[tuple[float, float]],
                  single: Sequence[tuple[float, float]]) -> float:
    """Transmittance at which the power-law fits of two rate curves cross.

    Both curves are (T, rate) points on one grid; the log of their ratio is
    fitted linearly in log T and its zero is returned.  Fits with no finite
    positive zero (parallel or identical curves) raise ``ValidationError``.
    """
    if [t for t, _ in coherent] != [t for t, _ in single]:
        raise ValidationError("rate curves must share one transmittance grid")
    lx = np.log([t for t, _ in coherent])
    diff = np.log([r for _, r in coherent]) - np.log([r for _, r in single])
    slope, offset = np.polyfit(lx, diff, 1).tolist()
    if not abs(offset) < 700.0 * abs(slope):  # exp(+-700) is finite, nonzero
        raise ValidationError("the fitted rate curves do not cross")
    return math.exp(-offset / slope)


# --- delay scan ---------------------------------------------------------------

@dataclass(frozen=True)
class DelayScanRow:
    delay_um: float
    p_rd: float
    p_ld: float
    visibility: float


def _at_delay(evaluate: Callable[[float], tuple[float, float]],
              cfg: ExperimentConfig,
              ) -> Callable[[float], tuple[float, float]]:
    """(p_rd, p_ld) against delay, at the overlap s0 and width of ``cfg``."""
    overlap = OverlapModel(cfg.overlap_s0, cfg.overlap_sigma_um)
    return lambda dx: evaluate(overlap_at_delay(overlap, dx))


def _scan_rows(evaluate: Callable, cfg: ExperimentConfig,
               delays_um: Sequence[float]) -> list[DelayScanRow]:
    at_delay = _at_delay(evaluate, cfg)
    rows = []
    for dx in delays_um:
        p_rd, p_ld = at_delay(dx)
        total = p_rd + p_ld
        vis = abs(p_rd - p_ld) / total if total > 0 else 0.0
        rows.append(DelayScanRow(float(dx), p_rd, p_ld, vis))
    return rows


def delay_scan_csv(rows: Sequence[DelayScanRow]) -> str:
    lines = ["delay_um,p_rd,p_ld,visibility"]
    for r in rows:
        lines.append(",".join([_fmt(r.delay_um), _fmt(r.p_rd), _fmt(r.p_ld),
                               _fmt(r.visibility)]))
    return "\n".join(lines) + "\n"


def _dip_fwhm(evaluate: Callable, cfg: ExperimentConfig) -> float:
    sigma_um = cfg.overlap_sigma_um
    at_delay = _at_delay(evaluate, cfg)

    def contrast(dx: float) -> float:
        p_rd, p_ld = at_delay(dx)
        return abs(p_rd - p_ld)

    c0 = contrast(0.0)
    if c0 <= 0.0:
        raise ValidationError("no interference contrast at zero delay")
    half = 0.5 * c0
    lo, hi = 0.0, sigma_um
    while contrast(hi) > half:
        hi *= 2.0
        if hi > 1e6:
            raise ValidationError("contrast does not decay; check overlap model")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if contrast(mid) > half:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * sigma_um:
            break
    return lo + hi  # 2 * half-width


@dataclass(frozen=True)
class DelayStudy:
    sigma_um: float
    rows: list[DelayScanRow]
    zero_delay_visibility: float
    fwhm_um: float


def delay_study(cfg: ExperimentConfig, delays_um: Sequence[float],
                target_fwhm_um: float | None = None) -> DelayStudy:
    """Delay scan, zero-delay visibility and dip FWHM from one
    ``delay_coincidences`` read of the memo's Y-Y table.

    It does not depend on the overlap width, so with a target FWHM it
    calibrates the width first and then serves the scan at it.
    """
    evaluate = delay_coincidences(cfg)
    if target_fwhm_um is not None:
        # The contrast depends on delay only through s(dx), so the FWHM is
        # proportional to sigma and one measurement fixes the scale.
        cfg = replace(cfg, overlap_sigma_um=cfg.overlap_sigma_um
                      * target_fwhm_um / _dip_fwhm(evaluate, cfg))
    return DelayStudy(cfg.overlap_sigma_um, _scan_rows(evaluate, cfg, delays_um),
                      _scan_rows(evaluate, cfg, [0.0])[0].visibility,
                      _dip_fwhm(evaluate, cfg))


# --- tomography ---------------------------------------------------------------

def tomography_payload(cfg: ExperimentConfig) -> dict:
    """Fidelity and matrix of the conditional pair state without the ancilla
    pulse, with the phase noise off and on, as JSON data.

    The retained photon is analyzed directly while its partner crosses the
    channel; coincidences of the two detectors condition the state.  With
    phase noise the state is averaged over the collective phase, without it
    the channel phase is zero.
    """
    direct = replace(cfg, variant="direct_no_dfs")
    payload = {}
    for label, phase in (("phase_noise_off", (0.0, 0.0)),
                         ("phase_noise_on", None)):
        dm = two_qubit_state(direct, phase)
        payload[label] = {
            "fidelity": fidelity_to_phi_plus(dm),
            "matrix_real": np.real(dm.matrix).tolist(),
            "matrix_imag": np.imag(dm.matrix).tolist(),
        }
    return payload


# --- synthetic event sampling ---------------------------------------------------

@dataclass
class EventSample:
    codes: np.ndarray  # uint8 per pulse: phase_index << 3 | e << 2 | f << 1 | g
    exact_pattern_probabilities: dict[tuple[int, tuple[bool, ...]], float]

    CSV_HEADER = "pulse,phase_index,e_click,f_click,g_click"

    def __len__(self) -> int:
        return len(self.codes)

    def triple_rate(self) -> float:
        hits = np.count_nonzero((self.codes & 7) == 7)
        return float(hits) / len(self) if len(self) else 0.0

    def to_csv_bytes(self) -> bytes:
        # One row per pulse: its index's digits, then the 9-byte suffix
        # ",phase,e,f,g\n" of its code, fixed while the phase has one digit.
        codes = self.codes.astype(np.intp)
        if len(self) and codes.max() >= 80:
            raise ValidationError("phase indices must lie in [0, 9]")
        suffixes = np.frombuffer("".join(
            f",{c >> 3},{c >> 2 & 1},{c >> 1 & 1},{c & 1}\n"
            for c in range(80)).encode(), "V9")
        blocks = [f"{self.CSV_HEADER}\n".encode()]
        lo, width = 0, 1  # lo, 0 or 10^(width - 1), is a multiple of each p
        while lo < len(self):  # the m pulses from lo have width digits
            m = min(len(self), 10 ** width) - lo
            rows = np.empty(m, [("digit", "u1", width), ("suffix", "V9")])
            rows["suffix"] = suffixes.take(codes[lo:lo + m])
            for col in range(width):  # digit (pulse // p) % 10, runs of p
                p = 10 ** (width - 1 - col)
                runs = lo // p + np.arange(min(10, -(-m // p)))
                cycle = (runs % 10 + ord("0")).astype(np.uint8).repeat(p)
                rows["digit"][:, col] = np.tile(cycle, -(-m // len(cycle)))[:m]
            blocks.append(rows)
            lo, width = lo + m, width + 1
        return b"".join(blocks)


def _guided_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for u in [0, 1) and a sorted
    ``cdf`` ending at 1, by a guide table (Chen and Asau, AIIE Trans. 6, 163
    (1974)): u's bucket j = floor(4096 u), exact, bounds the answer by the
    counts of cdf points <= j / 4096 and <= (j + 1) / 4096."""
    guide = cdf.searchsorted(np.arange(4097) / 4096, side="right")
    bucket = (u * 4096).astype(np.int32)
    index = guide.take(bucket)
    # Draws step forward only in buckets that hold a point; cdf[-1] > u.
    todo = np.flatnonzero((guide[1:] > guide[:-1]).take(bucket))
    while todo.size:
        todo = todo[cdf[index[todo]] <= u[todo]]
        index[todo] += 1
    return index


def _draw(probs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """``default_rng(seed).choice(len(probs), n, p=probs / probs.sum())``
    by its definition: the inverse CDF of ``random(n)``."""
    if not (np.isfinite(probs).all() and probs.min() >= 0 and probs.sum() > 0):
        raise ValidationError("pattern probabilities must be finite, "
                              "non-negative and not all zero")
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return _guided_search(cdf, np.random.default_rng(seed).random(n))


def sample_events(cfg: ExperimentConfig, n_pulses: int, seed: int) -> EventSample:
    """Draw i.i.d. per-pulse click records from the exact outcome distribution.

    Each pulse draws a phase uniformly from ``PHASE_SET_8`` and then a
    click pattern for the three detectors from that phase's exact joint
    distribution.  Fixed seed gives an identical stream.
    """
    if n_pulses < 0:
        raise ValidationError("number of pulses must be >= 0")
    if seed < 0:
        raise ValidationError("sample seed must be >= 0")
    exact = pattern_distribution(cfg)
    flat_keys = sorted(exact)
    draws = _draw(np.asarray([exact[key] for key in flat_keys]), n_pulses, seed)
    code_of = np.array([k << 3 | e << 2 | f << 1 | g
                        for k, (e, f, g) in flat_keys], np.uint8)
    return EventSample(code_of.take(draws), exact)
