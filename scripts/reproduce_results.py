#!/usr/bin/env python3
"""Run the full study at the reference parameters and write all data files.

Outputs under results/ (created next to the repository root):
  calibration.json   overlap amplitude fitted to V_X = 0.82 at T = 0.1
  table.csv/.json    visibilities, fidelity bound and rates vs transmittance
  rates.csv          coherent-ancilla vs single-photon-ancilla rate curves
  exponents.json     error-component scaling exponents
  delay_scan.csv     interference dip vs optical delay (FWHM calibrated)
  tomography.json    conditional pair state with the phase noise off/on
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from dfsdist.analysis import (
    SweepSpec,
    calibrate_overlap,
    delay_scan_csv,
    delay_study,
    rate_crossing,
    sweep_transmittance,
    tomography_payload,
    write_json,
)
from dfsdist.protocol import (
    FORWARD_T_GRID,
    ExperimentConfig,
    component_scaling,
    fit_loglog_slope,
    sharing_rate,
)

T_GRID = (0.1, 0.03, 0.01, 0.005, 0.003)


def reproduce(out_dir: Path) -> None:
    """Write every results file into ``out_dir``."""
    cfg = ExperimentConfig()

    print("calibrating pulse overlap against V_X = 0.82 at T = 0.1 ...")
    cal = calibrate_overlap(cfg)
    write_json(out_dir / "calibration.json", {
        "s0": cal.s0,
        "implied_mode_matching": cal.implied_mode_matching,
        "v_x_achieved": cal.v_x_achieved,
    })
    cfg = replace(cfg, overlap_s0=cal.s0)
    print(f"  s0 = {cal.s0:.5f} (intensity overlap {cal.s0 ** 2:.4f})")

    print("sweeping transmittance ...")
    table = sweep_transmittance(cfg, SweepSpec(transmittances=T_GRID,
                                               auto_calibrate=False))
    table.write(out_dir / "table.csv", out_dir / "table.json")
    for row in table.rows:
        print(f"  T={row.transmittance:<6} V_Z={row.v_z:.3f} "
              f"V_X={row.v_x:.3f} F_low={row.f_low:.3f} "
              f"rate={row.rate_per_second:.3g}/s chsh={row.chsh_flag}")

    print("rate curves for both ancilla types ...")
    lines = ["transmittance,rate_coherent,rate_single_photon"]
    coherent, single = [], []
    for t in T_GRID:
        rc = sharing_rate(replace(cfg, transmittance=t))[0]
        rs = sharing_rate(replace(cfg, transmittance=t,
                                  variant="single_photon_ancilla"))[0]
        coherent.append((t, rc))
        single.append((t, rs))
        lines.append(f"{t:.11e},{rc:.11e},{rs:.11e}")
    (out_dir / "rates.csv").write_text("\n".join(lines) + "\n")
    slope_c = fit_loglog_slope(coherent).slope
    slope_s = fit_loglog_slope(single).slope
    t_cross = rate_crossing(coherent, single)
    print(f"  slopes: coherent {slope_c:.3f}, single-photon {slope_s:.3f}; "
          f"crossing at T = {t_cross:.4f} (ancilla mean photon number "
          f"{cfg.mu:.4f})")

    print("error-component exponents ...")
    mu_grid = (0.005, 0.01, 0.02, 0.04)
    gamma_grid = (5e-4, 1e-3, 2e-3, 4e-3)
    exponents = {
        "desired_vs_mu": component_scaling(cfg, "mu", mu_grid, "desired").slope,
        "desired_vs_t": component_scaling(cfg, "transmittance", T_GRID,
                                          "desired").slope,
        "two_photon_vs_mu": component_scaling(cfg, "mu", mu_grid,
                                              "ancilla_multiphoton").slope,
        "two_photon_vs_t": component_scaling(cfg, "transmittance", T_GRID,
                                             "ancilla_multiphoton").slope,
        "double_pair_vs_gamma": component_scaling(cfg, "gamma", gamma_grid,
                                                  "multi_pair").slope,
        "forward_unwanted_vs_t": component_scaling(
            replace(cfg, variant="forward_all_from_bob"), "transmittance",
            FORWARD_T_GRID, "ancilla_multiphoton").slope,
        "rate_vs_t": slope_c,
        "single_photon_rate_vs_t": slope_s,
        "crossing_transmittance": t_cross,
    }
    write_json(out_dir / "exponents.json", exponents)
    for name, val in exponents.items():
        print(f"  {name}: {val:.4f}")

    print("delay scan ...")
    study = delay_study(cfg, np.linspace(-300.0, 300.0, 61), 180.0)
    (out_dir / "delay_scan.csv").write_text(delay_scan_csv(study.rows))
    print(f"  sigma = {study.sigma_um:.1f} um, FWHM = {study.fwhm_um:.1f} um, "
          f"zero-delay visibility = {study.zero_delay_visibility:.3f}")

    print("tomography without the ancilla ...")
    payload = tomography_payload(cfg)
    for label, res in payload.items():
        print(f"  {label}: fidelity {res['fidelity']:.4f}")
    write_json(out_dir / "tomography.json", payload)


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    reproduce(out_dir)
    print(f"all outputs in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
