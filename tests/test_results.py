"""The committed ``results/`` files, regenerated in-process byte for byte.

Each file is rebuilt through the same ``analysis`` functions and arguments
that ``scripts/reproduce_results.py`` uses, so any change to a committed
number fails here.  The sweep starts from the committed calibration.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from dfsdist.analysis import (
    SweepSpec,
    delay_scan_csv,
    delay_study,
    sweep_transmittance,
    tomography_payload,
    write_json,
)
from dfsdist.protocol import ExperimentConfig

RESULTS = Path(__file__).resolve().parent.parent / "results"
T_GRID = (0.1, 0.03, 0.01, 0.005, 0.003)


def _calibrated():
    s0 = json.loads((RESULTS / "calibration.json").read_text())["s0"]
    return replace(ExperimentConfig(), overlap_s0=s0)


def test_table_csv_is_reproduced(tmp_path):
    table = sweep_transmittance(_calibrated(), SweepSpec(
        transmittances=T_GRID, auto_calibrate=False))
    table.write(tmp_path / "table.csv", tmp_path / "table.json")
    assert ((tmp_path / "table.csv").read_bytes()
            == (RESULTS / "table.csv").read_bytes())


def test_tomography_json_is_reproduced(tmp_path):
    write_json(tmp_path / "tomography.json", tomography_payload(_calibrated()))
    assert ((tmp_path / "tomography.json").read_bytes()
            == (RESULTS / "tomography.json").read_bytes())


def test_delay_scan_csv_is_reproduced(tmp_path):
    study = delay_study(_calibrated(), np.linspace(-300.0, 300.0, 61), 180.0)
    (tmp_path / "delay_scan.csv").write_text(delay_scan_csv(study.rows))
    assert ((tmp_path / "delay_scan.csv").read_bytes()
            == (RESULTS / "delay_scan.csv").read_bytes())
