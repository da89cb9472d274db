"""The committed ``results/`` files, regenerated in-process byte for byte.

``scripts/reproduce_results.py`` is run once into a temporary directory,
calibration included, so every committed file is rebuilt by the same calls
that wrote it and any change to a committed number fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "reproduce_results", ROOT / "scripts" / "reproduce_results.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out_dir = tmp_path_factory.mktemp("results")
    script.reproduce(out_dir)
    return out_dir


def _assert_reproduced(out_dir, name):
    assert (out_dir / name).read_bytes() == (RESULTS / name).read_bytes(), name


def test_results_directory_holds_the_reproduced_files(reproduced):
    assert (sorted(p.name for p in RESULTS.iterdir())
            == sorted(p.name for p in reproduced.iterdir()))


def test_calibration_json_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "calibration.json")


def test_table_csv_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "table.csv")


def test_table_json_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "table.json")


def test_rates_csv_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "rates.csv")


def test_exponents_json_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "exponents.json")


def test_tomography_json_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "tomography.json")


def test_delay_scan_csv_is_reproduced(reproduced):
    _assert_reproduced(reproduced, "delay_scan.csv")


def test_anchor_v_x_of_the_table_is_the_calibrated_one():
    # The calibration and the sweep read one click table the same way, so
    # the table's V_X at the anchor T = 0.1 is the calibrated V_X exactly.
    calibration = json.loads((RESULTS / "calibration.json").read_text())
    rows = json.loads((RESULTS / "table.json").read_text())["rows"]
    anchor, = (row for row in rows if row["transmittance"] == 0.1)
    assert anchor["v_x"] == calibration["v_x_achieved"]
