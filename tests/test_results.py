"""The committed ``results/`` files, regenerated in-process byte for byte.

``scripts/reproduce_results.py`` is run once into a temporary directory,
calibration included, on an empty memo of final states, so every committed
file is rebuilt by the same calls that wrote it and any change to a
committed number fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from dfsdist import protocol

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    """The directory the script wrote and the number of propagations it
    took."""
    spec = importlib.util.spec_from_file_location(
        "reproduce_results", ROOT / "scripts" / "reproduce_results.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out_dir = tmp_path_factory.mktemp("results")
    propagations = []
    initial_state = protocol._initial_state
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_FINAL_STATES", protocol.OrderedDict())
        patch.setattr(protocol, "_initial_state", lambda *args: (
            propagations.append(None) or initial_state(*args)))
        script.reproduce(out_dir)
    return out_dir, len(propagations)


@pytest.fixture(scope="module")
def reproduced(reproduction):
    return reproduction[0]


def test_reproduction_propagates_each_configuration_once(reproduction):
    # 44 reads of final states (runs, calibration, delay and tomography)
    # share 12 configurations once T, the overlap and the detectors are
    # set aside.
    assert reproduction[1] <= 19


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
