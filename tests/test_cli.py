import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfsdist
from dfsdist import analysis
from dfsdist.cli import build_config, load_config, main, parse_config_text
from dfsdist.fock import ConfigurationError
from dfsdist.protocol import ExperimentConfig


def test_parse_config_text():
    text = """
    # reference point
    transmittance = 0.03
    eta = 0.2   # trailing comment
    variant = single_photon_ancilla

    include_feedforward_branch = true
    """
    values = parse_config_text(text)
    assert values["transmittance"] == "0.03"
    cfg, extras = build_config(values)
    assert cfg.transmittance == 0.03
    assert cfg.eta == 0.2
    assert cfg.variant == "single_photon_ancilla"
    assert cfg.include_feedforward_branch is True
    assert extras == {}


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigurationError):
        parse_config_text("transmittance 0.03")
    with pytest.raises(ConfigurationError):
        parse_config_text("eta = 0.1\neta = 0.2")
    with pytest.raises(ConfigurationError):
        build_config({"no_such_key": "1"})
    with pytest.raises(ConfigurationError):
        build_config({"eta": "abc"})


def test_build_config_phases_and_qubit():
    cfg, extras = build_config({"phase_delta_v": "0.25", "alpha": "0.6",
                                "beta": "0.8"})
    assert cfg.phase_delta == (0.0, 0.25)
    assert extras["qubit"] == (0.6 + 0j, 0.8 + 0j)
    # The collective phase is always averaged uniformly; there is no set.
    with pytest.raises(ConfigurationError, match="unknown config key"):
        build_config({"phase_count": "4"})


def test_cli_sweep_and_calibrate(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "transmittance_list = 0.1,0.03\n"
        "auto_calibrate = false\n"
        "overlap_s0 = 0.94\n")
    out = tmp_path / "table"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert len(lines) == 3
    meta = json.loads((tmp_path / "table.json").read_text())
    assert meta["metadata"]["version"]


def test_cli_tomography_and_qubit(tmp_path):
    out = tmp_path / "tomo"
    assert main(["tomography", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "tomo.json").read_text())
    assert abs(payload["phase_noise_on"]["fidelity"] - 0.5) < 0.01

    qcfg = tmp_path / "qubit.cfg"
    qcfg.write_text(
        "alpha = 0.894427190999916\n"
        "beta = 0.447213595499958\n"
        "variant = single_photon_ancilla\n"
        "source = exact_pair\n"
        "gamma = 0\nmu = 0\ntransmittance = 1\neta = 1\neta_g = 1\n"
        "dark_g = 0\ngp_reflectance = 0\n")
    out2 = tmp_path / "qubit"
    assert main(["qubit", "--config", str(qcfg), "--out", str(out2)]) == 0
    payload = json.loads((tmp_path / "qubit.json").read_text())
    assert abs(payload["fidelity"] - 1.0) < 1e-9


def test_cli_sample_deterministic(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_pulses = 500\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sample", "--config", str(cfg_file), "--out", str(out_a),
                 "--seed", "5"]) == 0
    assert main(["sample", "--config", str(cfg_file), "--out", str(out_b),
                 "--seed", "5"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("config,args", [("", ["--seed", "-1"]),
                                         ("seed = -3\n", [])],
                         ids=["flag", "config"])
def test_cli_sample_rejects_a_negative_seed(tmp_path, capsys, config, args):
    # numpy's generator rejects it with a ValueError, which escaped as a
    # traceback and exit code 1.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_pulses = 50\n" + config)
    code = main(["sample", "--config", str(cfg_file),
                 "--out", str(tmp_path / "s"), *args])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err) == {"error": "sample seed must be >= 0"}
    assert not (tmp_path / "s.csv").exists()


def test_cli_sample_rejects_a_broken_pattern_distribution(tmp_path, capsys,
                                                          monkeypatch):
    # Generator.choice checked p; the inverse-CDF draw checks it itself,
    # so a NaN distribution is an error, not a CSV of garbage draws.
    exact = {(0, (False, False, False)): 0.5, (0, (True, True, True)): math.nan}
    monkeypatch.setattr(analysis, "pattern_distribution", lambda cfg: exact)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_pulses = 50\n")
    code = main(["sample", "--config", str(cfg_file),
                 "--out", str(tmp_path / "s")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "pattern probabilities must be finite" in err["error"]
    assert not (tmp_path / "s.csv").exists()


def test_cli_calls_in_one_process_share_no_arguments(tmp_path, capsys):
    # The parser is built once per process; each call parses afresh.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_pulses = 50\nseed = 11\n")
    assert main(["sample", "--config", str(cfg_file), "--out",
                 str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["sample", "--config", str(cfg_file), "--out",
                 str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["seed"] == 5
    assert json.loads((tmp_path / "b.json").read_text())["seed"] == 11
    bad = tmp_path / "bad.cfg"
    bad.write_text("transmittance = 2.0\n")
    capsys.readouterr()
    assert main(["sample", "--config", str(bad), "--out",
                 str(tmp_path / "c")]) == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_cli_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("transmittance = 2.0\n")
    code = main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert "error" in json.loads(err)


def test_load_config_defaults():
    cfg, extras = load_config(None)
    assert cfg.transmittance == 0.1
    assert extras == {}


def test_reference_config_is_the_default_study():
    # Every key at its built-in default and the extras at the grids of
    # scripts/reproduce_results.py, so a run from the file writes results/.
    cfg, extras = load_config(
        str(Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"))
    assert cfg == ExperimentConfig()
    assert extras == {
        "transmittance_list": (0.1, 0.03, 0.01, 0.005, 0.003),
        "calibrate_anchor_t": 0.1, "calibrate_target_vx": 0.82,
        "auto_calibrate": True,
        "delay_min_um": -300.0, "delay_max_um": 300.0, "delay_steps": 61,
        "delay_fwhm_target_um": 180.0,
        "n_pulses": 100_000, "seed": 12345,
    }


def test_cli_delay_scan(tmp_path):
    cfg_file = tmp_path / "scan.cfg"
    cfg_file.write_text(
        "overlap_s0 = 0.94\n"
        "overlap_sigma_um = 108.1\n"
        "delay_min_um = -100\n"
        "delay_max_um = 100\n"
        "delay_steps = 5\n")
    out = tmp_path / "dip"
    assert main(["delay-scan", "--config", str(cfg_file),
                 "--out", str(out)]) == 0
    lines = (tmp_path / "dip.csv").read_text().splitlines()
    assert lines[0] == "delay_um,p_rd,p_ld,visibility"
    assert len(lines) == 6
    meta = json.loads((tmp_path / "dip.json").read_text())
    assert meta["zero_delay_visibility"] > 0.5


def test_cli_fwhm_targeted_delay_scan_builds_one_evaluator(tmp_path,
                                                           monkeypatch):
    # The delay read does not depend on the overlap width: one, built at
    # the configured width, calibrates the width and serves the scan, the
    # zero-delay visibility and the FWHM.
    widths = []
    build = analysis.delay_coincidences
    monkeypatch.setattr(analysis, "delay_coincidences", lambda cfg:
                        widths.append(cfg.overlap_sigma_um) or build(cfg))
    cfg_file = tmp_path / "scan.cfg"
    cfg_file.write_text("overlap_s0 = 0.94\ndelay_fwhm_target_um = 180\n"
                        "delay_steps = 5\n")
    assert main(["delay-scan", "--config", str(cfg_file),
                 "--out", str(tmp_path / "dip")]) == 0
    meta = json.loads((tmp_path / "dip.json").read_text())
    assert widths == [100.0]
    assert meta["sigma_um"] != 100.0
    assert meta["fwhm_um"] == pytest.approx(180.0, abs=0.5)


@pytest.mark.parametrize("command,line", [
    ("calibrate", "calibrate_target_vx = nan"),
    ("delay-scan", "delay_min_um = nan"),
    ("sweep", "transmittance_list = 0.1,inf"),
], ids=["calibrate_target_vx", "delay_min_um", "transmittance_list"])
def test_cli_rejects_non_finite_extras(tmp_path, capsys, command, line):
    # float() parses "nan" and "inf", and NaN passes every range check:
    # unchecked, the calibration bisects to s0 ~ 1e-24 and writes a bare NaN,
    # and the scan writes rows at delay nan evaluated at full overlap.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    code = main([command, "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "must be finite" in err["error"]
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_cli_calibrate_rejects_an_anchor_without_pulse(tmp_path, capsys):
    # At T = 0 no pulse arrives to calibrate against: a config error, not
    # a target out of reach.
    cfg_file = tmp_path / "cal.cfg"
    cfg_file.write_text("calibrate_anchor_t = 0\n")
    code = main(["calibrate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "cal")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "anchor transmittances must lie in (0, 1]" in err["error"]
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_cli_sweep_propagates_once(tmp_path, count_calls):
    # The calibration at the anchor T and the rows at five T read one
    # propagated state.
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("transmittance_list = 0.1,0.03,0.01,0.005,0.003\n")
    calls = count_calls("_final_state", "_initial_state")
    assert main(["sweep", "--config", str(cfg_file),
                 "--out", str(tmp_path / "t")]) == 0
    assert calls == {"_final_state": 1 + 5, "_initial_state": 1}


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_cli_delay_scan_rejects_nonpositive_steps(tmp_path, capsys, steps):
    cfg_file = tmp_path / "scan.cfg"
    cfg_file.write_text(f"delay_steps = {steps}\n")
    code = main(["delay-scan", "--config", str(cfg_file),
                 "--out", str(tmp_path / "dip")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err) == {"error": "delay_steps must be >= 1"}
    assert not (tmp_path / "dip.csv").exists()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_cli_oracle_check_rejects_nonpositive_seeds(tmp_path, capsys, seeds):
    # Without this check zero seeds ran no random circuit and still passed.
    cfg_file = tmp_path / "oracle.cfg"
    cfg_file.write_text(f"oracle_seeds = {seeds}\n")
    code = main(["oracle-check", "--config", str(cfg_file),
                 "--out", str(tmp_path / "oracle")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err) == {"error": "oracle_seeds must be >= 1"}
    assert not (tmp_path / "oracle.json").exists()


def test_cli_oracle_check(tmp_path):
    cfg_file = tmp_path / "oracle.cfg"
    cfg_file.write_text("cutoff = 3\noracle_seeds = 2\n")
    out = tmp_path / "oracle"
    assert main(["oracle-check", "--config", str(cfg_file),
                 "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["passed"] is True
    assert payload["max_deviation"] < 1e-9
    assert payload["max_relative_deviation"] <= 1e-12


def test_cli_import_leaves_scipy_linalg_unloaded():
    # Only oracle-check needs SciPy's linear algebra; every other command
    # would pay for its import at start-up.
    src = str(Path(dfsdist.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, dfsdist.cli; print(sorted("
         "{'scipy', 'scipy.linalg', 'dfsdist.oracle'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.split() == ["['scipy']"]
