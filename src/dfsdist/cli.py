"""Command-line front end.

Subcommands: sweep, calibrate, delay-scan, tomography, sample, oracle-check,
qubit.  Each reads a flat key=value config file (``#`` starts a comment) and
writes CSV/JSON outputs; exit code is 0 on success and 2 on failure with a
machine-readable JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
# perfbench's worker reads scipy's version from sys.modules; the submodules
# load on first use, and only oracle-check, which imports the oracle, needs them.
import scipy  # noqa: F401

from . import __version__
from .analysis import (
    SweepSpec,
    calibrate_overlap,
    delay_scan_csv,
    delay_study,
    sample_events,
    sweep_transmittance,
    tomography_payload,
    write_json,
)
from .fock import ConfigurationError, ValidationError
from .protocol import ExperimentConfig, distribute_qubit

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}

_CONFIG_FIELDS = {
    "gamma": float, "mu": float, "transmittance": float, "eta": float,
    "eta_g": float, "dark_g": float, "dark_e": float, "dark_f": float,
    "overlap_s0": float, "overlap_sigma_um": float, "delay_um": float,
    "gp_reflectance": float, "cutoff": int, "pair_cutoff": int,
    "variant": str, "source": str, "include_feedforward_branch": "bool",
}

_EXTRA_FIELDS = {
    "phase_delta_h": float, "phase_delta_v": float,
    "alpha": complex, "beta": complex,
    "transmittance_list": "floats", "calibrate_anchor_t": float,
    "calibrate_target_vx": float, "auto_calibrate": "bool",
    "delay_min_um": float, "delay_max_um": float, "delay_steps": int,
    "delay_fwhm_target_um": float, "n_pulses": int, "seed": int,
    "oracle_seeds": int,
}


# Extras that override a library default, by the keyword they set there.
_CALIBRATION_KEYS = {"calibrate_anchor_t": "anchor_t",
                     "calibrate_target_vx": "target_v_x"}
_SWEEP_KEYS = {**_CALIBRATION_KEYS, "transmittance_list": "transmittances",
               "auto_calibrate": "auto_calibrate"}


def _set_keys(extras: dict, keys: dict[str, str]) -> dict[str, object]:
    """The keywords of ``keys`` whose extras the config file sets."""
    return {kw: extras[key] for key, kw in keys.items() if key in extras}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and ``#`` comments are ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def _convert(key: str, raw: str, kind) -> object:
    try:
        if kind == "bool":
            return _BOOL[raw.lower()]
        if kind == "floats":
            value = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        else:
            value = kind(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(f"bad value for {key!r}: {raw!r}") from exc
    # float() accepts "nan" and "inf", which pass every range check.
    if kind in (float, "floats") and not np.isfinite(value).all():
        raise ConfigurationError(f"{key!r} must be finite, got {raw!r}")
    return value


def build_config(values: dict[str, str]) -> tuple[ExperimentConfig, dict]:
    """Split a raw key=value mapping into the run config and extras."""
    kwargs: dict[str, object] = {}
    extras: dict[str, object] = {}
    for key, raw in values.items():
        if key in _CONFIG_FIELDS:
            kwargs[key] = _convert(key, raw, _CONFIG_FIELDS[key])
        elif key in _EXTRA_FIELDS:
            extras[key] = _convert(key, raw, _EXTRA_FIELDS[key])
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    if "phase_delta_h" in extras or "phase_delta_v" in extras:
        kwargs["phase_delta"] = (float(extras.get("phase_delta_h", 0.0)),
                                 float(extras.get("phase_delta_v", 0.0)))
    if "alpha" in extras or "beta" in extras:
        alpha = complex(extras.get("alpha", 0.0))
        beta = complex(extras.get("beta", 0.0))
        extras["qubit"] = (alpha, beta)
    cfg = ExperimentConfig(**kwargs)
    return cfg, extras


def load_config(path: str | None) -> tuple[ExperimentConfig, dict]:
    if path is None:
        return ExperimentConfig(), {}
    return build_config(parse_config_text(Path(path).read_text()))


def _out_paths(out: str, default_suffix: str = ".csv") -> tuple[Path, Path]:
    base = Path(out)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return base.with_suffix(default_suffix), base.with_suffix(".json")


def _cmd_sweep(cfg: ExperimentConfig, extras: dict, out: str) -> int:
    spec = SweepSpec(**_set_keys(extras, _SWEEP_KEYS))
    table = sweep_transmittance(cfg, spec)
    csv_path, json_path = _out_paths(out)
    table.write(csv_path, json_path)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_calibrate(cfg: ExperimentConfig, extras: dict, out: str) -> int:
    res = calibrate_overlap(cfg, **_set_keys(extras, _CALIBRATION_KEYS))
    payload = {
        "s0": res.s0,
        "v_x_achieved": res.v_x_achieved,
        "anchor_t": res.anchor_t,
        "target_v_x": res.target_v_x,
        "iterations": res.iterations,
        "implied_mode_matching": res.implied_mode_matching,
        "version": __version__,
    }
    write_json(_out_paths(out, ".json")[1], payload)
    print(f"calibrated s0={res.s0:.6f}")
    return 0


def _cmd_delay_scan(cfg: ExperimentConfig, extras: dict, out: str) -> int:
    lo = float(extras.get("delay_min_um", -300.0))
    hi = float(extras.get("delay_max_um", 300.0))
    steps = int(extras.get("delay_steps", 61))
    if steps < 1:
        raise ConfigurationError("delay_steps must be >= 1")
    study = delay_study(cfg, np.linspace(lo, hi, steps),
                        extras.get("delay_fwhm_target_um"))
    csv_path, json_path = _out_paths(out)
    csv_path.write_text(delay_scan_csv(study.rows))
    write_json(json_path, {
        "sigma_um": study.sigma_um,
        "fwhm_um": study.fwhm_um,
        "zero_delay_visibility": study.zero_delay_visibility,
        "version": __version__,
    })
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_tomography(cfg: ExperimentConfig, extras: dict, out: str) -> int:
    write_json(_out_paths(out, ".json")[1],
               {**tomography_payload(cfg), "version": __version__})
    print("wrote tomography results")
    return 0


def _cmd_sample(cfg: ExperimentConfig, extras: dict, out: str,
                seed: int | None) -> int:
    n = int(extras.get("n_pulses", 100_000))
    use_seed = seed if seed is not None else int(extras.get("seed", 12345))
    sample = sample_events(cfg, n, use_seed)
    csv_path, json_path = _out_paths(out)
    csv_path.write_text(sample.to_csv_text())
    write_json(json_path, {
        "n_pulses": n,
        "seed": use_seed,
        "empirical_triple_rate": sample.triple_rate(),
        "version": __version__,
    })
    print(f"wrote {csv_path} ({n} pulses)")
    return 0


def _cmd_oracle_check(cfg: ExperimentConfig, extras: dict, out: str) -> int:
    from .oracle import oracle_check  # loads scipy.linalg
    n_seeds = int(extras.get("oracle_seeds", 20))
    if n_seeds < 1:
        raise ConfigurationError("oracle_seeds must be >= 1")
    report = oracle_check(cfg, n_seeds=n_seeds)
    payload = {
        "max_deviation": report.max_deviation,
        "n_checks": report.n_checks,
        "worst_case": report.worst_case,
        "passed": report.passed,
        "version": __version__,
    }
    write_json(_out_paths(out, ".json")[1], payload)
    print(f"oracle max deviation {report.max_deviation:.3e} "
          f"({'pass' if report.passed else 'FAIL'})")
    return 0 if report.passed else 1


def _cmd_qubit(cfg: ExperimentConfig, extras: dict, out: str) -> int:
    qubit = extras.get("qubit")
    if qubit is None:
        raise ConfigurationError("qubit command needs alpha=/beta= in the config")
    fid, outcome = distribute_qubit(cfg, qubit)
    payload = {
        "alpha": str(qubit[0]),
        "beta": str(qubit[1]),
        "fidelity": fid,
        "triple_probability": outcome.triple_probability,
        "version": __version__,
    }
    write_json(_out_paths(out, ".json")[1], payload)
    print(f"encoded-qubit fidelity {fid:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dfsdist",
        description="Entanglement-distribution simulator over lossy "
                    "dephasing channels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "calibrate", "delay-scan", "tomography", "sample",
                 "oracle-check", "qubit"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key=value parameter file")
        p.add_argument("--out", required=True, help="output path base")
        if name == "sample":
            p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg, extras = load_config(args.config)
        handler = {
            "sweep": _cmd_sweep,
            "calibrate": _cmd_calibrate,
            "delay-scan": _cmd_delay_scan,
            "tomography": _cmd_tomography,
            "oracle-check": _cmd_oracle_check,
            "qubit": _cmd_qubit,
        }
        if args.command == "sample":
            return _cmd_sample(cfg, extras, args.out, args.seed)
        return handler[args.command](cfg, extras, args.out)
    except (ConfigurationError, ValidationError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
