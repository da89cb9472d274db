"""Correctness checks on the outputs of workload points.

Every check reads only the files a point produced, so it holds for any
implementation behind the CLI.  A point fails when any check
on it, or on a group of points it belongs to, reports a problem.

Seed-0 outputs are compared with ``reference.json``: values copied from the
committed ``results/`` and, for ``converge-c6``, recorded with the CLI at the
commit that added this benchmark.  The tolerances on visibilities accept any
calibration that meets its V_X target, including an exact closed form.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

REP_RATE_HZ = 82e6
CAL_TOL = 1e-4          # calibrate_overlap's own tolerance on V_X
S0_TOL = 1e-3           # s0 moves < 1e-4 when V_X moves by CAL_TOL
VIS_TOL = 5e-4          # visibilities shift ~1.5 * (s0 shift) under calibration
RATE_RTOL = 1e-5        # rates depend on s0 only at the 1e-7 level
SLOPE_TOL = 1e-4
EXACT_RTOL = 1e-7       # paths without calibration: only summation order may move
SYMMETRY_TOL = 1e-9
ORACLE_TOL = 1e-9
FWHM_RTOL = 1e-6
SAMPLE_SIGMAS = 5.0


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: (v if k == "chsh_flag" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def read_output(point: dict, base: Path) -> dict:
    """Parse the files a CLI point wrote under ``base``."""
    written = [base.with_suffix(s) for s in (".csv", ".json")]
    out = {"bytes": sum(f.stat().st_size for f in written if f.exists()),
           "rows": []}
    json_path = base.with_suffix(".json")
    out["json"] = json.loads(json_path.read_text()) if json_path.exists() else {}
    csv_path = base.with_suffix(".csv")
    if not csv_path.exists():
        return out
    if point["command"] == "sample":
        with csv_path.open() as fh:
            lines = fh.read().splitlines()
        out["sample_lines"] = len(lines)
        out["sample_triples"] = sum(1 for ln in lines[1:]
                                    if ln.endswith(",1,1,1"))
    else:
        out["rows"] = _rows(csv_path)
    return out


def _close(got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def _find(rows: list[dict], key: str, value: float) -> dict | None:
    for row in rows:
        if math.isclose(row[key], value, rel_tol=1e-12):
            return row
    return None


def _check_sweep_row(row: dict) -> list[str]:
    problems = []
    for key in ("v_z", "v_x", "f_low"):
        if not (math.isfinite(row[key]) and -1.0 <= row[key] <= 1.0):
            problems.append(f"{key}={row[key]} outside [-1, 1]")
    if not abs(row["f_low"] - 0.5 * (row["v_z"] + row["v_x"])) <= 1e-10:
        problems.append("f_low != (v_z + v_x)/2")
    p = row["rate_per_pulse"]
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        problems.append(f"rate_per_pulse={p} outside [0, 1]")
    elif not _close(row["rate_per_second"], p * REP_RATE_HZ, 1e-300, 1e-9):
        problems.append("rate_per_second != rate_per_pulse * 82 MHz")
    return problems


def _seed0_sweep(point: dict, row: dict) -> list[str]:
    group, t = point["group"], row["transmittance"]
    problems = []
    if group == "coherent":
        ref = _find(REFERENCE["table"], "transmittance", t)
        for key in ("v_z", "v_x", "f_low"):
            if not _close(row[key], ref[key], atol=VIS_TOL):
                problems.append(f"{key}={row[key]!r} vs results {ref[key]!r}")
        if not _close(row["rate_per_pulse"], ref["rate_per_pulse"], rtol=RATE_RTOL):
            problems.append("rate differs from results/table.csv")
    if group in ("coherent", "single"):
        ref = _find(REFERENCE["rates"], "transmittance", t)
        key = "rate_coherent" if group == "coherent" else "rate_single_photon"
        if not _close(row["rate_per_pulse"], ref[key], rtol=RATE_RTOL):
            problems.append(f"rate differs from results/rates.csv {key}")
    if group in ("c5", "c6"):
        ref = _find(REFERENCE["converge"][group], "transmittance", t)
        for key in ("v_z", "v_x", "f_low"):
            if not _close(row[key], ref[key], atol=1e-9):
                problems.append(f"{key}={row[key]!r} vs recorded {ref[key]!r}")
        if not _close(row["rate_per_pulse"], ref["rate_per_pulse"], rtol=EXACT_RTOL):
            problems.append("rate differs from the recorded reference")
    return problems


def _check_delay(point: dict, out: dict, seed: int) -> list[str]:
    problems = []
    payload = out["json"]
    for key in ("sigma_um", "fwhm_um"):
        if not (math.isfinite(payload[key]) and payload[key] > 0.0):
            problems.append(f"{key}={payload[key]} not positive")
    vis0 = payload["zero_delay_visibility"]
    if not 0.0 <= vis0 <= 1.0:
        problems.append(f"zero-delay visibility {vis0} outside [0, 1]")
    target = point["config"].get("delay_fwhm_target_um")
    if target is not None and not _close(payload["fwhm_um"], float(target),
                                         rtol=FWHM_RTOL):
        problems.append(f"FWHM {payload['fwhm_um']} misses target {target}")
    rows = out["rows"]
    for row in rows:
        for key in ("p_rd", "p_ld", "visibility"):
            if not (math.isfinite(row[key]) and 0.0 <= row[key] <= 1.0):
                problems.append(f"{key}={row[key]} outside [0, 1]")
    by_delay = {row["delay_um"]: row["visibility"] for row in rows}
    for d, vis in by_delay.items():
        mirror = by_delay.get(-d)
        if mirror is not None and abs(vis - mirror) > SYMMETRY_TOL:
            problems.append(f"visibility not symmetric at +-{abs(d)} um")
    if seed == 0:
        ref_rows = REFERENCE["delay_scan"]
        ref0 = _find(ref_rows, "delay_um", 0.0)
        if not _close(vis0, ref0["visibility"], rtol=EXACT_RTOL):
            problems.append(f"zero-delay visibility {vis0!r} vs results "
                            f"{ref0['visibility']!r}")
        if point["id"] == "scan":
            if len(rows) != len(ref_rows):
                problems.append("delay scan length differs from results")
            for row, ref in zip(rows, ref_rows):
                if not all(_close(row[k], ref[k], atol=1e-300, rtol=EXACT_RTOL)
                           for k in ("delay_um", "p_rd", "p_ld")):
                    problems.append(f"delay row {row['delay_um']} differs "
                                    f"from results/delay_scan.csv")
                    break
    return problems


def _check_sample(point: dict, out: dict) -> list[str]:
    n = int(point["config"]["n_pulses"])
    if out.get("sample_lines") != n + 1:
        return [f"sample CSV has {out.get('sample_lines')} lines, want {n + 1}"]
    problems = []
    rate = out["json"]["empirical_triple_rate"]
    if not _close(rate, out["sample_triples"] / n, rtol=1e-12, atol=1e-300):
        problems.append("empirical_triple_rate disagrees with the CSV")
    # The sample runs at the reference configuration, T = 0.1.
    exact = _find(REFERENCE["table"], "transmittance", 0.1)["rate_per_pulse"]
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    if abs(rate - exact) > SAMPLE_SIGMAS * sigma:
        problems.append(f"sampled triple rate {rate} not within 5 sigma of "
                        f"{exact}")
    return problems


def check_point(point: dict, out: dict, seed: int) -> list[str]:
    """Problems found in the output of one point (empty when it is right)."""
    command = point["command"]
    if command == "oracle-check":
        payload = out["json"]
        dev = payload["max_deviation"]
        if not (math.isfinite(dev) and dev < ORACLE_TOL and payload["passed"]
                and payload["n_checks"] > 0):
            return [f"oracle deviation {dev} ({payload['worst_case']})"]
        return []
    if command == "calibrate":
        payload = out["json"]
        problems = []
        if not 0.0 < payload["s0"] <= 1.0:
            problems.append(f"s0={payload['s0']} outside (0, 1]")
        if not abs(payload["v_x_achieved"] - payload["target_v_x"]) <= CAL_TOL:
            problems.append("calibration misses its V_X target")
        if seed == 0 and not _close(payload["s0"], REFERENCE["calibration"]["s0"],
                                    atol=S0_TOL):
            problems.append("s0 differs from results/calibration.json")
        return problems
    if command == "sweep":
        if len(out["rows"]) != 1:
            return [f"sweep wrote {len(out['rows'])} rows, want 1"]
        row = out["rows"][0]
        problems = _check_sweep_row(row)
        trunc = out["json"]["metadata"]["diagnostics"]["max_truncated_weight"]
        if not (math.isfinite(trunc) and 0.0 <= trunc <= 1.0):
            problems.append(f"truncated weight {trunc} outside [0, 1]")
        if seed == 0 and not problems:
            problems += _seed0_sweep(point, row)
        return problems
    if command == "delay-scan":
        return _check_delay(point, out, seed)
    if command == "sample":
        return _check_sample(point, out)
    return [f"no check for command {command!r}"]


def linear_fit(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((a - mx) * (b - my) for a, b in zip(xs, ys))
             / sum((a - mx) ** 2 for a in xs))
    return slope, my - slope * mx


def _rates_by_t(points: list[dict], outputs: dict, group: str) -> list[tuple]:
    pairs = []
    for p in points:
        rows = outputs.get(p["id"], {}).get("rows") if p["group"] == group else None
        if rows:
            pairs.append((rows[0]["transmittance"], rows[0]["rate_per_pulse"]))
    return sorted(pairs)


def check_groups(plan: dict, outputs: dict) -> dict[str, list[str]]:
    """Problems that involve several points, keyed by the points they fail."""
    points = plan["points"]
    found: dict[str, list[str]] = {}

    def fail(group: str, problem: str) -> None:
        for p in points:
            if p["group"] == group:
                found.setdefault(p["id"], []).append(problem)

    t_groups = {"sweep-c4": ("coherent", "single", "forward"),
                "converge-c6": ("c5", "c6")}.get(plan["workload"], ())
    for group in t_groups:
        pairs = _rates_by_t(points, outputs, group)
        if any(r0 >= r1 for (_, r0), (_, r1) in zip(pairs, pairs[1:])):
            fail(group, f"{group} rate does not fall monotonically with T")
    if plan["workload"] == "sweep-c4" and plan["seed"] == 0:
        coherent = _rates_by_t(points, outputs, "coherent")
        single = _rates_by_t(points, outputs, "single")
        if len(coherent) != len(REFERENCE["rates"]) or len(single) != len(coherent):
            fail("coherent", "rate curve incomplete")
            return found
        ref = REFERENCE["exponents"]
        lt = [math.log(t) for t, _ in coherent]
        for group, pairs, key in (("coherent", coherent, "rate_vs_t"),
                                  ("single", single, "single_photon_rate_vs_t")):
            slope = linear_fit(lt, [math.log(r) for _, r in pairs])[0]
            if not _close(slope, ref[key], atol=SLOPE_TOL):
                fail(group, f"{key}={slope} vs results {ref[key]}")
        slope, intercept = linear_fit(lt, [math.log(a / b) for (_, a), (_, b)
                                           in zip(coherent, single)])
        t_cross = math.exp(-intercept / slope)
        if not _close(t_cross, ref["crossing_transmittance"], rtol=SLOPE_TOL):
            fail("coherent", f"crossing T={t_cross} vs results "
                             f"{ref['crossing_transmittance']}")
    return found
