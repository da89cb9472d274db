"""Workload plans: the points each workload evaluates, drawn from a seed.

A plan is plain JSON data, so the driver can hand it to a fresh worker
process.  Each point is one call of ``dfsdist.cli.main``, the documented
entry point, with a generated key=value config file.

Seed 0 reproduces the grids of ``scripts/reproduce_results.py``, so its
outputs can be compared with the committed results.  Any other seed draws
grids of the same size over the same ranges.

A config value written as ``"@<point id>.<key>"`` is taken from the JSON
output of an earlier point of the same pass, which makes each workload a
closed loop: a point starts only after the one it depends on has ended.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep-c4", "converge-c6", "fixed-phase", "oracle")
# Workloads whose point times are scaled to the reference host speed
# (hostspeed.py).  The oracle's dense BLAS work keeps an even pace while the
# host slows interpreter-bound code by up to 2x: over ten seeds its raw
# wall_s spread by 0.05 and its scaled one by 0.11, so it keeps the clock's.
SCALED = ("sweep-c4", "converge-c6", "fixed-phase")

# Paper grids (scripts/reproduce_results.py and protocol defaults).
T_GRID = (0.1, 0.03, 0.01, 0.005, 0.003)
MU_GRID = (0.005, 0.01, 0.02, 0.04)
GAMMA_GRID = (5e-4, 1e-3, 2e-3, 4e-3)
FORWARD_T_GRID = (0.003, 0.01, 0.03)
CONVERGE_T_GRID = (0.1, 0.01, 0.003)
CONVERGE_CUTOFFS = (5, 6)
DELAY_HALF_RANGE_UM = 300.0
DELAY_STEPS = 61
FWHM_TARGET_UM = 180.0
SAMPLE_PULSES = 100_000
SAMPLE_SEED = 12345
ORACLE_SEEDS = 20

# Overlap fitted at the parent commit (results/calibration.json); workloads
# that skip calibration use it so that a calibration change cannot move them.
FIXED_S0 = 0.94091796875

# Every key at the value scripts/reproduce_results.py uses (the
# ExperimentConfig defaults), written out so no default can drift unseen.
BASE_CONFIG = {
    "gamma": repr(3.0e-3),
    "mu": repr(1.4e-2 / 0.13),
    "transmittance": repr(0.1),
    "eta": repr(0.13),
    "eta_g": repr(0.09),
    "dark_g": repr(1.5e-6),
    "dark_e": repr(0.0),
    "dark_f": repr(0.0),
    "overlap_s0": repr(1.0),
    "overlap_sigma_um": repr(100.0),
    "delay_um": repr(0.0),
    "gp_reflectance": repr(0.05),
    "cutoff": "4",
    "pair_cutoff": "2",
    "variant": "counter_propagating",
    "source": "spdc",
    "include_feedforward_branch": "false",
}


def _log_uniform(rng: random.Random, lo: float, hi: float, n: int) -> tuple:
    """n distinct values drawn log-uniformly in [lo, hi], in descending order."""
    values: set[float] = set()
    while len(values) < n:
        values.add(float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}"))
    return tuple(sorted(values, reverse=True))


def grids(workload: str, seed: int) -> dict:
    """The input grids of one workload; seed 0 gives the paper's grids."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    paper = seed == 0
    if workload == "sweep-c4":
        return {
            "t": T_GRID if paper else _log_uniform(rng, 0.003, 0.1, 5),
            "mu": MU_GRID if paper else _log_uniform(rng, 0.005, 0.04, 4),
            "gamma": GAMMA_GRID if paper else _log_uniform(rng, 5e-4, 4e-3, 4),
            "forward_t": (FORWARD_T_GRID if paper
                          else _log_uniform(rng, 0.003, 0.03, 3)),
        }
    if workload == "converge-c6":
        return {"t": (CONVERGE_T_GRID if paper
                      else _log_uniform(rng, 0.003, 0.1, 3))}
    if workload == "fixed-phase":
        half = (DELAY_HALF_RANGE_UM if paper
                else round(rng.uniform(150.0, DELAY_HALF_RANGE_UM), 3))
        return {"delay_half_range_um": half,
                "sample_seed": SAMPLE_SEED if paper else rng.randrange(2 ** 31)}
    # The oracle's random circuits keep the program's default base seed: most
    # other base seeds draw a circuit that applies loss twice to one label,
    # which oracle_check rejects with a ValidationError.  The seed varies the
    # channel transmittance of the dense protocol points instead.
    return {"t": 0.1 if paper else _log_uniform(rng, 0.003, 0.1, 1)[0]}


def _cli(pid: str, command: str, group: str | None = None, args=(),
         **config) -> dict:
    cfg = dict(BASE_CONFIG)
    cfg.update({k: (v if isinstance(v, str) else repr(v))
                for k, v in config.items()})
    return {"id": pid, "command": command, "group": group, "config": cfg,
            "args": list(args)}


def _sweep_point(pid: str, group: str, t: float, **config) -> dict:
    return _cli(pid, "sweep", group, transmittance_list=repr(t),
                auto_calibrate="false", **config)


def plan(workload: str, seed: int) -> dict:
    """Points of one pass of a workload, in the order they run."""
    g = grids(workload, seed)
    points = []
    if workload == "sweep-c4":
        points.append(_cli("cal", "calibrate", calibrate_anchor_t=0.1,
                           calibrate_target_vx=0.82))
        for t in g["t"]:
            points.append(_sweep_point(f"coherent:{t!r}", "coherent", t,
                                       overlap_s0="@cal.s0"))
        for t in g["t"]:
            points.append(_sweep_point(f"single:{t!r}", "single", t,
                                       overlap_s0="@cal.s0",
                                       variant="single_photon_ancilla"))
        for mu in g["mu"]:
            points.append(_sweep_point(f"mu:{mu!r}", "mu", 0.1,
                                       overlap_s0="@cal.s0", mu=mu))
        for gamma in g["gamma"]:
            points.append(_sweep_point(f"gamma:{gamma!r}", "gamma", 0.1,
                                       overlap_s0="@cal.s0", gamma=gamma))
        for t in g["forward_t"]:
            points.append(_sweep_point(f"forward:{t!r}", "forward", t,
                                       overlap_s0="@cal.s0",
                                       variant="forward_all_from_bob"))
    elif workload == "converge-c6":
        for cutoff in CONVERGE_CUTOFFS:
            for t in g["t"]:
                points.append(_sweep_point(f"c{cutoff}:{t!r}", f"c{cutoff}", t,
                                           overlap_s0=FIXED_S0, cutoff=cutoff))
    elif workload == "fixed-phase":
        half = g["delay_half_range_um"]
        points.append(_cli("dcal", "delay-scan", overlap_s0=FIXED_S0,
                           delay_fwhm_target_um=FWHM_TARGET_UM,
                           delay_min_um=0.0, delay_max_um=0.0, delay_steps=1))
        points.append(_cli("scan", "delay-scan", overlap_s0=FIXED_S0,
                           overlap_sigma_um="@dcal.sigma_um",
                           delay_min_um=-half, delay_max_um=half,
                           delay_steps=DELAY_STEPS))
        points.append(_cli("sample", "sample", overlap_s0=FIXED_S0,
                           args=["--seed", str(g["sample_seed"])],
                           n_pulses=SAMPLE_PULSES))
    else:
        points.append(_cli("oracle", "oracle-check", transmittance=g["t"],
                           oracle_seeds=ORACLE_SEEDS))
    return {"workload": workload, "seed": seed, "grids": g,
            "scaled": workload in SCALED, "points": points}


def config_text(config: dict, payloads: dict) -> str:
    """key = value lines; "@point.key" takes the value from that point's JSON."""
    lines = []
    for key, value in config.items():
        if value.startswith("@"):
            pid, field = value[1:].rsplit(".", 1)
            value = repr(payloads[pid][field])
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
