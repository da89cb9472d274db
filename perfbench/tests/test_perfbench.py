"""Tests of the benchmark itself: inputs, checks, tracer and self times.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import ast
import csv
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pytest  # noqa: E402
from dfsdist.fock import ValidationError  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, grids, plan  # noqa: E402


def _script_literals() -> dict:
    """Literal assignments and linspace calls in scripts/reproduce_results.py."""
    tree = ast.parse((ROOT / "scripts" / "reproduce_results.py").read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "linspace"):
            found["linspace"] = [ast.literal_eval(a) for a in node.args]
    return found


def test_seed_generation_is_deterministic_and_sized_like_seed_0():
    for name in WORKLOADS:
        assert plan(name, 11) == plan(name, 11)
        paper, drawn = grids(name, 0), grids(name, 11)
        assert drawn != paper
        for key, values in paper.items():
            if isinstance(values, tuple):
                assert len(drawn[key]) == len(values)
                assert min(values) <= min(drawn[key]) <= max(drawn[key]) <= max(values)


def test_seed_0_uses_the_grids_of_the_reproduction_script():
    from dfsdist.protocol import ExperimentConfig, forward_variant_scaling

    script = _script_literals()
    sweep = grids("sweep-c4", 0)
    assert sweep["t"] == script["T_GRID"]
    assert sweep["mu"] == script["mu_grid"]
    assert sweep["gamma"] == script["gamma_grid"]
    assert sweep["forward_t"] == inspect.signature(
        forward_variant_scaling).parameters["t_grid"].default
    assert set(grids("converge-c6", 0)["t"]) <= set(script["T_GRID"])
    lo, hi, steps = script["linspace"]
    scan = next(p for p in plan("fixed-phase", 0)["points"] if p["id"] == "scan")
    cfg = scan["config"]
    assert (float(cfg["delay_min_um"]), float(cfg["delay_max_um"]),
            int(cfg["delay_steps"])) == (lo, hi, steps)
    assert grids("oracle", 0)["t"] == ExperimentConfig().transmittance


@pytest.mark.xfail(raises=ValidationError,
                   reason="a random oracle circuit may apply loss twice to one "
                          "label; the oracle workload keeps the default base seed")
def test_oracle_random_circuits_accept_another_base_seed():
    from dfsdist.oracle import oracle_check

    oracle_check(n_seeds=1, base_seed=6845)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1, None, None),
        ("a", 1.0, 4.0, 0, None, None),
        ("b", 5.0, 6.0, 0, None, None),
        ("a.child", 2.0, 3.0, 1, None, None),
        ("overlap", 20.0, 30.0, -1, None, None),
        ("o1", 21.0, 25.0, 4, None, None),
        ("o2", 24.0, 27.0, 4, None, None),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 4.0, 4.0, 3.0])


def test_missing_functions_report_zero():
    metrics = layer_metrics([], cli_bytes=0)
    assert metrics["protocol.run_fixed_phase.calls"] == 0
    assert metrics["protocol.fixed_phase_per_avg"] == 0
    assert metrics["analysis.avg_runs_per_calibration"] == 0


def test_perturbed_row_fails_the_point_and_the_exit_code(tmp_path, monkeypatch):
    seed0 = plan("sweep-c4", 0)
    point = dict(next(p for p in seed0["points"] if p["id"] == "coherent:0.1"),
                 config=dict(next(p for p in seed0["points"]
                                  if p["id"] == "coherent:0.1")["config"],
                             overlap_s0="0.94091796875"))
    # One point of the seed-0 sweep, without the checks on complete curves.
    small = {"workload": "one-point", "seed": 0, "grids": seed0["grids"],
             "scaled": True, "points": [point]}
    with hostspeed.Sampler() as sampler:
        clean = worker.run_pass(small, tmp_path / "clean", None, sampler)
    assert [p["problems"] for p in clean["points"]] == [[]]

    real_main = worker.cli.main

    def perturbed(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out") + 1]).with_suffix(".csv")
        rows = list(csv.reader(out.open()))
        rows[1][2] = f"{float(rows[1][2]) + 0.01:.11e}"  # v_x
        with out.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        return code

    monkeypatch.setattr(worker.cli, "main", perturbed)
    with hostspeed.Sampler() as sampler:
        bad = worker.run_pass(small, tmp_path / "bad", None, sampler)
    assert bad["points"][0]["problems"]
    result = {"passes": [bad], "setup_samples": [(0.5, 0.5)], "peak_rss_mb": 60.0,
              "meta": {}, "host": {}}
    summary = run.summarize(small, result, trace=0)
    assert summary["failed"] / summary["attempted"] == 1.0

    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "run_workload", lambda *args: summary)
    assert run.main(["--workload", "sweep-c4"]) != 0


def test_tracer_restores_every_binding():
    import dfsdist
    from dfsdist import oracle, protocol
    from dfsdist.protocol import ExperimentConfig

    modules = [m for name, m in sys.modules.items()
               if name == "dfsdist" or name.startswith("dfsdist.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with Tracer() as tracer:
        assert protocol.apply_transform is not before[("dfsdist.protocol",
                                                      "apply_transform")]
        assert oracle.expm is not before[("dfsdist.oracle", "expm")]
        dfsdist.run_fixed_phase(ExperimentConfig.ideal(), 0.0, 0.0)
    names = {span[0] for span in tracer.spans}
    assert {"protocol.run_fixed_phase", "fock.apply_transform",
            "sources.pair_state", "optics.pbs"} <= names
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_and_points_exclude_the_speed_probes():
    sampler = hostspeed.Sampler()
    sampler.samples = [(1.0, 0.5), (3.0, 0.25)]
    spans = [("outer", 0.0, 4.0, -1, None, None),
             ("inner", 2.0, 3.5, 0, None, None)]
    moved = sampler.without_probes(spans)
    assert [(s[1], s[2]) for s in moved] == [(0.0, 3.25), (1.5, 2.75)]
    assert sampler.probe_seconds(0.0, 4.0) == 0.75
    # Work of 4 s with 0.75 s of probes, at half the reference speed.
    slow = 2 * hostspeed.PROBE_REF_S
    sampler.samples = [(1.0, slow), (3.0, slow)]
    assert sampler.to_reference(0.0, 4.0, 4.0) == pytest.approx(
        (4.0 - 4 * hostspeed.PROBE_REF_S) / 2)
