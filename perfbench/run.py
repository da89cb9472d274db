#!/usr/bin/env python3
"""Benchmark of dfsdist: run workloads through the CLI and report metrics.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in a fresh worker process that imports ``dfsdist`` from
``src/`` of the current directory.  The inputs come from ``--seed`` alone.
With ``--trace 0`` the end-to-end metrics are reported, with ``--trace 1``
the per-layer metrics of a separate traced run.  Every metric is printed by
name with its unit and sample count; the last line of standard output is one
JSON object.  The exit code is nonzero if any point failed its check.
Working files, the full record of each run and the traced spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from layers import element_kind, unit as layer_unit  # noqa: E402
from workloads import WORKLOADS, plan as make_plan  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "GOTO_")

END_TO_END = {
    "wall_s": "s", "point_ms_p50": "ms", "point_ms_p90": "ms", "setup_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB", "wall_raw_s": "s", "cpu_raw_s": "s",
    "setup_raw_s": "s",
}
# The end-to-end metrics of the JSON line, each bounded in BENCHMARK.json.
# Their times are at the reference host speed (hostspeed.py).  The raw clock
# readings are printed but not bounded: the host's speed moves them by up to
# 1.9x between runs.
BOUNDED = ("wall_s", "point_ms_p50", "point_ms_p90", "setup_s", "cpu_s",
           "peak_rss_mb")


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """p90 by nearest rank, lowered until ten samples lie beyond it.

    It never drops below the median, so fewer than 21 samples report p50.
    Returns the value and the quantile used.
    """
    xs = sorted(values)
    n = len(xs)
    rank = min(math.ceil(0.9 * n), n - 10)
    if rank / n <= 0.5:
        return statistics.median(xs), 0.5
    return xs[rank - 1], rank / n


def host_state() -> dict:
    """Host-drift diagnostics: steal ticks, load and a fixed Python probe."""
    with open("/proc/stat") as fh:
        steal = int(fh.readline().split()[8])
    return {"steal_ticks": steal, "loadavg": list(os.getloadavg()),
            "probe_s": statistics.median(hostspeed.probe() for _ in range(9))}


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0))}


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(BLAS_ENV_PREFIXES)}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], env: dict, log: Path, deadline: float) -> dict:
    out = log.with_suffix(".json")
    with log.open("a") as fh:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args,
                                 "--out", str(out)],
                                stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker exceeded the run time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(out.read_text())


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = root / ".perfbench_out"
    work = out_dir / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    log = work / "worker.log"
    env = worker_env(root)
    plan = make_plan(workload, seed)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    common = ["--plan", str(plan_path), "--workdir", str(work / "passes")]
    before = host_state()
    try:
        setups = []  # (raw, at reference speed)
        for _ in range(SETUP_PROBES):
            started = run_worker(common + ["--setup-only"], env, log, deadline)
            if not started["dfsdist"].startswith(str((root / "src").resolve())):
                raise RuntimeError(f"dfsdist imported from {started['dfsdist']}")
            setups.append((started["setup_s"], started["ref_setup_s"]))
        spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        result = run_worker(common + ["--seconds", str(seconds),
                                      "--trace", str(trace),
                                      "--spans", str(spans)], env, log, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        tail = log.read_text()[-2000:] if log.exists() else ""
        raise RuntimeError(f"{workload}: {exc}\n{tail}") from None
    after = host_state()
    shutil.rmtree(work)
    result["setup_samples"] = setups
    result["host"] = {"before": before, "after": after,
                      "steal_ticks": after["steal_ticks"] - before["steal_ticks"]}
    summary = summarize(plan, result, trace)
    record = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps(summary, indent=1))
    return summary


def summarize(plan: dict, result: dict, trace: int) -> dict:
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    points = [pt for p in passes for pt in p["points"]]
    failed = [pt for pt in points if pt["problems"]]
    if trace:
        metrics = {key: statistics.median(p["layers"][key] for p in traced)
                   for key in traced[0]["layers"]}
        wall_traced = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(p["ref_wall_s"] for p in traced)
            - statistics.median(p["ref_wall_s"] for p in plain))
        metrics["fock.apply_transform.share"] = (
            metrics["fock.apply_transform.s"] / wall_traced)
        metrics["analysis.calibrate_overlap.share"] = (
            metrics["analysis.calibrate_overlap.s"] / wall_traced)
        units = {k: layer_unit(k) for k in metrics}
        samples = {k: len(traced) for k in metrics}
        samples["trace.overhead_s"] = len(passes)
        extra = {"final_terms": metrics["protocol.final_terms"],
                 "costliest_element": traced[0]["costliest_element"]}
    else:
        point_ms = [pt["ref_ms"] for p in plain for pt in p["points"]]
        p90, q = tail_percentile(point_ms)
        setups = result["setup_samples"]
        metrics = {
            "wall_s": statistics.median(p["ref_wall_s"] for p in plain),
            "point_ms_p50": statistics.median(point_ms),
            "point_ms_p90": p90,
            "setup_s": statistics.median(ref for _, ref in setups),
            "cpu_s": statistics.median(p["ref_cpu_s"] for p in plain),
            "peak_rss_mb": result["peak_rss_mb"],
            "wall_raw_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_raw_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_raw_s": statistics.median(raw for raw, _ in setups),
        }
        units = END_TO_END
        samples = {"wall_s": len(plain), "point_ms_p50": len(point_ms),
                   "point_ms_p90": len(point_ms), "setup_s": len(setups),
                   "cpu_s": len(plain), "peak_rss_mb": 1,
                   "wall_raw_s": len(plain), "cpu_raw_s": len(plain),
                   "setup_raw_s": len(setups)}
        extra = {"point_ms_p90_quantile": q}
    meta = dict(result["meta"], **machine(), **extra, host=result["host"],
                grids=plan["grids"],
                cutoffs=sorted({int(pt["config"]["cutoff"]) for pt in plan["points"]}))
    return {"workload": plan["workload"], "seed": plan["seed"], "trace": trace,
            "metrics": metrics, "units": units, "samples": samples,
            "attempted": len(points), "failed": len(failed),
            "failures": [{"id": pt["id"], "problems": pt["problems"]}
                         for pt in failed][:20],
            "meta": meta, "passes": passes}


def report(summary: dict) -> None:
    name = summary["workload"]
    for key, value in summary["metrics"].items():
        print(f"{name} {key} = {value:.6g} {summary['units'][key]} "
              f"(n={summary['samples'][key]})")
    ratio = summary["failed"] / summary["attempted"]
    print(f"{name} fail_ratio = {ratio:.6g} 1 "
          f"(n={summary['attempted']} points)")
    if summary["trace"]:
        element, seconds = summary["meta"]["costliest_element"]
        print(f"{name} costliest optical element: {element!r} "
              f"({element_kind(element)}, {seconds:.4g} s per pass)")
    for failure in summary["failures"]:
        print(f"{name} FAILED {failure['id']}: {'; '.join(failure['problems'])}")
    print(json.dumps({"meta": summary["meta"]}, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dfsdist" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/dfsdist not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summary = run_workload(root, name, args.seed, args.seconds,
                                   args.trace)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(summary)
        summaries.append(summary)
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        for k, v in s["metrics"].items():
            if args.trace or k in BOUNDED:
                metrics[prefix + k] = {"value": v, "unit": s["units"][k]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
