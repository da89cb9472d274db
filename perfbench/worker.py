"""Run one workload in this (fresh) process and write what it measured.

    python3 perfbench/worker.py --plan P --out R --workdir D --seconds S
                                --trace 0|1 [--spans F] [--setup-only]

The set-up time runs from the first line of this file until ``dfsdist`` and
its CLI (numpy, scipy.linalg) are imported and the workload plan is loaded.
Then passes over the plan's points run back to back until the next pass
would end after ``--seconds``; each point waits for the one before it and
its config file is written just before it starts.  With ``--trace 1``
untraced and traced passes alternate, so the tracer's overhead is measured
in the same process.
From the start of set-up to the end, the host's speed is sampled every
50 ms (``hostspeed.py``).  The probes' own time is taken out of every point
and span, and in a scaled workload each point's time is also given at the
reference speed; in the others that field holds the clock's reading.
Outputs are parsed and checked after each pass, outside the timed region.
"""

import time

T_START = time.perf_counter()

import hostspeed  # noqa: E402

SAMPLER = hostspeed.Sampler()
if __name__ == "__main__":  # sample the host's speed from the start of set-up
    SAMPLER.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import dfsdist  # noqa: E402
from dfsdist import cli  # noqa: E402

from checks import check_groups, check_point, read_output  # noqa: E402
from layers import costliest_element, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import config_text  # noqa: E402


def blas_info() -> dict:
    """OpenBLAS builds loaded in this process, with the threads each resolved."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry = {"threads": threads(),
                             "config": config().decode().strip()}
                    break
            if entry:
                break
        found[Path(path).name] = entry
    return found


def run_point(point: dict, base: Path, payloads: dict) -> dict:
    """Call one point; return its timing and where its outputs are."""
    record = {"id": point["id"], "problems": [], "base": str(base)}
    cfg_path = base.with_suffix(".cfg")
    cfg_path.write_text(config_text(point["config"], payloads))
    argv = [point["command"], "--config", str(cfg_path), "--out", str(base),
            *point["args"]]
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a point that raises is a failed point, not a crash
        code = None
        record["problems"].append(traceback.format_exc(limit=3))
    record.update(start=start, end=time.perf_counter(),
                  cpu_s=time.process_time() - cpu)
    if code not in (0, None):
        record["problems"].append(f"exit code {code}")
    json_path = base.with_suffix(".json")
    if json_path.exists():
        payloads[point["id"]] = json.loads(json_path.read_text())
    return record


def run_pass(plan: dict, pass_dir: Path, tracer: Tracer | None,
             sampler: hostspeed.Sampler) -> dict:
    pass_dir.mkdir(parents=True)
    payloads: dict = {}
    records = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for k, point in enumerate(plan["points"]):
            if tracer is not None:
                tracer.point = point["id"]
            try:
                record = run_point(point, pass_dir / f"p{k:03d}", payloads)
            except KeyError as exc:  # an earlier point left no output to use
                record = {"id": point["id"], "start": time.perf_counter(),
                          "end": time.perf_counter(), "cpu_s": 0.0,
                          "problems": [f"missing input {exc}"]}
            records.append(record)
    # Everything below runs after the timed region.
    time.sleep(hostspeed.WINDOW_S)  # the last point's speed samples
    for r in records:
        probes = sampler.probe_seconds(r["start"], r["end"])
        r["ms"] = 1e3 * (r["end"] - r["start"] - probes)
        r["cpu_s"] -= probes
        if plan["scaled"]:
            r["ref_ms"] = 1e3 * sampler.to_reference(r["start"], r["end"],
                                                     r["end"] - r["start"])
            r["ref_cpu_ms"] = 1e3 * sampler.to_reference(r["start"], r["end"],
                                                         r["cpu_s"] + probes)
        else:
            r["ref_ms"], r["ref_cpu_ms"] = r["ms"], 1e3 * r["cpu_s"]
    outputs, cli_bytes = {}, 0
    for point, rec in zip(plan["points"], records):
        if rec["problems"]:
            continue
        try:
            out = read_output(point, Path(rec["base"]))
            cli_bytes += out["bytes"]
            outputs[point["id"]] = out
            rec["problems"] += check_point(point, out, plan["seed"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["problems"].append(f"unreadable output: {exc!r}")
    for pid, problems in check_groups(plan, outputs).items():
        next(r for r in records if r["id"] == pid)["problems"] += problems
    shutil.rmtree(pass_dir)
    return {
        "traced": tracer is not None,
        "wall_s": sum(r["ms"] for r in records) / 1e3,
        "cpu_s": sum(r["cpu_s"] for r in records),
        "ref_wall_s": sum(r["ref_ms"] for r in records) / 1e3,
        "ref_cpu_s": sum(r["ref_cpu_ms"] for r in records) / 1e3,
        "points": [{"id": r["id"], "ms": r["ms"], "ref_ms": r["ref_ms"],
                    "problems": r["problems"]} for r in records],
        "cli_bytes": cli_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    setup_end = time.perf_counter()
    setup_s = setup_end - T_START - SAMPLER.probe_seconds(T_START, setup_end)
    result = {"setup_s": setup_s, "dfsdist": str(Path(dfsdist.__file__).resolve())}
    if not args.setup_only:
        workdir = Path(args.workdir)
        tracers: list[Tracer] = []
        passes, durations = [], []
        start = time.perf_counter()
        while True:
            tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
            passes.append(run_pass(plan, workdir / f"pass{len(passes)}", tracer,
                                   SAMPLER))
            durations.append(time.perf_counter() - start - sum(durations))
            if tracer is not None:
                tracer.spans[:] = SAMPLER.without_probes(tracer.spans)
                tracers.append(tracer)
                passes[-1]["layers"] = layer_metrics(tracer.spans,
                                                     passes[-1]["cli_bytes"])
                passes[-1]["costliest_element"] = costliest_element(tracer.spans)
            elapsed = time.perf_counter() - start
            longest = max(durations)
            if (len(passes) >= 1 + args.trace
                    and elapsed + longest > args.seconds):
                break
        if args.spans and tracers:
            with open(args.spans, "w") as fh:
                for k, tracer in enumerate(tracers):
                    for span in tracer.spans:
                        fh.write(json.dumps([k, *span]) + "\n")
        result.update(
            passes=passes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            meta={"python": platform.python_version(),
                  "numpy": sys.modules["numpy"].__version__,
                  "scipy": sys.modules["scipy"].__version__,
                  "blas": blas_info()})
    result["ref_setup_s"] = SAMPLER.to_reference(T_START, setup_end,
                                                 setup_end - T_START)
    SAMPLER.stop()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
