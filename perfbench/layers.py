"""Per-layer metrics of one traced pass, computed from its spans.

A layer is a module of ``dfsdist``.  Times are in seconds per pass of the
workload and counts per pass.  A function that a refactor removes simply
has no spans, so its metrics read zero.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

# Prefixes of ModeTransform names, as the optics builders set them.
ELEMENT_KINDS = {
    "phase": ("phase_shifter",),
    "loss": ("attenuator",),
    "hwp": ("waveplate",),
    "overlap": ("overlap_split",),
    "pbs": ("PBS",),
    "analyzer": ("F analyzer", "jones", "polarizer"),
}
SOURCE_PREP = ("sources.spdc_state", "sources.pair_state",
               "sources.coherent_state", "sources.single_photon_state")
DELAY_PATH = ("analysis.delay_scan", "analysis.measure_dip_fwhm",
              "analysis.calibrate_delay_width")
# Units by name suffix; every other per-layer metric is in seconds.
UNITS = {".calls": "count", ".terms_in": "count", ".terms_out": "count",
         "final_terms": "count", "_per_avg": "count", "per_calibration": "count",
         "delay_points": "count", "bytes_written": "B",
         "truncated_weight_max": "1", ".share": "1"}


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "s")


def element_kind(name: str) -> str:
    for kind, prefixes in ELEMENT_KINDS.items():
        if name.startswith(prefixes):
            return kind
    return "other"


def layer_metrics(spans: list[tuple], cli_bytes: int) -> dict[str, float]:
    own = self_times(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(idx) -> float:
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def self_s(name: str, exclude=()) -> float:
        return sum(t for i, t in enumerate(own)
                   if layer[i] == name and spans[i][0] not in exclude)

    def info(idx, key) -> list:
        return [spans[i][5][key] for i in idx if spans[i][5] is not None]

    def under(idx, ancestors) -> int:
        """How many of the spans run inside a span named in ``ancestors``."""
        count = 0
        for i in idx:
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in ancestors:
                p = spans[p][3]
            count += p >= 0
        return count

    m: dict[str, float] = {}
    at = by_name["fock.apply_transform"]
    m["fock.apply_transform.calls"] = len(at)
    m["fock.apply_transform.s"] = dur(at)
    m["fock.apply_transform.terms_in"] = sum(info(at, "terms_in"))
    m["fock.apply_transform.terms_out"] = sum(info(at, "terms_out"))
    m["fock.tensor.s"] = dur(by_name["fock.tensor"])
    m["fock.truncated_weight_max"] = max(info(at, "truncated"), default=0.0)
    kinds: dict[str, list[int]] = defaultdict(list)
    for i in at:
        if spans[i][5] is not None:
            kinds[element_kind(spans[i][5]["element"])].append(i)
    for kind in ELEMENT_KINDS:
        m[f"optics.element.{kind}.s"] = dur(kinds[kind])

    optics = [i for i in range(len(spans)) if layer[i] == "optics"]
    m["optics.build.calls"] = sum(1 for i in optics
                                  if spans[i][3] < 0 or layer[spans[i][3]] != "optics")
    m["optics.build.s"] = self_s("optics")

    avg = by_name["protocol.run_phase_averaged"]
    fixed = by_name["protocol.run_fixed_phase"]
    m["protocol.self_s"] = self_s("protocol")
    m["protocol.final_terms"] = max(info(by_name["protocol.prepare_final_state"],
                                         "terms_out"), default=0)
    m["protocol.run_phase_averaged.calls"] = len(avg)
    m["protocol.run_fixed_phase.calls"] = len(fixed)
    m["protocol.fixed_phase_per_avg"] = (
        under(fixed, {"protocol.run_phase_averaged"}) / len(avg) if avg else 0.0)
    m["protocol.analyzer_setting_probability.s"] = dur(
        by_name["protocol.analyzer_setting_probability"])

    qdm = by_name["sources.effective_qubit_dm"]
    m["sources.effective_qubit_dm.calls"] = len(qdm)
    m["sources.effective_qubit_dm.s"] = dur(qdm)
    m["sources.pattern_distribution.s"] = dur(by_name["sources.pattern_distribution"])
    prep = [i for name in SOURCE_PREP for i in by_name[name]]
    m["sources.prep.calls"] = len(prep)
    m["sources.prep.s"] = dur(prep)
    m["sources.prep.terms_out"] = sum(info(prep, "terms_out"))

    cal = by_name["analysis.calibrate_overlap"]
    m["analysis.calibrate_overlap.s"] = dur(cal)
    m["analysis.avg_runs_per_calibration"] = (
        under(avg, {"analysis.calibrate_overlap"}) / len(cal) if cal else 0.0)
    m["analysis.self_s"] = self_s("analysis")
    m["analysis.delay_points"] = under(by_name["protocol.prepare_final_state"],
                                       set(DELAY_PATH))

    m["cli.self_s"] = self_s("cli")
    m["cli.bytes_written"] = cli_bytes

    expm = by_name["oracle.expm"]
    m["oracle.expm.calls"] = len(expm)
    m["oracle.expm.s"] = dur(expm)
    m["oracle.self_s"] = self_s("oracle", exclude={"oracle.expm"})
    m["oracle.engine_s"] = dur([i for i in range(len(spans))
                                if layer[i] != "oracle" and spans[i][3] >= 0
                                and layer[spans[i][3]] == "oracle"])
    return m


def costliest_element(spans: list[tuple]) -> tuple[str, float]:
    """The transform name whose applications took the most time in total."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[0] == "fock.apply_transform" and s[5] is not None:
            totals[s[5]["element"]] += s[2] - s[1]
    if not totals:
        return "", 0.0
    name = max(totals, key=totals.get)
    return name, totals[name]
