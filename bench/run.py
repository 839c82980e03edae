#!/usr/bin/env python3
"""fsmguard benchmark: a harden ladder and three fault-campaign workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: fsmguard is imported from ./src. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones. bench/README.md
says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from inputs import FIG2_DOC, REF14_DOC, bigm_doc
from layers import Tracer, logic_depth, useful_lane_cycles, wilson_upper
from selftest import toy_checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# The hardening seed picks the design under test: its codebooks, and with them
# the codebook search time and the hijack profile. It stays fixed so that
# every bench seed measures the same designs (see README.md).
HARDEN_SEED = 0
LADDER = (
    ("fig2", 2), ("fig2", 3), ("fig2", 4),
    ("ref14", 2), ("ref14", 3), ("ref14", 4),
    ("big32", 3), ("big100", 3), ("big300", 3),
)
CAMPAIGNS = {
    "campaign-diffusion-big32": dict(
        fsm="big32", level=3, seeded=True,
        spec=dict(scope="diffusion_only", effects=("flip",), mode="sampled", sample_count=1024),
    ),
    "campaign-all-ref14": dict(
        fsm="ref14", level=2, seeded=False,
        spec=dict(scope="all", effects=("flip", "stuck0", "stuck1"), mode="exhaustive"),
    ),
    "campaign-stuck-big32": dict(
        fsm="big32", level=3, seeded=False,
        spec=dict(scope="all", effects=("stuck0", "stuck1"), mode="sampled", sample_count=1024),
    ),
}
WORKLOADS = ("harden-ladder",) + tuple(CAMPAIGNS)
DIFFUSION_HIJACK_LIMIT = 0.02  # acceptance criterion 7
MIN_REPS = 3
IMPORT_SAMPLES = 5
EXTRA_HARDEN_S = 0.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "harden_s": "s",
    "experiments_per_s": "1/s",
    "peak_rss_mb": "MB",
    "total_gates": "count",
    "max_logic_depth": "gates",
    "hijack_rate": "ratio",
}
STAGES = (
    "alert", "diffusion", "error_logic", "match", "mix",
    "modifier_select", "output_logic", "unmix", "untagged",
)
# span name -> per-layer metric; a span's self time excludes its child spans
SPAN_METRICS = {
    "fsm.parse": "fsm.parse_s",
    "fsm.cfg": "fsm.cfg_s",
    "fsm.cover_walk": "fsm.cover_walk_s",
    "coding.codebook": "coding.codebook_s",
    "coding.export": "coding.export_s",
    "coding.load": "coding.load_s",
    "gf.solve": "gf.solve_s",
    "hardening.harden": "hardening.self_s",
    "hardening.layout": "hardening.layout_s",
    "hardening.modifiers": "hardening.modifiers_s",
    "hardening.build": "hardening.build_s",
    "hardening.report": "hardening.report_s",
    "netlist.validate": "netlist.validate_s",
    "netlist.emit_verilog": "netlist.emit_verilog_s",
    "netlist.to_json": "netlist.to_json_s",
    "netlist.load": "netlist.load_s",
    "netlist.simulate": "netlist.simulate_s",
    "faults.golden": "faults.golden_s",
    "faults.campaign": "faults.self_s",
    "faults.report": "faults.report_s",
    "bench.pass": "bench.self_s",
}
PER_LAYER_UNITS = {
    "package.import_s": "s",
    **{m: "s" for m in SPAN_METRICS.values()},
    "coding.state_width_bits": "bits",
    "coding.ctrl_width_bits": "bits",
    **{f"hardening.gates.{s}": "count" for s in STAGES},
    "netlist.simulate_calls": "count",
    "netlist.lanes_per_call": "lanes",
    "netlist.gate_lane_cycles": "count",
    "netlist.gate_lane_evals_per_s": "1/s",
    "netlist.useful_cycle_fraction": "ratio",
    "faults.fault_sites": "count",
    "faults.experiments": "count",
    "faults.decode_calls": "count",
    "faults.alloc_peak_mb": "MB",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _dumps(doc: dict) -> str:
    # the same serialisation as `fsmguard harden` / `fsmguard inject`
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fsm_doc(name: str, seed: int) -> dict:
    if name == "fig2":
        return FIG2_DOC
    if name == "ref14":
        return REF14_DOC
    return bigm_doc(int(name[3:]), seed)


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self):
        return [name for name, ok in self.results if not ok]


def export(fg, tracer: Tracer, design) -> dict:
    """The four files `fsmguard harden` writes, as strings."""
    with tracer.span("netlist.to_json"):
        netlist_json = _dumps(fg.netlist.to_json_dict(design.netlist))
    with tracer.span("netlist.emit_verilog"):
        verilog = fg.netlist.emit_verilog(design.netlist)
    with tracer.span("coding.export"):
        codebook_json = _dumps(
            {"state": design.state_codes.to_json_dict(), "control": design.ctrl_codes.to_json_dict()}
        )
    with tracer.span("hardening.report"):
        report_json = _dumps(design.report())
    return {
        "netlist.json": netlist_json,
        "netlist.v": verilog,
        "codebook.json": codebook_json,
        "hardening_report.json": report_json,
    }


def harden_export(fg, tracer: Tracer, text: str, level: int):
    """Parse, harden and export one design, as `fsmguard harden` does."""
    with tracer.span("fsm.parse"):
        fsm = fg.parse_fsm(text)
    with tracer.span("hardening.harden"):
        design = fg.harden(fsm, fg.HardeningConfig(protection_level=level, seed=HARDEN_SEED))
    return design, export(fg, tracer, design)


def word_trace(words):
    # the campaign trace: one settle cycle after the last word
    return [{"x_e": w} for w in words] + [{"x_e": 0}]


def autocover_words(netlist):
    return [int(w, 16) for w in netlist.meta["autocover_trace"]]


def check_codebooks(fg, checks: Checks, label: str, design) -> None:
    n = design.config.protection_level
    checks.add(f"{label}: state code distance >= {n}", fg.min_distance(design.state_codes) >= n)
    checks.add(f"{label}: control code distance >= {n}", fg.min_distance(design.ctrl_codes) >= n)


class Ladder:
    """Harden and export every ladder design the way `fsmguard harden` does."""

    def __init__(self, fg, seed: int):
        self.fg = fg
        self.seed = seed

    def setup(self, tracer: Tracer):
        return [(f"{name}/N{n}", json.dumps(_fsm_doc(name, self.seed)), n) for name, n in LADDER]

    def rep(self, tracer: Tracer, texts):
        """Returns the designs, their netlist JSON digests and per-design times."""
        designs, digests, times = [], [], []
        for label, text, n in texts:
            t = time.perf_counter()
            design, files = harden_export(self.fg, tracer, text, n)
            times.append(time.perf_counter() - t)
            designs.append((label, design))
            digests.append(_sha(files["netlist.json"]))
        return designs, digests, times

    def golden(self, designs):
        """Fault-free netlist runs over each design's autocover trace, for the check."""
        return [
            self.fg.netlist.simulate_batch(d.netlist, [word_trace(autocover_words(d.netlist))])
            for _, d in designs
        ]

    def check(self, checks: Checks, designs, sims, rep_digests) -> None:
        fg = self.fg
        for (label, design), res in zip(designs, sims):
            _, raw_inputs = fg.fsm.edge_cover_walk(design.fsm, seed=0)
            expected = fg.simulate_spec(design.fsm, raw_inputs)
            got = [
                fg.coding.decode_exact(design.state_codes, res.port_value("state_e", c))
                for c in range(res.cycles)
            ]
            alerts = [res.port_value("fsm_alert", c) for c in range(res.cycles)]
            checks.add(
                f"{label}: golden netlist trajectory equals simulate_spec",
                got == expected and not any(alerts),
            )
            check_codebooks(fg, checks, label, design)
        for i, (label, _) in enumerate(designs):
            checks.add(
                f"{label}: netlist JSON identical in every rep",
                len({d[i] for d in rep_digests}) == 1,
            )


class Campaign:
    """Load the hardened netlist as `fsmguard inject` does, then run the campaign."""

    def __init__(self, fg, seed: int, cfg: dict):
        self.fg = fg
        self.cfg = cfg
        self.spec = fg.CampaignSpec(**cfg["spec"], seed=seed if cfg["seeded"] else 0)
        # the campaign FSMs are fixed: for big32 the autocover trace length,
        # which sets the cost of every experiment, varies with the generator seed
        self.text = json.dumps(_fsm_doc(cfg["fsm"], 0))

    def harden(self, tracer: Tracer):
        return harden_export(self.fg, tracer, self.text, self.cfg["level"])

    def setup(self, tracer: Tracer):
        fg = self.fg
        t = time.perf_counter()
        design, files = self.harden(tracer)
        harden_s = time.perf_counter() - t
        with tracer.span("netlist.load"):
            netlist = fg.netlist.from_json_dict(json.loads(files["netlist.json"]))
        with tracer.span("coding.load"):
            codes = fg.CodeBook.from_json_dict(json.loads(files["codebook.json"])["state"])
        return dict(design=design, netlist=netlist, codes=codes, words=autocover_words(netlist), harden_s=harden_s)

    def rep(self, tracer: Tracer, state):
        with tracer.span("faults.campaign"):
            report = self.fg.run_campaign(state["netlist"], state["words"], self.spec, state["codes"])
        with tracer.span("faults.report"):
            text = _dumps(report.to_json_dict())
        return report, _sha(text)

    def check(self, checks: Checks, state, report, rep_digests) -> None:
        fg = self.fg
        checks.add("masked + detected + hijack == total",
                   report.masked + report.detected + report.hijack == report.total)
        if self.spec.mode == "sampled":
            checks.add("experiments == sample count", report.total == self.spec.sample_count)
        replayed = sum(
            fg.replay_witness(state["netlist"], state["words"], w, state["codes"])
            for w in report.witnesses
        )
        checks.add("one witness per hijack", len(report.witnesses) == report.hijack)
        checks.add(f"all {len(report.witnesses)} witnesses replay", replayed == len(report.witnesses))
        if self.spec.scope == "diffusion_only":
            checks.add("diffusion hijack rate < 2%", report.hijack_rate < DIFFUSION_HIJACK_LIMIT)
        checks.add("report identical in every rep", len(set(rep_digests)) == 1)
        check_codebooks(fg, checks, self.cfg["fsm"], state["design"])


def _probe_s() -> float:
    t = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    return time.perf_counter() - t


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to the CPU on which a short probe loop runs fastest.

    On a shared host a neighbour can slow one vCPU at a time by about 1.6x
    for a minute (see README.md); this acts on this process only.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe_s(), _probe_s())
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def run_end_to_end(fg, w, seconds: float, cpus, import_s: float, checks: Checks, record: dict) -> dict:
    """Set-up pass plus rep, repeated until ``seconds`` have passed.

    Times of identical reps are reported by their fastest one: on a shared
    host, interference only ever slows a rep down (see README.md). Set-up
    passes run between the reps, so that their median spans the whole run.
    """
    tracer = Tracer(False)
    ladder = isinstance(w, Ladder)
    setup_times, rep_times, harden_times, digests = [], [], [], []
    t0 = time.perf_counter()
    while len(rep_times) < MIN_REPS or time.perf_counter() - t0 < seconds:
        pin_to_fastest_cpu(cpus)
        t = time.perf_counter()
        state = w.setup(tracer)
        setup_times.append(time.perf_counter() - t)
        t = time.perf_counter()
        out = w.rep(tracer, state)
        rep_times.append(time.perf_counter() - t)
        digests.append(out[1])
        if ladder:
            harden_times.append(out[2])
        else:
            # harden the attacked design a few more times, so that harden_s
            # takes its fastest sample from many across the run
            harden_times.append(state["harden_s"])
            t_end = time.perf_counter() + EXTRA_HARDEN_S
            while time.perf_counter() < t_end:
                t = time.perf_counter()
                w.harden(tracer)
                harden_times.append(time.perf_counter() - t)
    record.update(setup_pass_s=setup_times, rep_s=rep_times, harden_s=harden_times)
    metrics = {"setup_s": import_s + statistics.median(setup_times)}
    if ladder:
        designs = out[0]
        w.check(checks, designs, w.golden(designs), digests)
        nets = [d.netlist for _, d in designs]
        # each design's fastest time, summed over the ladder
        metrics["harden_s"] = sum(map(min, zip(*harden_times)))
        # no faults here: the ladder's experiments are its hardening runs
        metrics["experiments_per_s"] = len(designs) / metrics["harden_s"]
        metrics["hijack_rate"] = max(
            fg.theoretical_success_probability(
                int(n.meta["state_width"]), int(n.meta["error_bits_per_block"]) * int(n.meta["k"]), int(n.meta["k"])
            )
            for n in nets
        )
        record["netlist_sha256"] = {label: d for (label, _), d in zip(designs, digests[-1])}
    else:
        report = out[0]
        w.check(checks, state, report, digests)
        nets = [state["netlist"]]
        metrics["harden_s"] = min(harden_times)
        metrics["experiments_per_s"] = report.total / min(rep_times)
        metrics["hijack_rate"] = wilson_upper(report.hijack, report.total)
        record["report_sha256"] = digests[-1]
        record["totals"] = report.to_json_dict()["totals"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["total_gates"] = sum(len(n.gates) for n in nets)
    metrics["max_logic_depth"] = max(logic_depth(n) for n in nets)
    return {k: metrics[k] for k in END_TO_END_UNITS}


def one_pass(w, tracer: Tracer):
    """Set-up plus one rep."""
    state = w.setup(tracer)
    return state, w.rep(tracer, state)


def layer_figures(fg, tracer: Tracer) -> dict:
    self_s = tracer.self_times()
    m = {metric: self_s.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    calls = tracer.sim_calls
    lanes = sum(c.result.lanes for c in calls)
    lane_cycles = sum(c.result.lanes * c.result.cycles for c in calls)
    gate_lane_cycles = sum(len(c.netlist.gates) * c.result.lanes * c.result.cycles for c in calls)
    golden_q = {}
    useful = 0
    for c in calls:
        key = (id(c.netlist), len(c.trace))
        if key not in golden_q:
            golden_q[key] = fg.netlist.simulate_batch(c.netlist, [c.trace]).flop_q
        useful += useful_lane_cycles(c, golden_q[key])
    simulate_s = tracer.total_times("netlist.simulate")
    m.update({
        "netlist.simulate_calls": len(calls),
        "netlist.lanes_per_call": lanes / len(calls) if calls else 0.0,
        "netlist.gate_lane_cycles": gate_lane_cycles,
        "netlist.gate_lane_evals_per_s": gate_lane_cycles / simulate_s if simulate_s else 0.0,
        "netlist.useful_cycle_fraction": useful / lane_cycles if lane_cycles else 0.0,
        "faults.decode_calls": tracer.counts["faults.decode_calls"],
    })
    return m


def design_figures(designs, report) -> dict:
    m = {f"hardening.gates.{s}": 0 for s in STAGES}
    m["coding.state_width_bits"] = m["coding.ctrl_width_bits"] = 0
    for d in designs:
        for tag, count in d.gate_counts_by_tag().items():
            m[f"hardening.gates.{tag or 'untagged'}"] += count
        m["coding.state_width_bits"] += d.state_codes.width
        m["coding.ctrl_width_bits"] += d.ctrl_codes.width
    m["faults.fault_sites"] = int(report.metadata["sites"]) if report else 0
    m["faults.experiments"] = report.total if report else 0
    return m


class _FirstBatchDone(Exception):
    pass


def alloc_peak_mb(fg, w, state) -> float:
    """tracemalloc peak of one extra run_campaign, up to the end of its first
    batch of faulted experiments.

    The seed engine builds every fault atom and experiment before its first
    batch, and later batches reuse the same transient memory, so this is
    within 0.5% of its whole peak (99.9 against 100.2 MB on
    campaign-stuck-big32). Tracing every allocation of a whole run is 15-30x
    slower than the run.
    """
    faults = fg.faults
    orig = faults.simulate_batch

    def first_batch(netlist, input_traces, fault_lanes=None):
        result = orig(netlist, input_traces, fault_lanes)
        if fault_lanes:
            raise _FirstBatchDone
        return result

    faults.simulate_batch = first_batch
    tracemalloc.start()
    try:
        fg.run_campaign(state["netlist"], state["words"], w.spec, state["codes"])
    except _FirstBatchDone:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        faults.simulate_batch = orig
    return peak / 2**20


def run_traced(fg, w, seconds: float, cpus, import_s: float, checks: Checks, record: dict, out_path: Path) -> dict:
    # a warm-up pass takes lazy set-up (matrix registry, first compiles) out of both timings
    one_pass(w, Tracer(False))
    untraced, traced, figures, passes = [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        pin_to_fastest_cpu(cpus)
        t = time.perf_counter()
        one_pass(w, Tracer(False))
        untraced.append(time.perf_counter() - t)
        pin_to_fastest_cpu(cpus)
        tracer = Tracer(True, run=len(traced))
        tracer.install(fg)
        try:
            t = time.perf_counter()
            with tracer.span("bench.pass"):
                state, out = one_pass(w, tracer)
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        figures.append(layer_figures(fg, tracer))
        passes.append({"run": tracer.run, "wall_s": traced[-1], "spans": tracer.spans})
    # the fastest traced pass, so that its layer times add up to trace.wall_s
    fastest = traced.index(min(traced))
    m = dict(figures[fastest])
    if isinstance(w, Ladder):
        designs, report = [d for _, d in out[0]], None
        w.check(checks, out[0], w.golden(out[0]), [out[1]])
    else:
        designs, report = [state["design"]], out[0]
        w.check(checks, state, report, [out[1]])
        m["faults.alloc_peak_mb"] = alloc_peak_mb(fg, w, state)
    m.update(design_figures(designs, report))
    m.setdefault("faults.alloc_peak_mb", 0.0)
    m["package.import_s"] = import_s
    m["trace.wall_s"] = traced[fastest]
    m["trace.untraced_wall_s"] = min(untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    for name, ok in toy_checks(fg):
        checks.add(f"self-test: {name}", ok)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"passes": passes}) + "\n", encoding="utf-8")
    record["spans_file"] = str(out_path.relative_to(ROOT))
    record["layer_self_sum_s"] = sum(m[k] for k in SPAN_METRICS.values() if k != "bench.self_s")
    return {k: m[k] for k in PER_LAYER_UNITS}


def fresh_import_times(n: int) -> list:
    """`import fsmguard` timed in ``n`` fresh interpreters, one after another."""
    code = "import time; t = time.perf_counter(); import fsmguard; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(n)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fsmguard" / "__init__.py").is_file():
        print(f"no fsmguard sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # single-threaded: keep numpy's BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    cpus = sorted(os.sched_getaffinity(0))
    pin_to_fastest_cpu(cpus)
    t = time.perf_counter()
    import fsmguard as fg
    import_s = statistics.median([time.perf_counter() - t] + fresh_import_times(IMPORT_SAMPLES - 1))

    w = Ladder(fg, args.seed) if args.workload == "harden-ladder" else Campaign(fg, args.seed, CAMPAIGNS[args.workload])
    checks = Checks()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        out_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = run_traced(fg, w, args.seconds, cpus, import_s, checks, record, out_path)
        units = PER_LAYER_UNITS
    else:
        metrics = run_end_to_end(fg, w, args.seconds, cpus, import_s, checks, record)
        units = END_TO_END_UNITS
    record["failed_checks"] = checks.failed
    print(json.dumps(record))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": len(checks.results),
        "failed": len(checks.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
