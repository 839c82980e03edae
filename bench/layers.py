"""Per-layer measurement from outside the program.

A ``Tracer`` wraps the module attributes that fsmguard looks up at call time
and records one span (name, start, end, parent, run id) per call. The
helpers below turn spans and recorded simulator calls into per-layer figures.
No file of the program is changed.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.run])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


@dataclass
class SimCall:
    """One ``simulate_batch`` call: its netlist, lane-0 trace, faults and result."""

    netlist: object
    trace: Sequence[dict]
    fault_lanes: Optional[Sequence[Sequence[object]]]
    result: object


class Tracer:
    """Spans in memory; a disabled tracer hands out a span that does nothing,
    so the same workload code runs traced and untraced."""

    def __init__(self, enabled: bool, run: int = 0):
        self.enabled = enabled
        self.run = run
        self.spans: List[list] = []  # [name, start, end, parent index, run id]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.sim_calls: List[SimCall] = []
        self._patches: list = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        self._patch(owner, attr, traced)

    def wrap_simulate(self, owner) -> None:
        orig = owner.simulate_batch

        @functools.wraps(orig)
        def traced(netlist, input_traces, fault_lanes=None):
            with self.span("netlist.simulate"):
                result = orig(netlist, input_traces, fault_lanes)
            self.sim_calls.append(SimCall(netlist, input_traces[0], fault_lanes, result))
            return result

        self._patch(owner, "simulate_batch", traced)

    def count(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, counted)

    def install(self, fg) -> None:
        """Wrap every layer boundary that fsmguard crosses inside harden and
        run_campaign, in the modules where the caller looks the name up."""
        hd, coding, fsm, faults = fg.hardening, fg.coding, fg.fsm, fg.faults
        self.wrap(hd, "state_codebook", "coding.codebook")
        self.wrap(hd, "control_codebook", "coding.codebook")
        self.wrap(hd, "plan_layout", "hardening.layout")
        self.wrap(hd, "solve_modifiers", "hardening.modifiers")
        self.wrap(hd, "solve_gf2", "gf.solve")
        self.wrap(hd, "build_hardened_netlist", "hardening.build")
        for mod in (hd, coding, fsm):
            self.wrap(mod, "extract_cfg", "fsm.cfg")
        self.wrap(fsm, "edge_cover_walk", "fsm.cover_walk")
        self.wrap(fg.netlist.Netlist, "validate", "netlist.validate")
        self.wrap(faults, "golden_run", "faults.golden")
        self.wrap_simulate(faults)
        self.count(faults, "decode_exact", "faults.decode_calls")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- derived figures -----------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        covered: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def total_times(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


def useful_lane_cycles(call: SimCall, golden_q: Sequence[Sequence[int]]) -> int:
    """Lane-cycles of one simulate_batch call at or before each lane's outcome
    became fixed, counted from the lane's first fault cycle.

    A lane's outcome is fixed once the alert flop has latched, once the state
    register is all-zeros (the ERROR codeword), or, when every fault of the
    lane is a transient flip, once the whole flop state equals the golden run
    again after the last flip. A lane without faults needs every cycle.
    ``golden_q`` is ``flop_q`` of a fault-free single-lane run on the same trace.
    """
    res = call.result
    lanes, cycles = res.lanes, res.cycles
    if not call.fault_lanes:
        return lanes * cycles
    full = (1 << lanes) - 1
    flops = call.netlist.flops
    alert_i = [i for i, f in enumerate(flops) if f.tag == "alert_reg"]
    state_i = [i for i, f in enumerate(flops) if f.tag == "state_reg"]
    start_at: Dict[int, int] = defaultdict(int)
    rejoin_from: Dict[int, int] = defaultdict(int)
    for lane, faults in enumerate(call.fault_lanes):
        bit = 1 << lane
        if not faults:
            start_at[0] |= bit
            continue
        start_at[min(f.cycle or 0 for f in faults)] |= bit
        if all(f.effect == "flip" and f.cycle is not None for f in faults):
            rejoin_from[max(f.cycle for f in faults) + 1] |= bit
    pending = may_rejoin = 0
    useful = 0
    for c in range(cycles):
        pending |= start_at.get(c, 0)
        may_rejoin |= rejoin_from.get(c, 0)
        if not pending:
            continue
        q = res.flop_q[c]
        diverged = 0
        for v, g in zip(q, golden_q[c]):
            diverged |= v ^ (full if g & 1 else 0)
        state_any = 0
        for i in state_i:
            state_any |= q[i]
        alert = 0
        for i in alert_i:
            alert |= q[i]
        useful += bin(pending).count("1")
        pending &= ~(alert | (full & ~state_any) | (may_rejoin & ~diverged))
    return useful


def logic_depth(netlist) -> int:
    """Gates on the longest combinational path, counting every gate kind.

    Paths start at flop outputs, input ports and constants and end at flop
    inputs and output ports.
    """
    driven = {g.output for g in netlist.gates}
    users: Dict[str, List[str]] = defaultdict(list)
    pending: Dict[str, int] = {}
    for g in netlist.gates:
        deps = [n for n in g.inputs if n in driven]
        pending[g.output] = len(deps)
        for n in deps:
            users[n].append(g.output)
    depth = {out: 1 for out in pending}
    ready = [out for out, n in pending.items() if n == 0]
    while ready:
        out = ready.pop()
        for u in users[out]:
            depth[u] = max(depth[u], depth[out] + 1)
            pending[u] -= 1
            if pending[u] == 0:
                ready.append(u)
    return max(depth.values(), default=0)


def wilson_upper(hits: int, total: int, z: float = 1.96) -> float:
    """Upper end of the Wilson score interval (95% for z=1.96); above 0 at 0 hits."""
    p = hits / total
    zz = z * z
    centre = p + zz / (2 * total)
    spread = z * math.sqrt(p * (1 - p) / total + zz / (4 * total * total))
    return (centre + spread) / (1 + zz / total)
