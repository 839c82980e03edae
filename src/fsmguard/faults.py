"""Fault-injection campaigns against hardened netlists and outcome classification."""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .coding import CodeBook, decode_exact
from .netlist import (
    FaultSite,
    Netlist,
    SimResult,
    _Compiled,
    _run_ops,
    enumerate_fault_sites,
    simulate_batch,
)

DEFAULT_EXHAUSTIVE_BOUND = 10_000_000
# lanes of the fault-simulation pool; each lane holds one experiment at a time
_POOL_LANES = 256
# effect index = position here; 0 is the one-cycle flip, 1 and 2 are stuck-at
_EFFECTS = ("flip", "stuck0", "stuck1")


class CampaignError(Exception):
    pass


@dataclass(frozen=True)
class CampaignSpec:
    scope: str = "all"
    max_simultaneous_faults: int = 1
    effects: Tuple[str, ...] = ("flip",)
    cycles: Optional[Tuple[int, ...]] = None  # default: every input cycle
    mode: str = "exhaustive"  # "exhaustive" | "sampled"
    sample_count: int = 10_000
    seed: int = 0
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND

    def __post_init__(self):
        if self.max_simultaneous_faults < 1:
            raise CampaignError("max_simultaneous_faults must be >= 1")
        if self.mode not in ("exhaustive", "sampled"):
            raise CampaignError(f"unknown mode {self.mode!r}")
        for e in self.effects:
            if e not in _EFFECTS:
                raise CampaignError(f"unknown effect {e!r}")


@dataclass(frozen=True)
class HijackWitness:
    faults: Tuple[FaultSite, ...]
    cycle: int
    reached_state: str
    golden_state: str

    def to_json_dict(self) -> dict:
        return {
            "faults": [
                {"location": f.location, "effect": f.effect, "cycle": f.cycle}
                for f in self.faults
            ],
            "cycle": self.cycle,
            "reached_state": self.reached_state,
            "golden_state": self.golden_state,
        }


@dataclass
class FaultCampaignReport:
    total: int
    masked: int
    detected: int
    hijack: int
    masked_corrupt: int  # diagnostic subset of masked: silently wrong non-codeword runs
    witnesses: List[HijackWitness]
    theoretical_p: float
    metadata: Dict[str, object] = field(default_factory=dict)
    confidence_interval: Optional[Tuple[float, float]] = None

    @property
    def hijack_rate(self) -> float:
        return self.hijack / self.total if self.total else 0.0

    def to_json_dict(self) -> dict:
        doc = {
            "totals": {
                "total": self.total,
                "masked": self.masked,
                "detected": self.detected,
                "hijack": self.hijack,
                "masked_corrupt": self.masked_corrupt,
            },
            "rates": {
                "masked": self.masked / self.total if self.total else 0.0,
                "detected": self.detected / self.total if self.total else 0.0,
                "hijack": self.hijack_rate,
            },
            "theoretical_p": self.theoretical_p,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "metadata": self.metadata,
        }
        if self.confidence_interval is not None:
            doc["hijack_rate_ci95"] = list(self.confidence_interval)
        return doc

    def summary_table(self) -> str:
        lines = [
            f"{'class':<16}{'count':>10}{'rate':>12}",
            f"{'masked':<16}{self.masked:>10}{self.masked / max(self.total, 1):>12.4%}",
            f"{'detected':<16}{self.detected:>10}{self.detected / max(self.total, 1):>12.4%}",
            f"{'hijack':<16}{self.hijack:>10}{self.hijack_rate:>12.4%}",
            f"{'(corrupt)':<16}{self.masked_corrupt:>10}",
            f"{'total':<16}{self.total:>10}",
            f"theoretical P = {self.theoretical_p:.3e}",
        ]
        if self.confidence_interval:
            lo, hi = self.confidence_interval
            lines.append(f"hijack rate 95% CI: [{lo:.4%}, {hi:.4%}]")
        return "\n".join(lines)


def theoretical_success_probability(state_bits: int, error_bits: int, k: int) -> float:
    """Closed-form attacker success estimate for the diffusion construction."""
    total = state_bits + error_bits
    if total > 32 * k:
        raise CampaignError("state_bits + error_bits exceed the diffusion output space")
    exponent = 32 - total
    if exponent <= 0:
        warnings.warn(
            "success-probability formula degenerates when state+error bits fill a "
            "whole block; value reported as-is",
            stacklevel=2,
        )
    return total / (k * (2.0 ** exponent))


def wilson_interval(hits: int, total: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for ``hits`` of ``total`` (95% for z=1.96).

    Unlike the Wald interval it stays honest at 0 hits: 0 of 500 gives an
    upper bound of about 0.0076, close to the rule of three.
    """
    p = hits / total
    zz = z * z
    centre = p + zz / (2 * total)
    spread = z * math.sqrt(p * (1 - p) / total + zz / (4 * total * total))
    scale = 1 + zz / total
    # at the edges the bound is exactly 0 or 1; computing it could round past p
    lo = 0.0 if hits == 0 else (centre - spread) / scale
    hi = 1.0 if hits == total else (centre + spread) / scale
    return lo, hi


def _word_trace(words: Sequence[int]) -> List[Dict[str, int]]:
    # one extra settle cycle so the final register state and alert are observable
    return [{"x_e": w} for w in words] + [{"x_e": 0}]


def _observe(res: SimResult, lane: int) -> Tuple[List[int], List[int]]:
    """State words and alerts of one lane, one per simulated cycle."""
    cycles = range(res.cycles)
    return (
        [res.port_value("state_e", c, lane) for c in cycles],
        [res.port_value("fsm_alert", c, lane) for c in cycles],
    )


def _golden(
    netlist: Netlist, trace: Sequence[Dict[str, int]], codes: CodeBook
) -> Tuple[SimResult, List[Optional[str]], List[int]]:
    res = simulate_batch(netlist, [trace])
    state_words, alerts = _observe(res, 0)
    return res, [decode_exact(codes, w) for w in state_words], alerts


def golden_run(netlist: Netlist, words: Sequence[int], codes: CodeBook) -> Tuple[List[str], List[int]]:
    """Decoded fault-free trajectory (len(words)+1 states) and per-cycle alert."""
    _, states, alerts = _golden(netlist, _word_trace(words), codes)
    return states, alerts


def _classify(
    golden: Sequence[str],
    state_words: Sequence[int],
    alerts: Sequence[int],
    codes: CodeBook,
) -> Tuple[str, Optional[Tuple[int, str]]]:
    """Returns (class, hijack info). Classes: masked, masked_corrupt, detected, hijack.

    The whole-trace reference for ``_run_pool``: the first cycle that raises
    the alert or holds the ERROR codeword detects; before that, the first
    valid codeword off the golden trajectory is a hijack.
    """
    clean = True
    for c, (word, alert) in enumerate(zip(state_words, alerts)):
        if alert or word == codes.error_codeword:
            return "detected", None
        sym = decode_exact(codes, word)
        if sym != golden[c]:
            if sym is not None:
                return "hijack", (c, sym)
            clean = False
    return ("masked" if clean else "masked_corrupt"), None


def _enumerate_experiments(n_atoms: int, spec: CampaignSpec) -> Iterator[Tuple[int, ...]]:
    """Stream of experiments, each a tuple of fault-atom indices.

    ``random.sample`` indexes a range exactly as it indexes a list of the same
    length, so sampled draws do not depend on the atoms being materialised.
    """
    j = spec.max_simultaneous_faults
    if spec.mode == "exhaustive":
        n_combos = math.comb(n_atoms, j)
        if n_combos > spec.exhaustive_bound:
            raise CampaignError(
                f"{n_combos} experiments exceed the exhaustive bound "
                f"{spec.exhaustive_bound}; use sampled mode"
            )
        return combinations(range(n_atoms), j)
    rng = random.Random(spec.seed)
    return (tuple(rng.sample(range(n_atoms), j)) for _ in range(spec.sample_count))


def _set_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _run_pool(
    comp: _Compiled,
    trace: Sequence[Dict[str, int]],
    golden: SimResult,
    golden_states: Sequence[str],
    codes: CodeBook,
    experiments: Iterator[Tuple[object, Tuple[Tuple[int, int, int], ...]]],
) -> Iterator[Tuple[object, str, Optional[Tuple[int, str]]]]:
    """Classify each experiment as ``_classify`` does on a whole-trace run;
    yields ``(key, class, hijack info)`` in retirement order.

    An experiment is a ``key`` and a tuple of ``(net index, effect index,
    cycle)`` faults.
    It enters a free lane at its first fault cycle with the golden flop state
    of that cycle: all machine state is in the flops, so the cycles before
    match the golden run. Lanes advance one cycle per step; a lane's cycle is
    the step plus its offset, and lanes are grouped by offset so that input
    bits and golden words are packed per group. A lane retires once its
    outcome is fixed: detected or hijacked, or masked once it has no pending
    fault and its next flop state is golden again, or at the end of the trace.
    Its lane then takes the next experiment. Scheduled flips, stuck-at onsets
    and releases carry the lane's generation, which every retirement bumps,
    so they never reach a later occupant of the lane.
    """
    width = _POOL_LANES
    full = (1 << width) - 1
    last = golden.cycles - 1
    ops, flops, stop = comp.ops, comp.flops, comp.op_stop
    end = (len(ops), 0, 0, 0, 0)
    state_idx = comp.out_bits["state_e"]
    alert_idx = comp.out_bits["fsm_alert"]
    err_word = codes.error_codeword
    # per cycle: input nets at 1, golden state_e bits at 1, golden flops at 1
    in_nets = [net for _, nets in comp.in_ports for net in nets]
    in_ones = [
        [net for pname, nets in comp.in_ports for i, net in enumerate(nets) if row[pname] >> i & 1]
        for row in trace
    ]
    state_ones = [[k for k, v in enumerate(bits) if v & 1] for bits in golden.port_bits["state_e"]]
    flop_ones = [[j for j, v in enumerate(q) if v & 1] for q in golden.flop_q]

    values = [0] * comp.n_nets
    st = [0] * len(flops)  # lane-packed flop state
    free = list(range(width))
    gen = [0] * width
    lane_key: List[object] = [None] * width
    lane_off = [0] * width
    lane_stuck: List[Tuple[int, ...]] = [()] * width
    groups: Dict[int, int] = {}  # offset -> lanes
    flips: Dict[int, List[Tuple[int, int, int]]] = {}  # step -> (net, lane, gen)
    onsets: Dict[int, List[Tuple[int, int, int, int]]] = {}  # step -> (net, effect, lane, gen)
    releases: Dict[int, List[Tuple[int, int]]] = {}  # step -> (lane, gen)
    stuck: Dict[int, List[int]] = {}  # net -> [clear, set] lanes
    active = quiet = corrupt = 0
    step = 0
    while True:
        entering: Dict[int, int] = {}  # first fault cycle -> lanes
        while free:
            nxt = next(experiments, None)
            if nxt is None:
                break
            key, faults = nxt
            c0 = min(f[2] for f in faults)
            lane = free.pop()
            bit = 1 << lane
            g = gen[lane]
            off = c0 - step
            lane_key[lane] = key
            lane_off[lane] = off
            groups[off] = groups.get(off, 0) | bit
            entering[c0] = entering.get(c0, 0) | bit
            nets = []
            for net, effect, c in faults:
                at = c - off
                if effect:
                    onsets.setdefault(at, []).append((net, effect, lane, g))
                    nets.append(net)
                else:
                    flips.setdefault(at, []).append((net, lane, g))
            lane_stuck[lane] = tuple(nets)
            if not nets:
                releases.setdefault(max(f[2] for f in faults) - off, []).append((lane, g))
        if not active and not entering:
            return
        for c0, lanes in entering.items():
            active |= lanes
            quiet &= ~lanes
            corrupt &= ~lanes
            for j in range(len(st)):
                st[j] &= ~lanes
            for j in flop_ones[c0]:
                st[j] |= lanes

        for net, effect, lane, g in onsets.pop(step, ()):
            if gen[lane] == g:
                stuck.setdefault(net, [0, 0])[effect - 1] |= 1 << lane
        flipped: Dict[int, int] = {}
        for net, lane, g in flips.pop(step, ()):
            if gen[lane] == g:
                flipped[net] = flipped.get(net, 0) ^ (1 << lane)
        masks = [(stop[net], net, m, 0, 0) for net, m in flipped.items() if net not in stuck]
        masks += [(stop[net], net, flipped.get(net, 0), clr, sets) for net, (clr, sets) in stuck.items()]
        masks.sort()
        masks.append(end)

        for (_, qi, _), v in zip(flops, st):
            values[qi] = v
        for net in in_nets:
            values[net] = 0
        golden_state = [0] * len(state_idx)
        golden_next = [0] * len(flops)
        ending = 0
        for off, lanes in groups.items():
            c = step + off
            for net in in_ones[c]:
                values[net] |= lanes
            for k in state_ones[c]:
                golden_state[k] |= lanes
            if c == last:
                ending |= lanes
            else:
                for j in flop_ones[c + 1]:
                    golden_next[j] |= lanes
        _run_ops(ops, values, full, masks)
        st = [values[d] & full for d, _, _ in flops]

        alert = 0
        for i in alert_idx:
            alert |= values[i]
        diverged = 0
        is_err = 0 if err_word >> len(state_idx) else full
        state_bits = [values[i] for i in state_idx]
        for k, (v, g) in enumerate(zip(state_bits, golden_state)):
            diverged |= v ^ g
            is_err &= v if err_word >> k & 1 else ~v
        detected = (alert | is_err) & active
        hijacked = 0
        for lane in _set_bits(diverged & active & ~detected):
            c = step + lane_off[lane]
            sym = decode_exact(codes, sum((v >> lane & 1) << k for k, v in enumerate(state_bits)))
            if sym == golden_states[c]:
                continue
            if sym is None:
                corrupt |= 1 << lane
            else:
                hijacked |= 1 << lane
                yield lane_key[lane], "hijack", (c, sym)
        for lane in _set_bits(detected):
            yield lane_key[lane], "detected", None

        for lane, g in releases.pop(step, ()):
            if gen[lane] == g:
                quiet |= 1 << lane
        rejoined = 0
        candidates = quiet & active & ~detected & ~hijacked
        if candidates:
            off_golden = 0
            for v, g in zip(st, golden_next):
                off_golden |= v ^ g
            rejoined = candidates & ~off_golden
        settled = (rejoined | ending) & active & ~detected & ~hijacked
        for lane in _set_bits(settled):
            yield lane_key[lane], ("masked_corrupt" if corrupt >> lane & 1 else "masked"), None

        retired = detected | hijacked | settled
        for lane in _set_bits(retired):
            bit = 1 << lane
            gen[lane] += 1
            off = lane_off[lane]
            groups[off] &= ~bit
            if not groups[off]:
                del groups[off]
            for net in lane_stuck[lane]:
                m = stuck.get(net)
                if m:
                    m[0] &= ~bit
                    m[1] &= ~bit
                    if not m[0] | m[1]:
                        del stuck[net]
            free.append(lane)
        active &= ~retired
        step += 1


def run_campaign(
    netlist: Netlist,
    golden_words: Sequence[int],
    spec: CampaignSpec,
    codes: CodeBook,
) -> FaultCampaignReport:
    """Inject every experiment from ``spec``, classify against the golden run.

    The golden run is simulated once; experiments then run in the lane pool
    of ``_run_pool``. Experiments are independent and witnesses are listed in
    enumeration order, so reports do not depend on the pool width.
    """
    trace = _word_trace(golden_words)
    golden, golden_states, golden_alerts = _golden(netlist, trace, codes)
    if any(golden_alerts):
        raise CampaignError("golden run already raises the alert; configuration bug")
    if any(s is None for s in golden_states):
        raise CampaignError("golden run leaves the valid codeword space")
    if codes.error_symbol in golden_states:
        raise CampaignError(
            f"golden run enters the ERROR state {codes.error_symbol!r} at cycle "
            f"{golden_states.index(codes.error_symbol)}"
        )

    sites = enumerate_fault_sites(netlist, spec.scope)
    cycles = tuple(spec.cycles) if spec.cycles is not None else tuple(range(len(golden_words)))
    outside = [c for c in cycles if not 0 <= c < len(golden_words)]
    if outside:
        raise CampaignError(
            f"campaign cycle {outside[0]} is outside the trace (0..{len(golden_words) - 1})"
        )
    # atom index = (site, effect, cycle) in site-major order
    per_site = len(spec.effects) * len(cycles)
    n_atoms = len(sites) * per_site
    if n_atoms < spec.max_simultaneous_faults:
        raise CampaignError("fewer fault atoms than simultaneous faults requested")

    comp = netlist._compile()
    site_nets = [comp.index[s] for s in sites]
    effect_ids = [_EFFECTS.index(e) for e in spec.effects]

    def split(i: int) -> Tuple[int, int, int]:
        site, rest = divmod(i, per_site)
        return (site, *divmod(rest, len(cycles)))

    def atom(i: int) -> Tuple[int, int, int]:
        site, effect, cycle = split(i)
        return site_nets[site], effect_ids[effect], cycles[cycle]

    def fault_site(i: int) -> FaultSite:
        site, effect, cycle = split(i)
        return FaultSite(sites[site], spec.effects[effect], cycles[cycle])

    experiments = (
        ((i, e), tuple(map(atom, e))) for i, e in enumerate(_enumerate_experiments(n_atoms, spec))
    )
    counts = {"masked": 0, "detected": 0, "hijack": 0, "masked_corrupt": 0}
    hijacks: List[Tuple[int, HijackWitness]] = []
    for (idx, e), cls, info in _run_pool(comp, trace, golden, golden_states, codes, experiments):
        counts[cls] += 1
        if cls == "hijack":
            cyc, sym = info
            faults = tuple(map(fault_site, e))
            hijacks.append((idx, HijackWitness(faults, cyc, sym, golden_states[cyc])))
    hijacks.sort(key=lambda h: h[0])
    witnesses = [w for _, w in hijacks]

    meta = dict(netlist.meta)
    k = int(meta.get("k", 1))
    state_bits = int(meta.get("state_width", len(netlist.port("state_e").bits)))
    err_total = int(meta.get("error_bits_per_block", 0)) * k
    theo = theoretical_success_probability(state_bits, err_total, k)

    total = sum(counts.values())
    hijack = counts["hijack"]
    ci = None
    if spec.mode == "sampled" and total:
        ci = wilson_interval(hijack, total)
    report = FaultCampaignReport(
        total=total,
        masked=counts["masked"] + counts["masked_corrupt"],
        detected=counts["detected"],
        hijack=hijack,
        masked_corrupt=counts["masked_corrupt"],
        witnesses=witnesses,
        theoretical_p=theo,
        metadata={
            "scope": spec.scope,
            "effects": list(spec.effects),
            "mode": spec.mode,
            "seed": spec.seed,
            "max_simultaneous_faults": spec.max_simultaneous_faults,
            "sites": len(sites),
            "cycles": len(cycles),
            "trace_length": len(golden_words),
        },
        confidence_interval=ci,
    )
    return report


def replay_witness(
    netlist: Netlist,
    golden_words: Sequence[int],
    witness: HijackWitness,
    codes: CodeBook,
) -> bool:
    """Re-inject a recorded hijack fault set and confirm the same wrong state."""
    golden_states, _ = golden_run(netlist, golden_words, codes)
    res = simulate_batch(netlist, [_word_trace(golden_words)], [list(witness.faults)])
    cls, info = _classify(golden_states, *_observe(res, 0), codes)
    return cls == "hijack" and info == (witness.cycle, witness.reached_state)
