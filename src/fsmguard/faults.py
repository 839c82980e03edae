"""Fault-injection campaigns against hardened netlists and outcome classification."""

from __future__ import annotations

import json
import math
import random
import sys
import time
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .coding import CodeBook, decode_exact
from .netlist import (
    FAULT_EFFECTS,
    FaultSite,
    Netlist,
    SimResult,
    _Compiled,
    _run_ops,
    enumerate_fault_sites,
    simulate_batch,
)

# exhaustive campaigns above this many experiments must be sampled instead
EXHAUSTIVE_BOUND = 10_000_000
# lanes of the fault-simulation pool and of a golden-walk pass; each pool
# lane holds one experiment at a time. Up to about this width the interpreter
# loop, not the int width, sets the cost of a gate pass (on big32, best of 30
# on a shared 2-vCPU host: 0.52 ms at 1,024 lanes, 0.37 ms at 1)
_POOL_LANES = 1024
# lanes of one screen call, one per (fanout stem, golden edge) pair
_SCREEN_LANES = 4096
# the keys of a campaign's record, all present and 0 for a phase that does
# not run; the README lists their meanings
_STATS = (
    "golden_cycles golden_passes golden_lanes golden_s screen_nets screen_stems screen_passes screen_lanes screen_s "
    "settled_without_lane shared_lane flips_settled settle_passes settle_lanes flips_pooled stuck_settled "
    "pool_lanes pool_steps experiments wall_s experiments_per_s"
).split()


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

    def __post_init__(self):
        if self.max_simultaneous_faults < 1:
            raise CampaignError("max_simultaneous_faults must be >= 1")
        if self.mode not in ("exhaustive", "sampled"):
            raise CampaignError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.sample_count < 1:
            raise CampaignError("sample_count must be >= 1 in sampled mode")
        for e in self.effects:
            if e not in FAULT_EFFECTS:
                raise CampaignError(f"unknown effect {e!r}")
        # a repeated effect or cycle would count each of its atoms twice
        for what, items in (("effect", self.effects), ("cycle", self.cycles or ())):
            for i, x in enumerate(items):
                if x in items[:i]:
                    raise CampaignError(f"duplicate {what} {x!r} in the campaign spec")


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


def wilson_interval(hits: int, total: int) -> Tuple[float, float]:
    """95% Wilson score interval for ``hits`` of ``total``.

    Unlike the Wald interval it stays honest at 0 hits: 0 of 500 gives an
    upper bound of about 0.0076, close to the rule of three.
    """
    z = 1.96
    p = hits / total
    zz = z * z
    centre = p + zz / (2 * total)
    spread = z * math.sqrt(p * (1 - p) / total + zz / (4 * total * total))
    scale = 1 + zz / total
    # at the edges the bound is exactly 0 or 1; computing it could round past p
    lo = 0.0 if hits == 0 else (centre - spread) / scale
    hi = 1.0 if hits == total else (centre + spread) / scale
    return lo, hi


def _theoretical_p(netlist: Netlist) -> float:
    """``theoretical_success_probability`` for the layout in ``netlist.meta``,
    read before any simulation so that a bad field fails at once, named."""
    ports = {p.name: p for p in netlist.ports}
    # without state_e, the port check of the golden run fails right after
    state_default = len(ports["state_e"].bits) if "state_e" in ports else 0
    values = []
    for name, default, least in (
        ("k", 1, 1),
        ("state_width", state_default, 0),
        ("error_bits_per_block", 0, 0),
    ):
        value = netlist.meta.get(name, default)
        # bool is an int subclass; int() would take "2" or truncate 1.7
        if type(value) is not int or value < least:
            raise CampaignError(
                f"netlist meta field {name!r} is not an integer >= {least}: {value!r}"
            )
        values.append(value)
    k, state_bits, error_bits = values
    return theoretical_success_probability(state_bits, error_bits * k, k)


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


def _port_nets(netlist: Netlist, words: Sequence[int]) -> Tuple[List[int], ...]:
    """Net indices of ``x_e``, ``state_e`` and ``fsm_alert``, once ``x_e`` is
    found to be the only input port with bits and to fit every word: the
    simulator would drop the high bits of a wide word and read a negative one
    as all ones."""
    ports = {p.name: p for p in netlist.ports}
    for name, direction in (("x_e", "in"), ("state_e", "out"), ("fsm_alert", "out")):
        if name not in ports or ports[name].direction != direction:
            raise CampaignError(f"netlist has no {direction}put port {name!r}")
    for p in netlist.ports:
        if p.direction == "in" and p.bits and p.name != "x_e":
            raise CampaignError(f"netlist has input port {p.name!r} besides x_e")
    width = len(ports["x_e"].bits)
    for i, w in enumerate(words):
        if not 0 <= w < 1 << width:
            raise CampaignError(f"trace word {i} ({w:#x}) does not fit the {width}-bit port x_e")
    bits = netlist._compile().out_bits
    return bits["x_e"], bits["state_e"], bits["fsm_alert"]


def _golden(
    netlist: Netlist,
    words: Sequence[int],
    state_words: Sequence[int],
    stats: Dict[str, float],
    memo: Optional[Dict[int, Tuple[int, int, int]]] = None,
) -> List[Tuple[int, int, int]]:
    """The fault-free run of ``words`` and a settle cycle: one ``(flop state,
    state_e word, fsm_alert)`` triple per cycle, bit ``j`` of the flop state
    being flop ``j``. The cycles, the ``_run_ops`` calls and lanes spent and
    the time taken go into ``stats`` as ``golden_cycles``,
    ``golden_passes``, ``golden_lanes`` and ``golden_s``.

    All machine state is in the flops and ``x_e`` is the only driven input,
    so a cycle depends only on its (flop state, ``x_e`` word) edge, and each
    distinct edge is evaluated once. The walk evaluates every flop state it
    expects or finds under every distinct word of the walk: a missed edge
    is evaluated in one pass together with its flop state under the other
    words, then the expected edges, skipping the edges already evaluated,
    up to ``_POOL_LANES`` lanes.

    ``state_words`` are the valid ``state_e`` words, the codewords of the
    state code. When every ``state_e`` bit is a flop's q net, the walk
    expects each of them under each distinct word: its flop state holds the
    word in those flops and the reset value in the others. A golden run
    that stays on valid codewords with the other flops at reset then takes
    one pass when those edges fit one.

    Every evaluated edge goes into ``memo``, key -> (next flop state,
    ``state_e`` word, ``fsm_alert``), when one is given.
    """
    t0 = time.perf_counter()
    x_nets, state_nets, _ = _port_nets(netlist, words)
    comp = netlist._compile()
    width = len(x_nets)
    walk = [*words, 0]  # the settle cycle shows the final register state and alert
    rows = list(dict.fromkeys(walk))
    state = sum(1 << j for j, (_, _, rv) in enumerate(comp.flops) if rv)
    memo = {} if memo is None else memo
    expected: List[int] = []
    flop_of = {q: j for j, (_, q, _) in enumerate(comp.flops)}
    if all(net in flop_of for net in state_nets):
        others = state & ~sum(1 << flop_of[net] for net in state_nets)  # at reset
        for w in state_words:
            flops = others
            for k, net in enumerate(state_nets):
                flops |= (w >> k & 1) << flop_of[net]
            expected += [flops << width | r for r in rows]
    calls = lanes = 0
    record = []
    for x in walk:
        key = state << width | x
        if key not in memo:
            lanes += _fill(comp, memo, [key, *(state << width | r for r in rows), *expected], _POOL_LANES)
            calls += 1
        state_next, word, alert = memo[key]
        record.append((state, word, alert))
        state = state_next
    stats.update(golden_cycles=len(record), golden_passes=calls, golden_lanes=lanes)
    stats["golden_s"] = time.perf_counter() - t0
    return record


def _fill(
    comp: _Compiled,
    memo: Dict[int, Tuple[int, int, int]],
    keys: Sequence[int],
    limit: Optional[int] = None,
) -> int:
    """Evaluate each distinct key of ``keys`` that ``memo`` lacks, the first
    ``limit`` of them when one is given, in passes of ``_POOL_LANES`` lanes,
    into ``memo``: key -> (next flop state, ``state_e`` word, ``fsm_alert``).
    Returns the lanes spent."""
    missing = [k for k in dict.fromkeys(keys) if k not in memo][:limit]
    for lo in range(0, len(missing), _POOL_LANES):
        batch = missing[lo : lo + _POOL_LANES]
        memo.update(zip(batch, _triples(comp, _eval_edges(comp, batch), len(batch))))
    return len(missing)


def _eval_edges(comp: _Compiled, keys: Sequence[int]) -> List[int]:
    """Every net's value from one ``_run_ops`` call in which lane ``i`` runs
    the edge ``keys[i]``: the ``x_e`` word in the low bits of the key, the
    flop state above them."""
    lane_nets = comp.out_bits["x_e"] + [q for _, q, _ in comp.flops]
    values = [0] * comp.n_nets
    for net, v in zip(lane_nets, _transpose(keys, len(lane_nets))):
        values[net] = v
    _run_ops(comp.ops, values, (1 << len(keys)) - 1, [(len(comp.ops), 0, 0, 0, 0)])
    return values


def _triples(comp: _Compiled, values: Sequence[int], lanes: int) -> List[Tuple[int, int, int]]:
    """The (flop d word, ``state_e`` word, ``fsm_alert``) of each of the
    ``lanes`` lanes of every net's ``values``; no net may hold a bit at or
    above lane ``lanes``."""
    ports = ([d for d, _, _ in comp.flops], comp.out_bits["state_e"], comp.out_bits["fsm_alert"])
    return list(zip(*(_transpose([values[i] for i in nets], lanes) for nets in ports)))


def _transpose(words: Sequence[int], width: int) -> List[int]:
    """Bit ``j`` of ``words[i]`` becomes bit ``i`` of result ``j``."""
    out = [0] * width
    for i, w in enumerate(words):
        bit = 1 << i
        while w:
            low = w & -w
            out[low.bit_length() - 1] |= bit
            w ^= low
    return out


def golden_run(netlist: Netlist, words: Sequence[int], codes: CodeBook) -> Tuple[List[str], List[int]]:
    """Decoded fault-free trajectory (len(words)+1 states) and per-cycle alert."""
    record = _golden(netlist, words, [w for _, w in codes.entries], {})
    return [decode_exact(codes, w) for _, w, _ in record], [a for _, _, a in record]


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
    A single-fault draw is ``randrange(n_atoms)``: ``sample(range(n), 1)``
    makes the same one ``_randbelow(n)`` call, so the stream is the same, at
    a fifth of the cost.
    """
    j = spec.max_simultaneous_faults
    if spec.mode == "exhaustive":
        n_combos = math.comb(n_atoms, j)
        if n_combos > EXHAUSTIVE_BOUND:
            raise CampaignError(
                f"{n_combos} experiments exceed the exhaustive bound "
                f"{EXHAUSTIVE_BOUND}; use sampled mode"
            )
        return combinations(range(n_atoms), j)
    rng = random.Random(spec.seed)
    if j == 1:
        return ((rng.randrange(n_atoms),) for _ in range(spec.sample_count))
    return (tuple(rng.sample(range(n_atoms), j)) for _ in range(spec.sample_count))


def _set_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lanes(mask: int) -> List[int]:
    """The set bits of a wide lane mask, lowest first, in one pass over its
    binary digits. Where many bits are set, as in the pool's detected,
    settled and retired lanes, that beats ``_set_bits``, whose every step
    makes new ints as wide as the mask; where few are, it is slower."""
    return [lane for lane, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _screen(
    comp: _Compiled, golden_values: Sequence[int], n_edges: int, nets: Sequence[int], stats: Dict[str, float],
    keep: bool = False,
) -> Tuple[List[Tuple[int, int]], Dict[int, List[Tuple[int, int, int]]]]:
    """For each of ``nets``, its stem and the golden edges (bit ``e`` for
    edge ``e``) on which flipping the net changes a flop input, ``state_e``
    or ``fsm_alert``; and the faulty observed values of each stem when
    ``keep`` is set. The stems simulated go into ``stats`` as
    ``screen_stems``, and the ``_run_ops`` calls and lanes spent add to its
    ``screen_passes`` and ``screen_lanes``.

    ``golden_values`` holds every net's fault-free value with one lane per
    distinct edge of the golden run, ``n_edges`` lanes in all. Only fanout
    stems are simulated; the flips of the other nets are traced to them
    (critical path tracing). A net that is not observed and that one op
    reads once lies in a fanout-free region: its flip shows where the flip
    of that op's output shows and the op passes it, which depends only on
    the golden values of the op's other inputs. XOR, NOT and BUF always pass
    it; AND where the other input is 1; OR where it is 0; a MUX ``(s, a,
    b)`` passes ``s`` where ``a != b``, ``a`` where ``s`` is 0 and ``b``
    where ``s`` is 1. The chain of such ops ends at a stem: an observed net
    shows on every edge, a net that no op reads shows on none, and a net
    read twice or more, even by one op, is simulated, as is an observed
    stem when ``keep`` is set. Where a net's flip shows, it gives exactly
    the observed values that its stem's flip gives. The readers come from
    ``comp.reader``, copied with every observed net marked as a stem.

    Each simulated stem has a block of ``n_edges`` lanes that start from
    the golden edges and flip it, and a call holds about ``_SCREEN_LANES``
    lanes and runs every op; the last call is only as wide as its blocks.
    Only the flop q and ``x_e`` nets need golden values replicated over the
    blocks: the ops compute every other net.

    With ``keep``, each simulated stem maps to its faulty ``(flop d word,
    state_e word, fsm_alert)`` on each golden edge, so every stem whose flip
    shows anywhere has them.
    """
    ops, stop = comp.ops, comp.op_stop
    observed = [d for d, _, _ in comp.flops] + comp.out_bits["state_e"] + comp.out_bits["fsm_alert"]
    is_observed = set(observed)
    reader = comp.reader.copy()
    for net in observed:  # a stem, whatever reads it
        reader[net] = -2
    block = (1 << n_edges) - 1
    v = golden_values

    # fanout-free net -> (stem, edges on which its flip reaches the stem)
    link: Dict[int, Tuple[int, int]] = {}
    routes = []
    for net in nets:
        path = []  # (net, the op that reads it) down to a stem or a linked net
        while net not in link:
            pos = reader[net]
            if pos < 0:
                break
            op = ops[pos]
            path.append((net, op))
            net = op[1]
        stem, mask = link.get(net, (net, block))
        for net, (kind, _, i, j, k) in reversed(path):
            if kind == 4:  # MUX (sel i, a j, b k)
                mask &= v[j] ^ v[k] if net == i else block ^ v[i] if net == j else v[i]
            elif kind == 1:  # AND
                mask &= v[j] if net == i else v[i]
            elif kind == 2:  # OR
                mask &= block ^ (v[j] if net == i else v[i])
            link[net] = (stem, mask)
        routes.append((stem, mask))
    stems = {stem for stem, _ in routes if (keep if stem in is_observed else reader[stem] == -2)}
    order = sorted(stems, key=stop.__getitem__)

    per_call = max(1, _SCREEN_LANES // n_edges)
    source_nets = comp.out_bits["x_e"] + [q for _, q, _ in comp.flops]
    values = [0] * comp.n_nets
    end = (len(ops), 0, 0, 0, 0)
    stem_shown: Dict[int, int] = {}
    faulty: Dict[int, List[Tuple[int, int, int]]] = {}
    full = 0
    for start in range(0, len(order), per_call):
        picked = order[start : start + per_call]
        width = len(picked) * n_edges
        if full != (1 << width) - 1:  # the first pass, and a narrower last one
            full = (1 << width) - 1
            repeat = full // block  # bit 0 of every block
            sources = [(net, v[net] * repeat) for net in source_nets]
            golden = [(net, v[net] * repeat) for net in observed]
        for net, value in sources:  # a flip mask changes a source in place
            values[net] = value
        masks = [(stop[net], net, block << b * n_edges, 0, 0) for b, net in enumerate(picked)]
        masks.append(end)
        _run_ops(ops, values, full, masks)
        changed = 0
        for net, value in golden:
            changed |= values[net] ^ value
        for b, net in enumerate(picked):
            stem_shown[net] = changed >> b * n_edges & block
        if keep:
            triples = _triples(comp, values, width)
            for b, net in enumerate(picked):
                faulty[net] = triples[b * n_edges : (b + 1) * n_edges]
        stats["screen_passes"] += 1
        stats["screen_lanes"] += width
    stats["screen_stems"] = len(order)
    found = [(stem, mask if stem in is_observed else mask & stem_shown.get(stem, 0)) for stem, mask in routes]
    return found, faulty


class _Activity:
    """The cycles (bit ``c`` for cycle ``c``) at which a fault can change a
    lane that sits on the golden trajectory, looked up by calling it with
    the fault's net and effect index and found on first lookup; ``_activity``
    builds it.

    ``edges`` maps the distinct golden edges, in the order of the lanes of
    ``values``, every net's golden value on each edge, to their cycles;
    ``routes`` maps each screened net to its stem and the edges on which its
    flip shows, and ``faulty`` holds the faulty triples that ``_screen``
    kept. A mask of edges turns into cycles ``size`` edges at a time, from
    one table per group of ``size`` edges that holds the cycles of each of
    its subsets. ``lookups`` bounds the distinct lookups to come: a group's
    table holds at most a quarter as many masks, up to eight edges a group,
    so a few lookups on a long trace with many edges build small tables.
    """

    def __init__(
        self,
        edges: Dict[int, int],
        values: List[int],
        routes: Dict[int, Tuple[int, int]],
        faulty: Dict[int, List[Tuple[int, int, int]]],
        lookups: int,
    ):
        self.edge_cycles = list(edges.values())
        self.every = (1 << len(self.edge_cycles)) - 1
        self.values = values
        self.routes = routes
        self.faulty = faulty
        self.found: Dict[Tuple[int, int], int] = {}
        self.size = size = max(1, min(8, lookups.bit_length() - 3))
        # tables[g][s]: the cycles of the edges of group g whose bits are set in s
        self.tables: List[List[int]] = []
        for lo in range(0, len(self.edge_cycles), size):
            table = [0]
            for cycles in self.edge_cycles[lo : lo + size]:
                table += [t | cycles for t in table]
            self.tables.append(table)

    def __call__(self, net: int, effect: int) -> int:
        found = self.found.get((net, effect))
        if found is None:
            every, size = self.every, self.size
            route = self.routes.get(net)
            edges = (every, self.values[net], every ^ self.values[net])[effect] & (route[1] if route else every)
            found = 0
            low = (1 << size) - 1
            for table in self.tables:
                found |= table[edges & low]
                edges >>= size
            self.found[net, effect] = found
        return found


def _activity(
    comp: _Compiled,
    golden: Sequence[Tuple[int, int, int]],
    words: Sequence[int],
    spec: CampaignSpec,
    site_nets: Sequence[int],
    n_atoms: int,
    atom: Callable[[int], Tuple[int, int, int]],
    stats: Dict[str, float],
) -> Optional[_Activity]:
    """The activity lookup of a campaign (see ``_Activity``). The nets
    screened go into ``stats`` as ``screen_nets``, the ``_run_ops`` calls
    and lanes spent as ``screen_passes`` and ``screen_lanes``, with the
    screen's, and the time taken as ``screen_s``. A campaign without a
    stuck-at effect gets no lookup, spends nothing, and its flips are
    active at their own cycles.

    Every net's golden value comes from one ``_eval_edges`` call with one
    lane per distinct edge of the ``_golden`` record ``golden`` of ``words``,
    so the work grows with the edges of the trace, not its length. A
    stuck-at fault forces its net to a value ``V`` from its onset on, which
    changes nothing at a cycle where the golden net value is ``V``, and is the
    same as flipping the net at any other cycle. So a single stuck-at fault
    is active where its net differs from ``V`` and ``_screen`` finds that a
    flip of the net shows, and a single flip where the flip shows; the
    screen traces most nets' flips through the golden values and simulates
    only fanout stems. A single-fault campaign screens the nets of all its
    atoms up front: every site's net in exhaustive mode, the drawn ones in
    sampled mode, found by a second pass over the seeded stream. When such a
    campaign also flips, the screen keeps its stems' faulty values for
    ``_settle_flips``. Several faults are active wherever a stuck net
    differs from its value, and flips at every cycle, without the screen,
    because two faults that each show nowhere can show together.
    """
    if all(e == "flip" for e in spec.effects):
        return None
    t0 = time.perf_counter()
    width = len(comp.out_bits["x_e"])
    edges: Dict[int, int] = {}  # key -> cycles
    for c, ((q, _, _), x) in enumerate(zip(golden, (*words, 0))):
        key = q << width | x
        edges[key] = edges.get(key, 0) | 1 << c
    values = _eval_edges(comp, list(edges))
    stats.update(screen_passes=1, screen_lanes=len(edges))
    routes: Dict[int, Tuple[int, int]] = {}
    faulty: Dict[int, List[Tuple[int, int, int]]] = {}
    nets = list(dict.fromkeys(site_nets))
    lookups = len(nets) * len(spec.effects)  # distinct (net, effect) pairs at most
    if spec.mode == "sampled":
        lookups = min(lookups, spec.sample_count * spec.max_simultaneous_faults)
    if spec.max_simultaneous_faults == 1:
        if spec.mode == "sampled":
            nets = list(dict.fromkeys(atom(i)[0] for (i,) in _enumerate_experiments(n_atoms, spec)))
        found, faulty = _screen(comp, values, len(edges), nets, stats, keep="flip" in spec.effects)
        routes = dict(zip(nets, found))
    stats.update(screen_nets=len(routes), screen_s=time.perf_counter() - t0)
    return _Activity(edges, values, routes, faulty, lookups)


def _settle_flips(
    comp: _Compiled,
    act: _Activity,
    golden: Sequence[Tuple[int, int, int]],
    golden_states: Sequence[str],
    words: Sequence[int],
    codes: CodeBook,
    memo: Dict[int, Tuple[int, int, int]],
    campaign: int,
    stats: Dict[str, float],
) -> Dict[int, List]:
    """The outcome of a single flip of each stem of ``act.routes`` at each
    campaign cycle (bit ``c`` of ``campaign``), exactly as ``_classify``
    finds it on a whole-trace run. The ``_eval_edges`` calls and lanes spent
    go into ``stats`` as ``settle_passes`` and ``settle_lanes``. Flips of a
    net whose route ends at a stem share its outcome at each cycle at which
    they show.

    The outcome is ``[detected, masked, masked_corrupt, pooled, hijacked,
    hijacks]``: five masks of cycles and, per hijacked cycle, its
    ``(cycle, state)``.

    All machine state is in the flops, so a flip at cycle ``c`` acts only
    through its faulty ``(flop d, state_e, fsm_alert)`` at ``c``, which
    depends on ``c``'s golden edge alone. ``act.faulty`` holds it for every
    stem whose flip shows: the screen simulated each of them, observed
    stems included. A stem it lacks shows nowhere, and its outcome is
    empty. The alert or the ERROR word detects; else a valid word off the
    golden one is a hijack and an invalid one marks the run corrupt; a
    ``d`` equal to the golden next flop state rejoins the golden run. A run
    still off golden runs ``c + 1`` from its faulty flop state under that
    cycle's word, is classified in the same way, and ends there at the last
    cycle. Those edges are looked up in ``memo``, the golden run's (key ->
    next flop state, ``state_e``, ``fsm_alert``), and the ones it lacks are
    evaluated in passes of ``_POOL_LANES`` lanes. A flip still off golden
    after ``c + 1`` is pooled, for ``_run_pool`` to run from ``c``. The
    outcome at ``c + 1`` depends only on the stem, ``c``'s golden edge, the
    word of ``c + 1`` and whether ``c + 1`` is the last cycle, so it is
    found once for each such key and holds for all of its cycles.

    A single stuck-at fault first acts at ``c`` as the flip there does, and
    is held at ``c + 1``. When its net lies outside ``comp.out_cone``, it
    cannot change ``state_e`` or ``fsm_alert`` at ``c + 1``, so a flip
    outcome of detected or hijacked at ``c`` is its outcome too.
    """
    err, width, xs, last = codes.error_codeword, len(comp.out_bits["x_e"]), (*words, 0), len(golden) - 1

    def classify(c: int, nxt: int, word: int, alert: int, dirty: int) -> Tuple[int, object]:
        """The outcome index at cycle ``c`` of a run that was golden before
        ``c`` or, with ``dirty`` set, corrupt: with the state reached for a
        hijack (4), and otherwise the corrupt flag, 3 meaning still off
        golden."""
        if alert or word == err:
            return 0, dirty
        if word != golden[c][1]:
            sym = decode_exact(codes, word)
            if sym != golden_states[c]:
                if sym is not None:
                    return 4, sym
                dirty = 1
        if c == last or nxt == golden[c + 1][0]:
            return 1 + dirty, dirty
        return 3, dirty

    # per golden edge, its campaign cycles c, split by the word of c + 1 and
    # by whether c + 1 is the last cycle: with the faulty values at c, these
    # fix the outcome at c + 1
    edge_cycles = [cycles & campaign for cycles in act.edge_cycles]
    follow: List[Dict[Tuple[int, bool], int]] = []
    for cycles in edge_cycles:
        split: Dict[Tuple[int, bool], int] = {}
        for c in _set_bits(cycles):
            after = xs[c + 1], c + 1 == last
            split[after] = split.get(after, 0) | 1 << c
        follow.append(split)

    outcomes: Dict[int, List] = {}
    pending = []  # (outcome, corrupt flag, key of the cycle after, cycles)
    for stem, _ in act.routes.values():
        if stem in outcomes:
            continue
        out = outcomes[stem] = [0, 0, 0, 0, 0, {}]
        for cycles, (nxt, word, alert), split in zip(edge_cycles, act.faulty.get(stem, ()), follow):
            if not cycles:
                continue
            k, x = classify((cycles & -cycles).bit_length() - 1, nxt, word, alert, 0)
            if k == 3:
                pending += [(out, x, nxt << width | w, group) for (w, _), group in split.items()]
                continue
            out[k] |= cycles
            if k == 4:
                out[5].update((c, (c, x)) for c in _set_bits(cycles))

    lanes = _fill(comp, memo, [key for _, _, key, _ in pending])
    stats.update(settle_passes=-(-lanes // _POOL_LANES), settle_lanes=lanes)
    for out, dirty, key, cycles in pending:
        c = (cycles & -cycles).bit_length() - 1
        k, x = classify(c + 1, *memo[key], dirty)
        out[k] |= cycles
        if k == 4:
            out[5].update((c, (c + 1, x)) for c in _set_bits(cycles))
    return outcomes


def _run_pool(
    comp: _Compiled,
    words: Sequence[int],
    golden: Sequence[Tuple[int, int, int]],
    golden_states: Sequence[str],
    codes: CodeBook,
    stats: Dict[str, float],
    experiments: Iterator[Tuple[object, Tuple[Tuple[int, int, int], ...], int]],
) -> Iterator[Tuple[object, str, Optional[Tuple[int, str]]]]:
    """Classify each experiment as ``_classify`` does on a whole-trace run;
    yields ``(key, class, hijack info)`` in retirement order.

    ``golden`` is the ``_golden`` record of ``words``. An experiment is a
    ``key``, a tuple of ``(net index, effect index, cycle)`` faults and its
    activity mask: the cycles at which its faults can change a lane that
    sits on the golden trajectory, as ``_activity`` finds; it is never
    empty. In a single-fault campaign with a stuck-at effect, a flip comes
    here only when ``_settle_flips`` leaves it off golden after the cycle
    after its own; when the campaign also flips, a stuck-at group comes here
    only when its net lies in ``comp.out_cone`` or its flip at the group's
    first active cycle is not detected or hijacked by the cycle after. A
    flip-only or multi-fault campaign sends every experiment with a
    non-empty mask. All machine state is in the flops, so a lane in the
    golden flop state at a cycle outside its mask repeats the golden run
    exactly, and a lane is occupied only while its experiment is active or
    its flop state is off golden. The experiment enters a free lane at the
    lowest cycle of its mask, with the golden flop state of that cycle and
    every stuck-at fault whose onset has passed. Lanes advance one cycle per
    step; a lane's cycle is the step plus its offset, and lanes are grouped
    by offset so that input bits and golden words are packed per group. A
    step is one ``_run_ops`` pass over all ``_POOL_LANES`` lanes, whose cost
    hardly grows with the width up to about a thousand lanes, so a wide pool
    takes fewer steps. Once the pool is empty, ``stats`` gets the lanes
    entered, an experiment queued again entering once more, as
    ``pool_lanes``, and the steps taken as ``pool_steps``.

    A lane retires once its outcome is fixed: detected or hijacked; at the
    end of the trace; or, once the run of consecutive mask cycles it entered
    at is over, when its next flop state is golden again. A lane that
    rejoins golden with no mask cycle left is masked; otherwise its
    experiment is queued again at its next mask cycle, carrying its corrupt
    flag. Queued experiments take free lanes before new ones, so the queue
    never outgrows the pool.

    The bookkeeping works on lane masks once per step: the lanes entering
    at a step are cleared and loaded in one sweep, and the lanes retiring
    leave the groups, the stuck-at masks and the active set in another. A
    fault that acts at the entry cycle (every single fault: a flip there, a
    stuck-at fault whose onset has passed) is applied as its lane enters,
    and a lane whose run is one cycle long is released at once. Only
    deferred items wait for their step, in one schedule ``due`` of ``(lane,
    generation, net, effect)`` entries: the later faults of a multi-fault
    experiment, and the end of a longer run with net ``-1``. They alone
    carry the lane's generation, which every retirement bumps, so they never
    reach a later occupant of the lane.
    """
    width = _POOL_LANES
    full = (1 << width) - 1
    last = len(golden) - 1
    ops, flops, stop = comp.ops, comp.flops, comp.op_stop
    end = (len(ops), 0, 0, 0, 0)
    state_idx = comp.out_bits["state_e"]
    alert_idx = comp.out_bits["fsm_alert"]
    err_word = codes.error_codeword
    # per cycle: x_e nets at 1 (the settle cycle drives 0), golden state_e
    # bits at 1, golden flops at 1; each distinct value is split into bits once
    in_nets = comp.out_bits["x_e"]
    xs = (*words, 0)
    distinct = {*xs, *(q for q, _, _ in golden), *(w for _, w, _ in golden)}
    ones = {v: list(_set_bits(v)) for v in distinct}
    x_nets = {x: [in_nets[i] for i in ones[x]] for x in set(xs)}
    in_ones = [x_nets[x] for x in xs]
    state_ones = [ones[w] for _, w, _ in golden]
    flop_ones = [ones[q] for q, _, _ in golden]

    values = [0] * comp.n_nets
    st = [0] * len(flops)  # lane-packed flop state
    free = list(range(width))
    gen = [0] * width
    lane_exp: List[Tuple[object, Tuple[Tuple[int, int, int], ...], int]] = [(None, (), 0)] * width
    lane_off = [0] * width
    queue: List[Tuple[Tuple[object, Tuple[Tuple[int, int, int], ...], int], int]] = []  # + corrupt flag
    groups: Dict[int, int] = {}  # offset -> lanes
    due: Dict[int, List[Tuple[int, int, int, int]]] = {}  # step -> (lane, gen, net or -1 to release, effect)
    stuck: Dict[int, List[int]] = {}  # net -> [clear, set] lanes
    active = quiet = corrupt = 0
    step = entered = 0
    while True:
        entering: Dict[int, int] = {}  # entry cycle -> lanes
        carried = held = 0  # entering lanes already corrupt; with a release to come
        flipped: Dict[int, int] = {}  # net -> lanes flipped this step
        while free:
            if queue:
                exp, dirty = queue.pop()
            else:
                exp = next(experiments, None)
                if exp is None:
                    break
                dirty = 0
            _, faults, mask = exp
            low = mask & -mask
            c0 = low.bit_length() - 1
            lane = free.pop()
            bit = 1 << lane
            lane_exp[lane] = exp
            lane_off[lane] = c0 - step
            entering[c0] = entering.get(c0, 0) | bit
            if dirty:
                carried |= bit
            for net, effect, c in faults:
                # a later fault waits for its step; a flip before c0 is spent;
                # a stuck-at fault whose onset has passed starts at c0
                if c > c0:
                    due.setdefault(step + c - c0, []).append((lane, gen[lane], net, effect))
                elif effect:
                    stuck.setdefault(net, [0, 0])[effect - 1] |= bit
                elif c == c0:
                    flipped[net] = flipped.get(net, 0) ^ bit
            if mask & low << 1:
                # the lane may rejoin golden from the last cycle of this run of mask bits
                run = mask >> c0
                due.setdefault(step + (run ^ run + 1).bit_length() - 2, []).append((lane, gen[lane], -1, 0))
                held |= bit
        if not active and not entering:
            stats.update(pool_lanes=entered, pool_steps=step)
            return
        if entering:
            incoming = sum(entering.values())  # the entry cycles' lanes are disjoint
            entered += incoming.bit_count()
            keep = full ^ incoming
            st = [v & keep for v in st]
            for c0, lanes in entering.items():
                for j in flop_ones[c0]:
                    st[j] |= lanes
                off = c0 - step
                groups[off] = groups.get(off, 0) | lanes
            active |= incoming
            quiet = quiet & keep | incoming ^ held
            corrupt = corrupt & keep | carried

        for lane, g, net, effect in due.pop(step, ()):
            if gen[lane] != g:
                continue
            if net < 0:  # quiet is read only after the gate pass
                quiet |= 1 << lane
            elif effect:
                stuck.setdefault(net, [0, 0])[effect - 1] |= 1 << lane
            else:
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
            is_err &= v if err_word >> k & 1 else full ^ v
        detected = (alert | is_err) & active
        live = active ^ detected  # neither detected nor, below, hijacked
        hijacked = 0
        for lane in _set_bits(diverged & live):
            c = step + lane_off[lane]
            sym = decode_exact(codes, sum((v >> lane & 1) << k for k, v in enumerate(state_bits)))
            if sym == golden_states[c]:
                continue
            if sym is None:
                corrupt |= 1 << lane
            else:
                hijacked |= 1 << lane
                yield lane_exp[lane][0], "hijack", (c, sym)
        for lane in _lanes(detected):
            yield lane_exp[lane][0], "detected", None
        live ^= hijacked

        settled = ending & live
        candidates = quiet & live
        if candidates:
            off_golden = 0
            for v, g in zip(st, golden_next):
                off_golden |= v ^ g
            settled |= candidates ^ (candidates & off_golden)
        for lane in _lanes(settled):
            key, faults, mask = lane_exp[lane]
            after = step + lane_off[lane] + 1
            if mask >> after:
                queue.append(((key, faults, mask >> after << after), corrupt >> lane & 1))
            else:
                yield key, ("masked_corrupt" if corrupt >> lane & 1 else "masked"), None

        retired = detected | hijacked | settled
        if retired:
            keep = full ^ retired
            active &= keep
            groups = {off: rest for off, lanes in groups.items() if (rest := lanes & keep)}
            for net, m in list(stuck.items()):
                m[0] &= keep
                m[1] &= keep
                if not m[0] | m[1]:
                    del stuck[net]
            lanes = _lanes(retired)
            for lane in lanes:
                gen[lane] += 1
            free += lanes
        step += 1


def run_campaign(
    netlist: Netlist,
    golden_words: Sequence[int],
    spec: CampaignSpec,
    codes: CodeBook,
) -> FaultCampaignReport:
    """Inject every experiment from ``spec``, classify against the golden run.

    The golden run is computed once by ``_golden``, which evaluates each
    distinct (flop state, ``x_e`` word) edge of the trace once. Each
    experiment then gets its activity mask from the lookup that ``_activity``
    builds before the pool starts. An empty mask is masked without a lane.

    Single faults all take one path: items of a net, an effect and its
    onset cycles, one per (net, effect) with every campaign cycle in
    exhaustive mode and one per draw in sampled mode, so an exhaustive
    campaign is counted per (net, effect) rather than per experiment. In a
    campaign that both flips and sticks, ``_settle_flips`` classifies each
    flip at its cycle and the next from the screen's faulty values, and the
    flips of a net are counted from its stem's outcome masks over the cycles
    where they show; only flips still off golden after that take a lane.
    Stuck-at onsets of a net are grouped by the first active cycle they
    reach: they all enter the lane pool of ``_run_pool`` there with the
    fault active, as one experiment whose members each count its outcome.
    When the campaign also flips, a group whose net lies outside the fan-in
    cone of ``state_e`` and ``fsm_alert`` takes the outcome of its flip at
    that cycle, if that is detected or hijacked, without a lane (see
    ``_settle_flips``). A flip-only campaign has no screen and pools every
    flip; a multi-fault experiment takes a lane of its own. A witness is
    built only for a hijack, one per member.

    The gate passes, lanes and timings of the golden run, the screen, the
    settling and the pool, and the experiments that each path settled, go
    into one dict of the ``_STATS`` keys, logged as one INFO record
    ``campaign: {json}`` on the ``fsmguard`` logger; the report holds none
    of them. Experiments are independent and witnesses are listed in
    enumeration order, so reports do not depend on the pool width.
    """
    t0 = time.perf_counter()
    stats: Dict[str, float] = dict.fromkeys(_STATS, 0)
    theo = _theoretical_p(netlist)
    memo: Dict[int, Tuple[int, int, int]] = {}
    golden = _golden(netlist, golden_words, [w for _, w in codes.entries], stats, memo)
    golden_states = [decode_exact(codes, w) for _, w, _ in golden]
    if any(alert for _, _, alert in golden):
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
    effect_ids = [FAULT_EFFECTS.index(e) for e in spec.effects]
    # (effect index, cycle) of each atom of a site, in atom order
    within = [(effect, c) for effect in effect_ids for c in cycles]

    def atom(i: int) -> Tuple[int, int, int]:
        site, rest = divmod(i, per_site)
        effect, c = within[rest]
        return site_nets[site], effect, c

    def fault_site(i: int) -> FaultSite:
        site, rest = divmod(i, per_site)
        effect, c = within[rest]
        return FaultSite(sites[site], FAULT_EFFECTS[effect], c)

    stream = _enumerate_experiments(n_atoms, spec)  # checks the exhaustive bound before the screen
    single = spec.max_simultaneous_faults == 1
    active = _activity(comp, golden, golden_words, spec, site_nets, n_atoms, atom, stats)
    campaign = sum(1 << c for c in cycles)
    flips: Dict[int, List] = {}  # stem -> outcome of its single flips
    if active is not None and single and "flip" in spec.effects:
        flips = _settle_flips(comp, active, golden, golden_states, golden_words, codes, memo, campaign, stats)
    counts = {"masked": 0, "detected": 0, "hijack": 0, "masked_corrupt": 0}
    hijacks: List[Tuple[int, HijackWitness]] = []

    def witness(i: int, e: Tuple[int, ...], cyc: int, sym: str) -> None:
        hijacks.append((i, HijackWitness(tuple(map(fault_site, e)), cyc, sym, golden_states[cyc])))

    Lane = Tuple[List[Tuple[int, Tuple[int, ...]]], Tuple[Tuple[int, int, int], ...], int]
    position = {c: k for k, c in enumerate(cycles)}

    def single_faults(items: Iterator[Tuple[int, int, int, int, int]]) -> Iterator[Lane]:
        """The pool's lanes of a single-fault campaign, from ``(net, effect,
        onsets, first, offset)`` items: the fault of ``net`` with ``effect``
        at each cycle ``c`` of the mask ``onsets`` is atom ``first +
        position[c]``, and its experiment index is ``offset`` more. Its
        counts go into ``stats`` once the items are spent."""
        idle = shared = settled = pooled = stuck_settled = 0
        cone = comp.out_cone if flips else ()
        for net, effect, onsets, first, offset in items:
            if not effect:
                pool = onsets
                if flips:  # counted per cycle where the flip shows, from its stem's outcome
                    shown = active(net, 0) & onsets
                    detected, masked, corrupt, pool, hijacked, info = flips[active.routes[net][0]]
                    idle += (onsets ^ shown).bit_count()
                    counts["detected"] += (shown & detected).bit_count()
                    counts["masked"] += (shown & masked).bit_count()
                    counts["masked_corrupt"] += (shown & corrupt).bit_count()
                    counts["hijack"] += (shown & hijacked).bit_count()
                    settled += (shown & (detected | masked | corrupt | hijacked)).bit_count()
                    for c in _set_bits(shown & hijacked):
                        a = first + position[c]
                        witness(a + offset, (a,), *info[c])
                    pool &= shown
                while pool:
                    low = pool & -pool
                    pool ^= low
                    c = low.bit_length() - 1
                    a = first + position[c]
                    pooled += 1
                    yield [(a + offset, (a,))], ((net, 0, c),), low
                continue
            # the onsets up to an active cycle c1 first act at c1, as its flip
            # does; outside the cone the held fault cannot change that outcome
            out = flips and net not in cone and flips[active.routes[net][0]]
            mask = active(net, effect)
            rest = onsets  # onsets not yet grouped
            while rest:
                m = mask & -(rest & -rest)  # active from the first onset left on
                if not m:
                    break
                c1 = (m & -m).bit_length() - 1
                group = rest & (2 << c1) - 1
                rest ^= group
                n = group.bit_count()
                if out and out[0] >> c1 & 1:
                    counts["detected"] += n
                    stuck_settled += n
                    continue
                members = []
                while group:
                    low = group & -group
                    group ^= low
                    a = first + position[low.bit_length() - 1]
                    members.append((a + offset, (a,)))
                if out and out[4] >> c1 & 1:
                    counts["hijack"] += n
                    stuck_settled += n
                    for i, e in members:
                        witness(i, e, *out[5][c1])
                    continue
                shared += n - 1
                yield members, ((net, effect, c1),), m
            idle += rest.bit_count()
        stats.update(settled_without_lane=idle, shared_lane=shared, flips_settled=settled)
        stats.update(flips_pooled=pooled, stuck_settled=stuck_settled)

    def draws() -> Iterator[Lane]:
        """The pool's lanes of a multi-fault campaign, one experiment each."""
        idle = 0
        for i, e in enumerate(stream):
            faults = tuple(map(atom, e))
            mask = 0
            for net, effect, c in faults:
                mask |= active(net, effect) >> c << c if effect else 1 << c
            if mask:
                yield [(i, e)], faults, mask
            else:
                idle += 1
        stats["settled_without_lane"] = idle

    if not single:
        experiments = draws()
    elif spec.mode == "exhaustive":  # one item per (net, effect); experiment i is atom i
        n_cycles = len(cycles)
        experiments = single_faults(
            (net, effect, campaign, site * per_site + k * n_cycles, 0)
            for site, net in enumerate(site_nets)
            for k, effect in enumerate(effect_ids)
        )
    else:  # one item per draw

        def drawn() -> Iterator[Tuple[int, int, int, int, int]]:
            # per atom of a site: its effect, onset mask and cycle position
            onset = [(effect, 1 << c, position[c]) for effect, c in within]
            for i, (a,) in enumerate(stream):
                site, rest = divmod(a, per_site)
                effect, mask, k = onset[rest]
                yield site_nets[site], effect, mask, a - k, i - a

        experiments = single_faults(drawn())
    for members, cls, info in _run_pool(comp, golden_words, golden, golden_states, codes, stats, experiments):
        counts[cls] += len(members)
        if cls == "hijack":
            for i, e in members:
                witness(i, e, *info)
    counts["masked"] += stats["settled_without_lane"]

    total = sum(counts.values())
    wall = time.perf_counter() - t0
    stats.update(experiments=total, wall_s=wall, experiments_per_s=total / wall if wall else 0.0)
    # importing logging costs about 8 ms and 0.6 MB, so it is used only once
    # the application has loaded it: before that, no handler is configured
    # that could emit an INFO record
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger("fsmguard")
    if log and log.isEnabledFor(logging.INFO):
        log.info("campaign: %s", json.dumps(stats, sort_keys=True))
    hijack = counts["hijack"]
    sampled = spec.mode == "sampled" and total
    return FaultCampaignReport(
        total=total,
        masked=counts["masked"] + counts["masked_corrupt"],
        detected=counts["detected"],
        hijack=hijack,
        masked_corrupt=counts["masked_corrupt"],
        witnesses=[w for _, w in sorted(hijacks, key=lambda h: h[0])],
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
        confidence_interval=wilson_interval(hijack, total) if sampled else None,
    )


def replay_witness(
    netlist: Netlist,
    golden_words: Sequence[int],
    witness: HijackWitness,
    codes: CodeBook,
) -> bool:
    """Re-inject a recorded hijack fault set and confirm the same wrong state.

    The golden states come from a fault-free lane 0 of the same
    ``simulate_batch`` call, so the check does not rest on ``_golden``.
    """
    _port_nets(netlist, golden_words)
    trace = _word_trace(golden_words)
    res = simulate_batch(netlist, [trace, trace], [[], list(witness.faults)])
    golden_states = [decode_exact(codes, w) for w in res.port_column("state_e")]
    cls, info = _classify(golden_states, *_observe(res, 1), codes)
    return cls == "hijack" and info == (witness.cycle, witness.reached_state)
