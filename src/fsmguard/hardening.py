"""Build the fault-hardened next-state function and surrounding FSM skeleton.

Pipeline: codebook generation -> block layout -> per-edge modifier solving ->
gate-level netlist with pattern match, modifier selection, mix wiring, XOR
diffusion blocks, unmix taps, and error infection.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from . import fsm as fsm_mod
from .coding import CodeBook, control_codebook, encode_edge_trace, state_codebook
from .fsm import FsmSpec, Transition, extract_cfg
# bench/layers.py times solve_gf2 under this module's name
from .gf import BLOCK_BITS, MdsSpec, default_mds, gf2_reduce, mds_apply, solve_gf2
from .netlist import VERILOG_KEYWORDS, Netlist, verilog_name


class HardeningError(Exception):
    pass


class LayoutError(HardeningError):
    pass


class ModifierSolveError(HardeningError):
    def __init__(self, edge: Transition, detail: str):
        self.edge = edge
        super().__init__(f"no modifier for edge {edge.src}->{edge.dst} [{edge.guard_label()}]: {detail}")


@dataclass(frozen=True)
class HardeningConfig:
    protection_level: int
    seed: int = 0

    def __post_init__(self):
        if self.protection_level < 2:
            raise HardeningError(
                "protection level must be >= 2; with N=1 there is no redundancy to detect anything"
            )


BitMap = Tuple[Tuple[int, int], ...]  # bit index -> (block, position)


@dataclass(frozen=True)
class BlockLayout:
    """Assignment of state/control/modifier bits to 32-bit diffusion blocks."""

    k: int
    error_bits: int
    state_in: BitMap
    ctrl_in: BitMap
    mod_in: BitMap
    state_out: BitMap
    error_out: BitMap

    @property
    def mod_width(self) -> int:
        return len(self.mod_in)

    def pack_block_inputs(self, sc_word: int, xe_word: int, modifier: int) -> List[int]:
        """The k 32-bit diffusion inputs for a (state, control, modifier) triple."""
        blocks = [0] * self.k
        for j, (b, p) in enumerate(self.state_in):
            blocks[b] |= ((sc_word >> j) & 1) << p
        for j, (b, p) in enumerate(self.ctrl_in):
            blocks[b] |= ((xe_word >> j) & 1) << p
        for j, (b, p) in enumerate(self.mod_in):
            blocks[b] |= ((modifier >> j) & 1) << p
        return blocks

    def unpack_state(self, block_outputs: Sequence[int]) -> int:
        word = 0
        for j, (b, p) in enumerate(self.state_out):
            word |= ((block_outputs[b] >> p) & 1) << j
        return word

    def error_values(self, block_outputs: Sequence[int]) -> List[int]:
        return [(block_outputs[b] >> p) & 1 for b, p in self.error_out]


def plan_layout(state_width: int, ctrl_width: int, cfg: HardeningConfig) -> BlockLayout:
    """Map every input and constrained output bit to a (block, position) slot.

    Modifier bits occupy whole byte lanes so every constrained output byte
    depends on modifier bytes through invertible square byte-submatrices of
    the diffusion matrix, which guarantees the modifier equations are
    solvable. Each block carries N error bits, N being the protection level.
    """
    if state_width < 1:
        raise LayoutError("state codeword width must be >= 1")
    if ctrl_width < 1:
        raise LayoutError("control codeword width must be >= 1")
    e = cfg.protection_level
    err_lanes = (e + 7) // 8
    for k in range(1, 9):
        n_st = [sum(1 for j in range(state_width) if j % k == b) for b in range(k)]
        mod_lanes = [(n + 7) // 8 + err_lanes for n in n_st]
        if any(ml > 4 for ml in mod_lanes):
            continue
        capacity = sum((4 - ml) * 8 for ml in mod_lanes)
        if capacity < state_width + ctrl_width:
            continue
        # input slots: non-modifier lanes low, modifier lanes on top
        free_slots = [
            (b, p) for b in range(k) for p in range((4 - mod_lanes[b]) * 8)
        ]
        state_in = tuple(free_slots[:state_width])
        ctrl_in = tuple(free_slots[state_width : state_width + ctrl_width])
        mod_in = tuple(
            (b, p)
            for b in range(k)
            for p in range((4 - mod_lanes[b]) * 8, BLOCK_BITS)
        )
        next_out = [0] * k
        state_out = []
        for j in range(state_width):
            b = j % k
            state_out.append((b, next_out[b]))
            next_out[b] += 1
        error_out = tuple((b, p) for b in range(k) for p in range(BLOCK_BITS - e, BLOCK_BITS))
        return BlockLayout(k, e, state_in, ctrl_in, tuple(mod_in), tuple(state_out), error_out)
    raise LayoutError(
        f"infeasible packing: state={state_width} ctrl={ctrl_width} e={e} "
        "(k candidates 1..8)"
    )


@dataclass(frozen=True)
class TransitionPlan:
    edge: Transition
    sc_word: int
    xe_word: int
    sn_word: int
    modifier: int


def solve_modifiers(
    layout: BlockLayout,
    edges: Sequence[Transition],
    state_codes: CodeBook,
    ctrl_codes: CodeBook,
    m: MdsSpec,
) -> List[TransitionPlan]:
    """Per-edge modifiers such that each diffusion block emits the target
    next-state bits and all-ones error bits."""
    mod_w = layout.mod_width
    # the rows over modifier unknowns depend only on the layout, not the
    # edge, so they are eliminated once; each constrained bit carries the
    # index of its next-state bit, or -1 for an error bit (target always 1)
    constrained = [(b, p, j) for j, (b, p) in enumerate(layout.state_out)]
    constrained += [(b, p, -1) for b, p in layout.error_out]
    rows = [
        sum(1 << g for g, (mb, mp) in enumerate(layout.mod_in) if mb == b and (m.binary_rows[p] >> mp) & 1)
        for b, p, _ in constrained
    ]
    reduced = gf2_reduce(rows, mod_w)

    plans = []
    for edge in edges:
        sc = state_codes.codeword(edge.src)
        sn = state_codes.codeword(edge.dst)
        xe = ctrl_codes.codeword(edge.guard_label())
        known = layout.pack_block_inputs(sc, xe, 0)
        rhs = 0
        for i, (b, p, j) in enumerate(constrained):
            target = 1 if j < 0 else (sn >> j) & 1
            rhs |= (target ^ ((m.binary_rows[p] & known[b]).bit_count() & 1)) << i
        x = reduced.solve(rhs)
        if x is None:
            raise ModifierSolveError(
                edge, f"rank {len(reduced.pivots)} of {len(rows)} constraints over {mod_w} modifier bits"
            )
        # defensive re-check through the byte-level path
        outs = [mds_apply(m, v) for v in layout.pack_block_inputs(sc, xe, x)]
        if layout.unpack_state(outs) != sn or not all(layout.error_values(outs)):
            raise ModifierSolveError(edge, "solver result failed verification")
        plans.append(TransitionPlan(edge, sc, xe, sn, x))
    return plans


# ---------------------------------------------------------------------------
# Netlist construction


class _Builder:
    def __init__(self, nl: Netlist):
        self.nl = nl
        self.counters: Dict[str, int] = {}
        self.const0 = nl.add_gate("CONST0", [], "const0")
        self.const1 = nl.add_gate("CONST1", [], "const1")

    def gate(self, kind: str, inputs: Sequence[str], tag: str, prefix: str) -> str:
        """A gate whose output is the next fresh net ``{prefix}_{n}``."""
        n = self.counters.get(prefix, 0)
        self.counters[prefix] = n + 1
        return self.nl.add_gate(kind, inputs, f"{prefix}_{n}", tag)

    def tree(self, kind: str, nets: Sequence[str], tag: str, prefix: str) -> str:
        """Balanced reduction tree; returns the input net unchanged for length 1."""
        if not nets:
            raise HardeningError("empty reduction tree")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.gate(kind, [level[i], level[i + 1]], tag, prefix))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def match_const(self, nets: Sequence[str], word: int, tag: str, prefix: str) -> str:
        """AND-tree comparator of a net vector against a constant word."""
        bits = [
            net if (word >> i) & 1 else self.gate("NOT", [net], tag, prefix + "_n")
            for i, net in enumerate(nets)
        ]
        return self.tree("AND", bits, tag, prefix)

    def mux_chain(
        self, selects: Sequence[str], words: Sequence[int], width: int, tag: str, prefix: str
    ) -> List[str]:
        """Priority-MUX chain over constant words: the output carries the word
        of the last raised select line, or all-zeros when none is raised."""
        out = [self.const0] * width
        for sel, word in zip(selects, words):
            out = [
                self.gate("MUX", [sel, out[j], (self.const0, self.const1)[(word >> j) & 1]], tag, prefix)
                for j in range(width)
            ]
        return out


@dataclass
class HardenedDesign:
    fsm: FsmSpec
    config: HardeningConfig
    state_codes: CodeBook
    ctrl_codes: CodeBook
    layout: BlockLayout
    plans: Tuple[TransitionPlan, ...]
    netlist: Netlist
    matrix: MdsSpec = field(repr=False)

    def fingerprint(self) -> str:
        blob = json.dumps(
            {
                "fsm": fsm_mod.to_json_dict(self.fsm),
                "config": {
                    "protection_level": self.config.protection_level,
                    "error_bits": self.layout.error_bits,
                    "block_count": self.layout.k,
                    "seed": self.config.seed,
                    "matrix": self.matrix.name,
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def gate_counts_by_tag(self) -> Dict[str, int]:
        return dict(sorted(Counter(g.tag for g in self.netlist.gates).items()))

    def autocover_words(self) -> List[int]:
        walk, _ = fsm_mod.edge_cover_walk(self.fsm)
        return encode_edge_trace(self.ctrl_codes, walk)

    def encode_raw_trace(self, raw_trace: Sequence[Dict[str, int]]) -> List[int]:
        edges = fsm_mod.simulate_edges(self.fsm, raw_trace)
        return encode_edge_trace(self.ctrl_codes, edges)

    def report(self) -> dict:
        return {
            "fsm": self.fsm.name,
            "fingerprint": self.fingerprint(),
            "protection_level": self.config.protection_level,
            "error_bits_per_block": self.layout.error_bits,
            "block_count": self.layout.k,
            "state_width": self.state_codes.width,
            "control_width": self.ctrl_codes.width,
            "modifier_width": self.layout.mod_width,
            "diffusion_matrix": {
                "name": self.matrix.name,
                "entries": [[hex(x) for x in row] for row in self.matrix.entries],
                "note": (
                    "4x4 byte matrix over F2[a]/(a^8+a^2+1) with branch "
                    "number 5, as gf.branch_number computes exactly from GF(2) "
                    "ranks; any matrix whose square minors are all units would "
                    "serve equally"
                ),
            },
            "edges": [
                {
                    "from": p.edge.src,
                    "guard": p.edge.guard_label(),
                    "to": p.edge.dst,
                    "modifier": format(p.modifier, "x"),
                }
                for p in self.plans
            ],
            "gate_counts_by_stage": self.gate_counts_by_tag(),
            "total_gates": len(self.netlist.gates),
            "total_flops": len(self.netlist.flops),
        }


def build_hardened_netlist(
    fsm: FsmSpec,
    plans: Sequence[TransitionPlan],
    state_codes: CodeBook,
    ctrl_codes: CodeBook,
    layout: BlockLayout,
    m: MdsSpec,
) -> Netlist:
    s_w = state_codes.width
    x_w = ctrl_codes.width
    nl = Netlist(f"{verilog_name(fsm.name)}_hardened")
    b = _Builder(nl)

    st_q = [f"st_q_{i}" for i in range(s_w)]
    xe_bits = [f"x_e_{i}" for i in range(x_w)]
    nl.add_port("x_e", "in", xe_bits)

    reset_word = state_codes.codeword(fsm.reset_state)

    # forward-declare flop q nets via the flops themselves at the end; gate
    # inputs may reference them before the flop is added, so build order here
    # is: comparators and cascades first, flops last. The match nets keep an
    # `m0_` prefix, which the pinned netlists and Verilog carry.
    state_match = {
        s: b.match_const(st_q, state_codes.codeword(s), "match", f"m0_st_{verilog_name(s)}")
        for s in fsm.states
    }
    ctrl_match: Dict[str, str] = {}
    edge_match = []
    for p in plans:
        label = p.edge.guard_label()
        if label not in ctrl_match:
            ctrl_match[label] = b.match_const(
                xe_bits, p.xe_word, "match", f"m0_ctrl_{len(ctrl_match)}"
            )
        edge_match.append(
            b.gate("AND", [state_match[p.edge.src], ctrl_match[label]], "match", "m0_edge")
        )

    # active-control and modifier selection cascades
    xa_bits = b.mux_chain(edge_match, [p.xe_word for p in plans], x_w, "match", "m0_xa")
    mod_bits = b.mux_chain(
        edge_match, [p.modifier for p in plans], layout.mod_width, "modifier_select", "m0_mod"
    )

    # the all-zeros error codeword is deliberately absent here: in the error
    # state no match line rises, so the machine stays at all-zeros forever
    state_valid = b.tree("OR", [state_match[s] for s in fsm.states], "alert", "state_valid")
    input_valid = b.tree("OR", edge_match, "alert", "input_valid")

    # mix layer: route the (state, active control, modifier) triple to blocks
    block_in: List[List[str]] = [[b.const0] * BLOCK_BITS for _ in range(layout.k)]
    for j, (blk, pos) in enumerate(layout.state_in):
        block_in[blk][pos] = st_q[j]
    for j, (blk, pos) in enumerate(layout.ctrl_in):
        block_in[blk][pos] = xa_bits[j]
    for j, (blk, pos) in enumerate(layout.mod_in):
        block_in[blk][pos] = mod_bits[j]
    mixed: List[List[str]] = []
    for blk in range(layout.k):
        mixed.append(
            [b.gate("BUF", [block_in[blk][p]], "mix", f"mix_b{blk}") for p in range(BLOCK_BITS)]
        )

    # diffusion layer: XOR-only blocks
    block_out: List[List[str]] = []
    for blk in range(layout.k):
        refs: List[str] = list(mixed[blk])
        for (ia, ib) in m.xor_circuit.nodes:
            refs.append(b.gate("XOR", [refs[ia], refs[ib]], "diffusion", f"dif_b{blk}"))
        block_out.append([refs[m.xor_circuit.outputs[p]] for p in range(BLOCK_BITS)])

    # unmix layer: tap next-state and error bits
    sn_raw = [
        b.gate("BUF", [block_out[blk][pos]], "unmix", "sn_raw")
        for blk, pos in layout.state_out
    ]
    err_taps = [
        b.gate("BUF", [block_out[blk][pos]], "unmix", "err_tap")
        for blk, pos in layout.error_out
    ]

    # error infection: clearing any error bit drives the state to all-zeros,
    # which is the terminal error codeword
    err_conj = b.tree("AND", err_taps, "error_logic", "err_conj")
    guard_net = b.gate("AND", [state_valid, input_valid], "error_logic", "valid_all")
    gate_net = b.gate("AND", [err_conj, guard_net], "error_logic", "infect")
    st_d = [
        b.nl.add_gate("AND", [sn_raw[i], gate_net], f"st_d_{i}", "error_logic")
        for i in range(s_w)
    ]

    for i in range(s_w):
        nl.add_flop(f"st_d_{i}", st_q[i], (reset_word >> i) & 1, tag="state_reg")

    # sticky alert: high whenever the current state is not a valid non-error codeword
    invalid_now = b.gate("NOT", [state_valid], "alert", "invalid_now")
    alert_out = b.nl.add_gate("OR", [invalid_now, "alert_q"], "alert_out", "alert")
    nl.add_flop("alert_out", "alert_q", 0, tag="alert_reg")

    # output decode (not hardened; carried through verbatim)
    state_out_map = fsm.state_output_map()
    for sig in fsm.outputs:
        bits = []
        for bit_i in range(sig.width):
            contributors = []
            for s, vals in state_out_map.items():
                if (vals.get(sig.name, 0) >> bit_i) & 1:
                    contributors.append(state_match[s])
            for i, p in enumerate(plans):
                if (dict(p.edge.outputs).get(sig.name, 0) >> bit_i) & 1:
                    contributors.append(edge_match[i])
            if contributors:
                bits.append(b.tree("OR", contributors, "output_logic", f"out_{verilog_name(sig.name)}"))
            else:
                bits.append(b.const0)
        nl.add_port(sig.name, "out", bits)

    nl.add_port("state_e", "out", st_q)
    nl.add_port("fsm_alert", "out", ["alert_out"])
    return nl


def harden(fsm: FsmSpec, cfg: HardeningConfig) -> HardenedDesign:
    """Full hardening pipeline: codebooks, layout, modifiers, netlist.

    The stage timings and counts go to one INFO record ``harden: {json}``
    on the ``fsmguard`` logger, not into the report, whose bytes depend on
    the inputs alone.
    """
    import sys
    import time

    with warnings.catch_warnings():
        # only the errors matter here; parse_fsm already warns about unreachable states
        warnings.simplefilter("ignore")
        fsm_mod.validate(fsm)
    ports = {"x_e", "state_e", "fsm_alert", "clk", "rst_n"}
    for sig in fsm.outputs:
        # each output becomes a port of the same name in netlist.v
        if not (sig.name.isascii() and sig.name.isidentifier()):
            raise HardeningError(f"FSM output {sig.name!r} is not a Verilog identifier")
        if sig.name in VERILOG_KEYWORDS:
            raise HardeningError(f"FSM output {sig.name!r} is a Verilog keyword")
        if sig.name in ports:
            raise HardeningError(f"FSM output {sig.name!r} clashes with a port of the hardened module")
        ports.add(sig.name)
    t = [time.perf_counter()]
    state_codes = state_codebook(fsm, cfg.protection_level, seed=cfg.seed)
    ctrl_codes = control_codebook(fsm, cfg.protection_level, seed=cfg.seed)
    t.append(time.perf_counter())
    m = default_mds()
    layout = plan_layout(state_codes.width, ctrl_codes.width, cfg)
    edges = extract_cfg(fsm)
    plans = tuple(solve_modifiers(layout, edges, state_codes, ctrl_codes, m))
    t.append(time.perf_counter())
    nl = build_hardened_netlist(fsm, plans, state_codes, ctrl_codes, layout, m)
    t.append(time.perf_counter())
    nl.validate()
    t.append(time.perf_counter())
    # logging is looked up, not imported: see run_campaign
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger("fsmguard")
    if log and log.isEnabledFor(logging.INFO):
        stages = zip(("codebooks_s", "modifiers_s", "build_s", "validate_s"), (b - a for a, b in zip(t, t[1:])))
        record = dict(stages, edges=len(plans), eliminations=1, gates=len(nl.gates))
        log.info("harden: %s", json.dumps(record, sort_keys=True))
    if fsm.outputs:
        # netlist.v declares ports, nets and each flop's q_r register in one namespace
        taken = set(nl.nets()).union(f"{f.q}_r" for f in nl.flops)
        for sig in fsm.outputs:
            if sig.name in taken:
                raise HardeningError(f"FSM output {sig.name!r} clashes with a net of the hardened netlist")
    design = HardenedDesign(fsm, cfg, state_codes, ctrl_codes, layout, plans, nl, m)
    nl.meta = {
        "protection_level": cfg.protection_level,
        "error_bits_per_block": layout.error_bits,
        "k": layout.k,
        "state_width": state_codes.width,
        "control_width": ctrl_codes.width,
        "matrix": m.name,
        "fingerprint": design.fingerprint(),
        "autocover_trace": [format(w, "x") for w in design.autocover_words()],
    }
    return design
