"""Gate-level IR, cycle-accurate levelized simulation, and structural Verilog I/O.

Simulation is two-valued and bit-parallel: every net value is an integer
whose bit ``p`` carries lane ``p``, so a batch of independent experiments
(different inputs and/or different faults) evaluates in one pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

# kind -> (arity, Verilog right-hand side over the inputs). A kind's position
# is its op code in ``_Compiled.ops``; a MUX reads (sel, a, b) as sel ? b : a.
_GATES = {
    "XOR": (2, "{0} ^ {1}"),
    "AND": (2, "{0} & {1}"),
    "OR": (2, "{0} | {1}"),
    "NOT": (1, "~{0}"),
    "MUX": (3, "{0} ? {2} : {1}"),
    "CONST0": (0, "1'b0"),
    "CONST1": (0, "1'b1"),
    "BUF": (1, "{0}"),
}
GATE_KINDS = tuple(_GATES)
_ARITY = {kind: arity for kind, (arity, _) in _GATES.items()}
# effect index = position here; 0 is the one-cycle flip, 1 and 2 are stuck-at
FAULT_EFFECTS = ("flip", "stuck0", "stuck1")


class NetlistError(Exception):
    pass


class Gate(NamedTuple):
    kind: str
    inputs: Tuple[str, ...]
    output: str
    tag: str = ""


@dataclass(frozen=True)
class Flop:
    d: str
    q: str
    reset_value: int = 0
    tag: str = ""


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    bits: Tuple[str, ...]  # LSB first


@dataclass(frozen=True)
class FaultSite:
    """A fault location/effect/time triple.

    ``cycle`` is the injection cycle for flips and the onset cycle for
    stuck-at effects; ``None`` means every cycle (permanent).
    """

    location: str
    effect: str  # "flip" | "stuck0" | "stuck1"
    cycle: Optional[int] = None

    def __post_init__(self):
        if self.effect not in FAULT_EFFECTS:
            raise NetlistError(f"unknown fault effect {self.effect!r}")


class Netlist:
    """Immutable-after-build gate-level design with one clock domain."""

    def __init__(self, name: str = "top"):
        self.name = name
        self.gates: List[Gate] = []
        self.flops: List[Flop] = []
        self.ports: List[Port] = []
        self.meta: Dict[str, object] = {}
        self._drivers: Set[str] = set()
        self._compiled: Optional["_Compiled"] = None

    # -- construction -------------------------------------------------------

    def _claim(self, net: str) -> None:
        if net in self._drivers:
            raise NetlistError(f"net {net!r} has multiple drivers")
        self._drivers.add(net)

    def add_gate(self, kind: str, inputs: Sequence[str], output: str, tag: str = "") -> str:
        if kind not in _ARITY:
            raise NetlistError(f"unknown gate kind {kind!r}")
        if len(inputs) != _ARITY[kind]:
            raise NetlistError(f"{kind} expects {_ARITY[kind]} inputs, got {len(inputs)}")
        self._claim(output)
        self.gates.append(Gate(kind, tuple(inputs), output, tag))
        self._compiled = None
        return output

    def add_flop(self, d: str, q: str, reset_value: int = 0, tag: str = "") -> str:
        self._claim(q)
        self.flops.append(Flop(d, q, int(reset_value) & 1, tag))
        self._compiled = None
        return q

    def add_port(self, name: str, direction: str, bits: Sequence[str]) -> Port:
        if direction not in ("in", "out"):
            raise NetlistError(f"bad port direction {direction!r}")
        if any(p.name == name for p in self.ports):
            raise NetlistError(f"duplicate port {name!r}")
        port = Port(name, direction, tuple(bits))
        if direction == "in":
            for b in bits:
                self._claim(b)
        self.ports.append(port)
        self._compiled = None
        return port

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(name)

    def input_bit_nets(self) -> List[str]:
        nets = []
        for p in self.ports:
            if p.direction == "in":
                nets.extend(p.bits)
        return nets

    def nets(self) -> List[str]:
        """Every net in first-use order: port bits, then flops, then gates."""
        if self._compiled is not None:
            # the compiled index was built from this same walk, in this order
            return list(self._compiled.index)
        seen = dict.fromkeys(b for p in self.ports for b in p.bits)
        add = seen.setdefault
        for f in self.flops:
            add(f.q)
            add(f.d)
        for g in self.gates:
            add(g.output)
            for i in g.inputs:
                add(i)
        return list(seen)

    # -- validation / compilation -------------------------------------------

    def validate(self) -> None:
        driven = self._drivers
        for g in self.gates:
            for n in g.inputs:
                if n not in driven:
                    raise NetlistError(f"gate input {n!r} has no driver")
        for f in self.flops:
            if f.d not in driven:
                raise NetlistError(f"flop d {f.d!r} has no driver")
        for p in self.ports:
            if p.direction == "out":
                for b in p.bits:
                    if b not in driven:
                        raise NetlistError(f"output port bit {b!r} has no driver")
        self._compile()  # raises on combinational cycles

    def _compile(self) -> "_Compiled":
        if self._compiled is None:
            self._compiled = _Compiled(self)
        return self._compiled


class _Compiled:
    """Topologically ordered evaluation program over net indices; a gate
    list that is already in topological order keeps its order.

    ``ops`` holds one flat ``(kind, out, in0, in1, in2)`` tuple per gate:
    ``kind`` is the gate's position in ``GATE_KINDS``, ``out`` and the inputs
    are net indices, the inputs in ``Gate.inputs`` order (a MUX reads
    ``(sel, a, b)``) and the ones past the gate's arity 0.
    """

    def __init__(self, nl: Netlist):
        index = self.index = {n: i for i, n in enumerate(nl.nets())}
        self.n_nets = len(index)
        code = {kind: (i, (0,) * (3 - arity)) for i, (kind, (arity, _)) in enumerate(_GATES.items())}
        # depth-first topological sort: each gate, in list order, is placed
        # after the unplaced gates that drive its inputs, so a sorted list
        # takes one pass
        pending = {g.output: g for g in nl.gates}  # not placed; None while on the path
        at = index.__getitem__
        self.ops: List[Tuple[int, int, int, int, int]] = []
        for g in nl.gates:
            if g.output not in pending:
                continue
            pending[g.output] = None
            path = [g]
            while path:
                for n in path[-1].inputs:
                    if n in pending:
                        if pending[n] is None:
                            raise NetlistError("combinational cycle detected")
                        path.append(pending[n])
                        pending[n] = None
                        break
                else:
                    kind, ins, out, _ = path.pop()
                    del pending[out]
                    op, pad = code[kind]
                    self.ops.append((op, at(out), *map(at, ins), *pad))
        self.flops = [(index[f.d], index[f.q], f.reset_value) for f in nl.flops]
        self.in_ports = [(p.name, [index[b] for b in p.bits]) for p in nl.ports if p.direction == "in"]
        self.out_bits = {p.name: [index[b] for b in p.bits] for p in nl.ports}

    @cached_property
    def op_stop(self) -> List[int]:
        """net index -> 1 + position in ``ops`` of the op that drives it (0 for
        flop q and input-port nets): its fault mask applies once ``ops[:stop]``
        have run. Built on the first faulted simulation only."""
        stop = [0] * self.n_nets
        for pos, (_, out, _, _, _) in enumerate(self.ops, 1):
            stop[out] = pos
        return stop

    @cached_property
    def users(self) -> List[List[int]]:
        """net index -> the positions in ``ops`` of the ops that read it, in
        order. Built on the first stuck-at screen only."""
        arity = list(_ARITY.values())
        users: List[List[int]] = [[] for _ in range(self.n_nets)]
        for pos, (kind, _, *ins) in enumerate(self.ops):
            for net in ins[: arity[kind]]:
                users[net].append(pos)
        return users

    @cached_property
    def out_cone(self) -> Set[int]:
        """The nets whose value can change an output-port bit in the same
        cycle: the bits and their fan-in, which stops at flop q and input
        nets. Built only once a campaign settles stuck-at faults per edge."""
        arity, inputs = list(_ARITY.values()), dict(self.in_ports)
        todo = [b for name, bits in self.out_bits.items() if name not in inputs for b in bits]
        cone: Set[int] = set()
        while todo:
            net = todo.pop()
            if net not in cone:
                cone.add(net)
                if self.op_stop[net]:
                    kind, _, *ins = self.ops[self.op_stop[net] - 1]
                    todo += ins[: arity[kind]]
        return cone


@dataclass
class SimResult:
    """Per-cycle lane-packed values for every port and flop q net."""

    cycles: int
    lanes: int
    port_bits: Dict[str, List[List[int]]]  # port -> cycle -> packed bit values
    flop_q: List[List[int]]  # cycle -> packed q values (netlist flop order)

    def port_value(self, port: str, cycle: int, lane: int = 0) -> int:
        bits = self.port_bits[port][cycle]
        return sum(((v >> lane) & 1) << i for i, v in enumerate(bits))

    def port_column(self, port: str, lane: int = 0) -> List[int]:
        return [self.port_value(port, c, lane) for c in range(self.cycles)]


def _expand_faults(
    comp: _Compiled, fault_lanes: Sequence[Sequence[FaultSite]], cycles: int
) -> List[List[Tuple[int, int, int, int, int]]]:
    """Per cycle, the ``(stop, net, flip, clear, set)`` lane masks sorted by
    ``stop`` (see ``_Compiled.op_stop``), closed by the sentinel
    ``(len(ops), 0, 0, 0, 0)`` that runs the remaining ops and masks nothing."""
    masks: List[Dict[int, List[int]]] = [{} for _ in range(cycles)]
    for lane, faults in enumerate(fault_lanes):
        bit = 1 << lane
        for f in faults:
            if f.location not in comp.index:
                raise NetlistError(f"unknown fault location {f.location!r}")
            net = comp.index[f.location]
            if f.effect == "flip":
                cyc_range = range(cycles) if f.cycle is None else [f.cycle]
            else:
                start = 0 if f.cycle is None else f.cycle
                cyc_range = range(start, cycles)
            for c in cyc_range:
                if not 0 <= c < cycles:
                    continue
                m = masks[c].setdefault(net, [0, 0, 0])
                if f.effect == "flip":
                    m[0] ^= bit
                elif f.effect == "stuck0":
                    m[1] |= bit
                else:
                    m[2] |= bit
    stop = comp.op_stop if any(masks) else None
    end = (len(comp.ops), 0, 0, 0, 0)
    return [sorted((stop[net], net, *m) for net, m in cyc.items()) + [end] for cyc in masks]


def _run_ops(
    ops: Sequence[Tuple[int, int, int, int, int]],
    values: List[int],
    full: int,
    masks: Sequence[Tuple[int, int, int, int, int]],
) -> None:
    """Evaluate one cycle of ``ops`` in place over lane-packed ``values``.

    ``masks`` holds the cycle's ``(stop, net, flip, clear, set)`` fault masks
    sorted by ``stop`` and closed by the sentinel ``(len(ops), 0, 0, 0, 0)``
    (see ``_expand_faults``). ``full`` has one bit per lane.

    Values that start in ``0..full`` stay there: no formula takes a complement
    with ``~``, because ``&`` on a negative int leaves CPython's fast path for
    non-negative ones.
    """
    start = 0
    for stop, net, flip, clr, st in masks:
        for kind, out, i, j, k in ops[start:stop]:
            if kind == 4:  # MUX (sel i, a j, b k); 3,552 of big32's 4,582 gates
                a = values[j]
                values[out] = a ^ (values[i] & (a ^ values[k]))
            elif kind == 0:
                values[out] = values[i] ^ values[j]
            elif kind == 1:
                values[out] = values[i] & values[j]
            elif kind == 2:
                values[out] = values[i] | values[j]
            elif kind == 3:
                values[out] = full ^ values[i]
            elif kind == 7:
                values[out] = values[i]
            elif kind == 5:
                values[out] = 0
            else:
                values[out] = full
        # a net's mask applies after the op that drives it, before its users
        values[net] = ((values[net] ^ flip) & (full ^ clr)) | st
        start = stop


def simulate_batch(
    netlist: Netlist,
    input_traces: Sequence[Sequence[Dict[str, int]]],
    fault_lanes: Optional[Sequence[Sequence[FaultSite]]] = None,
) -> SimResult:
    """Simulate several lanes at once; lane ``p`` uses trace/faults index ``p``.

    All traces must have equal length. Each per-cycle assignment maps input
    port names to integer values.
    """
    comp = netlist._compile()
    lanes = len(input_traces)
    if lanes == 0:
        raise NetlistError("no input traces")
    cycles = len(input_traces[0])
    if any(len(t) != cycles for t in input_traces):
        raise NetlistError("all lanes must have equal trace length")
    if fault_lanes is None:
        fault_lanes = [[] for _ in range(lanes)]
    if len(fault_lanes) != lanes:
        raise NetlistError("fault_lanes length must match input_traces")
    faults = _expand_faults(comp, fault_lanes, cycles)
    full = (1 << lanes) - 1

    # pack input port bits per cycle
    packed_inputs: List[List[Tuple[int, int]]] = []
    for c in range(cycles):
        row: List[Tuple[int, int]] = []
        for pname, bit_idx in comp.in_ports:
            for i, net in enumerate(bit_idx):
                v = 0
                for lane in range(lanes):
                    try:
                        word = input_traces[lane][c][pname]
                    except KeyError:
                        raise NetlistError(f"trace lane {lane} cycle {c} misses port {pname!r}")
                    v |= ((word >> i) & 1) << lane
                row.append((net, v))
        packed_inputs.append(row)

    values = [0] * comp.n_nets
    flop_state = [(full if rv else 0) for _, _, rv in comp.flops]
    port_bits: Dict[str, List[List[int]]] = {p: [] for p in comp.out_bits}
    flop_q_hist: List[List[int]] = []
    ops = comp.ops

    for c in range(cycles):
        for (_, qi, _), st in zip(comp.flops, flop_state):
            values[qi] = st
        for net, v in packed_inputs[c]:
            values[net] = v
        _run_ops(ops, values, full, faults[c])
        for pname, bit_idx in comp.out_bits.items():
            port_bits[pname].append([values[i] for i in bit_idx])
        flop_q_hist.append([values[qi] for _, qi, _ in comp.flops])
        flop_state = [values[di] & full for di, _, _ in comp.flops]

    return SimResult(cycles, lanes, port_bits, flop_q_hist)


# ---------------------------------------------------------------------------
# Fault-site enumeration


def enumerate_fault_sites(netlist: Netlist, scope: str = "all") -> List[str]:
    """Candidate fault locations (net names) filtered by scope, in stable order.

    ``all`` is every gate output and every flop's q net. It leaves out the
    input port bits (``x_e``), so it is not a superset of ``inputs_only``.
    """
    if scope == "all":
        return [g.output for g in netlist.gates] + [f.q for f in netlist.flops]
    if scope == "diffusion_only":
        sites = [g.output for g in netlist.gates if g.tag == "diffusion"]
        if not sites:
            raise NetlistError("no diffusion-tagged gates; was this netlist hardened?")
        return sites
    if scope == "inputs_only":
        sites = [f.q for f in netlist.flops if f.tag == "state_reg"]
        sites += netlist.input_bit_nets()
        if not sites:
            raise NetlistError("no state registers or input ports found")
        return sites
    raise NetlistError(f"unknown scope {scope!r}")


# ---------------------------------------------------------------------------
# JSON IR


def to_json_dict(netlist: Netlist) -> dict:
    return {
        "name": netlist.name,
        "nets": netlist.nets(),
        "gates": [
            {"kind": g.kind, "in": list(g.inputs), "out": g.output, "tag": g.tag}
            for g in netlist.gates
        ],
        "flops": [
            {"d": f.d, "q": f.q, "reset": f.reset_value, "tag": f.tag} for f in netlist.flops
        ],
        "ports": {p.name: {"dir": p.direction, "bits": list(p.bits)} for p in netlist.ports},
        "meta": netlist.meta,
    }


def from_json_dict(doc: dict) -> Netlist:
    """Rebuild a netlist from ``to_json_dict`` output; a malformed document
    raises NetlistError naming the entry, e.g. ``gate 0: missing field 'in'``."""
    where = "netlist"
    try:
        nl = Netlist(doc.get("name", "top"))
        ports = list(doc.get("ports", {}).items())
        for pname, p in ports:
            where = f"port {pname!r}"
            if p["dir"] == "in":
                nl.add_port(pname, "in", p["bits"])
        for i, g in enumerate(doc.get("gates", [])):
            where = f"gate {i}"
            nl.add_gate(g["kind"], g["in"], g["out"], g.get("tag", ""))
        for i, f in enumerate(doc.get("flops", [])):
            where = f"flop {i}"
            nl.add_flop(f["d"], f["q"], f.get("reset", 0), f.get("tag", ""))
        for pname, p in ports:
            where = f"port {pname!r}"
            if p["dir"] == "out":
                nl.add_port(pname, "out", p["bits"])
        where = "meta"
        nl.meta = dict(doc.get("meta", {}))
    except KeyError as exc:
        raise NetlistError(f"{where}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, NetlistError) as exc:
        raise NetlistError(f"{where}: {exc}") from None
    nl.validate()
    return nl


# ---------------------------------------------------------------------------
# Structural Verilog emission and subset re-parsing

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the reserved keywords of Verilog-2001 (IEEE 1364-2001, Annex B)
VERILOG_KEYWORDS = frozenset(
    """
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell cmos config
    deassign default defparam design disable edge else end endcase endconfig endfunction
    endgenerate endmodule endprimitive endspecify endtable endtask event for force forever
    fork function generate genvar highz0 highz1 if ifnone incdir include initial inout input
    instance integer join large liblist library localparam macromodule medium module nand
    negedge nmos nor noshowcancelled not notif0 notif1 or output parameter pmos posedge
    primitive pull0 pull1 pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled
    signed small specify specparam strong0 strong1 supply0 supply1 table task time tran
    tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use vectored wait wand weak0
    weak1 while wire wor xnor xor
    """.split()
)


def verilog_name(name: str) -> str:
    """``name`` as a Verilog identifier: every other character becomes ``_``,
    and ``n`` goes in front of a name that is empty or starts with a digit."""
    if _ID_RE.fullmatch(name):
        return name
    out = re.sub(r"[^A-Za-z0-9_]", "_", name)
    return out if out and not out[0].isdigit() else f"n{out}"


def emit_verilog(netlist: Netlist) -> str:
    """Synthesizable structural Verilog-2001, one assign per gate, deterministic order."""
    lines: List[str] = []
    in_ports = [p for p in netlist.ports if p.direction == "in"]
    out_ports = [p for p in netlist.ports if p.direction == "out"]
    port_names = ["clk", "rst_n"] + [p.name for p in in_ports + out_ports]
    lines.append(f"module {verilog_name(netlist.name)} (")
    lines.append("  " + ",\n  ".join(port_names))
    lines.append(");")
    lines.append("  input clk;")
    lines.append("  input rst_n;")
    for p in in_ports + out_ports:
        rng = f"[{len(p.bits) - 1}:0] " if len(p.bits) > 1 else ""
        lines.append(f"  {p.direction}put {rng}{p.name};")
    nets = netlist.nets()
    # checked once per net, not per use; nets that are identifiers keep their name
    alias = {n: verilog_name(n) for n in nets if not _ID_RE.fullmatch(n)}
    owner: Dict[str, str] = {}  # Verilog name -> net
    for n in sorted(nets):
        v = alias.get(n, n)
        if v in owner:
            raise NetlistError(f"nets {owner[v]!r} and {n!r} are both named {v!r} in Verilog")
        owner[v] = n
        lines.append(f"  wire {v};")
    for f in netlist.flops:
        reg = f"{alias.get(f.q, f.q)}_r"
        if reg in owner:
            raise NetlistError(f"net {owner[reg]!r} is named like the register {reg!r} of flop {f.q!r}")
    # unpack input ports onto their bit nets
    for p in in_ports:
        for i, b in enumerate(p.bits):
            sel = f"{p.name}[{i}]" if len(p.bits) > 1 else p.name
            lines.append(f"  assign {alias.get(b, b)} = {sel}; // portin")
    # one format call per gate, its output as field {arity}; hardened netlists rename no net
    assign = {kind: f"  assign {{{arity}}} = {rhs};".format for kind, (arity, rhs) in _GATES.items()}
    for g in netlist.gates:
        nets = (*g.inputs, g.output)
        lines.append(assign[g.kind](*(map(alias.get, nets, nets) if alias else nets)))
    for f in netlist.flops:
        q, d = alias.get(f.q, f.q), alias.get(f.d, f.d)
        lines.append(f"  reg {q}_r;")
        lines.append(f"  assign {q} = {q}_r; // flopq")
        lines.append("  always @(posedge clk or negedge rst_n)")
        lines.append(f"    if (!rst_n) {q}_r <= 1'b{f.reset_value};")
        lines.append(f"    else {q}_r <= {d};")
    for p in out_ports:
        for i, b in enumerate(p.bits):
            sel = f"{p.name}[{i}]" if len(p.bits) > 1 else p.name
            lines.append(f"  assign {sel} = {alias.get(b, b)}; // portout")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_MODULE_RE = re.compile(r"module\s+(\w+)\s*\(")
_PORT_DECL_RE = re.compile(r"(in|out)put\s+(?:\[(\d+):0\]\s+)?(\w+);")
_ASSIGN_RE = re.compile(r"assign\s+(\S+)\s*=\s*(.+?);(?:\s*//\s*(\w+))?")
_RESET_RE = re.compile(r"if \(!rst_n\) (\w+)_r <= 1'b([01]);")
_NEXT_RE = re.compile(r"else (\w+)_r <= (\w+);")
_BIT_RE = re.compile(r"(\w+)\[(\d+)\]")
_PORT_LIST_RE = re.compile(r"\w+,?|\);")
# wire and reg declarations, the flop clocking, module end
_SKIP_RE = re.compile(r"(wire|reg) \w+;|always @\(posedge clk or negedge rst_n\)|endmodule")
# one full-match pattern per gate form; input i of the gate is group ``in{i}``
_GATE_RES = [
    (kind, re.compile(re.sub(r"\\\{(\d)\\\}", r"(?P<in\1>\\w+)", re.escape(rhs))))
    for kind, (_, rhs) in _GATES.items()
]


def parse_verilog(source: str) -> Netlist:
    """Parse the emitter's own structural subset back into a Netlist.

    Only intended for round-trip checks of emit_verilog output: any line
    outside that subset raises NetlistError naming its line number.
    """
    nl = Netlist()
    ports: Dict[str, Tuple[str, List[Optional[str]]]] = {}  # name -> (direction, bits)
    resets: Dict[str, int] = {}
    nexts: Dict[str, str] = {}  # flop q -> d, in emitted order
    # input port bits and flop outputs: their drivers join ``nl`` only after
    # the whole file is read, so a second driver is caught here, at its line
    late: Set[str] = set()
    in_port_list = False

    def drive(net: str) -> str:
        if net in late or net in nl._drivers:
            raise NetlistError(f"net {net!r} has multiple drivers")
        return net

    def bind(ref: str, net: str, direction: str) -> None:
        m = _BIT_RE.fullmatch(ref)
        pname, i = (m.group(1), int(m.group(2))) if m else (ref, 0)
        d, bits = ports.get(pname, (None, []))
        if d != direction or i >= len(bits):
            raise NetlistError(f"no {direction}put port bit {ref!r}")
        bits[i] = net

    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("//") or _SKIP_RE.fullmatch(line):
            continue
        try:
            if m := _MODULE_RE.fullmatch(line):
                nl.name = m.group(1)
                in_port_list = True
            elif in_port_list and _PORT_LIST_RE.fullmatch(line):
                in_port_list = line != ");"
            elif m := _PORT_DECL_RE.fullmatch(line):
                direction, msb, pname = m.groups()
                if pname not in ("clk", "rst_n"):
                    ports[pname] = (direction, [None] * (int(msb) + 1 if msb else 1))
            elif m := _RESET_RE.fullmatch(line):
                resets[m.group(1)] = int(m.group(2))
            elif m := _NEXT_RE.fullmatch(line):
                nexts[m.group(1)] = m.group(2)
            elif m := _ASSIGN_RE.fullmatch(line):
                lhs, rhs, marker = m.groups()
                if marker == "portin":
                    bind(rhs, drive(lhs), "in")
                    late.add(lhs)
                elif marker == "portout":
                    bind(lhs, rhs, "out")
                elif marker == "flopq":  # flops come from the reset and next lines
                    late.add(drive(lhs))
                else:
                    for kind, pattern in _GATE_RES:
                        if g := pattern.fullmatch(rhs):
                            nl.add_gate(kind, [g.group(f"in{i}") for i in range(_ARITY[kind])], drive(lhs))
                            break
                    else:
                        raise NetlistError("the right-hand side matches no gate form")
            else:
                raise NetlistError("not in the emitter's subset")
        except NetlistError as exc:
            raise NetlistError(f"line {lineno}: {exc}: {line!r}") from None
    for q, d in nexts.items():
        nl.add_flop(d, q, resets.get(q, 0))
    for pname, (direction, bits) in ports.items():  # as declared: inputs first
        if None in bits:
            raise NetlistError(f"{direction}put port {pname!r} has unbound bits")
        nl.add_port(pname, direction, bits)
    nl.validate()
    return nl
