"""Gate-level IR, cycle-accurate levelized simulation, and structural Verilog I/O.

Simulation is two-valued and bit-parallel: every net value is an integer
whose bit ``p`` carries lane ``p``, so a batch of independent experiments
(different inputs and/or different faults) evaluates in one pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

GATE_KINDS = ("XOR", "AND", "OR", "NOT", "MUX", "CONST0", "CONST1", "BUF")

_ARITY = {
    "XOR": 2,
    "AND": 2,
    "OR": 2,
    "NOT": 1,
    "MUX": 3,  # (sel, a, b): sel ? b : a
    "CONST0": 0,
    "CONST1": 0,
    "BUF": 1,
}


class NetlistError(Exception):
    pass


@dataclass(frozen=True)
class Gate:
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
        if self.effect not in ("flip", "stuck0", "stuck1"):
            raise NetlistError(f"unknown fault effect {self.effect!r}")


class Netlist:
    """Immutable-after-build gate-level design with one clock domain."""

    def __init__(self, name: str = "top"):
        self.name = name
        self.gates: List[Gate] = []
        self.flops: List[Flop] = []
        self.ports: List[Port] = []
        self.meta: Dict[str, object] = {}
        self._drivers: Dict[str, str] = {}  # net -> "gate"/"flop"/"port"
        self._compiled: Optional["_Compiled"] = None

    # -- construction -------------------------------------------------------

    def _claim(self, net: str, kind: str) -> None:
        if net in self._drivers:
            raise NetlistError(f"net {net!r} has multiple drivers")
        self._drivers[net] = kind

    def add_gate(self, kind: str, inputs: Sequence[str], output: str, tag: str = "") -> str:
        if kind not in GATE_KINDS:
            raise NetlistError(f"unknown gate kind {kind!r}")
        if len(inputs) != _ARITY[kind]:
            raise NetlistError(f"{kind} expects {_ARITY[kind]} inputs, got {len(inputs)}")
        self._claim(output, "gate")
        self.gates.append(Gate(kind, tuple(inputs), output, tag))
        self._compiled = None
        return output

    def add_flop(self, d: str, q: str, reset_value: int = 0, tag: str = "") -> str:
        self._claim(q, "flop")
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
                self._claim(b, "port")
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
        seen: List[str] = []
        have = set()

        def add(n: str) -> None:
            if n not in have:
                have.add(n)
                seen.append(n)

        for p in self.ports:
            for b in p.bits:
                add(b)
        for f in self.flops:
            add(f.q)
            add(f.d)
        for g in self.gates:
            add(g.output)
            for i in g.inputs:
                add(i)
        return seen

    # -- validation / compilation -------------------------------------------

    def validate(self) -> None:
        driven = set(self._drivers)
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
    """Topologically ordered evaluation program over net indices."""

    def __init__(self, nl: Netlist):
        nets = nl.nets()
        self.index: Dict[str, int] = {n: i for i, n in enumerate(nets)}
        self.n_nets = len(nets)
        by_out = {g.output: g for g in nl.gates}
        # Kahn topological sort over combinational gates
        indeg: Dict[str, int] = {}
        users: Dict[str, List[str]] = {}
        for g in nl.gates:
            deps = [n for n in g.inputs if n in by_out]
            indeg[g.output] = len(deps)
            for n in deps:
                users.setdefault(n, []).append(g.output)
        ready = [g.output for g in nl.gates if indeg[g.output] == 0]
        order: List[Gate] = []
        while ready:
            out = ready.pop()
            order.append(by_out[out])
            for u in users.get(out, []):
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(order) != len(nl.gates):
            raise NetlistError("combinational cycle detected")
        kind_code = {k: i for i, k in enumerate(GATE_KINDS)}
        self.ops: List[Tuple[int, int, Tuple[int, ...]]] = [
            (kind_code[g.kind], self.index[g.output], tuple(self.index[n] for n in g.inputs))
            for g in order
        ]
        self.flops = [(self.index[f.d], self.index[f.q], f.reset_value) for f in nl.flops]
        self.in_ports = [
            (p.name, [self.index[b] for b in p.bits]) for p in nl.ports if p.direction == "in"
        ]
        self.out_bits = {p.name: [self.index[b] for b in p.bits] for p in nl.ports}

    @cached_property
    def op_stop(self) -> List[int]:
        """net index -> 1 + position in ``ops`` of the op that drives it (0 for
        flop q and input-port nets): its fault mask applies once ``ops[:stop]``
        have run. Built on the first faulted simulation only."""
        stop = [0] * self.n_nets
        for pos, (_, out, _) in enumerate(self.ops, 1):
            stop[out] = pos
        return stop


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
    ops: Sequence[Tuple[int, int, Tuple[int, ...]]],
    values: List[int],
    full: int,
    masks: Sequence[Tuple[int, int, int, int, int]],
) -> None:
    """Evaluate one cycle of ``ops`` in place over lane-packed ``values``.

    ``masks`` holds the cycle's ``(stop, net, flip, clear, set)`` fault masks
    sorted by ``stop`` and closed by the sentinel ``(len(ops), 0, 0, 0, 0)``
    (see ``_expand_faults``). ``full`` has one bit per lane.
    """
    start = 0
    for stop, net, flip, clr, st in masks:
        for kind, out, ins in ops[start:stop]:
            if kind == 0:
                v = values[ins[0]] ^ values[ins[1]]
            elif kind == 1:
                v = values[ins[0]] & values[ins[1]]
            elif kind == 2:
                v = values[ins[0]] | values[ins[1]]
            elif kind == 3:
                v = full ^ values[ins[0]]
            elif kind == 4:
                s = values[ins[0]]
                v = (s & values[ins[2]]) | (~s & values[ins[1]]) & full
            elif kind == 5:
                v = 0
            elif kind == 6:
                v = full
            else:
                v = values[ins[0]]
            values[out] = v
        # a net's mask applies after the op that drives it, before its users
        values[net] = ((values[net] ^ flip) & ~clr) | st
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


def simulate(
    netlist: Netlist,
    input_trace: Sequence[Dict[str, int]],
    faults: Iterable[FaultSite] = (),
) -> SimResult:
    """Single-lane simulation; the empty fault list is the golden run."""
    return simulate_batch(netlist, [list(input_trace)], [list(faults)])


# ---------------------------------------------------------------------------
# Fault-site enumeration


def enumerate_fault_sites(netlist: Netlist, scope: str = "all") -> List[str]:
    """Candidate fault locations (net names) filtered by scope, in stable order."""
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

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _vnet(name: str) -> str:
    if _ID_RE.match(name):
        return name
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def emit_verilog(netlist: Netlist) -> str:
    """Synthesizable structural Verilog-2001, one assign per gate, deterministic order."""
    lines: List[str] = []
    in_ports = [p for p in netlist.ports if p.direction == "in"]
    out_ports = [p for p in netlist.ports if p.direction == "out"]
    port_names = ["clk", "rst_n"] + [p.name for p in in_ports] + [p.name for p in out_ports]
    lines.append(f"module {_vnet(netlist.name)} (")
    lines.append("  " + ",\n  ".join(port_names))
    lines.append(");")
    lines.append("  input clk;")
    lines.append("  input rst_n;")
    for p in in_ports:
        rng = f"[{len(p.bits) - 1}:0] " if len(p.bits) > 1 else ""
        lines.append(f"  input {rng}{p.name};")
    for p in out_ports:
        rng = f"[{len(p.bits) - 1}:0] " if len(p.bits) > 1 else ""
        lines.append(f"  output {rng}{p.name};")
    nets = netlist.nets()
    # checked once per net, not per use; nets that are identifiers keep their name
    alias = {n: _vnet(n) for n in nets if not _ID_RE.match(n)}
    for n in sorted(nets):
        lines.append(f"  wire {alias.get(n, n)};")
    # unpack input ports onto their bit nets
    for p in in_ports:
        for i, b in enumerate(p.bits):
            sel = f"{p.name}[{i}]" if len(p.bits) > 1 else p.name
            lines.append(f"  assign {alias.get(b, b)} = {sel}; // portin")
    for g in netlist.gates:
        ins = [alias.get(n, n) for n in g.inputs]
        out = alias.get(g.output, g.output)
        if g.kind == "XOR":
            expr = f"{ins[0]} ^ {ins[1]}"
        elif g.kind == "AND":
            expr = f"{ins[0]} & {ins[1]}"
        elif g.kind == "OR":
            expr = f"{ins[0]} | {ins[1]}"
        elif g.kind == "NOT":
            expr = f"~{ins[0]}"
        elif g.kind == "MUX":
            expr = f"{ins[0]} ? {ins[2]} : {ins[1]}"
        elif g.kind == "CONST0":
            expr = "1'b0"
        elif g.kind == "CONST1":
            expr = "1'b1"
        else:  # BUF
            expr = ins[0]
        lines.append(f"  assign {out} = {expr};")
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


_ASSIGN_RE = re.compile(r"^assign\s+(\S+)\s*=\s*(.+?);(?:\s*//\s*(\w+))?$")
_PORT_DECL_RE = re.compile(r"^(input|output)\s+(?:\[(\d+):0\]\s+)?(\w+);$")
_FLOPQ_RE = re.compile(r"^assign\s+(\w+)\s*=\s*(\w+)_r;\s*//\s*flopq$")
_RESET_RE = re.compile(r"^if \(!rst_n\) (\w+)_r <= 1'b([01]);$")
_NEXT_RE = re.compile(r"^else (\w+)_r <= (\w+);$")
_BIT_RE = re.compile(r"^(\w+)\[(\d+)\]$")


def parse_verilog(source: str) -> Netlist:
    """Parse the emitter's own structural subset back into a Netlist.

    Only intended for round-trip checks of emit_verilog output.
    """
    name = "top"
    port_dirs: Dict[str, Tuple[str, int]] = {}
    assigns: List[Tuple[str, str, Optional[str]]] = []
    resets: Dict[str, int] = {}
    nexts: Dict[str, str] = {}
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        m = re.match(r"^module\s+(\w+)\s*\($", line)
        if m:
            name = m.group(1)
            continue
        m = _PORT_DECL_RE.match(line)
        if m:
            direction, msb, pname = m.groups()
            if pname in ("clk", "rst_n"):
                continue
            width = int(msb) + 1 if msb else 1
            port_dirs[pname] = ("in" if direction == "input" else "out", width)
            continue
        m = _RESET_RE.match(line)
        if m:
            resets[m.group(1)] = int(m.group(2))
            continue
        m = _NEXT_RE.match(line)
        if m:
            nexts[m.group(1)] = m.group(2)
            continue
        m = _ASSIGN_RE.match(line)
        if m:
            assigns.append((m.group(1), m.group(2).strip(), m.group(3)))
            continue
        # module header body lines, wire/reg decls, always, endmodule: ignored
    nl = Netlist(name)
    in_port_bits: Dict[str, List[Optional[str]]] = {
        p: [None] * w for p, (d, w) in port_dirs.items() if d == "in"
    }
    out_port_bits: Dict[str, List[Optional[str]]] = {
        p: [None] * w for p, (d, w) in port_dirs.items() if d == "out"
    }
    gates: List[Tuple[str, List[str], str]] = []
    for lhs, rhs, marker in assigns:
        if marker == "flopq":
            continue  # handled via resets/nexts
        if marker == "portin":
            m = _BIT_RE.match(rhs)
            if m:
                in_port_bits[m.group(1)][int(m.group(2))] = lhs
            else:
                in_port_bits[rhs][0] = lhs
            continue
        if marker == "portout":
            m = _BIT_RE.match(lhs)
            if m:
                out_port_bits[m.group(1)][int(m.group(2))] = rhs
            else:
                out_port_bits[lhs][0] = rhs
            continue
        if rhs == "1'b0":
            gates.append(("CONST0", [], lhs))
        elif rhs == "1'b1":
            gates.append(("CONST1", [], lhs))
        elif "?" in rhs:
            m = re.match(r"^(\w+) \? (\w+) : (\w+)$", rhs)
            if not m:
                raise NetlistError(f"unparseable mux expression {rhs!r}")
            gates.append(("MUX", [m.group(1), m.group(3), m.group(2)], lhs))
        elif "^" in rhs:
            a, b = [s.strip() for s in rhs.split("^")]
            gates.append(("XOR", [a, b], lhs))
        elif "&" in rhs:
            a, b = [s.strip() for s in rhs.split("&")]
            gates.append(("AND", [a, b], lhs))
        elif "|" in rhs:
            a, b = [s.strip() for s in rhs.split("|")]
            gates.append(("OR", [a, b], lhs))
        elif rhs.startswith("~"):
            gates.append(("NOT", [rhs[1:]], lhs))
        else:
            gates.append(("BUF", [rhs], lhs))
    for pname, bits in in_port_bits.items():
        if any(b is None for b in bits):
            raise NetlistError(f"input port {pname!r} has unbound bits")
        nl.add_port(pname, "in", [b for b in bits])
    for kind, ins, out in gates:
        nl.add_gate(kind, ins, out)
    for q, d in sorted(nexts.items()):
        nl.add_flop(d, q, resets.get(q, 0))
    for pname, bits in out_port_bits.items():
        if any(b is None for b in bits):
            raise NetlistError(f"output port {pname!r} has unbound bits")
        nl.add_port(pname, "out", [b for b in bits])
    nl.validate()
    return nl
