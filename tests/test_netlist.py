import gc
import itertools
import random
import re
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsmguard import netlist as nl
from fsmguard.netlist import FaultSite, Gate, Netlist


def full_adder():
    """1-bit full adder: sum = a^b^cin, cout = ab | cin(a^b)."""
    n = Netlist("adder")
    n.add_port("a", "in", ["a"])
    n.add_port("b", "in", ["b"])
    n.add_port("cin", "in", ["cin"])
    n.add_gate("XOR", ["a", "b"], "axb")
    n.add_gate("XOR", ["axb", "cin"], "sum")
    n.add_gate("AND", ["a", "b"], "ab")
    n.add_gate("AND", ["axb", "cin"], "axb_c")
    n.add_gate("OR", ["ab", "axb_c"], "cout")
    n.add_port("sum", "out", ["sum"])
    n.add_port("cout", "out", ["cout"])
    n.validate()
    return n


def counter2():
    """2-bit up counter with a MUX-based enable."""
    n = Netlist("counter2")
    n.add_port("en", "in", ["en"])
    n.add_gate("XOR", ["q0", "q0"], "zero")
    n.add_gate("NOT", ["q0"], "q0_n")
    n.add_gate("XOR", ["q1", "q0"], "q1_next")
    n.add_gate("MUX", ["en", "q0", "q0_n"], "d0")
    n.add_gate("MUX", ["en", "q1", "q1_next"], "d1")
    n.add_flop("d0", "q0")
    n.add_flop("d1", "q1")
    n.add_port("count", "out", ["q0", "q1"])
    n.validate()
    return n


def test_full_adder_truth_table():
    n = full_adder()
    for a, b, c in itertools.product((0, 1), repeat=3):
        res = nl.simulate_batch(n, [[{"a": a, "b": b, "cin": c}]])
        total = a + b + c
        assert res.port_value("sum", 0) == total & 1
        assert res.port_value("cout", 0) == total >> 1


def test_compiled_netlist_freed_by_reference_count():
    # a compiled netlist must not sit in a reference cycle: only the cycle
    # collector would free it, so a process that builds one netlist per run
    # keeps the old ones, and their memory, until that collector runs
    n = counter2()
    nl.simulate_batch(n, [[{"en": 1}]])
    dead = weakref.ref(n)
    gc.disable()
    try:
        del n
        assert dead() is None
    finally:
        gc.enable()


def test_counter_counts_and_holds():
    n = counter2()
    trace = [{"en": 1}] * 5 + [{"en": 0}] * 2 + [{"en": 1}]
    res = nl.simulate_batch(n, [trace])
    assert res.port_column("count") == [0, 1, 2, 3, 0, 1, 1, 1]


def test_flops_reset_values():
    n = Netlist("r")
    n.add_port("x", "in", ["x"])
    n.add_gate("BUF", ["q"], "y")
    n.add_flop("x", "q", reset_value=1)
    n.add_port("y", "out", ["y"])
    n.validate()
    res = nl.simulate_batch(n, [[{"x": 0}, {"x": 0}]])
    assert res.port_column("y") == [1, 0]


def test_const_gates():
    n = Netlist("c")
    n.add_port("x", "in", ["x"])
    n.add_gate("CONST0", [], "lo")
    n.add_gate("CONST1", [], "hi")
    n.add_gate("AND", ["x", "hi"], "a")
    n.add_gate("OR", ["a", "lo"], "y")
    n.add_port("y", "out", ["y"])
    n.validate()
    assert nl.simulate_batch(n, [[{"x": 1}]]).port_value("y", 0) == 1
    assert nl.simulate_batch(n, [[{"x": 0}]]).port_value("y", 0) == 0


def test_mux_all_cases():
    # MUX (sel, a, b) is sel ? b : a, on one lane and on 8 lanes packed
    n = Netlist("m")
    n.add_port("x", "in", ["s", "a", "b"])
    n.add_gate("MUX", ["s", "a", "b"], "y")
    n.add_port("y", "out", ["y"])
    n.validate()
    idx = n._compile().index
    assert n._compile().ops == [(nl.GATE_KINDS.index("MUX"), idx["y"], idx["s"], idx["a"], idx["b"])]
    cases = list(itertools.product((0, 1), repeat=3))
    want = [b if s else a for s, a, b in cases]
    traces = [[{"x": s | a << 1 | b << 2}] for s, a, b in cases]
    for trace, y in zip(traces, want):
        assert nl.simulate_batch(n, [trace]).port_bits["y"] == [[y]]
    # exact ints: a negative or over-wide value would not compare equal
    assert nl.simulate_batch(n, traces).port_bits["y"] == [[sum(y << lane for lane, y in enumerate(want))]]


def test_multi_driver_rejected():
    n = Netlist()
    n.add_port("x", "in", ["x"])
    n.add_gate("NOT", ["x"], "y")
    with pytest.raises(nl.NetlistError, match="multiple drivers"):
        n.add_gate("BUF", ["x"], "y")


def test_undriven_input_rejected():
    n = Netlist()
    n.add_gate("NOT", ["ghost"], "y")
    n.add_port("y", "out", ["y"])
    with pytest.raises(nl.NetlistError, match="no driver"):
        n.validate()


def test_combinational_cycle_rejected():
    n = Netlist()
    n.add_gate("NOT", ["b"], "a")
    n.add_gate("NOT", ["a"], "b")
    n.add_port("a", "out", ["a"])
    with pytest.raises(nl.NetlistError, match="cycle"):
        n.validate()


def test_bad_arity_rejected():
    n = Netlist()
    with pytest.raises(nl.NetlistError, match="expects"):
        n.add_gate("XOR", ["a"], "y")


def test_batch_matches_single_lane():
    n = counter2()
    rng = random.Random(5)
    traces = [[{"en": rng.randrange(2)} for _ in range(12)] for _ in range(10)]
    batch = nl.simulate_batch(n, traces)
    for lane, trace in enumerate(traces):
        single = nl.simulate_batch(n, [trace])
        for c in range(12):
            assert batch.port_value("count", c, lane) == single.port_value("count", c)


def test_flip_fault_single_cycle():
    n = counter2()
    trace = [{"en": 1}] * 4
    res = nl.simulate_batch(n, [trace], [[FaultSite("d0", "flip", cycle=1)]])
    # cycle 1's next-state LSB is inverted: 0,1, then (2^1)=3, then 0
    assert res.port_column("count") == [0, 1, 3, 0]


def test_stuck_fault_persists_from_onset():
    n = counter2()
    trace = [{"en": 1}] * 5
    res = nl.simulate_batch(n, [trace], [[FaultSite("q0", "stuck1", cycle=2)]])
    golden = nl.simulate_batch(n, [trace])
    assert res.port_column("count")[:2] == golden.port_column("count")[:2]
    for c in range(2, 5):
        assert res.port_value("count", c) & 1 == 1


def test_two_flips_same_net_cancel():
    n = full_adder()
    faults = [FaultSite("axb", "flip", 0), FaultSite("axb", "flip", 0)]
    res = nl.simulate_batch(n, [[{"a": 1, "b": 0, "cin": 0}]], [faults])
    assert res.port_value("sum", 0) == 1


def test_fault_on_input_port_bit():
    n = full_adder()
    res = nl.simulate_batch(n, [[{"a": 0, "b": 0, "cin": 0}]], [[FaultSite("a", "flip", 0)]])
    assert res.port_value("sum", 0) == 1


def test_unknown_fault_location():
    n = full_adder()
    with pytest.raises(nl.NetlistError, match="unknown fault location"):
        nl.simulate_batch(n, [[{"a": 0, "b": 0, "cin": 0}]], [[FaultSite("nope", "flip", 0)]])


def test_faults_are_lane_local():
    n = full_adder()
    trace = [{"a": 1, "b": 0, "cin": 0}]
    res = nl.simulate_batch(n, [trace, trace], [[FaultSite("sum", "stuck0", None)], []])
    assert res.port_value("sum", 0, lane=0) == 0
    assert res.port_value("sum", 0, lane=1) == 1


def test_enumerate_sites_all():
    n = full_adder()
    sites = nl.enumerate_fault_sites(n, "all")
    assert set(sites) == {"axb", "sum", "ab", "axb_c", "cout"}


def test_enumerate_sites_scoped():
    n = Netlist()
    n.add_port("x", "in", ["x"])
    n.add_gate("BUF", ["x"], "m", tag="diffusion")
    n.add_gate("BUF", ["m"], "y")
    n.add_flop("y", "q", tag="state_reg")
    n.add_port("q", "out", ["q"])
    n.validate()
    assert nl.enumerate_fault_sites(n, "diffusion_only") == ["m"]
    assert nl.enumerate_fault_sites(n, "inputs_only") == ["q", "x"]
    with pytest.raises(nl.NetlistError, match="unknown scope"):
        nl.enumerate_fault_sites(n, "everything")


def test_enumerate_diffusion_requires_tags():
    n = full_adder()
    with pytest.raises(nl.NetlistError, match="diffusion"):
        nl.enumerate_fault_sites(n, "diffusion_only")


def test_json_round_trip():
    n = counter2()
    n.meta["note"] = "hello"
    again = nl.from_json_dict(nl.to_json_dict(n))
    assert again.name == n.name
    assert again.gates == n.gates
    assert again.flops == n.flops
    assert again.ports == n.ports
    assert again.meta == n.meta
    res = nl.simulate_batch(again, [[{"en": 1}] * 3])
    assert res.port_column("count") == [0, 1, 2]


def test_verilog_emit_and_reparse_behavior():
    n = counter2()
    text = nl.emit_verilog(n)
    assert "module counter2" in text
    assert "negedge rst_n" in text
    again = nl.parse_verilog(text)
    trace = [{"en": 1}] * 6
    a = nl.simulate_batch(n, [trace]).port_column("count")
    b = nl.simulate_batch(again, [trace]).port_column("count")
    assert a == b


def test_verilog_round_trip_full_adder_exhaustive():
    again = nl.parse_verilog(nl.emit_verilog(full_adder()))
    for a, b, c in itertools.product((0, 1), repeat=3):
        res = nl.simulate_batch(again, [[{"a": a, "b": b, "cin": c}]])
        assert res.port_value("sum", 0) == (a + b + c) & 1
        assert res.port_value("cout", 0) == (a + b + c) >> 1


def test_verilog_renames_non_identifier_nets():
    n = nl.Netlist("odd")
    n.add_port("a", "in", ["a.0", "a.1"])
    n.add_gate("XOR", ["a.0", "a.1"], "x[0]")
    n.add_gate("NOT", ["x[0]"], "y-n")
    n.add_flop("y-n", "q.r")
    n.add_port("o", "out", ["q.r", "x[0]"])
    n.validate()
    text = nl.emit_verilog(n)
    for raw, legal in [("a.0", "a_0"), ("a.1", "a_1"), ("x[0]", "x_0_"), ("y-n", "y_n"), ("q.r", "q_r")]:
        assert raw not in text
        assert f"  wire {legal};" in text
    again = nl.parse_verilog(text)
    trace = [{"a": v} for v in (0, 1, 2, 3, 1)]
    assert nl.simulate_batch(again, [trace]).port_column("o") == nl.simulate_batch(
        n, [trace]
    ).port_column("o")


def test_verilog_renames_nets_that_start_with_a_digit():
    # a Verilog identifier cannot start with a digit, nor end with a newline
    n = nl.Netlist("digits")
    n.add_port("a", "in", ["0a"])
    n.add_gate("NOT", ["0a"], "1-b")
    n.add_gate("BUF", ["1-b"], "c\n")
    n.add_port("o", "out", ["1-b", "c\n"])
    n.validate()
    text = nl.emit_verilog(n)
    wires = re.findall(r"^  wire (.*);$", text, re.M)
    assert sorted(wires) == ["c_", "n0a", "n1_b"]
    assert "  assign n1_b = ~n0a;" in text
    again = nl.parse_verilog(text)
    assert again.gates == [Gate("NOT", ("n0a",), "n1_b"), Gate("BUF", ("n1_b",), "c_")]
    trace = [{"a": v} for v in (0, 1, 1, 0)]
    assert nl.simulate_batch(again, [trace]).port_column("o") == nl.simulate_batch(
        n, [trace]
    ).port_column("o")


def test_verilog_rejects_nets_renamed_to_one_name():
    n = nl.Netlist("clash")
    n.add_port("a", "in", ["a.0", "a_0"])
    n.add_gate("XOR", ["a.0", "a_0"], "x")
    n.add_port("o", "out", ["x"])
    n.validate()
    with pytest.raises(nl.NetlistError, match=r"^nets 'a\.0' and 'a_0' are both named 'a_0' in Verilog$"):
        nl.emit_verilog(n)


def test_verilog_rejects_net_named_like_a_flop_register():
    n = counter2()
    n.add_gate("NOT", ["q1"], "q1_r")
    n.add_port("o", "out", ["q1_r"])
    n.validate()
    with pytest.raises(nl.NetlistError, match=r"^net 'q1_r' is named like the register 'q1_r' of flop 'q1'$"):
        nl.emit_verilog(n)


def small_verilog():
    n = Netlist("m")
    n.add_port("x", "in", ["a", "c"])
    n.add_gate("NOT", ["a"], "a_n")
    n.add_gate("XOR", ["a_n", "c"], "b")
    n.add_port("o", "out", ["b"])
    n.validate()
    return nl.emit_verilog(n)


@pytest.mark.parametrize(
    "good, bad",
    [
        ("assign a = x[0]; // portin", "assign a = x[5]; // portin"),  # past the port's width
        ("assign a = x[0]; // portin", "assign a = y; // portin"),  # undeclared port
        ("assign b = a_n ^ c;", "assign b = a_n ^ a_n ^ a_n;"),  # three XOR inputs
        ("assign b = a_n ^ c;", "assign b = a_n + a_n;"),  # no gate kind emits +
        ("assign b = a_n ^ c;", "assign a = ~c;"),  # drives an input port's bit
    ],
)
def test_verilog_parse_errors_name_the_line(good, bad):
    text = small_verilog()
    assert nl.parse_verilog(text).gates == [Gate("NOT", ("a",), "a_n"), Gate("XOR", ("a_n", "c"), "b")]
    assert f"\n  {good}\n" in text
    text = text.replace(good, bad)
    lineno = text.splitlines().index(f"  {bad}") + 1
    with pytest.raises(nl.NetlistError, match=rf"^line {lineno}: .+: {re.escape(repr(bad))}$"):
        nl.parse_verilog(text)


# -- reference engine -------------------------------------------------------

_REF_OPS = {
    "XOR": lambda a: a[0] ^ a[1],
    "AND": lambda a: a[0] & a[1],
    "OR": lambda a: a[0] | a[1],
    "NOT": lambda a: 1 - a[0],
    "MUX": lambda a: a[2] if a[0] else a[1],
    "CONST0": lambda a: 0,
    "CONST1": lambda a: 1,
    "BUF": lambda a: a[0],
}


def reference_simulate(netlist, trace, faults):
    """One lane, one bit per net: ``netlist.gates`` evaluated on demand by
    recursion, so neither the compiled op order nor lane packing is involved.

    Returns (cycle -> port -> bits, cycle -> flop q values).
    """
    by_out = {g.output: g for g in netlist.gates}
    state = {f.q: f.reset_value for f in netlist.flops}
    ports, flop_q = [], []
    for c, assignment in enumerate(trace):
        active = [
            f for f in faults
            if f.cycle is None or (f.cycle == c if f.effect == "flip" else c >= f.cycle)
        ]

        def faulted(net, v):
            effects = [f.effect for f in active if f.location == net]
            v ^= effects.count("flip") & 1
            if "stuck0" in effects:
                v = 0
            if "stuck1" in effects:
                v = 1
            return v

        vals = {f.q: faulted(f.q, state[f.q]) for f in netlist.flops}
        for p in netlist.ports:
            if p.direction == "in":
                for i, b in enumerate(p.bits):
                    vals[b] = faulted(b, (assignment[p.name] >> i) & 1)

        def value(net):
            if net not in vals:
                g = by_out[net]
                vals[net] = faulted(net, _REF_OPS[g.kind]([value(n) for n in g.inputs]))
            return vals[net]

        ports.append({p.name: [value(b) for b in p.bits] for p in netlist.ports})
        flop_q.append([vals[f.q] for f in netlist.flops])
        state = {f.q: value(f.d) for f in netlist.flops}
    return ports, flop_q


@st.composite
def gate_lists(draw):
    """Random input port widths, flop q nets and acyclic gates over every
    kind, the gates as ``(kind, inputs, output)`` in topological order."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    qs = [f"q{i}" for i in range(draw(st.integers(0, 4)))]
    nets = [f"i{p}_{b}" for p, w in enumerate(widths) for b in range(w)] + qs
    gates = []
    for i in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(nl.GATE_KINDS))
        ins = [draw(st.sampled_from(nets)) for _ in range(nl._ARITY[kind])]
        gates.append((kind, ins, f"g{i}"))
        nets.append(f"g{i}")
    return widths, qs, gates


def _gate_netlist(widths, gates, flops=()):
    """A netlist of ``gates`` in the given order and ``(d, q, reset)`` flops."""
    n = Netlist("rand")
    for p, w in enumerate(widths):
        n.add_port(f"in{p}", "in", [f"i{p}_{b}" for b in range(w)])
    for kind, ins, out in gates:
        n.add_gate(kind, ins, out)
    for d, q, reset in flops:
        n.add_flop(d, q, reset)
    return n


@st.composite
def faulted_netlists(draw):
    """A random acyclic netlist over every gate kind, with flops, plus
    per-lane traces and fault lists on gate outputs, flop q and input bits."""
    widths, qs, gates = draw(gate_lists())
    in_bits = [[f"i{p}_{b}" for b in range(w)] for p, w in enumerate(widths)]
    nets = [b for bits in in_bits for b in bits] + qs + [g[2] for g in gates]
    # listed out of topological order, so the compiled sort has work to do
    flops = [(draw(st.sampled_from(nets)), q, draw(st.integers(0, 1))) for q in qs]
    n = _gate_netlist(widths, draw(st.permutations(gates)), flops)
    n.add_port("out", "out", draw(st.lists(st.sampled_from(nets), min_size=1, max_size=6)))
    n.validate()
    cycles = draw(st.integers(1, 6))
    lanes = draw(st.integers(1, 5))
    traces = [
        [{f"in{p}": draw(st.integers(0, (1 << w) - 1)) for p, w in enumerate(widths)}
         for _ in range(cycles)]
        for _ in range(lanes)
    ]
    site = st.builds(
        FaultSite,
        st.sampled_from([g[2] for g in gates] + qs + [b for bits in in_bits for b in bits]),
        st.sampled_from(["flip", "stuck0", "stuck1"]),
        st.none() | st.integers(0, cycles),
    )
    fault_lanes = [draw(st.lists(site, max_size=4)) for _ in range(lanes)]
    return n, traces, fault_lanes


@settings(max_examples=200, deadline=None)
@given(faulted_netlists())
def test_simulate_batch_matches_reference(case):
    n, traces, fault_lanes = case
    res = nl.simulate_batch(n, traces, fault_lanes)
    for lane, (trace, faults) in enumerate(zip(traces, fault_lanes)):
        ports, flop_q = reference_simulate(n, trace, faults)
        for c in range(len(trace)):
            for name, bits in ports[c].items():
                assert [(v >> lane) & 1 for v in res.port_bits[name][c]] == bits, (lane, c, name)
            assert [(v >> lane) & 1 for v in res.flop_q[c]] == flop_q[c], (lane, c)


@settings(max_examples=200, deadline=None)
@given(faulted_netlists())
def test_run_ops_keeps_values_in_lane_range(case):
    # every value _run_ops leaves is in 0..full: a negative int would put
    # every later & on it on CPython's slow path
    n, traces, fault_lanes = case
    run = nl._run_ops
    fulls = []

    def checked(ops, values, full, masks):
        run(ops, values, full, masks)
        fulls.append(full)
        assert all(0 <= v <= full for v in values)

    with mock.patch.object(nl, "_run_ops", checked):
        nl.simulate_batch(n, traces, fault_lanes)
    assert fulls == [(1 << len(traces)) - 1] * len(traces[0])


@settings(max_examples=200, deadline=None)
@given(faulted_netlists())
def test_verilog_round_trip_keeps_structure(case):
    # every gate kind in random order, MUX legs and both constants included
    n = case[0]
    again = nl.parse_verilog(nl.emit_verilog(n))
    assert again.name == n.name
    assert again.gates == n.gates
    assert again.flops == n.flops
    assert again.ports == n.ports


def _reads(op):
    kind, _, *ins = op
    return ins[: nl._ARITY[nl.GATE_KINDS[kind]]]


@settings(max_examples=200, deadline=None)
@given(faulted_netlists())
def test_compiled_ops_read_only_earlier_ops_flops_or_inputs(case):
    # the gates are listed in a random order
    n = case[0]
    comp = n._compile()
    ready = {comp.index[f.q] for f in n.flops} | {i for _, bits in comp.in_ports for i in bits}
    for op in comp.ops:
        assert set(_reads(op)) <= ready, op
        ready.add(op[1])
    assert sorted(op[1] for op in comp.ops) == sorted(comp.index[g.output] for g in n.gates)


@settings(max_examples=200, deadline=None)
@given(gate_lists())
def test_compiled_ops_keep_a_topological_gate_order(case):
    widths, qs, gates = case
    n = _gate_netlist(widths, gates, [("i0_0", q, 0) for q in qs])
    n.validate()
    comp = n._compile()
    assert [op[1] for op in comp.ops] == [comp.index[g[2]] for g in gates]


@settings(max_examples=200, deadline=None)
@given(gate_lists(), st.data())
def test_a_back_edge_is_a_combinational_cycle(case, data):
    widths, qs, gates = case
    by_out = {out: (kind, ins) for kind, ins, out in gates}
    reading = [j for j, (kind, _, _) in enumerate(gates) if nl._ARITY[kind]]
    assume(reading)
    j = data.draw(st.sampled_from(reading))
    # gate i in j's fan-in cone (j included) rewired to read j: a cycle
    cone, todo = set(), [gates[j][2]]
    while todo:
        net = todo.pop()
        if net in by_out and net not in cone:
            cone.add(net)
            todo += by_out[net][1]
    i = data.draw(st.sampled_from([k for k, g in enumerate(gates) if g[2] in cone and g[1]]))
    kind, ins, out = gates[i]
    pin = data.draw(st.integers(0, len(ins) - 1))
    gates = list(gates)
    gates[i] = (kind, [*ins[:pin], gates[j][2], *ins[pin + 1:]], out)
    n = _gate_netlist(widths, data.draw(st.permutations(gates)), [("i0_0", q, 0) for q in qs])
    with pytest.raises(nl.NetlistError, match="combinational cycle detected"):
        n.validate()
