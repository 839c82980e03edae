"""Abstract FSM descriptions: parsing, validation, CFG extraction, reference simulation."""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple


class FsmError(Exception):
    pass


class FsmParseError(FsmError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FsmValidationError(FsmError):
    pass


class SimulationIncompleteError(FsmError):
    def __init__(self, message: str, step: int):
        self.step = step
        super().__init__(f"step {step}: {message}")


@dataclass(frozen=True)
class Signal:
    name: str
    width: int


@dataclass(frozen=True)
class Transition:
    """One edge of the FSM. An empty guard marks the default/else edge."""

    src: str
    guard: Tuple[Tuple[str, int], ...]  # sorted (signal, value) literals
    dst: str
    outputs: Tuple[Tuple[str, int], ...] = ()

    @property
    def is_default(self) -> bool:
        return not self.guard

    def guard_dict(self) -> Dict[str, int]:
        return dict(self.guard)

    def guard_label(self) -> str:
        if not self.guard:
            return "default"
        return ",".join(f"{s}={v}" for s, v in self.guard)


@dataclass(frozen=True)
class FsmSpec:
    name: str
    states: Tuple[str, ...]
    reset_state: str
    control_signals: Tuple[Signal, ...]
    outputs: Tuple[Signal, ...]
    transitions: Tuple[Transition, ...]
    state_outputs: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...] = ()

    @cached_property
    def _by_src(self) -> Dict[str, List[Transition]]:
        by_src: Dict[str, List[Transition]] = {}
        for t in self.transitions:
            by_src.setdefault(t.src, []).append(t)
        return by_src

    def transitions_from(self, state: str) -> List[Transition]:
        return list(self._by_src.get(state, ()))

    def input_width(self) -> int:
        return sum(s.width for s in self.control_signals)

    def state_output_map(self) -> Dict[str, Dict[str, int]]:
        return {s: dict(vals) for s, vals in self.state_outputs}


def _normalize_guard(guard: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(guard.items()))


def _guards_compatible(a: Transition, b: Transition) -> bool:
    da, db = a.guard_dict(), b.guard_dict()
    for sig, val in da.items():
        if sig in db and db[sig] != val:
            return False
    return True


def _check_outputs(pairs: Tuple[Tuple[str, int], ...], widths: Dict[str, int], where: str) -> None:
    for sig, val in pairs:
        if sig not in widths:
            raise FsmValidationError(f"unknown output {sig!r} {where}")
        if not 0 <= val < (1 << widths[sig]):
            raise FsmValidationError(f"value {val} does not fit output {sig!r} ({widths[sig]} bits) {where}")


def validate(fsm: FsmSpec) -> FsmSpec:
    """Check names, widths, membership, determinism and reachability invariants."""
    if not isinstance(fsm.name, str):
        raise FsmValidationError(f"the FSM name is not a string: {fsm.name!r}")
    for what, names in (
        ("state", fsm.states),
        ("input signal", [s.name for s in fsm.control_signals]),
        ("output signal", [s.name for s in fsm.outputs]),
    ):
        seen = set()
        for name in names:
            if name in seen:
                raise FsmValidationError(f"duplicate {what} {name!r}")
            seen.add(name)
    for what, sigs in (("input", fsm.control_signals), ("output", fsm.outputs)):
        for sig in sigs:
            if sig.width < 1:
                raise FsmValidationError(f"{what} signal {sig.name!r} has width {sig.width}, below 1")
    states = set(fsm.states)
    if len(fsm.states) < 2:
        raise FsmValidationError("an FSM needs at least 2 states")
    if fsm.reset_state not in states:
        raise FsmValidationError(f"unknown reset state {fsm.reset_state!r}")
    signals = {s.name: s for s in fsm.control_signals}
    for t in fsm.transitions:
        if t.src not in states:
            raise FsmValidationError(f"unknown state {t.src!r}")
        if t.dst not in states:
            raise FsmValidationError(f"unknown state {t.dst!r}")
        for sig, val in t.guard:
            if sig not in signals:
                raise FsmValidationError(f"unknown signal {sig!r} in guard of {t.src}->{t.dst}")
            if not 0 <= val < (1 << signals[sig].width):
                raise FsmValidationError(
                    f"value {val} does not fit signal {sig!r} ({signals[sig].width} bits)"
                )
    out_widths = {s.name: s.width for s in fsm.outputs}
    for t in fsm.transitions:
        _check_outputs(t.outputs, out_widths, f"on {t.src}->{t.dst}")
    for state, vals in fsm.state_outputs:
        if state not in states:
            raise FsmValidationError(f"unknown state {state!r} in state_outputs")
        _check_outputs(vals, out_widths, f"in state_outputs of {state!r}")
    # determinism: explicit guards of a state must be pairwise disjoint
    for state in fsm.states:
        outgoing = fsm.transitions_from(state)
        explicit = [t for t in outgoing if not t.is_default]
        defaults = [t for t in outgoing if t.is_default]
        if len(defaults) > 1:
            raise FsmValidationError(f"state {state!r} has multiple default edges")
        for i in range(len(explicit)):
            for j in range(i + 1, len(explicit)):
                if _guards_compatible(explicit[i], explicit[j]):
                    raise FsmValidationError(
                        f"nondeterministic guards in state {state!r}: "
                        f"[{explicit[i].guard_label()}] overlaps [{explicit[j].guard_label()}]"
                    )
    # reachability: warn only
    reached = {fsm.reset_state}
    frontier = [fsm.reset_state]
    while frontier:
        for t in fsm.transitions_from(frontier.pop()):
            if t.dst not in reached:
                reached.add(t.dst)
                frontier.append(t.dst)
    unreachable = [s for s in fsm.states if s not in reached]
    if unreachable:
        warnings.warn(f"unreachable states: {', '.join(unreachable)}", stacklevel=2)
    return fsm


def complete(fsm: FsmSpec) -> FsmSpec:
    """Add an implicit default self-loop to every state lacking a default edge."""
    transitions = list(fsm.transitions)
    for state in fsm.states:
        if not any(t.is_default for t in fsm.transitions_from(state)):
            transitions.append(Transition(state, (), state))
    return replace(fsm, transitions=tuple(transitions))


# ---------------------------------------------------------------------------
# Parsing


def parse_fsm(source: str, format: str = "json") -> FsmSpec:
    """Parse a KISS2 or JSON FSM description into a validated, completed FsmSpec."""
    if format == "json":
        fsm = _parse_json(source)
    elif format == "kiss2":
        fsm = _parse_kiss2(source)
    else:
        raise ValueError(f"unknown format {format!r}")
    validate(fsm)
    return complete(fsm)


def _int_field(value: object, where: str) -> int:
    # int() alone would also truncate a float such as 1.5 to 1, and read true as 1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise FsmParseError(f"{where} is not an integer: {value!r}")


def _str_field(value: object, where: str) -> str:
    # a list would fail later as an unhashable state, a number as a Verilog name
    if isinstance(value, str):
        return value
    raise FsmParseError(f"{where} is not a string: {value!r}")


def _parse_json(source: str) -> FsmSpec:
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise FsmParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise FsmParseError(f"the FSM document is a JSON {type(doc).__name__}, not an object")

    def signals(key: str) -> Tuple[Signal, ...]:
        return tuple(
            Signal(_str_field(s["name"], f"{key}[{i}].name"), _int_field(s.get("width", 1), f"{key}[{i}].width"))
            for i, s in enumerate(doc.get(key, []))
        )

    def values(pairs: Dict[str, object], where: str) -> Tuple[Tuple[str, int], ...]:
        return _normalize_guard({k: _int_field(v, f"{where}.{k}") for k, v in pairs.items()})

    try:
        name = doc.get("name", "fsm")
        if not isinstance(doc["states"], list):  # tuple() would split a string into states
            raise FsmParseError(f"states is not a list: {doc['states']!r}")
        states = tuple(_str_field(s, f"states[{i}]") for i, s in enumerate(doc["states"]))
        reset = _str_field(doc["reset"], "reset")
        inputs, outputs = signals("inputs"), signals("outputs")
        transitions = []
        for i, t in enumerate(doc.get("transitions", [])):
            guard = values(t.get("guard", {}), f"transitions[{i}].guard")
            outs = values(t.get("outputs", {}), f"transitions[{i}].outputs")
            src, dst = (_str_field(t[end], f"transitions[{i}].{end}") for end in ("from", "to"))
            transitions.append(Transition(src, guard, dst, outs))
        state_outputs = tuple(
            (s, values(vals, f"state_outputs.{s}")) for s, vals in doc.get("state_outputs", {}).items()
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise FsmParseError(f"malformed FSM document: missing/bad field {exc}") from exc
    return FsmSpec(name, states, reset, inputs, outputs, tuple(transitions), state_outputs)


def _parse_kiss2(source: str) -> FsmSpec:
    n_in = n_out = None
    reset = None
    rows: List[Tuple[int, str, str, str, str]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key in (".i", ".o", ".r") and len(parts) != 2:
                raise FsmParseError(f"{key} takes exactly one value", line=lineno)
            if key in (".i", ".o"):
                try:
                    count = int(parts[1])
                except ValueError:
                    raise FsmParseError(
                        f"{key} value {parts[1]!r} is not an integer", line=lineno
                    ) from None
                if key == ".i":
                    n_in = count
                else:
                    n_out = count
            elif key == ".r":
                reset = parts[1]
            elif key in (".s", ".p", ".ilb", ".ob"):
                pass
            elif key == ".e" or key == ".end":
                break
            else:
                raise FsmParseError(f"unknown directive {key!r}", line=lineno)
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FsmParseError("expected 'inputs current next outputs'", line=lineno)
        rows.append((lineno, *parts))
    if n_in is None or n_out is None:
        raise FsmParseError("missing .i/.o header")
    if not rows:
        raise FsmParseError("no transitions")
    inputs = tuple(Signal(f"x{i}", 1) for i in range(n_in))
    outputs = tuple(Signal(f"y{i}", 1) for i in range(n_out))
    states: List[str] = []
    transitions = []
    for lineno, in_bits, cur, nxt, out_bits in rows:
        if len(in_bits) != n_in:
            raise FsmParseError(f"guard {in_bits!r} does not match .i {n_in}", line=lineno)
        if len(out_bits) != n_out:
            raise FsmParseError(f"outputs {out_bits!r} do not match .o {n_out}", line=lineno)
        for s in (cur, nxt):
            if s not in states:
                states.append(s)
        guard = {}
        for i, ch in enumerate(in_bits):
            if ch == "-":
                continue
            if ch not in "01":
                raise FsmParseError(f"bad guard character {ch!r}", line=lineno)
            guard[f"x{i}"] = int(ch)
        outs = {}
        for i, ch in enumerate(out_bits):
            if ch == "-":
                continue
            outs[f"y{i}"] = int(ch)
        transitions.append(
            Transition(cur, _normalize_guard(guard), nxt, _normalize_guard(outs))
        )
    if reset is None:
        reset = rows[0][2]
    return FsmSpec("kiss2_fsm", tuple(states), reset, inputs, outputs, tuple(transitions))


# ---------------------------------------------------------------------------
# CFG extraction and reference simulation


def extract_cfg(fsm: FsmSpec) -> List[Transition]:
    """All transition edges in deterministic source order, default edges last per state."""
    edges: List[Transition] = []
    for state in fsm.states:
        outgoing = fsm.transitions_from(state)
        edges.extend(t for t in outgoing if not t.is_default)
        edges.extend(t for t in outgoing if t.is_default)
    return edges


def _guard_matches(guard: Tuple[Tuple[str, int], ...], assignment: Dict[str, int]) -> bool:
    return all(assignment.get(sig) == val for sig, val in guard)


def step(fsm: FsmSpec, state: str, assignment: Dict[str, int], step_index: int = 0) -> Transition:
    """The unique transition fired from ``state`` under ``assignment``."""
    outgoing = fsm.transitions_from(state)
    default = None
    for t in outgoing:
        if t.is_default:
            default = t
        elif _guard_matches(t.guard, assignment):
            return t
    if default is None:
        raise SimulationIncompleteError(
            f"state {state!r} has no matching transition and no default edge", step_index
        )
    return default


def simulate_edges(fsm: FsmSpec, input_trace: Sequence[Dict[str, int]]) -> List[Transition]:
    """The sequence of edges fired along a trace from the reset state.

    Every assignment must be a mapping that gives every control signal an
    integer that fits its width: a missing or malformed value would
    otherwise fire the default edge silently.
    """
    widths = {s.name: s.width for s in fsm.control_signals}
    if not isinstance(input_trace, (list, tuple)):
        raise FsmError(f"the trace is not a list of assignments: {input_trace!r}")
    edges = []
    state = fsm.reset_state
    for i, assignment in enumerate(input_trace):
        if not isinstance(assignment, dict):
            raise SimulationIncompleteError(f"assignment is not an object: {assignment!r}", i)
        missing = widths.keys() - assignment.keys()
        if missing:
            raise SimulationIncompleteError(
                f"assignment missing signals: {', '.join(sorted(missing))}", i
            )
        for name, width in widths.items():
            value = assignment[name]
            # bool is an int subclass, and a string would match no guard
            if type(value) is not int or not 0 <= value < 1 << width:
                raise SimulationIncompleteError(
                    f"signal {name!r} is not a {width}-bit integer: {value!r}", i
                )
        t = step(fsm, state, assignment, i)
        edges.append(t)
        state = t.dst
    return edges


def simulate_spec(fsm: FsmSpec, input_trace: Sequence[Dict[str, int]]) -> List[str]:
    """Golden state trajectory of length len(trace)+1 starting at the reset state."""
    return [fsm.reset_state] + [t.dst for t in simulate_edges(fsm, input_trace)]


def random_trace(fsm: FsmSpec, length: int, rng: random.Random) -> List[Dict[str, int]]:
    return [
        {s.name: rng.randrange(1 << s.width) for s in fsm.control_signals}
        for _ in range(length)
    ]


def _assignment_for_edge(fsm: FsmSpec, edge: Transition, rng: random.Random) -> Dict[str, int]:
    """A concrete input assignment that fires ``edge`` from its source state."""
    siblings = [t for t in fsm.transitions_from(edge.src) if not t.is_default]
    if not edge.is_default:
        assignment = {s.name: 0 for s in fsm.control_signals}
        assignment.update(edge.guard_dict())
        # disjointness guarantees no sibling also matches
        return assignment
    # default edge: find an assignment matching no explicit sibling guard
    for _ in range(4096):
        assignment = {s.name: rng.randrange(1 << s.width) for s in fsm.control_signals}
        if not any(_guard_matches(t.guard, assignment) for t in siblings):
            return assignment
    raise FsmError(
        f"could not find an input assignment for the default edge of {edge.src!r}"
    )


def edge_cover_walk(fsm: FsmSpec, seed: int = 0) -> Tuple[List[Transition], List[Dict[str, int]]]:
    """A walk from reset covering every CFG edge at least once.

    Repeatedly routes (BFS over states) to the nearest state with an
    uncovered outgoing edge and takes it. Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    edges = extract_cfg(fsm)
    uncovered = set(range(len(edges)))
    by_src: Dict[str, List[int]] = {}
    for i, e in enumerate(edges):
        by_src.setdefault(e.src, []).append(i)
    walk: List[Transition] = []
    inputs: List[Dict[str, int]] = []
    state = fsm.reset_state
    while uncovered:
        # BFS for the closest state with an uncovered edge
        prev: Dict[str, Tuple[str, int]] = {}
        frontier = [state]
        seen = {state}
        target_edge = None
        while frontier and target_edge is None:
            nxt_frontier = []
            for cur in frontier:
                cand = [i for i in by_src.get(cur, []) if i in uncovered]
                if cand:
                    target_edge = cand[0]
                    target_state = cur
                    break
                for i in by_src.get(cur, []):
                    d = edges[i].dst
                    if d not in seen:
                        seen.add(d)
                        prev[d] = (cur, i)
                        nxt_frontier.append(d)
            frontier = nxt_frontier
        if target_edge is None:
            # remaining uncovered edges are unreachable from here
            break
        # path to target_state, then the uncovered edge
        path: List[int] = []
        cur = target_state
        while cur != state:
            cur, ei = prev[cur]
            path.append(ei)
        for ei in reversed(path):
            walk.append(edges[ei])
            inputs.append(_assignment_for_edge(fsm, edges[ei], rng))
            uncovered.discard(ei)
        walk.append(edges[target_edge])
        inputs.append(_assignment_for_edge(fsm, edges[target_edge], rng))
        uncovered.discard(target_edge)
        state = edges[target_edge].dst
    return walk, inputs


def to_json_dict(fsm: FsmSpec) -> dict:
    return {
        "name": fsm.name,
        "states": list(fsm.states),
        "reset": fsm.reset_state,
        "inputs": [{"name": s.name, "width": s.width} for s in fsm.control_signals],
        "outputs": [{"name": s.name, "width": s.width} for s in fsm.outputs],
        "transitions": [
            {
                "from": t.src,
                "guard": {k: v for k, v in t.guard},
                "to": t.dst,
                "outputs": {k: v for k, v in t.outputs},
            }
            for t in fsm.transitions
        ],
        "state_outputs": {s: {k: v for k, v in vals} for s, vals in fsm.state_outputs},
    }
