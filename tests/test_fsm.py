import json
import random
import re

import pytest

import fsmguard as fg
from fsmguard import fsm as F
from tests.conftest import FIG2_DOC, REF14_DOC, TOGGLE_DOC


def test_parse_toggle_minimal(toggle_fsm):
    assert len(toggle_fsm.states) == 2
    # 2 explicit edges + 2 implicit default self-loops
    assert len(fg.extract_cfg(toggle_fsm)) == 4


def test_parse_fig2(fig2_fsm):
    assert fig2_fsm.states == ("S0", "S1", "S2", "S3")
    assert fig2_fsm.reset_state == "S0"


def test_extract_cfg_fig2_edges(fig2_fsm):
    edges = fg.extract_cfg(fig2_fsm)
    assert len(edges) == 7
    # S2 already has an unconditional default edge to S3, so no self-loop there
    assert ("S2", "S3") in {(e.src, e.dst) for e in edges if e.is_default}
    assert ("S2", "S2") not in {(e.src, e.dst) for e in edges}


def test_extract_cfg_single_state_selfloop():
    doc = {
        "name": "one",
        "states": ["A", "B"],
        "reset": "A",
        "inputs": [],
        "outputs": [],
        "transitions": [{"from": "A", "guard": {}, "to": "B"}],
    }
    fsm = fg.parse_fsm(json.dumps(doc))
    edges = fg.extract_cfg(fsm)
    assert [(e.src, e.dst) for e in edges] == [("A", "B"), ("B", "B")]


def test_extract_cfg_ref14(ref14_fsm):
    assert len(fg.extract_cfg(ref14_fsm)) == 14


def test_unknown_state_rejected():
    doc = dict(FIG2_DOC)
    doc = json.loads(json.dumps(FIG2_DOC))
    doc["transitions"].append({"from": "S0", "guard": {"x2": 1}, "to": "S9"})
    with pytest.raises(fg.FsmValidationError, match="unknown state"):
        fg.parse_fsm(json.dumps(doc))


def test_kiss2_unknown_reset_rejected():
    src = ".i 1\n.o 1\n.r S9\n0 S0 S1 0\n1 S1 S0 1\n"
    with pytest.raises(fg.FsmValidationError, match="reset"):
        fg.parse_fsm(src, format="kiss2")


def test_kiss2_parse_basic():
    src = "# comment\n.i 2\n.o 1\n.s 2\n.r IDLE\n1- IDLE RUN 1\n-1 RUN IDLE 0\n"
    fsm = fg.parse_fsm(src, format="kiss2")
    assert set(fsm.states) == {"IDLE", "RUN"}
    assert fsm.reset_state == "IDLE"
    assert fsm.input_width() == 2
    traj = fg.simulate_spec(fsm, [{"x0": 1, "x1": 0}, {"x0": 0, "x1": 1}])
    assert traj == ["IDLE", "RUN", "IDLE"]


def test_kiss2_syntax_error_has_line():
    with pytest.raises(fg.FsmParseError, match="line 3"):
        fg.parse_fsm(".i 1\n.o 1\nbogus line here extra\n", format="kiss2")


@pytest.mark.parametrize(
    "src, message",
    [
        (".i two\n.o 1\n1 A B 0\n", "line 1: .i value 'two' is not an integer"),
        (".i\n.o 1\n1 A B 0\n", "line 1: .i takes exactly one value"),
        (".i 1\n.o\n1 A B 0\n", "line 2: .o takes exactly one value"),
        (".i 1\n.o 1\n.r\n1 A B 0\n", "line 3: .r takes exactly one value"),
    ],
    ids=["non-integer-i", "bare-i", "bare-o", "bare-r"],
)
def test_kiss2_bad_header_located(src, message):
    with pytest.raises(fg.FsmParseError, match=f"^{re.escape(message)}$"):
        fg.parse_fsm(src, format="kiss2")


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *keys, last = path
    target = doc
    for k in keys:
        target = target[k]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with(FIG2_DOC, ["inputs", 1, "width"], "2x"), r"inputs\[1\]\.width is not an integer: '2x'"),
        (_with(FIG2_DOC, ["outputs"], [{"name": "y", "width": None}]), r"outputs\[0\]\.width is not an integer: None"),
        (_with(FIG2_DOC, ["transitions", 2, "guard", "x2"], "on"), r"transitions\[2\]\.guard\.x2 is not an integer: 'on'"),
        (_with(FIG2_DOC, ["transitions", 0, "guard", "x0"], 1.5), r"transitions\[0\]\.guard\.x0 is not an integer: 1\.5"),
        ([FIG2_DOC], "the FSM document is a JSON list, not an object"),
        # a string is no list of states, though tuple() would split it into states
        (_with(FIG2_DOC, ["states"], "AB"), "states is not a list: 'AB'"),
        (_with(FIG2_DOC, ["states", 1], ["S1"]), r"states\[1\] is not a string: \['S1'\]"),
        (_with(FIG2_DOC, ["states"], [1, 2]), r"states\[0\] is not a string: 1"),
        (_with(FIG2_DOC, ["reset"], ["S0"]), r"reset is not a string: \['S0'\]"),
        (_with(FIG2_DOC, ["inputs", 0, "name"], 0), r"inputs\[0\]\.name is not a string: 0"),
        (_with(FIG2_DOC, ["transitions", 1, "to"], ["S2"]), r"transitions\[1\]\.to is not a string: \['S2'\]"),
        (_with(FIG2_DOC, ["transitions", 0, "from"], 0), r"transitions\[0\]\.from is not a string: 0"),
        # bool is an int subclass, so int() would read true as 1
        (_with(FIG2_DOC, ["inputs", 1, "width"], True), r"inputs\[1\]\.width is not an integer: True"),
        (_with(FIG2_DOC, ["transitions", 2, "guard", "x2"], True), r"transitions\[2\]\.guard\.x2 is not an integer: True"),
    ],
    ids=[
        "input-width", "output-width", "guard-value", "fractional-guard-value", "top-level-list",
        "states-string", "nested-state", "numeric-states", "reset-list", "numeric-input-name",
        "list-endpoint", "numeric-endpoint", "bool-width", "bool-guard-value",
    ],
)
def test_json_bad_values_located(doc, message):
    with pytest.raises(fg.FsmParseError, match=f"^{message}$"):
        fg.parse_fsm(json.dumps(doc))


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with(REF14_DOC, ["states"], [*REF14_DOC["states"], "S0"]), "duplicate state 'S0'"),
        (_with(REF14_DOC, ["inputs"], [*REF14_DOC["inputs"], {"name": "a"}]), "duplicate input signal 'a'"),
        (_with(REF14_DOC, ["outputs"], [{"name": "busy"}] * 2), "duplicate output signal 'busy'"),
        (_with(REF14_DOC, ["inputs", 0, "width"], -1), "input signal 'a' has width -1, below 1"),
        (_with(REF14_DOC, ["inputs", 0, "width"], 0), "input signal 'a' has width 0, below 1"),
        (_with(REF14_DOC, ["outputs", 0, "width"], 0), "output signal 'busy' has width 0, below 1"),
        (_with(REF14_DOC, ["state_outputs", "S9"], {"busy": 1}), "unknown state 'S9' in state_outputs"),
        (_with(REF14_DOC, ["state_outputs", "S1"], {"idle": 1}), "unknown output 'idle' in state_outputs of 'S1'"),
        (
            _with(REF14_DOC, ["state_outputs", "S2", "busy"], 2),
            "value 2 does not fit output 'busy' (1 bits) in state_outputs of 'S2'",
        ),
        (
            _with(REF14_DOC, ["transitions", 0, "outputs"], {"busy": 3}),
            "value 3 does not fit output 'busy' (1 bits) on S0->S1",
        ),
        (_with(REF14_DOC, ["name"], 14), "the FSM name is not a string: 14"),
    ],
    ids=[
        "duplicate-state", "duplicate-input", "duplicate-output", "negative-width",
        "zero-width", "zero-output-width", "state-outputs-unknown-state",
        "state-outputs-unknown-output", "state-output-too-wide", "edge-output-too-wide",
        "non-string-name",
    ],
)
def test_malformed_fsm_rejected_located(doc, message):
    with pytest.raises(fg.FsmValidationError, match=f"^{re.escape(message)}$"):
        fg.parse_fsm(json.dumps(doc))


def test_nondeterministic_guards_rejected():
    doc = json.loads(json.dumps(FIG2_DOC))
    doc["transitions"][1]["guard"] = {"x1": 1}  # overlaps {"x0": 1}
    with pytest.raises(fg.FsmValidationError, match="nondeterministic"):
        fg.parse_fsm(json.dumps(doc))


def test_guard_value_must_fit_width():
    doc = json.loads(json.dumps(TOGGLE_DOC))
    doc["transitions"][0]["guard"] = {"t": 2}
    with pytest.raises(fg.FsmValidationError, match="does not fit"):
        fg.parse_fsm(json.dumps(doc))


def test_unknown_signal_rejected():
    doc = json.loads(json.dumps(TOGGLE_DOC))
    doc["transitions"][0]["guard"] = {"nope": 1}
    with pytest.raises(fg.FsmValidationError, match="unknown signal"):
        fg.parse_fsm(json.dumps(doc))


def test_unreachable_state_warns():
    doc = json.loads(json.dumps(TOGGLE_DOC))
    doc["states"].append("S2")
    with pytest.warns(UserWarning, match="unreachable"):
        fsm = F._parse_json(json.dumps(doc))
        F.validate(fsm)


def test_simulate_fig2_known_trace(fig2_fsm):
    trace = [{"x0": 1, "x1": 0, "x2": 0}, {"x0": 0, "x1": 0, "x2": 1}]
    assert fg.simulate_spec(fig2_fsm, trace) == ["S0", "S1", "S3"]


def test_simulate_empty_trace(fig2_fsm):
    assert fg.simulate_spec(fig2_fsm, []) == ["S0"]


def test_simulate_default_selfloop(fig2_fsm):
    trace = [{"x0": 0, "x1": 0, "x2": 0}]
    assert fg.simulate_spec(fig2_fsm, trace) == ["S0", "S0"]


def test_simulate_missing_signal_reports_step(fig2_fsm):
    with pytest.raises(F.SimulationIncompleteError, match="step 1"):
        fg.simulate_spec(fig2_fsm, [{"x0": 0, "x1": 0, "x2": 0}, {"x0": 1}])


def test_trajectories_stay_in_states(ref14_fsm):
    rng = random.Random(11)
    states = set(ref14_fsm.states)
    for _ in range(50):
        traj = fg.simulate_spec(ref14_fsm, fg.random_trace(ref14_fsm, 30, rng))
        assert set(traj) <= states


def test_exactly_one_transition_fires(ref14_fsm):
    # exhaustive over the full control space, every state
    sigs = ref14_fsm.control_signals
    for state in ref14_fsm.states:
        outgoing = ref14_fsm.transitions_from(state)
        for bits in range(1 << len(sigs)):
            assignment = {s.name: (bits >> i) & 1 for i, s in enumerate(sigs)}
            explicit = [
                t for t in outgoing if not t.is_default and F._guard_matches(t.guard, assignment)
            ]
            assert len(explicit) <= 1
            fired = F.step(ref14_fsm, state, assignment)
            assert fired in outgoing


def test_cfg_extraction_deterministic(ref14_fsm):
    src = json.dumps(json.loads(json.dumps(FIG2_DOC)))
    a = fg.extract_cfg(fg.parse_fsm(src))
    b = fg.extract_cfg(fg.parse_fsm(src))
    assert a == b


def test_edge_cover_walk_covers_everything(ref14_fsm):
    walk, inputs = fg.edge_cover_walk(ref14_fsm, seed=0)
    assert len(walk) == len(inputs)
    covered = {(t.src, t.guard, t.dst) for t in walk}
    needed = {(t.src, t.guard, t.dst) for t in fg.extract_cfg(ref14_fsm)}
    assert covered == needed
    # the walk is actually executable
    traj = fg.simulate_spec(ref14_fsm, inputs)
    assert [t.dst for t in walk] == traj[1:]


def test_json_round_trip(ref14_fsm):
    doc = F.to_json_dict(ref14_fsm)
    again = fg.parse_fsm(json.dumps(doc))
    assert again == ref14_fsm
