import json
import random

import pytest

import fsmguard as fg

FIG2_DOC = {
    "name": "fig2",
    "states": ["S0", "S1", "S2", "S3"],
    "reset": "S0",
    "inputs": [{"name": "x0"}, {"name": "x1"}, {"name": "x2"}],
    "outputs": [],
    "transitions": [
        {"from": "S0", "guard": {"x0": 1}, "to": "S1"},
        {"from": "S0", "guard": {"x0": 0, "x1": 1}, "to": "S2"},
        {"from": "S1", "guard": {"x2": 1}, "to": "S3"},
        {"from": "S2", "guard": {}, "to": "S3"},
    ],
}

# 5 states, 9 explicit transitions; with the implicit default self-loops the
# extracted CFG has exactly 14 edges
REF14_DOC = {
    "name": "ref14",
    "states": ["S0", "S1", "S2", "S3", "S4"],
    "reset": "S0",
    "inputs": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
    "outputs": [{"name": "busy"}],
    "transitions": [
        {"from": "S0", "guard": {"a": 1}, "to": "S1"},
        {"from": "S0", "guard": {"a": 0, "b": 1}, "to": "S2"},
        {"from": "S1", "guard": {"b": 1}, "to": "S3"},
        {"from": "S1", "guard": {"b": 0, "c": 1}, "to": "S2"},
        {"from": "S2", "guard": {"c": 1}, "to": "S3"},
        {"from": "S2", "guard": {"c": 0, "a": 1}, "to": "S4"},
        {"from": "S3", "guard": {"a": 1, "b": 1}, "to": "S4"},
        {"from": "S3", "guard": {"a": 0}, "to": "S1"},
        {"from": "S4", "guard": {"c": 1}, "to": "S0"},
    ],
    "state_outputs": {"S1": {"busy": 1}, "S2": {"busy": 1}},
}

TOGGLE_DOC = {
    "name": "toggle",
    "states": ["S0", "S1"],
    "reset": "S0",
    "inputs": [{"name": "t"}],
    "outputs": [],
    "transitions": [
        {"from": "S0", "guard": {"t": 1}, "to": "S1"},
        {"from": "S1", "guard": {"t": 1}, "to": "S0"},
    ],
}


def bigm_doc(m, seed):
    """The synthetic FSM "bigM" of the benchmark: states S0..S(M-1) and
    one-bit inputs i0, i1, i2. From Si, ``i0=1`` steps to S(i+1 mod M) and
    ``{i0=0, i1=1}`` jumps to a state drawn from ``seed``."""
    rng = random.Random(seed)
    transitions = []
    for i in range(m):
        transitions.append({"from": f"S{i}", "guard": {"i0": 1}, "to": f"S{(i + 1) % m}"})
        transitions.append(
            {"from": f"S{i}", "guard": {"i0": 0, "i1": 1}, "to": f"S{rng.randrange(m)}"}
        )
    return {
        "name": f"big{m}",
        "states": [f"S{i}" for i in range(m)],
        "reset": "S0",
        "inputs": [{"name": "i0"}, {"name": "i1"}, {"name": "i2"}],
        "outputs": [],
        "transitions": transitions,
    }


@pytest.fixture(scope="session")
def fig2_fsm():
    return fg.parse_fsm(json.dumps(FIG2_DOC))


@pytest.fixture(scope="session")
def ref14_fsm():
    return fg.parse_fsm(json.dumps(REF14_DOC))


@pytest.fixture(scope="session")
def toggle_fsm():
    return fg.parse_fsm(json.dumps(TOGGLE_DOC))


@pytest.fixture(scope="session")
def design_n2(ref14_fsm):
    return fg.harden(ref14_fsm, fg.HardeningConfig(protection_level=2, seed=7))


@pytest.fixture(scope="session")
def design_n3(ref14_fsm):
    return fg.harden(ref14_fsm, fg.HardeningConfig(protection_level=3, seed=7))


@pytest.fixture(scope="session")
def design_n4(ref14_fsm):
    return fg.harden(ref14_fsm, fg.HardeningConfig(protection_level=4, seed=7))


@pytest.fixture(scope="session")
def fig2_design(fig2_fsm):
    return fg.harden(fig2_fsm, fg.HardeningConfig(protection_level=2, seed=3))


@pytest.fixture(scope="session")
def big32_fsm():
    return fg.parse_fsm(json.dumps(bigm_doc(32, 0)))


@pytest.fixture(scope="session")
def big100_fsm():
    return fg.parse_fsm(json.dumps(bigm_doc(100, 0)))
