"""Hypothesis strategies shared by the test modules."""

import json
import warnings

from hypothesis import strategies as st

import fsmguard as fg


@st.composite
def random_fsms(draw):
    """A random valid FSM of 2-4 states over one or two inputs, each state
    with a random subset of two disjoint guards; states it cannot reach and
    missing guards (default self-loops) are allowed."""
    n_states = draw(st.integers(2, 4))
    states = [f"S{i}" for i in range(n_states)]
    inputs = ["a", "b"][: draw(st.integers(1, 2))]
    guards = [{"a": 1}, {"a": 0, "b": 1}][: len(inputs)]
    transitions = [
        {"from": s, "guard": g, "to": draw(st.sampled_from(states))}
        for s in states
        for g in guards
        if draw(st.booleans())
    ]
    doc = {
        "name": "rand",
        "states": states,
        "reset": "S0",
        "inputs": [{"name": x} for x in inputs],
        "outputs": [],
        "transitions": transitions,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unreachable states are fine here
        return fg.parse_fsm(json.dumps(doc))
