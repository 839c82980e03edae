"""Seeded inputs of the benchmark: the two test FSMs and the synthetic bigM family."""

from __future__ import annotations

import random

# Copied from tests/conftest.py, so that the benchmark's work stays fixed when
# the tests change.
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

# Shape of bigM at generator seed 0, hardened at N=3 with hardening seed 0,
# as ROADMAP records it for the seed code: M -> (gates, autocover cycles).
BIGM_SEED0_SHAPE = {32: (4582, 156), 100: (13871, None), 300: (41766, None)}


def bigm_doc(m: int, seed: int) -> dict:
    """The synthetic FSM "bigM": states S0..S(M-1) and one-bit inputs i0, i1, i2.

    From each Si, ``i0=1`` goes to S(i+1 mod M) and ``{i0=0, i1=1}`` goes to a
    state drawn with ``random.Random(seed)``. ``parse_fsm`` adds the implicit
    default self-loops, so the CFG has 3*M edges whatever the seed.
    """
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
