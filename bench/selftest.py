#!/usr/bin/env python3
"""Self-test of the benchmark's own measurements.

    python3 bench/selftest.py

Checks the useful-cycle count, logic depth and Wilson bound on a toy FSM, and
that the bigM generator at seed 0 reproduces the shape ROADMAP records for
the seed code. Prints one PASS/FAIL line per check; exits 1 if any failed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from inputs import BIGM_SEED0_SHAPE, FIG2_DOC, bigm_doc
from layers import SimCall, logic_depth, useful_lane_cycles, wilson_upper

INJECT_AT = 4


def _lane(res, lane):
    return [[(v >> lane) & 1 for v in q] for q in res.flop_q]


def toy_checks(fg):
    """(name, ok) pairs: fig2 at N=2 over a 13-cycle trace, single faults at cycle 4."""
    FaultSite = fg.netlist.FaultSite
    simulate_batch = fg.netlist.simulate_batch
    fsm = fg.parse_fsm(json.dumps(FIG2_DOC))
    design = fg.harden(fsm, fg.HardeningConfig(protection_level=2, seed=0))
    nl = design.netlist
    words = design.encode_raw_trace(fg.random_trace(fsm, 12, random.Random(0)))
    trace = [{"x_e": w} for w in words] + [{"x_e": 0}]
    cycles = len(trace)
    golden = simulate_batch(nl, [trace])
    golden_q = golden.flop_q

    sites = fg.netlist.enumerate_fault_sites(nl, "all")
    candidates = [[FaultSite(s, e, INJECT_AT)] for e in ("flip", "stuck0", "stuck1") for s in sites]
    batch = simulate_batch(nl, [trace] * len(candidates), candidates)
    masked = [i for i in range(len(candidates)) if _lane(batch, i) == _lane(golden, 0)]
    masked_flip = next(candidates[i] for i in masked if candidates[i][0].effect == "flip")
    masked_stuck = next(
        candidates[i] for i in masked
        if candidates[i][0].effect != "flip" and candidates[i][0].location not in ("const0", "const1")
    )
    state_flip = [FaultSite("st_q_0", "flip", INJECT_AT)]

    def useful(lanes):
        res = simulate_batch(nl, [trace] * len(lanes), lanes)
        return useful_lane_cycles(SimCall(nl, trace, lanes, res), golden_q)

    chosen = [masked_flip, masked_stuck, state_flip]
    singles = [useful([faults]) for faults in chosen]
    chain = fg.netlist.Netlist("chain")
    chain.add_port("a", "in", ["a0", "a1"])
    chain.add_gate("NOT", ["a0"], "n0")
    chain.add_gate("AND", ["n0", "a1"], "n1")
    chain.add_gate("XOR", ["n1", "a0"], "n2")
    chain.add_gate("CONST1", [], "c1")
    return [
        (f"masked flip {masked_flip[0].location} counts 1-2 useful cycles", singles[0] in (1, 2)),
        (
            f"masked {masked_stuck[0].effect} on {masked_stuck[0].location} counts to the end",
            singles[1] == cycles - INJECT_AT,
        ),
        ("state flop flip is fixed one cycle after injection", singles[2] == 2),
        ("lanes of one batch count as they do alone", useful(chosen) == sum(singles)),
        ("fault-free lane needs every cycle", useful([[]]) == cycles),
        ("logic depth of NOT-AND-XOR chain is 3", logic_depth(chain) == 3),
        ("Wilson bound is above 0 at 0 hits", 0 < wilson_upper(0, 1024) < 0.004),
        ("Wilson bound is above the rate", wilson_upper(465, 33060) > 465 / 33060),
    ]


def shape_checks(fg):
    """(name, ok) pairs: bigM at generator seed 0, N=3, hardening seed 0."""
    out = []
    for m, (gates, trace_len) in BIGM_SEED0_SHAPE.items():
        design = fg.harden(fg.parse_fsm(json.dumps(bigm_doc(m, 0))), fg.HardeningConfig(protection_level=3, seed=0))
        got = len(design.netlist.gates)
        out.append((f"big{m}: {got} gates, ROADMAP {gates}", got == gates))
        if trace_len is not None:
            got = len(design.netlist.meta["autocover_trace"])
            out.append((f"big{m}: {got}-cycle autocover trace, ROADMAP {trace_len}", got == trace_len))
    return out


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import fsmguard as fg

    results = toy_checks(fg) + shape_checks(fg)
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
