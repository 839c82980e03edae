"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as a
sign-off sheet. Oracles are deliberately independent re-implementations, not
calls back into the code under test.
"""

import itertools
import json
import random
import time

import fsmguard as fg
from fsmguard.coding import decode_exact
from fsmguard import faults as fe
from fsmguard import gf
from fsmguard import hardening as hd
from fsmguard import netlist as nl_mod


def _verdict(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1: ring arithmetic ------------------------------------------------------


def _oracle_mul(a, b):
    prod = 0
    for i in range(8):
        if (a >> i) & 1:
            prod ^= b << i
    for deg in range(prod.bit_length() - 1, 7, -1):
        if (prod >> deg) & 1:
            prod ^= gf.RING_MODULUS << (deg - 8)
    return prod


def test_01_ring_arithmetic_full_table():
    t0 = time.perf_counter()
    mismatches = sum(
        1 for a in range(256) for b in range(256) if fg.ring_mul(a, b) != _oracle_mul(a, b)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "ring_mul vs schoolbook oracle, all 65536 pairs",
        mismatches == 0 and elapsed < 1.0,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )


# -- 2: branch number --------------------------------------------------------


def test_02_branch_number():
    t0 = time.perf_counter()
    bn = fg.branch_number(fg.default_mds())
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "diffusion branch number (exact: GF(2) rank of every byte submatrix)",
        bn == 5,
        f"branch number {bn}, {elapsed:.1f}s",
    )


# -- 3: encoding distance ----------------------------------------------------


def test_03_encoding_distance():
    worst = []
    for n in (2, 3, 4):
        for count in (4, 8, 14, 32):
            code = fg.generate_code(count, n, seed=0)
            words = [w for _, w in code.entries]
            d = min(fg.hamming(a, b) for a, b in itertools.combinations(words, 2))
            worst.append((n, count, d))
    ok = all(d >= n for n, _, d in worst)
    _verdict(3, "generated codes meet pairwise distance N", ok, f"checked {len(worst)} codes")


# -- 4: modifier equations ---------------------------------------------------


def test_04_modifier_equations(design_n2, ref14_fsm):
    assert len(design_n2.plans) == 14
    m = design_n2.matrix
    layout = design_n2.layout
    bad = 0
    for p in design_n2.plans:
        outs = [
            gf.mds_apply(m, v)
            for v in layout.pack_block_inputs(p.sc_word, p.xe_word, p.modifier)
        ]
        if layout.unpack_state(outs) != p.sn_word or not all(layout.error_values(outs)):
            bad += 1
    _verdict(4, "all 14 transition modifiers solve the diffusion equations", bad == 0)


# -- 5: bisimulation ---------------------------------------------------------


def test_05_bisimulation(design_n2, ref14_fsm):
    rng = random.Random(1000)
    by_len = {}
    for _ in range(1000):
        raw = fg.random_trace(ref14_fsm, rng.randrange(1, 65), rng)
        by_len.setdefault(len(raw), []).append(raw)
    mismatches = 0
    for length, traces in by_len.items():
        for start in range(0, len(traces), 64):
            group = traces[start : start + 64]
            word_traces = [
                fe._word_trace(design_n2.encode_raw_trace(raw)) for raw in group
            ]
            res = nl_mod.simulate_batch(design_n2.netlist, word_traces)
            for lane, raw in enumerate(group):
                expected = fg.simulate_spec(ref14_fsm, raw)
                for c in range(length + 1):
                    word = res.port_value("state_e", c, lane)
                    alert = res.port_value("fsm_alert", c, lane)
                    if decode_exact(design_n2.state_codes, word) != expected[c] or alert:
                        mismatches += 1
    _verdict(5, "1000 random traces bisimulate with alert low", mismatches == 0)


# -- 6: input-fault immunity -------------------------------------------------


def test_06_input_fault_immunity(design_n2, design_n3):
    words2 = [int(w, 16) for w in design_n2.netlist.meta["autocover_trace"]]
    spec1 = fe.CampaignSpec(scope="inputs_only", effects=("flip",))
    rep1 = fe.run_campaign(design_n2.netlist, words2, spec1, design_n2.state_codes)

    words3 = [int(w, 16) for w in design_n3.netlist.meta["autocover_trace"]]
    spec2 = fe.CampaignSpec(scope="inputs_only", effects=("flip",), max_simultaneous_faults=2)
    rep2 = fe.run_campaign(design_n3.netlist, words3, spec2, design_n3.state_codes)

    _verdict(
        6,
        "input/state flips never hijack (N=2 singles, N=3 doubles)",
        rep1.hijack == 0 and rep2.hijack == 0,
        f"{rep1.total} single + {rep2.total} double experiments",
    )


# -- 7: diffusion campaign ---------------------------------------------------


def test_07_diffusion_campaign(design_n2):
    words = [int(w, 16) for w in design_n2.netlist.meta["autocover_trace"]]
    spec = fe.CampaignSpec(scope="diffusion_only", effects=("flip",))
    rep = fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)
    replays = all(
        fe.replay_witness(design_n2.netlist, words, w, design_n2.state_codes)
        for w in rep.witnesses
    )
    _verdict(
        7,
        "diffusion single-flip hijack rate < 2% with replayable witnesses",
        rep.hijack_rate < 0.02 and replays,
        f"{rep.hijack}/{rep.total} = {rep.hijack_rate:.4%}, theoretical {rep.theoretical_p:.2e}",
    )


# -- 8: ERROR terminality ----------------------------------------------------


def test_08_error_terminality(design_n2, ref14_fsm):
    codes = design_n2.state_codes
    rng = random.Random(2000)
    escapes = 0
    for _ in range(100):
        raw = fg.random_trace(ref14_fsm, rng.randrange(3, 30), rng)
        words = design_n2.encode_raw_trace(raw)
        golden, _ = fe.golden_run(design_n2.netlist, words, codes)
        entry = rng.randrange(1, len(words))
        # zero the state register at the entry cycle: that IS the ERROR word
        target = codes.codeword(golden[entry])
        faults = [
            nl_mod.FaultSite(f"st_q_{i}", "flip", entry)
            for i in range(codes.width)
            if (target >> i) & 1
        ]
        res = nl_mod.simulate_batch(design_n2.netlist, [fe._word_trace(words)], [faults])
        for c in range(entry, len(words) + 1):
            if res.port_value("state_e", c) != codes.error_codeword:
                escapes += 1
    _verdict(8, "ERROR state is terminal over 100 injected entries", escapes == 0)


# -- 9: Verilog round trip ---------------------------------------------------


def test_09_verilog_round_trip(design_n2, ref14_fsm):
    reparsed = nl_mod.parse_verilog(nl_mod.emit_verilog(design_n2.netlist))
    reparsed.validate()
    rng = random.Random(3000)
    mismatches = 0
    for _ in range(100):
        raw = fg.random_trace(ref14_fsm, rng.randrange(1, 20), rng)
        trace = fe._word_trace(design_n2.encode_raw_trace(raw))
        a = nl_mod.simulate_batch(design_n2.netlist, [trace])
        b = nl_mod.simulate_batch(reparsed, [trace])
        for port in ("state_e", "fsm_alert", "busy"):
            if a.port_column(port) != b.port_column(port):
                mismatches += 1
    _verdict(9, "emitted Verilog reparses to an equivalent netlist", mismatches == 0)


# -- 10: determinism ---------------------------------------------------------


def test_10_determinism(ref14_fsm):
    def pipeline():
        design = fg.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=99))
        words = [int(w, 16) for w in design.netlist.meta["autocover_trace"]]
        spec = fe.CampaignSpec(scope="inputs_only", effects=("flip",))
        rep = fe.run_campaign(design.netlist, words, spec, design.state_codes)
        return (
            json.dumps(nl_mod.to_json_dict(design.netlist), sort_keys=True),
            json.dumps(rep.to_json_dict(), sort_keys=True),
        )

    nl_a, rep_a = pipeline()
    nl_b, rep_b = pipeline()
    _verdict(10, "identical seeds give byte-identical netlist and report", nl_a == nl_b and rep_a == rep_b)


# -- substitution for area/timing claims -------------------------------------


def test_11_area_substitution(design_n2, design_n3, design_n4):
    designs = {2: design_n2, 3: design_n3, 4: design_n4}
    totals = {}
    for n, d in designs.items():
        counts = d.gate_counts_by_tag()
        assert counts, "stage tags missing from hardened netlist"
        totals[n] = len(d.netlist.gates)
        row = "  ".join(f"{tag}={c}" for tag, c in counts.items() if tag)
        print(f"    N={n}: total={totals[n]}  {row}")
    monotone = totals[2] <= totals[3] <= totals[4]
    _verdict(
        11,
        "gate counts tabulated by stage, nondecreasing in N",
        monotone,
        f"totals {totals[2]} <= {totals[3]} <= {totals[4]}",
    )
