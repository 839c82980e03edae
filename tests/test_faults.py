import dataclasses
import hashlib
import json
import logging
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fsmguard as fg
from fsmguard import faults as fe
from fsmguard.coding import CodeBook, decode_exact
from fsmguard.netlist import FaultSite, Netlist, enumerate_fault_sites, simulate_batch
from tests.conftest import bigm_doc, log_record
from tests.strategies import random_fsms


def _autocover(design):
    return [int(w, 16) for w in design.netlist.meta["autocover_trace"]]


def test_theoretical_probability_values():
    # 4 state bits + 2 error bits in one block: 6 / 2^26
    assert fe.theoretical_success_probability(4, 2, 1) == pytest.approx(6 / 2**26)
    # doubling k halves the per-block hit chance
    one = fe.theoretical_success_probability(8, 4, 1)
    two = fe.theoretical_success_probability(8, 4, 2)
    assert two == pytest.approx(one / 2)


def test_theoretical_probability_degenerate_warns():
    with pytest.warns(UserWarning, match="degenerates"):
        fe.theoretical_success_probability(30, 2, 1)


def test_theoretical_probability_overflow_rejected():
    with pytest.raises(fe.CampaignError):
        fe.theoretical_success_probability(40, 2, 1)


def test_campaign_spec_validation():
    with pytest.raises(fe.CampaignError):
        fe.CampaignSpec(max_simultaneous_faults=0)
    with pytest.raises(fe.CampaignError):
        fe.CampaignSpec(mode="guess")
    with pytest.raises(fe.CampaignError):
        fe.CampaignSpec(effects=("melt",))


@pytest.mark.parametrize(
    "field, value, duplicate",
    [("cycles", (0, 3, 0), "cycle 0"), ("effects", ("flip", "stuck0", "flip"), "effect 'flip'")],
    ids=["cycles", "effects"],
)
def test_campaign_spec_rejects_duplicates(field, value, duplicate):
    # a repeated cycle or effect would count each of its atoms twice and, with
    # two simultaneous faults, pair an atom with its own copy
    with pytest.raises(fe.CampaignError, match=f"^duplicate {duplicate} in the campaign spec$"):
        fe.CampaignSpec(**{field: value})


def test_golden_run_matches_walk(design_n2):
    states, alerts = fe.golden_run(design_n2.netlist, _autocover(design_n2), design_n2.state_codes)
    assert len(states) == len(_autocover(design_n2)) + 1
    assert states[0] == "S0"
    assert not any(alerts)


def test_exhaustive_partition_invariant(design_n2):
    spec = fe.CampaignSpec(scope="inputs_only", effects=("flip",))
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    assert rep.total == rep.masked + rep.detected + rep.hijack
    assert rep.masked_corrupt <= rep.masked
    assert len(rep.witnesses) == rep.hijack


def test_inputs_only_single_flips_all_detected_or_masked(design_n2):
    spec = fe.CampaignSpec(scope="inputs_only", effects=("flip",))
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    assert rep.hijack == 0
    assert rep.detected > 0  # flipping encoded bits must trip the alarm sometimes


def test_experiment_counts(design_n2):
    from fsmguard.netlist import enumerate_fault_sites

    words = _autocover(design_n2)
    sites = enumerate_fault_sites(design_n2.netlist, "inputs_only")
    spec = fe.CampaignSpec(scope="inputs_only", effects=("flip", "stuck1"))
    rep = fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)
    assert rep.total == len(sites) * 2 * len(words)
    assert rep.metadata["sites"] == len(sites)


def test_cycle_restriction(design_n2):
    spec = fe.CampaignSpec(scope="inputs_only", cycles=(0, 1))
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    assert rep.metadata["cycles"] == 2


def test_single_fault_draws_match_random_sample():
    # a single-fault draw is randrange(n): the stream that rng.sample(range(n), 1)
    # gave, over one-, two- and many-word ranges
    for n_atoms in [*range(1, 60), 1_000, 1_430_000, 10**9]:
        for seed in range(5 if n_atoms < 60 else 20):
            spec = fe.CampaignSpec(mode="sampled", sample_count=40, seed=seed)
            rng = random.Random(seed)
            want = [tuple(rng.sample(range(n_atoms), 1)) for _ in range(spec.sample_count)]
            assert list(fe._enumerate_experiments(n_atoms, spec)) == want


def test_exhaustive_bound_enforced(design_n2):
    # double faults over the 11,020 atoms of scope all: C(11020, 2) is about 60.7M
    spec = fe.CampaignSpec(scope="all", max_simultaneous_faults=2)
    with pytest.raises(fe.CampaignError, match="exceed the exhaustive bound"):
        fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)


def test_exhaustive_bound_checked_before_the_screen(design_n2):
    spec = fe.CampaignSpec(scope="all", effects=("stuck0",))
    boom = AssertionError("the stuck-at screen ran")
    with mock.patch.object(fe, "EXHAUSTIVE_BOUND", 100), mock.patch.object(fe, "_screen", side_effect=boom):
        with pytest.raises(fe.CampaignError, match="exceed the exhaustive bound"):
            fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)


@pytest.mark.parametrize(
    "name, value",
    [("k", "two"), ("k", 0), ("state_width", 1.5), ("error_bits_per_block", True)],
)
def test_bad_meta_rejected_before_golden_run(design_n2, name, value):
    netlist = fg.netlist.from_json_dict(fg.netlist.to_json_dict(design_n2.netlist))
    netlist.meta[name] = value
    spec = fe.CampaignSpec(scope="inputs_only")
    with mock.patch.object(fe, "_golden", side_effect=AssertionError("golden run started")):
        with pytest.raises(fe.CampaignError, match=f"^netlist meta field '{name}' is not an integer"):
            fe.run_campaign(netlist, _autocover(design_n2), spec, design_n2.state_codes)


def test_sampled_mode_and_ci(design_n2):
    spec = fe.CampaignSpec(
        scope="all", mode="sampled", sample_count=300, seed=5, max_simultaneous_faults=2
    )
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    assert rep.total == 300
    lo, hi = rep.confidence_interval
    assert 0.0 <= lo <= rep.hijack_rate <= hi <= 1.0


def test_wilson_interval_known_count():
    # 10 of 100 at 95%: the textbook Wilson interval is [0.0552, 0.1744]
    lo, hi = fe.wilson_interval(10, 100)
    assert lo == pytest.approx(0.05523, abs=1e-5)
    assert hi == pytest.approx(0.17437, abs=1e-5)
    assert fe.wilson_interval(100, 100)[1] == 1.0


def test_sampled_ci_honest_at_zero_hijacks(design_n2):
    # input-side single flips never hijack (acceptance criterion 6), so the
    # interval must still leave room for a rate near the rule of three, 3/500
    spec = fe.CampaignSpec(scope="inputs_only", mode="sampled", sample_count=500, seed=1)
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    assert rep.hijack == 0
    lo, hi = rep.confidence_interval
    assert lo == 0.0
    assert hi == pytest.approx(0.00762, abs=1e-5)
    assert rep.to_json_dict()["hijack_rate_ci95"] == [lo, hi]


def test_sampled_reports_deterministic(design_n2):
    spec = fe.CampaignSpec(scope="all", mode="sampled", sample_count=200, seed=9)
    words = _autocover(design_n2)
    a = fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)
    b = fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)
    assert a.to_json_dict() == b.to_json_dict()


def test_campaign_memory_does_not_grow_with_atoms(design_n2):
    # 64 draws from the 33,174 atoms of scope all x 3 effects x 19 cycles: the
    # peak must be that of one batch, not of every atom
    spec = fe.CampaignSpec(
        scope="all", effects=("flip", "stuck0", "stuck1"), mode="sampled", sample_count=64
    )
    words = _autocover(design_n2)
    fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)  # compile first
    tracemalloc.start()
    try:
        rep = fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.total == 64
    assert peak < 0.5 * 2**20


def test_exhaustive_single_fault_stream_allocates_nothing_per_atom():
    # run_campaign walks exhaustive single faults per (net, effect) and never
    # reads this stream, so it must not copy the atom indices up front
    tracemalloc.start()
    try:
        stream = fe._enumerate_experiments(fe.EXHAUSTIVE_BOUND, fe.CampaignSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert next(stream) == (0,) and next(stream) == (1,)


def test_campaign_cycle_outside_trace_rejected(design_n2):
    words = _autocover(design_n2)
    spec = fe.CampaignSpec(scope="inputs_only", cycles=(0, len(words), 500))
    with pytest.raises(fe.CampaignError, match=f"cycle {len(words)} is outside the trace"):
        fe.run_campaign(design_n2.netlist, words, spec, design_n2.state_codes)


def test_stuck_at_campaign_runs(design_n2):
    spec = fe.CampaignSpec(scope="inputs_only", effects=("stuck0", "stuck1"), cycles=(0,))
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    assert rep.total == rep.masked + rep.detected + rep.hijack


def test_known_hijack_classified_and_replayable(design_n2, ref14_fsm):
    """Force a multi-bit state-register overwrite onto another valid codeword.

    Flipping exactly the differing bits between two codewords lands on a valid
    state with no alert; the classifier must call it a hijack and the witness
    must replay.
    """
    codes = design_n2.state_codes
    words = _autocover(design_n2)
    golden_states, _ = fe.golden_run(design_n2.netlist, words, codes)
    src = golden_states[1]
    target = next(s for s in ref14_fsm.states if s != src)
    diff = codes.codeword(src) ^ codes.codeword(target)
    faults = tuple(
        FaultSite(f"st_q_{i}", "flip", 1) for i in range(codes.width) if (diff >> i) & 1
    )
    res = simulate_batch(design_n2.netlist, [fe._word_trace(words)], [faults])
    state_words = [res.port_value("state_e", c) for c in range(len(words) + 1)]
    alerts = [res.port_value("fsm_alert", c) for c in range(len(words) + 1)]
    cls, info = fe._classify(golden_states, state_words, alerts, codes)
    assert cls == "hijack"
    assert info[1] == target
    witness = fe.HijackWitness(faults, info[0], info[1], golden_states[info[0]])
    assert fe.replay_witness(design_n2.netlist, words, witness, codes)


def test_replay_rejects_wrong_witness(design_n2):
    words = _autocover(design_n2)
    bogus = fe.HijackWitness((FaultSite("st_q_0", "flip", 0),), 1, "S4", "S0")
    assert not fe.replay_witness(design_n2.netlist, words, bogus, design_n2.state_codes)


def test_replay_does_not_use_the_engine(design_n2):
    codes, words = design_n2.state_codes, _autocover(design_n2)
    witnesses = fe.run_campaign(design_n2.netlist, words, fe.CampaignSpec(cycles=(3,)), codes).witnesses
    assert witnesses
    bogus = dataclasses.replace(witnesses[0], reached_state=witnesses[0].golden_state)
    with mock.patch.object(fe, "_golden", side_effect=AssertionError("replay ran the engine")):
        assert all(fe.replay_witness(design_n2.netlist, words, w, codes) for w in witnesses)
        assert not fe.replay_witness(design_n2.netlist, words, bogus, codes)


def test_report_json_shape(design_n2):
    spec = fe.CampaignSpec(scope="inputs_only", cycles=(0,))
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    doc = rep.to_json_dict()
    assert doc["totals"]["total"] == rep.total
    assert math.isclose(sum(doc["rates"].values()), 1.0)
    assert "theoretical_p" in doc
    table = rep.summary_table()
    assert "hijack" in table and "theoretical P" in table


# sha256 of the campaign report JSON, as `fsmguard inject` writes it; pinned
# so that engine work cannot move a count, a witness or a sampled draw
PINNED_CAMPAIGNS = {
    "exhaustive-all-flip-stuck": (
        fe.CampaignSpec(scope="all", effects=("flip", "stuck0", "stuck1")),
        "c3b68b9c04da37c00a93d3b833a905a25a2539a11557286152e621f2535df76e",
    ),
    "sampled-stuck-200": (
        fe.CampaignSpec(
            scope="all", effects=("stuck0", "stuck1"), mode="sampled", sample_count=200, seed=3
        ),
        "cf880aca7c987f403fea3aa652e79c59f2341996660e2aa5180689397e0dd60d",
    ),
    "sampled-double-seed5": (
        fe.CampaignSpec(
            scope="all", mode="sampled", sample_count=300, seed=5, max_simultaneous_faults=2
        ),
        "422d9713a7d0d1705ac6eab38bdee8e693de214366a120ffa413e559b7c81e36",
    ),
    "cycles-0-3": (
        fe.CampaignSpec(scope="all", effects=("flip", "stuck0"), cycles=(0, 3)),
        "7f0201b6e135fedf2208391d491430726adfffb7d422c1ee2a1e54d99b56dc8a",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_CAMPAIGNS))
def test_campaign_report_bytes_pinned(design_n2, name):
    spec, digest = PINNED_CAMPAIGNS[name]
    rep = fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)
    doc = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_golden_run_entering_error_rejected(design_n2):
    # an error symbol relabelled onto a state the golden run visits makes that
    # state the ERROR state: the campaign must refuse the golden run rather
    # than count every later experiment as detected
    codes = design_n2.state_codes
    words = _autocover(design_n2)
    golden, _ = fe.golden_run(design_n2.netlist, words, codes)
    relabelled = dataclasses.replace(codes, error_symbol=golden[3])
    first = golden.index(golden[3])
    spec = fe.CampaignSpec(scope="inputs_only", cycles=(0,))
    with pytest.raises(fe.CampaignError, match=f"ERROR state '{golden[3]}' at cycle {first}$"):
        fe.run_campaign(design_n2.netlist, words, spec, relabelled)


# -- the lane pool against a whole-trace reference ---------------------------


def reference_campaign(netlist, words, spec, codes):
    """Report totals and witnesses of ``spec`` from the whole-trace oracle:
    one ``simulate_batch`` lane per experiment from reset to the end of the
    trace, classified by ``fe._classify``. The golden states come from lane 0
    of a fault-free ``simulate_batch`` run, not from the engine under test."""
    trace = fe._word_trace(words)
    golden = [decode_exact(codes, w) for w in simulate_batch(netlist, [trace]).port_column("state_e")]
    cycles = spec.cycles if spec.cycles is not None else range(len(words))
    atoms = [
        FaultSite(site, effect, c)
        for site in enumerate_fault_sites(netlist, spec.scope)
        for effect in spec.effects
        for c in cycles
    ]
    experiments = [
        tuple(atoms[i] for i in e) for e in fe._enumerate_experiments(len(atoms), spec)
    ]
    res = simulate_batch(netlist, [trace] * len(experiments), experiments)
    counts = dict.fromkeys(("masked", "detected", "hijack", "masked_corrupt"), 0)
    witnesses = []
    for lane, faults in enumerate(experiments):
        cls, info = fe._classify(golden, *fe._observe(res, lane), codes)
        counts[cls] += 1
        if cls == "hijack":
            witnesses.append(fe.HijackWitness(faults, info[0], info[1], golden[info[0]]).to_json_dict())
    totals = {
        "total": len(experiments),
        "masked": counts["masked"] + counts["masked_corrupt"],
        "detected": counts["detected"],
        "hijack": counts["hijack"],
        "masked_corrupt": counts["masked_corrupt"],
    }
    return totals, witnesses


def _assert_pool_matches_reference(netlist, words, spec, codes, lanes):
    with mock.patch.object(fe, "_POOL_LANES", lanes):
        doc = fe.run_campaign(netlist, words, spec, codes).to_json_dict()
    totals, witnesses = reference_campaign(netlist, words, spec, codes)
    assert doc["totals"] == totals
    assert doc["witnesses"] == witnesses
    return totals


@st.composite
def small_campaigns(draw):
    """A random FSM of 2-4 states, hardened at N=2..3, with a random campaign
    spec small enough for the whole-trace reference."""
    fsm = draw(random_fsms())
    level = draw(st.integers(2, 3))
    design = fg.harden(fsm, fg.HardeningConfig(protection_level=level, seed=draw(st.integers(0, 9))))
    words = _autocover(design)
    scope = draw(st.sampled_from(["all", "diffusion_only", "inputs_only"]))
    effects = tuple(draw(st.lists(st.sampled_from(["flip", "stuck0", "stuck1"]), min_size=1, max_size=3, unique=True)))
    cycles = draw(st.none() | st.lists(st.integers(0, len(words) - 1), min_size=1, max_size=3, unique=True).map(tuple))
    faults = draw(st.integers(1, 2))
    n_atoms = (
        len(enumerate_fault_sites(design.netlist, scope))
        * len(effects)
        * (len(words) if cycles is None else len(cycles))
    )
    common = dict(scope=scope, effects=effects, cycles=cycles, max_simultaneous_faults=faults)
    if draw(st.booleans()) and math.comb(n_atoms, faults) <= 800:
        spec = fe.CampaignSpec(**common)
    else:
        spec = fe.CampaignSpec(
            **common, mode="sampled", sample_count=draw(st.integers(1, 150)), seed=draw(st.integers(0, 99))
        )
    return design, words, spec, draw(st.sampled_from([1, 3, 8, fe._POOL_LANES]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_campaigns())
def test_pool_matches_whole_trace_reference(case):
    design, words, spec, lanes = case
    _assert_pool_matches_reference(design.netlist, words, spec, design.state_codes, lanes)


def _alert_free_register():
    """A 3-bit state register that loads ``x_e[2:0]`` unless ``x_e[3]`` holds
    it, with ``fsm_alert`` tied low: a corrupted word stays undetected until
    the next load puts the register back on the golden trajectory."""
    n = Netlist("hold_reg")
    n.add_port("x_e", "in", [f"x_e_{i}" for i in range(4)])
    for i in range(3):
        n.add_gate("MUX", ["x_e_3", f"x_e_{i}", f"st_q_{i}"], f"st_d_{i}")
        n.add_flop(f"st_d_{i}", f"st_q_{i}", (0b011 >> i) & 1, tag="state_reg")
    n.add_gate("CONST0", [], "alert_lo")
    n.add_port("state_e", "out", [f"st_q_{i}" for i in range(3)])
    n.add_port("fsm_alert", "out", ["alert_lo"])
    n.validate()
    codes = CodeBook(2, 3, (("ERR", 0b000), ("A", 0b011), ("B", 0b101), ("C", 0b110)), "ERR")
    hold = 0b1000
    # A, hold, load B, hold, hold, load C, hold, load A, load B, hold
    words = [hold, 0b101, hold, hold, 0b110, hold, 0b011, 0b101, hold]
    return n, words, codes


@pytest.mark.parametrize("faults", [1, 2])
@pytest.mark.parametrize("lanes", [2, 256, fe._POOL_LANES])
def test_pool_matches_reference_on_undetected_corruption(faults, lanes):
    netlist, words, codes = _alert_free_register()
    common = dict(effects=("flip", "stuck0", "stuck1"), cycles=(0, 2, 5), max_simultaneous_faults=faults)
    totals = _assert_pool_matches_reference(netlist, words, fe.CampaignSpec(**common), codes, lanes)
    # the code has distance 2: one fault never reaches another valid word
    assert (totals["hijack"] > 0) == (faults == 2)
    # a flipped hold bit loads the ERROR word 000
    spec = fe.CampaignSpec(scope="inputs_only", **common)
    assert _assert_pool_matches_reference(netlist, words, spec, codes, lanes)["detected"] > 0
    # flips repaired by a later load leave their lane through the flop-rejoin
    # check, not at the end of the trace
    spec = fe.CampaignSpec(scope="all", cycles=(2, 3), max_simultaneous_faults=faults)
    totals = _assert_pool_matches_reference(netlist, words, spec, codes, lanes)
    assert totals["masked_corrupt"] > 0


def _register_with_and_of_zeros():
    """``_alert_free_register`` with bit 0 of its next state XORed with the
    AND of two nets that are 0 in every cycle, ``za`` and ``zb``, the only
    diffusion-tagged gates: a stuck-at-1 on one of them changes nothing, on
    both it corrupts the register."""
    _, words, codes = _alert_free_register()
    n = Netlist("and_reg")
    n.add_port("x_e", "in", [f"x_e_{i}" for i in range(4)])
    n.add_gate("CONST0", [], "za", tag="diffusion")
    n.add_gate("CONST0", [], "zb", tag="diffusion")
    n.add_gate("AND", ["za", "zb"], "both")
    for i in range(3):
        n.add_gate("MUX", ["x_e_3", f"x_e_{i}", f"st_q_{i}"], f"st_m_{i}")
    n.add_gate("XOR", ["st_m_0", "both"], "st_d_0")
    for i, d in enumerate(["st_d_0", "st_m_1", "st_m_2"]):
        n.add_flop(d, f"st_q_{i}", (0b011 >> i) & 1, tag="state_reg")
    n.add_gate("CONST0", [], "alert_lo")
    n.add_port("state_e", "out", [f"st_q_{i}" for i in range(3)])
    n.add_port("fsm_alert", "out", ["alert_lo"])
    n.validate()
    return n, words, codes


@pytest.mark.parametrize("faults", [1, 2])
@pytest.mark.parametrize("lanes", [2, 256, fe._POOL_LANES])
def test_pool_matches_reference_when_faults_show_only_together(faults, lanes):
    # the screen of one net says nothing about two: a multi-fault experiment
    # must stay active wherever any of its stuck nets leaves its golden value
    netlist, words, codes = _register_with_and_of_zeros()
    spec = fe.CampaignSpec(
        scope="diffusion_only", effects=("stuck1",), cycles=(0, 2, 5), max_simultaneous_faults=faults
    )
    totals = _assert_pool_matches_reference(netlist, words, spec, codes, lanes)
    if faults == 1:
        assert totals["masked"] == totals["total"] and not totals["masked_corrupt"]
    else:
        # pairs on one net stay masked, the 9 pairs across za and zb do not
        assert totals["total"] - totals["masked"] + totals["masked_corrupt"] == 9


def _brute_force_screen(netlist, words):
    """Per net index, the cycles (bit c for cycle c) at which a flip of the
    net, in an otherwise fault-free ``simulate_batch`` run, changes that
    cycle's ``state_e`` or ``fsm_alert`` or the next cycle's flops. Lane 0 is
    fault-free; one more settle cycle shows the flops after the last one."""
    trace = fe._word_trace(words) + [{"x_e": 0}]
    cycles = len(words) + 1
    nets = netlist.nets()
    faults = [[]] + [[FaultSite(n, "flip", c)] for n in nets for c in range(cycles)]
    res = simulate_batch(netlist, [trace] * len(faults), faults)
    full = (1 << res.lanes) - 1
    shown = [0] * len(nets)
    for c in range(cycles):
        changed = 0
        for bits in (res.port_bits["state_e"][c], res.port_bits["fsm_alert"][c], res.flop_q[c + 1]):
            for v in bits:
                changed |= v ^ (full if v & 1 else 0)
        for i in range(len(nets)):
            shown[i] |= (changed >> (1 + i * cycles + c) & 1) << c
    return shown


def _fanout_free():
    """A netlist in which no net has two readers, so the screen simulates no
    stem: single-reader nets on a MUX's sel, a and b inputs and on an AND and
    an OR, observed through the flop ``q0``, under a trace that drives each
    input both ways."""
    n = Netlist("fanout_free")
    n.add_port("x_e", "in", [f"x{i}" for i in range(6)])
    n.add_gate("NOT", ["x0"], "s")
    n.add_gate("BUF", ["x1"], "a")
    n.add_gate("AND", ["x2", "q0"], "b")
    n.add_gate("MUX", ["s", "a", "b"], "m")
    n.add_gate("OR", ["x3", "q1"], "c")
    n.add_gate("AND", ["m", "c"], "and_out")
    n.add_gate("OR", ["and_out", "x4"], "d0")
    n.add_flop("d0", "q0", 1)
    n.add_flop("x5", "q1", 0)
    n.add_gate("CONST0", [], "alert_lo")
    n.add_port("state_e", "out", ["q0", "q1"])
    n.add_port("fsm_alert", "out", ["alert_lo"])
    n.validate()
    rng = random.Random(1)
    return n, [rng.randrange(64) for _ in range(24)]


@pytest.mark.parametrize("design", ["fig2_design", "design_n2", "fanout_free"])
def test_screen_matches_single_flips(request, design):
    if design == "fanout_free":
        netlist, words = _fanout_free()
    else:
        design = request.getfixturevalue(design)
        netlist, words = design.netlist, _autocover(design)
    _check_screen_of_every_net(netlist, words)


@pytest.mark.parametrize("lookups", [1, 64, 1024])
@pytest.mark.parametrize("n_edges", [1, 7, 8, 9, 15, 97])
def test_activity_tables_match_a_per_edge_or(n_edges, lookups):
    # the tables turn edges into cycles one group at a time, one edge a group
    # for one lookup, four for 64 and eight for 1,024, and the last group
    # may be short; each net's edges are its golden ones for the effect,
    # cut to its route's edges when it has one. Each cycle of a 300-cycle
    # trace lies on one edge, and each edge has a cycle
    rng = random.Random(n_edges)
    every = (1 << n_edges) - 1
    edge_of = list(range(n_edges)) + [rng.randrange(n_edges) for _ in range(300 - n_edges)]
    rng.shuffle(edge_of)
    edges = {rng.getrandbits(16) << 8 | e: sum(1 << c for c, f in enumerate(edge_of) if f == e) for e in range(n_edges)}
    values = [rng.getrandbits(n_edges) for _ in range(40)] + [0, every]
    routes = {net: (0, rng.getrandbits(n_edges)) for net in range(0, len(values), 3)}
    act = fe._Activity(edges, values, routes, lookups)
    assert act.size == {1: 1, 64: 4, 1024: 8}[lookups]
    cycles = list(edges.values())
    for net, v in enumerate(values):
        route = routes[net][1] if net in routes else every
        for effect, mask in enumerate((every, v, every ^ v)):
            want = 0
            for e in range(n_edges):
                if (mask & route) >> e & 1:
                    want |= cycles[e]
            assert act(net, effect) == want, (net, effect)


def test_activity_tables_are_sized_from_the_lookup_bound(design_n2):
    # a campaign looks up at most its distinct nets times its effects (the
    # drawn ones in a sampled single-fault campaign: 5,000 draws reach every
    # site net), and when sampled at most its draws times the faults of a draw
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    comp = netlist._compile()
    nets = len({comp.index[site] for site in enumerate_fault_sites(netlist, "all")})
    for fields, lookups in (
        (dict(), 2 * nets),
        (dict(mode="sampled", sample_count=20), 20),
        (dict(mode="sampled", sample_count=20, max_simultaneous_faults=2), 40),
        (dict(mode="sampled", sample_count=5000), min(2 * nets, 5000)),
    ):
        spec = fe.CampaignSpec(scope="all", effects=("stuck0", "stuck1"), **fields)
        built = mock.Mock(wraps=fe._Activity)
        with mock.patch.object(fe, "_Activity", built):
            fe.run_campaign(netlist, words, spec, codes)
        assert built.call_args.args[3] == lookups, fields


# the screen's counts in a campaign's record: nets screened, stems simulated,
# and the _run_ops calls and lanes of the golden values and the screen
SCREEN_KEYS = ("screen_nets", "screen_stems", "screen_passes", "screen_lanes")


def _record(caplog, *keys):
    """The values of ``keys`` in the one campaign record in ``caplog``."""
    record = log_record(caplog, "campaign")
    return tuple(record[key] for key in keys)


def _edge_keys(netlist, words):
    """The (flop state, x_e word) key of every golden cycle, settle cycle included."""
    golden = fe._golden(netlist, words, (), {})
    width = len(netlist._compile().out_bits["x_e"])
    return [q << width | x for (q, _, _), x in zip(golden, (*words, 0))]


def _stems(netlist, nets):
    """The fanout stems (net indices) that the screen of the net indices
    ``nets`` simulates: from each net, follow the nets that one gate input
    reads and that are not observed to the first that is not such a net,
    and keep it if it is read twice or more and not observed. The readers
    are counted by name from ``netlist.gates``, not from the compiled
    netlist."""
    readers = {}  # net name -> the gates that read it, once per input
    for g in netlist.gates:
        for name in g.inputs:
            readers.setdefault(name, []).append(g)
    observed = {f.d for f in netlist.flops}
    observed |= {*netlist.port("state_e").bits, *netlist.port("fsm_alert").bits}
    index = netlist._compile().index
    names = list(index)
    ends = set()
    for net in nets:
        name = names[net]
        while len(readers.get(name, ())) == 1 and name not in observed:
            name = readers[name][0].output
        ends.add(name)
    return {index[n] for n in ends if n not in observed and len(readers.get(n, ())) >= 2}


def _check_screen_of_every_net(netlist, words):
    """The stuck-at lookup of an exhaustive single-fault campaign over every
    net against ``_brute_force_screen`` and each cycle's golden net values,
    at one stem per screen call, 7 stems per call, one stem fewer than all
    per call (so that the last call holds one) and full calls: a stuck-at-0
    fault is active where the net is 1 and a flip shows, a stuck-at-1 fault
    where it is 0 and a flip shows. With every net screened, the stems are
    the nets read twice or more that are not observed. Every screen call
    is as wide as its blocks, one lane per edge for each stem it flips."""
    comp = netlist._compile()
    golden = fe._golden(netlist, words, (), {})
    keys = _edge_keys(netlist, words)
    ones = fe._eval_edges(comp, keys)  # per net, the cycles at which it is 1
    every = (1 << len(keys)) - 1
    edges = len(set(keys))
    want = _brute_force_screen(netlist, words)
    nets = list(range(comp.n_nets))
    spec = fe.CampaignSpec(scope="all", effects=("stuck0", "stuck1"))
    n_stems = len(_stems(netlist, nets))
    run_ops = fe._run_ops
    for lanes_per_call in (1, 7 * edges, (n_stems - 1) * edges, fe._SCREEN_LANES):
        blocks = []  # (stems flipped, lanes) of each screen call

        def counted(ops, values, full, masks):
            blocks.append((len(masks) - 1, full.bit_length()))
            run_ops(ops, values, full, masks)

        stats = {}
        with mock.patch.object(fe, "_SCREEN_LANES", lanes_per_call), mock.patch.object(fe, "_run_ops", counted):
            active = fe._activity(comp, golden, words, spec, nets, stats)
        screened, stems, calls, lanes = (stats[key] for key in SCREEN_KEYS)
        per_call = max(1, lanes_per_call // edges)
        assert (screened, stems) == (len(nets), n_stems)
        assert (calls, lanes) == (1 + -(-stems // per_call), (1 + stems) * edges)
        # the first call holds the golden values, and flips nothing
        assert blocks[0] == (0, edges) and len(blocks) == calls
        assert [width for _, width in blocks[1:]] == [b * edges for b, _ in blocks[1:]]
        if stems:
            assert blocks[-1][0] == stems - per_call * (calls - 2)
            if lanes_per_call == (stems - 1) * edges > 0:
                assert blocks[-1][0] == 1
        assert [active(n, 1) for n in nets] == [w & ones[n] for n, w in zip(nets, want)]
        assert [active(n, 2) for n in nets] == [w & (every ^ ones[n]) for n, w in zip(nets, want)]


@pytest.mark.parametrize("faults", [1, 2])
def test_flip_only_campaign_skips_the_screen(design_n2, faults):
    # the golden net values of a stuck-at campaign take one _eval_edges call
    # beyond the golden run's; a sampled flip-only campaign makes none. A single-fault
    # campaign that also flips settles its flips in a pool run of their own
    # before the campaign's, and makes no _eval_edges call for them
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    spec = fe.CampaignSpec(
        scope="all", mode="sampled", sample_count=300, seed=5, max_simultaneous_faults=faults
    )
    want = fe.run_campaign(netlist, words, spec, codes).to_json_dict()
    stats = {}
    fe._golden(netlist, words, [w for _, w in codes.entries], stats)
    golden_calls = stats["golden_passes"]
    for effects, passes in ((("flip",), 0), (("flip", "stuck0"), 1)):
        evals = mock.Mock(wraps=fe._eval_edges)
        screen = mock.Mock(wraps=fe._screen)
        pools = mock.Mock(wraps=fe._run_pool)
        with mock.patch.object(fe, "_eval_edges", evals), mock.patch.object(fe, "_screen", screen), \
                mock.patch.object(fe, "_run_pool", pools):
            got = fe.run_campaign(netlist, words, dataclasses.replace(spec, effects=effects), codes)
        assert evals.call_count == golden_calls + passes
        assert screen.call_count == (1 if passes and faults == 1 else 0)
        assert pools.call_count == (2 if passes and faults == 1 else 1)
        if not passes:
            assert got.to_json_dict() == want


@pytest.mark.parametrize("lanes", [1, 3, 256])
def test_exhaustive_screen_batches_do_not_follow_the_pool(design_n2, caplog, lanes):
    # every scope net is screened up front in full passes of _SCREEN_LANES
    # lanes, whatever the pool width and the order of the experiment stream;
    # a campaign that flips and sticks simulates the same stems as one that
    # only sticks: at 7 stems a pass the last pass is partial, and only as
    # wide as its blocks
    caplog.set_level(logging.INFO, logger="fsmguard")
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    edges = len(set(_edge_keys(netlist, words)))
    comp = netlist._compile()
    nets = [comp.index[site] for site in enumerate_fault_sites(netlist, "all")]
    stems = len(_stems(netlist, nets))
    # two cycles keep the one-lane pool quick; the screen covers every edge
    spec = fe.CampaignSpec(scope="all", effects=("flip", "stuck0", "stuck1"), cycles=(0, 7))
    totals, witnesses = reference_campaign(netlist, words, spec, codes)
    assert 0 < stems < len(nets) and stems % 7
    for screen_lanes in (1, 7 * edges, fe._SCREEN_LANES):
        caplog.clear()
        with mock.patch.object(fe, "_POOL_LANES", lanes), mock.patch.object(fe, "_SCREEN_LANES", screen_lanes):
            doc = fe.run_campaign(netlist, words, spec, codes).to_json_dict()
        assert (doc["totals"], doc["witnesses"]) == (totals, witnesses)
        per_call = max(1, screen_lanes // edges)
        want = (len(nets), stems, 1 + math.ceil(stems / per_call), (1 + stems) * edges)
        assert _record(caplog, *SCREEN_KEYS) == want


def test_screen_flips_only_fanout_stems(design_n2):
    # the screen's passes flip only the stems that the screened nets lead
    # to, and run every op; the flips of all other nets are traced
    netlist, words = design_n2.netlist, _autocover(design_n2)
    comp = netlist._compile()
    keys = list(dict.fromkeys(_edge_keys(netlist, words)))
    values = fe._eval_edges(comp, keys)
    nets = [comp.index[site] for site in enumerate_fault_sites(netlist, "all")]
    runs = []
    run_ops = fe._run_ops

    def counted(ops, values, full, masks):
        runs.append((len(ops), [net for _, net, _, _, _ in masks[:-1]]))
        run_ops(ops, values, full, masks)

    stats = Counter()
    with mock.patch.object(fe, "_run_ops", counted):
        fe._screen(comp, values, len(keys), nets, stats)
    stems, calls, lanes = (stats[key] for key in SCREEN_KEYS[1:])
    flipped = [net for _, picked in runs for net in picked]
    assert sorted(flipped) == sorted(_stems(netlist, nets))
    assert len(flipped) == stems < len(nets)
    assert [n for n, _ in runs] == [len(comp.ops)] * calls
    assert lanes == stems * len(keys)


def test_screen_covers_the_drawn_nets_only(design_n2, caplog):
    caplog.set_level(logging.INFO, logger="fsmguard")
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    common = dict(scope="all", effects=("flip", "stuck1"), cycles=(1, 4), mode="sampled", seed=3)
    spec = fe.CampaignSpec(**common, sample_count=40)
    atoms = [
        (site, effect)
        for site in enumerate_fault_sites(netlist, spec.scope)
        for effect in spec.effects
        for _ in spec.cycles
    ]
    drawn = {atoms[i][0] for (i,) in fe._enumerate_experiments(len(atoms), spec)}
    screen = mock.Mock(wraps=fe._screen)
    with mock.patch.object(fe, "_screen", screen):
        fe.run_campaign(netlist, words, spec, codes)
    (comp, _, _, nets, _), _ = screen.call_args
    assert screen.call_count == 1
    assert sorted(nets) == sorted(comp.index[site] for site in drawn)
    assert _record(caplog, "screen_nets") == (len(drawn),)
    assert len(drawn) < len(enumerate_fault_sites(netlist, spec.scope))

    # several faults use no screen, and the stream is drawn once, not twice
    caplog.clear()
    spec = fe.CampaignSpec(**common, sample_count=200, max_simultaneous_faults=2)
    screen = mock.Mock(wraps=fe._screen)
    stream = mock.Mock(wraps=fe._enumerate_experiments)
    with mock.patch.object(fe, "_screen", screen), mock.patch.object(fe, "_enumerate_experiments", stream):
        fe.run_campaign(netlist, words, spec, codes)
    screen.assert_not_called()
    assert stream.call_count == 1
    # only the golden net values, one pass
    assert _record(caplog, *SCREEN_KEYS[:3]) == (0, 0, 1)


def _pool_entries(netlist, words, spec, codes, lanes=fe._POOL_LANES):
    """The campaign report of ``spec``, the experiments that took a lane of
    the campaign's pool, each a (members, faults, mask) triple, and that
    pool's (members, class) outcomes; the pool run that settles flips, with
    the cut, is not counted."""
    entered, outcomes = [], []
    run_pool = fe._run_pool

    def pool(*args, cut=False):
        if cut:
            yield from run_pool(*args, cut=cut)
            return

        def stream():
            for exp in args[-1]:
                entered.append(exp)
                yield exp

        for members, cls, info in run_pool(*args[:-1], stream()):
            outcomes.append((members, cls))
            yield members, cls, info

    with mock.patch.object(fe, "_run_pool", pool), mock.patch.object(fe, "_POOL_LANES", lanes):
        report = fe.run_campaign(netlist, words, spec, codes)
    return report, entered, outcomes


def _shown_by_flips(netlist, words):
    """Per net index, the golden net values (bit c for cycle c) and the
    cycles at which a whole-trace single flip of the net shows."""
    ones = fe._eval_edges(netlist._compile(), _edge_keys(netlist, words))
    return ones, _brute_force_screen(netlist, words)


@pytest.mark.parametrize("lanes", [1, 2, 256])
@pytest.mark.parametrize("case", ["alert_free_register", "design_n2"])
def test_equal_stuck_at_experiments_share_a_lane(request, case, lanes, caplog):
    # consecutive single stuck-at faults with one (net, effect, mask) differ
    # only in an onset before the mask's first cycle: one lane runs them all
    caplog.set_level(logging.INFO, logger="fsmguard")
    if case == "design_n2":
        design = request.getfixturevalue(case)
        netlist, words, codes = design.netlist, _autocover(design), design.state_codes
        cycles = (2, 3, 4, 5)
    else:
        netlist, words, codes = _alert_free_register()
        cycles = tuple(range(len(words)))
    spec = fe.CampaignSpec(scope="all", effects=("stuck0", "stuck1"), cycles=cycles)
    report, entered, outcomes = _pool_entries(netlist, words, spec, codes, lanes)
    totals, witnesses = reference_campaign(netlist, words, spec, codes)
    doc = report.to_json_dict()
    assert doc["totals"] == totals
    assert doc["witnesses"] == witnesses

    # the lanes are the runs of consecutive non-empty (net, effect, mask)
    # keys, less the runs outside the state_e/fsm_alert cone whose flip at
    # the first cycle of the mask, a campaign cycle, is detected or hijacked:
    # those take the flip's outcome without a lane. Every flip here is over
    # by the cycle after it, so its whole-trace class is that outcome
    ones, shown = _shown_by_flips(netlist, words)
    every = (1 << len(words) + 1) - 1
    comp = netlist._compile()
    keys = []
    for site in enumerate_fault_sites(netlist, spec.scope):
        net = comp.index[site]
        for effect, differs in (("stuck0", ones[net]), ("stuck1", every ^ ones[net])):
            for c in cycles:
                mask = shown[net] & differs >> c << c
                if mask:
                    keys.append((site, net, effect, mask))
    runs = [key for i, key in enumerate(keys) if not i or keys[i - 1] != key]
    flips = [
        (site, (mask & -mask).bit_length() - 1)
        for site, net, _, mask in runs
        if net not in comp.out_cone and (mask & -mask).bit_length() - 1 in cycles
    ]
    trace = fe._word_trace(words)
    res = simulate_batch(netlist, [trace] * (1 + len(flips)), [[]] + [[FaultSite(s, "flip", c)] for s, c in flips])
    golden = [decode_exact(codes, w) for w in res.port_column("state_e")]
    classes = [fe._classify(golden, *fe._observe(res, lane), codes)[0] for lane in range(1, 1 + len(flips))]
    settled = sum(cls in ("detected", "hijack") for cls in classes)
    assert len(entered) == len(runs) - settled < len(keys)
    assert settled == (0 if case == "alert_free_register" else 783)
    idle, shared, stuck = _record(caplog, "settled_without_lane", "shared_lane", "stuck_settled")
    assert idle == totals["total"] - len(keys)
    assert shared + stuck == len(keys) - len(entered)

    # a shared lane ends hijacked (design_n2) or silently corrupt (the register)
    ends = {cls for members, cls in outcomes if len(members) > 1}
    assert ("hijack" if case == "design_n2" else "masked_corrupt") in ends
    if case == "design_n2":
        # witnesses are in experiment order, the pool's and the settled
        # groups' together; each member of a hijacking group has its own, at
        # its own onset and the group's hijack cycle
        sites = enumerate_fault_sites(netlist, spec.scope)
        order = [
            (sites.index(f["location"]) * 2 + spec.effects.index(f["effect"])) * len(cycles) + cycles.index(f["cycle"])
            for f in (w["faults"][0] for w in witnesses)
        ]
        assert order == sorted(order)
        witness_of = dict(zip(order, witnesses))
        for members, cls in outcomes:
            if cls == "hijack" and len(members) > 1:
                own = [witness_of[i] for i, _ in members]
                assert len({(w["cycle"], w["reached_state"]) for w in own}) == 1


def test_flips_that_show_nothing_take_no_lane(design_n2, caplog):
    # in a screened campaign, a flip is classified at the cycles where a
    # whole-trace single flip of its net shows, on its edge or in the pool;
    # on a hardened netlist every such flip settles on its edge
    caplog.set_level(logging.INFO, logger="fsmguard")
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    spec = fe.CampaignSpec(scope="all", effects=("flip", "stuck0"))
    kept = []
    activity, settle_flips = fe._activity, fe._settle_flips

    def screened(*args):
        kept.append(activity(*args))
        return kept[-1]

    def settle(*args):
        kept.append(settle_flips(*args))
        return kept[-1]

    with mock.patch.object(fe, "_activity", screened), mock.patch.object(fe, "_settle_flips", settle):
        report, entered, _ = _pool_entries(netlist, words, spec, codes)
    active, outcomes = kept
    _, shown = _shown_by_flips(netlist, words)
    comp = netlist._compile()
    nets = [comp.index[site] for site in enumerate_fault_sites(netlist, spec.scope)]
    want = [(net, c) for net in nets for c in range(len(words)) if shown[net] >> c & 1]
    settled = []  # the (net, cycle) flips that the outcome of the net's stem classifies
    for net in nets:
        detected, masked, corrupt, _, hijacked, _ = outcomes[active.routes[net][0]]
        ended = active(net, 0) & (detected | masked | corrupt | hijacked)
        settled += [(net, c) for c in range(len(words)) if ended >> c & 1]
    pooled = [(net, c) for _, ((net, effect, c),), _ in entered if not effect]
    assert sorted(settled + pooled) == sorted(want) and not pooled
    assert _record(caplog, "flips_settled", "flips_pooled") == (len(settled), 0)
    # the flips settle in one pool lane per (stem, golden edge of c, word of
    # c + 1, whether c + 1 is the last cycle) group of the cycles c at which
    # the flip of one of the stem's nets shows; the groups fit one pool, and
    # the lanes still off golden after c take a second step, to c + 1
    keys, xs = _edge_keys(netlist, words), (*words, 0)
    groups = {(active.routes[net][0], keys[c], xs[c + 1], c + 1 == len(words)) for net, c in want}
    assert _record(caplog, "settle_lanes", "settle_passes") == (len(groups), 2)
    assert len(groups) <= fe._POOL_LANES
    assert 0 < len(want) < len(nets) * len(words)
    idle, shared, stuck = _record(caplog, "settled_without_lane", "shared_lane", "stuck_settled")
    assert idle + shared + len(settled) + stuck + len(entered) == report.total
    assert stuck > 0
    assert idle >= len(nets) * len(words) - len(want)
    totals, witnesses = reference_campaign(netlist, words, spec, codes)
    assert report.to_json_dict()["totals"] == totals
    assert report.to_json_dict()["witnesses"] == witnesses


def test_sampled_single_faults_settle_per_edge(design_n2, caplog):
    # sampled draws take the single-fault path of exhaustive campaigns: every
    # drawn net is screened, so no drawn flip takes a lane, and stuck-at draws
    # outside the state_e/fsm_alert cone settle from their flip's outcome
    caplog.set_level(logging.INFO, logger="fsmguard")
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    spec = fe.CampaignSpec(scope="all", effects=("flip", "stuck0", "stuck1"), mode="sampled", sample_count=1024)
    doc = fe.run_campaign(netlist, words, spec, codes).to_json_dict()
    totals, witnesses = reference_campaign(netlist, words, spec, codes)
    assert doc["totals"] == totals
    assert doc["witnesses"] == witnesses and witnesses
    settled, pooled, stuck = _record(caplog, "flips_settled", "flips_pooled", "stuck_settled")
    assert settled > 0 and pooled == 0 and stuck > 0


def test_stuck_at_in_the_alert_cone_takes_a_lane(design_n2):
    # a stuck-at-1 on a state match line first acts as its flip does, and
    # that flip is detected at the next cycle because state_valid falls;
    # held, the fault keeps state_valid high there, so the flip's outcome
    # cannot settle it and it runs in the pool
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    comp = netlist._compile()
    trace = fe._word_trace(words)
    candidates = [(net, c) for net in comp.index if net.startswith("m0_st_") for c in range(len(words))]
    faults = [[]] + [[FaultSite(net, effect, c)] for net, c in candidates for effect in ("flip", "stuck1")]
    res = simulate_batch(netlist, [trace] * len(faults), faults)

    def run(lane, c):
        """Alerts at c and c + 1, and the flop state at c + 1, of a lane."""
        flops = tuple(q >> lane & 1 for q in res.flop_q[c + 1])
        return res.port_value("fsm_alert", c, lane), res.port_value("fsm_alert", c + 1, lane), flops

    found = []
    for i, (net, c) in enumerate(candidates):
        golden, flip, stuck = run(0, c), run(2 * i + 1, c), run(2 * i + 2, c)
        if flip[:2] == (0, 1) and stuck[:2] == (0, 0) and golden[2] != flip[2] == stuck[2]:
            found.append((net, c))
    assert found
    net, c = found[0]
    assert comp.index[net] in comp.out_cone
    spec = fe.CampaignSpec(scope="all", effects=("flip", "stuck1"), cycles=(c,))
    report, entered, _ = _pool_entries(netlist, words, spec, codes)
    assert (comp.index[net], 2) in {pooled[0][:2] for _, pooled, _ in entered}
    totals, witnesses = reference_campaign(netlist, words, spec, codes)
    assert report.to_json_dict()["totals"] == totals
    assert report.to_json_dict()["witnesses"] == witnesses


# -- the memoized golden run against simulate_batch ---------------------------


def _lane0_record(netlist, words):
    """The ``fe._golden`` record read from lane 0 of a whole-trace
    ``simulate_batch`` run: flop q packed to an int, state_e word, alert."""
    res = simulate_batch(netlist, [fe._word_trace(words)])
    return [
        (
            sum(q << j for j, q in enumerate(res.flop_q[c])),
            res.port_value("state_e", c),
            res.port_value("fsm_alert", c),
        )
        for c in range(res.cycles)
    ]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_campaigns(), st.sampled_from([1, 3, 256]))
def test_golden_matches_simulate_batch_on_hardened_fsms(case, lanes):
    design, words, _, _ = case
    codes = design.state_codes
    with mock.patch.object(fe, "_POOL_LANES", lanes):
        stats = {}
        record = fe._golden(design.netlist, words, [w for _, w in codes.entries], stats)
        states, alerts = fe.golden_run(design.netlist, words, codes)
    want = _lane0_record(design.netlist, words)
    assert record == want
    assert states == [decode_exact(codes, w) for _, w, _ in want]
    assert alerts == [a for _, _, a in want]
    assert stats["golden_cycles"] == len(words) + 1
    assert stats["golden_passes"] <= stats["golden_lanes"] <= stats["golden_passes"] * lanes


@st.composite
def golden_netlists(draw):
    """A random acyclic netlist over every gate kind, with flops, driven by
    one ``x_e`` port, with ``state_e`` and ``fsm_alert`` drawn from its nets,
    and a word trace of up to 30 cycles that revisits states (a sibling of
    ``tests.test_netlist.faulted_netlists``)."""
    width = draw(st.integers(1, 6))
    qs = [f"q{i}" for i in range(draw(st.integers(0, 5)))]
    nets = [f"x_e_{b}" for b in range(width)] + qs
    gates = []
    for i in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(fg.netlist.GATE_KINDS))
        ins = [draw(st.sampled_from(nets)) for _ in range(fg.netlist._ARITY[kind])]
        gates.append((kind, ins, f"g{i}"))
        nets.append(f"g{i}")
    n = Netlist("rand")
    n.add_port("x_e", "in", nets[:width])
    for kind, ins, out in draw(st.permutations(gates)):
        n.add_gate(kind, ins, out)
    for q in qs:
        n.add_flop(draw(st.sampled_from(nets)), q, draw(st.integers(0, 1)))
    n.add_port("state_e", "out", draw(st.lists(st.sampled_from(nets), max_size=6)))
    n.add_port("fsm_alert", "out", draw(st.lists(st.sampled_from(nets), min_size=1, max_size=2)))
    n.validate()
    words = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=30))
    return n, words


@settings(max_examples=150, deadline=None)
@given(golden_netlists(), st.sampled_from([1, 3, 256]))
def test_golden_sim_matches_simulate_batch_on_random_netlists(case, lanes):
    n, words = case
    with mock.patch.object(fe, "_POOL_LANES", lanes):
        stats = {}
        record = fe._golden(n, words, (), stats)
    assert record == _lane0_record(n, words)
    assert stats["golden_passes"] <= stats["golden_lanes"] <= stats["golden_passes"] * lanes


@settings(max_examples=100, deadline=None)
@given(golden_netlists())
def test_screen_matches_single_flips_on_random_netlists(case):
    # reconvergent fanout, and screened nets in each other's fanout cones
    _check_screen_of_every_net(*case)


@st.composite
def settled_flip_campaigns(draw):
    """A ``golden_netlists`` netlist whose ``fsm_alert`` is rewired to nets
    that stay low on its golden run (or to a constant 0), the first of them
    maybe ANDed with a flop's d net, so that the alert's cone shares nets
    with the next-state logic; a random ``CodeBook`` over its ``state_e``
    width that holds every golden word and an ERROR word off the golden run;
    and a single-fault campaign of flips, one stuck-at effect or both,
    small enough for the whole-trace reference."""
    n, words = draw(golden_netlists())
    width = len(n.port("state_e").bits)
    assume(words and width)
    comp = n._compile()
    keys = list(dict.fromkeys(_edge_keys(n, words)))
    values = fe._eval_edges(comp, keys)
    low = [net for net, i in comp.index.items() if not values[i]]
    alert = draw(st.lists(st.sampled_from(low), max_size=2)) if low else []
    rewired = Netlist("rewired")
    rewired.add_port("x_e", "in", n.port("x_e").bits)
    for g in n.gates:
        rewired.add_gate(g.kind, g.inputs, g.output)
    for f in n.flops:
        rewired.add_flop(f.d, f.q, f.reset_value)
    if not alert:
        alert = [rewired.add_gate("CONST0", [], "alert_lo")]
    if n.flops and draw(st.booleans()):
        # ANDed with a flop's d net, the alert stays low on the golden run
        # and its cone takes in next-state logic
        alert[0] = rewired.add_gate("AND", [alert[0], draw(st.sampled_from(n.flops)).d], "alert_and")
    rewired.add_port("state_e", "out", n.port("state_e").bits)
    rewired.add_port("fsm_alert", "out", alert)
    rewired.validate()
    golden = sorted({w for _, w, _ in fe._golden(rewired, words, (), {})})
    others = [w for w in range(1 << width) if w not in golden]
    assume(others)
    extra = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    entries = [("ERR", extra[0])] + [(f"S{w}", w) for w in golden] + [(f"X{w}", w) for w in extra[1:]]
    codes = CodeBook(1, width, tuple(draw(st.permutations(entries))), "ERR")
    stuck = draw(st.sampled_from(["stuck0", "stuck1"]))
    effects = draw(st.sampled_from([("flip",), (stuck,), ("flip", stuck)]))
    scope = draw(st.sampled_from(["all", "inputs_only"]))
    some = st.lists(st.integers(0, len(words) - 1), min_size=1, max_size=3, unique=True).map(tuple)
    cycles = draw(st.none() | some)
    n_sites = len(enumerate_fault_sites(rewired, scope))
    n_atoms = n_sites * len(effects) * (len(words) if cycles is None else len(cycles))
    if n_atoms <= 800 and draw(st.booleans()):
        spec = fe.CampaignSpec(scope=scope, effects=effects, cycles=cycles)
    else:
        spec = fe.CampaignSpec(
            scope=scope, effects=effects, cycles=cycles, mode="sampled",
            sample_count=draw(st.integers(1, 150)), seed=draw(st.integers(0, 99)),
        )
    return rewired, words, codes, spec


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)
@given(settled_flip_campaigns(), st.sampled_from([1, 3, fe._POOL_LANES]))
def test_flips_settled_per_edge_match_reference_on_random_netlists(case, lanes):
    # flips that settle on their edge and the next one, flips that fall
    # through to the pool, reconvergent stems and observed nets that gates read
    netlist, words, codes, spec = case
    _assert_pool_matches_reference(netlist, words, spec, codes, lanes)


# every key of a campaign's record, whatever the campaign
RECORD_KEYS = {
    "golden_cycles", "golden_passes", "golden_lanes", "golden_s",
    "screen_nets", "screen_stems", "screen_passes", "screen_lanes", "screen_s",
    "settled_without_lane", "shared_lane",
    "flips_settled", "settle_passes", "settle_lanes", "flips_pooled", "stuck_settled",
    "pool_lanes", "pool_steps",
    "experiments", "wall_s", "experiments_per_s",
}


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much, HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        small_campaigns().map(lambda c: (c[0].netlist, c[1], c[0].state_codes, *c[2:])),
        st.tuples(settled_flip_campaigns(), st.sampled_from([1, 3, fe._POOL_LANES])).map(lambda c: (*c[0], c[1])),
    )
)
def test_campaign_record_counts_every_experiment(caplog, case):
    # an experiment settles without a lane, shares one, settles per edge or
    # enters the pool, once or again at a later run of its mask: a single
    # flip of a flip-only campaign enters exactly once, and only when the
    # settle run leaves it pending, or when the campaign is sampled and so
    # neither screened nor settled. The screen takes a lane per distinct
    # golden edge for the golden values, and one per (stem, edge) pair
    netlist, words, codes, spec, lanes = case
    caplog.set_level(logging.INFO, logger="fsmguard")
    caplog.clear()
    with mock.patch.object(fe, "_POOL_LANES", lanes):
        report = fe.run_campaign(netlist, words, spec, codes)
    record = log_record(caplog, "campaign")
    assert record.keys() == RECORD_KEYS
    assert record["experiments"] == report.total
    settled = ("settled_without_lane", "shared_lane", "flips_settled", "stuck_settled")
    entered = report.total - sum(record[key] for key in settled)
    single, sampled = spec.max_simultaneous_faults == 1, spec.mode == "sampled"
    if spec.effects == ("flip",) and single:
        assert record["pool_lanes"] == entered == record["flips_pooled"]
        if sampled:
            assert entered == report.total
    else:
        assert record["pool_lanes"] >= entered
    if spec.effects != ("flip",) or single and not sampled:
        edges = len(set(_edge_keys(netlist, words)))
        assert record["screen_lanes"] == (record["screen_stems"] + 1) * edges


@pytest.mark.parametrize("effect", ["stuck0", "stuck1"])
def test_flips_corrupt_past_the_next_cycle_fall_through_to_the_pool(effect, caplog):
    # a flipped register bit stays off golden, undetected, until the next
    # load: settling its flip on two edges cannot end it, so it takes a lane
    caplog.set_level(logging.INFO, logger="fsmguard")
    netlist, words, codes = _alert_free_register()
    spec = fe.CampaignSpec(scope="all", effects=("flip", effect))
    totals = _assert_pool_matches_reference(netlist, words, spec, codes, fe._POOL_LANES)
    settled, pooled = _record(caplog, "flips_settled", "flips_pooled")
    assert settled > 0 and pooled > 0 and totals["masked_corrupt"] > 0


def test_flips_at_the_last_cycle_settle_in_groups_of_their_own(caplog):
    # here x_e_3 = 0 holds the register, so every trace word and the settle
    # cycle's 0 hold it and each cycle runs one golden edge. A flip that
    # leaves a register bit off golden is pending after c + 1 at cycles 0
    # and 1, but at cycle 2 the run ends at the settle cycle, masked-corrupt:
    # the last cycle's flips form groups of their own, which the pool settles
    caplog.set_level(logging.INFO, logger="fsmguard")
    n = Netlist("zero_holds")
    n.add_port("x_e", "in", [f"x_e_{i}" for i in range(4)])
    for i in range(3):
        n.add_gate("MUX", ["x_e_3", f"st_q_{i}", f"x_e_{i}"], f"st_d_{i}")
        n.add_flop(f"st_d_{i}", f"st_q_{i}", (0b011 >> i) & 1)
    n.add_gate("CONST0", [], "alert_lo")
    n.add_port("state_e", "out", [f"st_q_{i}" for i in range(3)])
    n.add_port("fsm_alert", "out", ["alert_lo"])
    n.validate()
    codes = CodeBook(2, 3, (("ERR", 0b000), ("A", 0b011), ("B", 0b101), ("C", 0b110)), "ERR")
    spec = fe.CampaignSpec(scope="all", effects=("flip", "stuck0"))
    _assert_pool_matches_reference(n, [0, 0, 0], spec, codes, fe._POOL_LANES)
    # 7 stems, each its own: the alert's flips are detected at once, and
    # the 6 register nets' flips settle at cycle 2 and are pooled at 0 and 1
    assert _record(caplog, "flips_settled", "flips_pooled", "settle_lanes") == (3 + 6, 6 * 2, 7 * 2)


def _counter(bits, port="x"):
    """A ``bits``-wide up counter on ``state_e``, stepped by bit 0 of the
    input ``port``; bits 1 and 2 only feed ``fsm_alert``, so their values
    multiply the distinct words."""
    n = Netlist("counter")
    n.add_port(port, "in", ["en", "pad0", "pad1"])
    carry = "en"
    for i in range(bits):
        n.add_gate("XOR", [f"q{i}", carry], f"d{i}")
        n.add_gate("AND", [f"q{i}", carry], f"c{i}")
        n.add_flop(f"d{i}", f"q{i}", i & 1)
        carry = f"c{i}"
    n.add_gate("XOR", ["pad0", "pad1"], "pad_x")
    n.add_port("state_e", "out", [f"q{i}" for i in range(bits)])
    n.add_port("fsm_alert", "out", ["pad_x"])
    n.validate()
    return n


@pytest.mark.parametrize("lanes", [1, 3, 256])
def test_golden_sim_counter_that_never_repeats(lanes):
    # every cycle reaches a new flop state, so every cycle misses; each miss
    # evaluates its new state under all 5 distinct words (the trace's 4 and
    # the settle cycle's 0), cut to the lane cap
    n = _counter(9, port="x_e")
    words = [1 | (c % 4) << 1 for c in range(300)]
    with mock.patch.object(fe, "_POOL_LANES", lanes):
        stats = {}
        record = fe._golden(n, words, (), stats)
    assert record == _lane0_record(n, words)
    assert stats["golden_passes"] == len(words) + 1
    assert stats["golden_lanes"] == stats["golden_passes"] * min(lanes, 5)


@pytest.mark.parametrize("lanes, calls, used", [(3, 15, 43), (8, 10, 50), (256, 5, 50)])
def test_golden_sim_fills_each_pass_from_the_queue(design_n2, lanes, calls, used):
    # unseeded, a miss evaluates its flop state under the walk's other words
    # that are not yet evaluated, cut to the lane cap: at 256 lanes one pass
    # for each of the 5 flop states the walk finds, under all 10 words
    words = _autocover(design_n2)
    with mock.patch.object(fe, "_POOL_LANES", lanes):
        stats = {}
        record = fe._golden(design_n2.netlist, words, (), stats)
    assert record == _lane0_record(design_n2.netlist, words)
    assert (stats["golden_passes"], stats["golden_lanes"]) == (calls, used)


@pytest.mark.parametrize("name", ["fig2_design", "design_n2"])
def test_golden_walk_seeded_from_the_codebook(request, name):
    # every state_e bit of a hardened netlist is a flop q net, so the walk
    # expects each codeword under each distinct word: the record stays the
    # same, and design_n2's walk takes one pass of exactly those keys, the
    # reset state's among them, where unseeded it takes 5
    design = request.getfixturevalue(name)
    netlist, words = design.netlist, _autocover(design)
    codewords = [w for _, w in design.state_codes.entries]
    stats, unseeded_stats = {}, {}
    seeded = fe._golden(netlist, words, codewords, stats)
    unseeded = fe._golden(netlist, words, (), unseeded_stats)
    assert seeded == unseeded == _lane0_record(netlist, words)
    calls, unseeded_calls = stats["golden_passes"], unseeded_stats["golden_passes"]
    assert calls <= unseeded_calls
    if name == "design_n2":
        assert (calls, unseeded_calls) == (1, 5)
        assert stats["golden_lanes"] == len(set(codewords)) * len(set(words) | {0})


def test_golden_walk_that_leaves_the_codebook(design_n2):
    # the all-zeros control word is invalid: the run reaches ERROR and the
    # alert latches, so the walk misses past the expected codeword edges and
    # evaluates the flop state it finds under all 10 words in a second pass
    words = _autocover(design_n2)
    words = words[:5] + [0] + words[5:]
    codewords = [w for _, w in design_n2.state_codes.entries]
    stats = {}
    record = fe._golden(design_n2.netlist, words, codewords, stats)
    assert record == _lane0_record(design_n2.netlist, words)
    assert design_n2.state_codes.error_codeword in {w for _, w, _ in record}
    assert record[-1][2] and not record[0][2]
    assert (stats["golden_passes"], stats["golden_lanes"]) == (2, 70)


def test_golden_run_evaluates_each_transition_once():
    design = fg.harden(fg.parse_fsm(json.dumps(bigm_doc(32, 0))), fg.HardeningConfig(protection_level=2, seed=0))
    words = _autocover(design)
    counted = mock.Mock(wraps=fg.netlist._run_ops)
    # patched in both modules, so a golden run through simulate_batch counts too
    with mock.patch.object(fg.netlist, "_run_ops", counted), mock.patch.object(fe, "_run_ops", counted):
        states, _ = fe.golden_run(design.netlist, words, design.state_codes)
    cycles = len(words) + 1
    assert len(states) == cycles > 100
    assert 0 < counted.call_count < cycles / 4


def test_campaign_logs_golden_phase(design_n2, caplog):
    caplog.set_level(logging.INFO, logger="fsmguard")
    spec = fe.CampaignSpec(scope="inputs_only", cycles=(0,))
    netlist, words = design_n2.netlist, _autocover(design_n2)
    comp = netlist._compile()
    sites = [comp.index[site] for site in enumerate_fault_sites(netlist, spec.scope)]
    edges = len(set(_edge_keys(netlist, words)))
    rep = fe.run_campaign(netlist, words, spec, design_n2.state_codes)
    record = log_record(caplog, "campaign")
    assert record["golden_cycles"] == len(words) + 1 and record["golden_passes"] > 0 and record["golden_s"] > 0
    # an exhaustive campaign screens every site's net, flip-only too: one
    # lane per distinct golden edge for the golden net values, and per
    # (stem, edge) pair for the screen
    nets, stems, calls, lanes = _record(caplog, *SCREEN_KEYS)
    assert nets == rep.metadata["sites"] and stems == len(_stems(netlist, sites)) and record["screen_s"] > 0
    assert calls >= 2 and lanes == (stems + 1) * edges
    # every single flip here shows and settles in the settle run, one lane
    # per group, and none takes a lane of the campaign's pool
    keys = ("flips_settled", "settle_lanes", "settle_passes", "settled_without_lane", "shared_lane", "flips_pooled")
    assert _record(caplog, *keys, "pool_lanes", "pool_steps") == (rep.total, 9, 2, 0, 0, 0, 0, 0)
    assert record["experiments_per_s"] == pytest.approx(rep.total / record["wall_s"])
    caplog.clear()
    spec = fe.CampaignSpec(scope="inputs_only", effects=("stuck0", "stuck1"))
    rep = fe.run_campaign(netlist, words, spec, design_n2.state_codes)
    nets, stems, calls, lanes, idle, shared = _record(caplog, *SCREEN_KEYS, "settled_without_lane", "shared_lane")
    assert nets == rep.metadata["sites"] and stems == len(_stems(netlist, sites))
    assert calls >= 2 and lanes == (stems + 1) * edges
    assert 0 < idle <= rep.masked - rep.masked_corrupt
    assert 0 < shared < rep.total - idle
    # an exhaustive stuck-only campaign settles flips too, so the stuck-at
    # groups outside the state_e/fsm_alert cone whose flip is detected or
    # hijacked take its outcome without a lane. Each experiment that was
    # neither settled nor shared enters a lane at least once, and again at
    # each later run of its mask
    stuck, settle_lanes, pool_lanes, steps = _record(caplog, "stuck_settled", "settle_lanes", "pool_lanes", "pool_steps")
    assert stuck > 0 and settle_lanes > 0
    assert pool_lanes >= rep.total - idle - shared - stuck and steps > 0


@pytest.mark.parametrize(
    "scope, effects, faults, lanes, pool",
    [
        ("diffusion_only", ("flip",), 1, 2, (300, 177)),
        ("diffusion_only", ("flip",), 1, fe._POOL_LANES, (300, 2)),
        ("all", ("stuck0", "stuck1"), 1, 2, (145, 142)),
        ("all", ("stuck0", "stuck1"), 1, fe._POOL_LANES, (145, 3)),
        ("all", ("stuck0", "stuck1"), 2, 2, (468, 678)),
        ("all", ("stuck0", "stuck1"), 2, fe._POOL_LANES, (468, 19)),
    ],
    ids=["flips-2", "flips-wide", "stuck-2", "stuck-wide", "stuck-pairs-2", "stuck-pairs-wide"],
)
def test_pool_lanes_and_steps_are_pinned(design_n2, caplog, scope, effects, faults, lanes, pool):
    # the exact lanes entered and steps taken by the pool: every flip of a
    # sampled flip-only campaign takes a lane, single stuck-at draws share or skip
    # one, and a two-lane pool reuses its lanes for hundreds of steps. Pairs
    # of stuck-at faults have runs of several mask cycles and faults whose
    # onset comes after the entry cycle: a lane released before its run is
    # over rejoins golden early and enters again, which only these counts show
    caplog.set_level(logging.INFO, logger="fsmguard")
    netlist, codes, words = design_n2.netlist, design_n2.state_codes, _autocover(design_n2)
    spec = fe.CampaignSpec(
        scope=scope, effects=effects, max_simultaneous_faults=faults, mode="sampled", sample_count=300, seed=5
    )
    _assert_pool_matches_reference(netlist, words, spec, codes, lanes)
    assert _record(caplog, "pool_lanes", "pool_steps") == pool


# -- inputs the campaign must refuse ----------------------------------------------


@pytest.mark.parametrize("bad", ["wide", "negative"])
def test_trace_word_must_fit_x_e(design_n2, bad):
    codes, netlist = design_n2.state_codes, design_n2.netlist
    width = len(netlist.port("x_e").bits)
    words = _autocover(design_n2)
    value = words[2] | 1 << width if bad == "wide" else -1
    words[2] = value
    match = rf"^trace word 2 \({value:#x}\) does not fit the {width}-bit port x_e$"
    with pytest.raises(fe.CampaignError, match=match):
        fe.golden_run(netlist, words, codes)
    with pytest.raises(fe.CampaignError, match=match):
        fe.run_campaign(netlist, words, fe.CampaignSpec(scope="inputs_only"), codes)
    witness = fe.HijackWitness((FaultSite(netlist.gates[0].output, "flip", 0),), 1, "S1", "S0")
    with pytest.raises(fe.CampaignError, match=match):
        fe.replay_witness(netlist, words, witness, codes)


def test_trace_words_need_an_x_e_port(design_n2):
    with pytest.raises(fe.CampaignError, match="^netlist has no input port 'x_e'$"):
        fe.golden_run(_counter(2), [0, 1], design_n2.state_codes)


# located port errors: the golden run drives x_e alone and reads two outputs
PORT_DEFECTS = {
    "extra_input": "netlist has input port 'scan_en' besides x_e",
    "state_e": "netlist has no output port 'state_e'",
    "fsm_alert": "netlist has no output port 'fsm_alert'",
}


def break_ports(doc, defect):
    """Netlist JSON ``doc`` with an input port beside ``x_e``, or without the
    output port named ``defect``."""
    if defect == "extra_input":
        doc["ports"]["scan_en"] = {"dir": "in", "bits": ["scan_en"]}
    else:
        del doc["ports"][defect]
    return doc


@pytest.mark.parametrize("defect", list(PORT_DEFECTS))
def test_port_defects_located(design_n2, defect):
    doc = break_ports(fg.netlist.to_json_dict(design_n2.netlist), defect)
    netlist = fg.netlist.from_json_dict(doc)
    codes, words = design_n2.state_codes, _autocover(design_n2)
    match = f"^{PORT_DEFECTS[defect]}$"
    with pytest.raises(fe.CampaignError, match=match):
        fe.golden_run(netlist, words, codes)
    with pytest.raises(fe.CampaignError, match=match):
        fe.run_campaign(netlist, words, fe.CampaignSpec(scope="inputs_only"), codes)
    witness = fe.HijackWitness((FaultSite(netlist.gates[0].output, "flip", 0),), 1, "S1", "S0")
    with pytest.raises(fe.CampaignError, match=match):
        fe.replay_witness(netlist, words, witness, codes)


def test_sampled_spec_needs_positive_count():
    for count in (0, -5):
        with pytest.raises(fe.CampaignError, match="sample_count must be >= 1"):
            fe.CampaignSpec(mode="sampled", sample_count=count)
    assert fe.CampaignSpec(mode="exhaustive", sample_count=0).mode == "exhaustive"
