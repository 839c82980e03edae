import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsmguard as fg
from fsmguard import faults as fe
from fsmguard.coding import CodeBook
from fsmguard.netlist import FaultSite, Netlist, enumerate_fault_sites, simulate_batch


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


def test_exhaustive_bound_enforced(design_n2):
    spec = fe.CampaignSpec(scope="all", max_simultaneous_faults=2, exhaustive_bound=100)
    with pytest.raises(fe.CampaignError, match="exceed the exhaustive bound"):
        fe.run_campaign(design_n2.netlist, _autocover(design_n2), spec, design_n2.state_codes)


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
    from fsmguard.netlist import simulate

    res = simulate(design_n2.netlist, fe._word_trace(words), faults)
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
    trace, classified by ``fe._classify``."""
    golden, _ = fe.golden_run(netlist, words, codes)
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
    trace = fe._word_trace(words)
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
        fsm = fg.parse_fsm(json.dumps(doc))
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
@pytest.mark.parametrize("lanes", [2, fe._POOL_LANES])
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
