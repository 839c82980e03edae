import hashlib
import json
import math
import tracemalloc

import pytest

import fsmguard as fg
from fsmguard import faults as fe
from fsmguard.netlist import FaultSite


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
