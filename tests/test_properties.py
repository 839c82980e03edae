"""Hardening properties checked over random valid FSMs at N=2..4.

The fixed-design tests in ``test_hardening.py`` and ``test_acceptance.py``
check the same properties on fig2 and ref14; here hypothesis draws the FSM,
the protection level and the seed.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsmguard as fg
from fsmguard import faults as fe
from fsmguard import gf
from fsmguard.coding import decode_exact, hamming
from fsmguard.netlist import emit_verilog, parse_verilog, simulate_batch
from tests.strategies import random_fsms

_SETTINGS = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def designs(draw):
    fsm = draw(random_fsms())
    cfg = fg.HardeningConfig(protection_level=draw(st.integers(2, 4)), seed=draw(st.integers(0, 9)))
    return fg.harden(fsm, cfg)


@_SETTINGS
@given(designs())
def test_codebooks_keep_distance_n_with_zero_as_error(design):
    n = design.config.protection_level
    for codes in (design.state_codes, design.ctrl_codes):
        assert codes.error_codeword == 0
        words = [w for _, w in codes.entries]
        assert min(hamming(a, b) for a, b in itertools.combinations(words, 2)) >= n


@_SETTINGS
@given(designs())
def test_every_modifier_reaches_its_next_state(design):
    layout, states, ctrl = design.layout, design.state_codes, design.ctrl_codes
    assert [p.edge for p in design.plans] == list(fg.extract_cfg(design.fsm))
    for p in design.plans:
        assert (p.sc_word, p.xe_word, p.sn_word) == (
            states.codeword(p.edge.src),
            ctrl.codeword(p.edge.guard_label()),
            states.codeword(p.edge.dst),
        )
        outs = [gf.mds_apply(design.matrix, v) for v in layout.pack_block_inputs(p.sc_word, p.xe_word, p.modifier)]
        assert layout.unpack_state(outs) == p.sn_word
        assert layout.error_values(outs) == [1] * len(layout.error_out)


@_SETTINGS
@given(designs(), st.integers(0, 20), st.randoms(use_true_random=False))
def test_netlist_bisimulates_the_fsm(design, length, rng):
    raw = fg.random_trace(design.fsm, length, rng)
    res = simulate_batch(design.netlist, [fe._word_trace(design.encode_raw_trace(raw))])
    states = [decode_exact(design.state_codes, w) for w in res.port_column("state_e")]
    assert states == fg.simulate_spec(design.fsm, raw)
    assert not any(res.port_column("fsm_alert"))


@_SETTINGS
@given(designs(), st.lists(st.integers(0, 2**16 - 1), max_size=12))
def test_emitted_verilog_simulates_like_the_netlist(design, raw_words):
    # any x_e word, valid codeword or not, so the alert paths are compared too
    netlist = design.netlist
    width = len(netlist.port("x_e").bits)
    trace = [{"x_e": w % (1 << width)} for w in design.autocover_words() + raw_words]
    reparsed = parse_verilog(emit_verilog(netlist))
    want, got = simulate_batch(netlist, [trace]), simulate_batch(reparsed, [trace])
    assert [p.name for p in reparsed.ports] == [p.name for p in netlist.ports]
    for port in netlist.ports:
        if port.direction == "out":
            assert got.port_column(port.name) == want.port_column(port.name), port.name
