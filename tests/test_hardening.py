import hashlib
import json
import random

import pytest

import fsmguard as fg
from fsmguard import faults as fe
from fsmguard import fsm as fsm_mod
from fsmguard import gf
from fsmguard import hardening as hd
from fsmguard import netlist as nl_mod


def test_protection_level_floor():
    with pytest.raises(hd.HardeningError, match="redundancy"):
        hd.HardeningConfig(protection_level=1)


def test_error_bits_default_to_level():
    assert hd.HardeningConfig(protection_level=3).e == 3
    assert hd.HardeningConfig(protection_level=3, error_bits=5).e == 5


def test_layout_slots_disjoint():
    cfg = hd.HardeningConfig(protection_level=2)
    layout = hd.plan_layout(5, 4, cfg)
    slots = list(layout.state_in) + list(layout.ctrl_in) + list(layout.mod_in)
    assert len(slots) == len(set(slots))
    assert all(0 <= b < layout.k and 0 <= p < 32 for b, p in slots)


def test_layout_modifier_bits_in_top_lanes():
    cfg = hd.HardeningConfig(protection_level=2)
    layout = hd.plan_layout(5, 4, cfg)
    lowest_mod = min(p for _, p in layout.mod_in)
    assert lowest_mod % 8 == 0
    assert all(p >= lowest_mod for _, p in layout.mod_in if _ == 0)


def test_layout_error_bits_topmost():
    cfg = hd.HardeningConfig(protection_level=3)
    layout = hd.plan_layout(6, 5, cfg)
    for b in range(layout.k):
        tops = sorted(p for blk, p in layout.error_out if blk == b)
        assert tops == list(range(32 - layout.error_bits, 32))


def test_layout_pack_unpack_inverse():
    cfg = hd.HardeningConfig(protection_level=2)
    layout = hd.plan_layout(7, 5, cfg)
    rng = random.Random(1)
    for _ in range(50):
        sc = rng.getrandbits(7)
        xe = rng.getrandbits(5)
        mod = rng.getrandbits(layout.mod_width)
        blocks = layout.pack_block_inputs(sc, xe, mod)
        back_sc = 0
        for j, (b, p) in enumerate(layout.state_in):
            back_sc |= ((blocks[b] >> p) & 1) << j
        assert back_sc == sc


def test_layout_grows_block_count():
    cfg = hd.HardeningConfig(protection_level=2)
    layout = hd.plan_layout(30, 20, cfg)
    assert layout.k >= 2


def test_layout_too_wide_infeasible():
    # 200 state bits need 25 state bytes in at least one of 8 blocks
    cfg = hd.HardeningConfig(protection_level=2)
    with pytest.raises(hd.LayoutError, match="infeasible"):
        hd.plan_layout(200, 20, cfg)


def test_modifiers_satisfy_block_equations(design_n2):
    m = design_n2.matrix
    layout = design_n2.layout
    for p in design_n2.plans:
        outs = [gf.mds_apply(m, v) for v in layout.pack_block_inputs(p.sc_word, p.xe_word, p.modifier)]
        assert layout.unpack_state(outs) == p.sn_word
        assert all(layout.error_values(outs))


def test_one_plan_per_cfg_edge(design_n2, ref14_fsm):
    assert len(design_n2.plans) == len(fg.extract_cfg(ref14_fsm))


def test_netlist_validates_and_has_ports(design_n2):
    design_n2.netlist.validate()
    names = {p.name for p in design_n2.netlist.ports}
    assert {"x_e", "state_e", "fsm_alert", "busy"} <= names
    assert len(design_n2.netlist.port("state_e").bits) == design_n2.state_codes.width
    assert len(design_n2.netlist.port("x_e").bits) == design_n2.ctrl_codes.width


def test_netlist_meta(design_n2):
    meta = design_n2.netlist.meta
    assert meta["protection_level"] == 2
    assert meta["k"] == design_n2.layout.k
    assert meta["state_width"] == design_n2.state_codes.width
    assert meta["fingerprint"] == design_n2.fingerprint()
    assert all(isinstance(w, str) for w in meta["autocover_trace"])


def test_all_stages_present(design_n2):
    tags = design_n2.gate_counts_by_tag()
    for stage in (
        "match",
        "modifier_select",
        "mix",
        "diffusion",
        "unmix",
        "error_logic",
        "alert",
        "output_logic",
    ):
        assert tags.get(stage, 0) > 0, stage
    flop_tags = {f.tag for f in design_n2.netlist.flops}
    assert {"state_reg", "alert_reg"} <= flop_tags


def _decoded_run(design, raw_trace):
    words = design.encode_raw_trace(raw_trace)
    return fe.golden_run(design.netlist, words, design.state_codes)


def test_bisimulation_random_traces(design_n2, ref14_fsm):
    rng = random.Random(21)
    for _ in range(30):
        raw = fg.random_trace(ref14_fsm, rng.randrange(1, 25), rng)
        expected = fg.simulate_spec(ref14_fsm, raw)
        states, alerts = _decoded_run(design_n2, raw)
        assert states == expected
        assert alerts == [0] * len(alerts)


def test_bisimulation_fig2(fig2_design, fig2_fsm):
    rng = random.Random(3)
    for _ in range(20):
        raw = fg.random_trace(fig2_fsm, 10, rng)
        states, alerts = _decoded_run(fig2_design, raw)
        assert states == fg.simulate_spec(fig2_fsm, raw)
        assert not any(alerts)


def test_higher_levels_bisimulate(design_n3, design_n4, ref14_fsm):
    rng = random.Random(4)
    for design in (design_n3, design_n4):
        raw = fg.random_trace(ref14_fsm, 20, rng)
        states, alerts = _decoded_run(design, raw)
        assert states == fg.simulate_spec(ref14_fsm, raw)
        assert not any(alerts)


def test_moore_output_tracks_state(design_n2, ref14_fsm):
    raw = [{"a": 1, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]  # S0 -> S1 -> S3
    words = design_n2.encode_raw_trace(raw)
    res = nl_mod.simulate_batch(design_n2.netlist, [fe._word_trace(words)])
    assert res.port_column("busy")[: len(words) + 1] == [0, 1, 0]


def test_encode_raw_trace_needs_every_signal(design_n2):
    # simulate_spec rejects this trace, so the encoded trace cannot exist either
    with pytest.raises(fsm_mod.SimulationIncompleteError, match="step 0: .* b, c$"):
        design_n2.encode_raw_trace([{"a": 1}])


def test_invalid_input_word_raises_sticky_alert(design_n2):
    valid = {design_n2.ctrl_codes.codeword(s) for s in design_n2.ctrl_codes.symbols()}
    bad = next(w for w in range(1 << design_n2.ctrl_codes.width) if w not in valid)
    good = design_n2.encode_raw_trace([{"a": 0, "b": 0, "c": 0}])[0]
    res = nl_mod.simulate_batch(design_n2.netlist, [[{"x_e": bad}, {"x_e": good}, {"x_e": good}]])
    alerts = res.port_column("fsm_alert")
    assert alerts[0] == 0  # combinational invalid shows on the next clock edge
    assert alerts[1] == 1 and alerts[2] == 1  # and stays up


def test_encoded_selector_variant_bisimulates(ref14_fsm):
    cfg = hd.HardeningConfig(protection_level=2, seed=7, encoded_mux_selectors=True)
    design = fg.harden(ref14_fsm, cfg)
    design.netlist.validate()
    plain = fg.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=7))
    assert len(design.netlist.gates) > len(plain.netlist.gates)
    rng = random.Random(8)
    raw = fg.random_trace(ref14_fsm, 25, rng)
    states, alerts = _decoded_run(design, raw)
    assert states == fg.simulate_spec(ref14_fsm, raw)
    assert not any(alerts)


def test_same_seed_same_netlist(ref14_fsm):
    a = fg.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=13))
    b = fg.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=13))
    assert json.dumps(nl_mod.to_json_dict(a.netlist), sort_keys=True) == json.dumps(
        nl_mod.to_json_dict(b.netlist), sort_keys=True
    )


def test_fingerprint_depends_on_seed(ref14_fsm):
    a = fg.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=1))
    b = fg.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=2))
    assert a.fingerprint() != b.fingerprint()


def test_report_shape(design_n3):
    rep = design_n3.report()
    assert rep["protection_level"] == 3
    assert rep["total_gates"] == len(design_n3.netlist.gates)
    assert len(rep["edges"]) == len(design_n3.plans)
    json.dumps(rep)  # must be serializable as-is


def test_autocover_words_drive_every_edge(design_n2, ref14_fsm):
    words = design_n2.autocover_words()
    states, alerts = fe.golden_run(design_n2.netlist, words, design_n2.state_codes)
    assert not any(alerts)
    walk, _ = fsm_mod.edge_cover_walk(ref14_fsm, seed=0)
    assert states[1:] == [t.dst for t in walk]


# sha256 of the netlist JSON, the Verilog and the hardening report, as
# `fsmguard harden` writes them at seed 0; pinned so that no refactor can
# move a byte
PINNED_OUTPUTS = [
    ("fig2_fsm", 2,
     "76f9e27f4236e25a903bc01081c6a97d84c65fe252a11085b6bff3393075b507",
     "247d3ce3db57e3927ac4ae6beb038d4acb50f711f0be0ec70354d8219c8f378b",
     "6ccb7da2c261cb9e4660c389268fdfc084f7b8a73f0f35ad0d6d5b3fd53a6f75"),
    ("fig2_fsm", 3,
     "b8868eec8a371d77e89cdba7731a09add36cd7ebaab1fb3d4202af26f64d8de2",
     "6fbce3c7a72a6457448e5d5cad33ea0a935f207ff5234b797700981c03a9694c",
     "773237ba31a6825a6c334b09163064997ff5f3213af6dd939216fda2b215250c"),
    ("fig2_fsm", 4,
     "656022cc24bd6b692a661827ebfadfd33a945686c0ad107e5028c3323679e07b",
     "d5458c25a16d321ccad6eefc48857a689a577dc25460e96179197bb25ed7a003",
     "f5d3c06387c7e7ac196ba72b1990259c84dd866bdf3f35c6642bff02a1d652e4"),
    ("ref14_fsm", 2,
     "4e931c08bceaf06825da6674d31bd5c01750c098fea94734bf9fc920af8c8b62",
     "d79c3d54728ee7a5fe8d026ca76021c2f8d5ba695d0561b163ef71291fcad445",
     "5309ac7ee209cf593f8f263526e72aa33e85bee020699a1a3cc87f88c1244585"),
    ("ref14_fsm", 3,
     "431ef9d283b75aa88e3aa92935d7661fe48a0a6fe378b27e633606e81c7286f2",
     "cfd06db7b2c22433e30c4065c156234e2da2af7f7aee343208846a37f1895aaa",
     "876c9740bd5738163cf1ee5df2d40e15bf3f97bd951cbd04fe47c1ee233e5726"),
    ("ref14_fsm", 4,
     "bfa00240d13fae8701aec79f4096c711e4bfb659a8a80fe7b4fe912a3e99a483",
     "56e0dd3258a577045692fd33e041838f5e1458cfb94b6a7883fba1b5323c143f",
     "b769c764ea2022cb56391d37c6cef3ed82b99c61461c467b07215bfc172e58d0"),
]


@pytest.mark.parametrize(
    "fsm_fixture,level,json_sha,verilog_sha,report_sha",
    PINNED_OUTPUTS,
    ids=[f"{f.split('_')[0]}-N{n}" for f, n, _, _, _ in PINNED_OUTPUTS],
)
def test_harden_output_bytes_pinned(request, fsm_fixture, level, json_sha, verilog_sha, report_sha):
    fsm = request.getfixturevalue(fsm_fixture)
    design = hd.harden(fsm, hd.HardeningConfig(protection_level=level, seed=0))
    doc = json.dumps(nl_mod.to_json_dict(design.netlist), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(doc.encode()).hexdigest() == json_sha
    verilog = nl_mod.emit_verilog(design.netlist)
    assert hashlib.sha256(verilog.encode()).hexdigest() == verilog_sha
    report = json.dumps(design.report(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest() == report_sha


def test_nets_same_before_and_after_compile():
    nl = nl_mod.Netlist("t")
    nl.add_port("a", "in", ["a0", "a1"])
    nl.add_gate("XOR", ["a0", "q"], "x")
    nl.add_gate("AND", ["x", "a1"], "y")
    nl.add_flop("y", "q")
    nl.add_port("o", "out", ["q"])
    before = nl.nets()
    nl.validate()
    assert nl.nets() == before == ["a0", "a1", "q", "y", "x"]
    nl.nets().append("junk")  # every call hands out a fresh list
    assert nl.nets() == before
    # a later mutation must show up, whether or not the netlist was compiled
    nl.add_gate("NOT", ["x"], "z")
    assert nl.nets() == before + ["z"]
    nl.validate()
    assert nl.nets() == before + ["z"]
