import dataclasses
import hashlib
import json
import logging
import random
import re

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
    for level in (2, 3, 4):
        assert hd.plan_layout(6, 5, hd.HardeningConfig(protection_level=level)).error_bits == level


def test_harden_validates_fsm_built_in_code(ref14_fsm):
    duplicate = dataclasses.replace(ref14_fsm, states=ref14_fsm.states + ("S0",))
    with pytest.raises(fg.FsmValidationError, match="duplicate state 'S0'"):
        hd.harden(duplicate, hd.HardeningConfig(protection_level=2))


def test_harden_logs_stage_timings_and_counts(ref14_fsm, caplog):
    caplog.set_level(logging.INFO, logger="fsmguard")
    design = hd.harden(ref14_fsm, hd.HardeningConfig(protection_level=2, seed=0))
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("harden:")]
    stage = r"\d+\.\d{3} s"
    assert re.fullmatch(
        rf"harden: 14 edges, 1 elimination, {len(design.netlist.gates)} gates; codebooks {stage}, "
        rf"modifiers {stage}, netlist build {stage}, validate {stage}",
        line,
    )


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


def test_too_few_modifier_bits_fail_with_their_rank(design_n2, ref14_fsm):
    d = design_n2
    # two modifier bits cannot steer the six constrained output bits of every edge
    layout = dataclasses.replace(d.layout, mod_in=d.layout.mod_in[:2])
    targets = layout.state_out + layout.error_out
    # a constrained bit's row: the modifier bits whose flip flips it
    rows = [
        sum(
            1 << g
            for g, (mb, mp) in enumerate(layout.mod_in)
            if mb == b and (gf.mds_apply(d.matrix, 1 << mp) >> p) & 1
        )
        for b, p in targets
    ]
    rank = gf.gf2_rank(rows, 2)
    assert 0 < rank < len(targets)
    with pytest.raises(
        hd.ModifierSolveError, match=rf": rank {rank} of {len(targets)} constraints over 2 modifier bits$"
    ):
        hd.solve_modifiers(layout, fg.extract_cfg(ref14_fsm), d.state_codes, d.ctrl_codes, d.matrix)


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
     "ccda0bbe95109cab978d371175644d3c0d2475307794d8b9bd4ffca67c3d76d0",
     "247d3ce3db57e3927ac4ae6beb038d4acb50f711f0be0ec70354d8219c8f378b",
     "d34ffc3c643e38fb88bdb20728e020ac0e34f32a2a337e3563e8f072ad0c0c94"),
    ("fig2_fsm", 3,
     "dcc9d081875b351cedb0d5f8bb3d1e7db7a3cea336586c4c1512f05fc407e883",
     "6fbce3c7a72a6457448e5d5cad33ea0a935f207ff5234b797700981c03a9694c",
     "7e8a24b8db3a9f013e77eae72758006ffe4519c26337f8dd6c00ba2a492aaa6c"),
    ("fig2_fsm", 4,
     "1684d99cebe605b5d64f340e78220d7cbdcdd1526a47d68f2acde7b60512ca73",
     "d5458c25a16d321ccad6eefc48857a689a577dc25460e96179197bb25ed7a003",
     "7d70586ee9f999981f09e21bc897f90475a28cfabfe408695d3755737235c882"),
    ("ref14_fsm", 2,
     "4880d96bce403e57f0dd0eb420926111b5b51ce4c3b54d1465b11cc7dadde6e0",
     "d79c3d54728ee7a5fe8d026ca76021c2f8d5ba695d0561b163ef71291fcad445",
     "f7309ad750aaaeb51abc34c71318d90cdcef03de8786daf49749312495340d86"),
    ("ref14_fsm", 3,
     "c6a8163d3531f65df73cc26ee89a41b574fcf810ea8aeddabb2eb4c9401f0853",
     "cfd06db7b2c22433e30c4065c156234e2da2af7f7aee343208846a37f1895aaa",
     "4279e1ddc0154b338cfea6d458598d53189ed224a211eca0fe8ab02157567aa8"),
    ("ref14_fsm", 4,
     "e82dbe7fb8a58203d64910be3e909ea4ccd78e9e215e442ee9600a7efe2649d3",
     "56e0dd3258a577045692fd33e041838f5e1458cfb94b6a7883fba1b5323c143f",
     "7d46e2a518ff0262b72595d3ed28ceb9065a355ae5d95ce51f93e6a75e0af77f"),
    # the benchmark's synthetic FSMs (4,582 and 13,871 gates), where the
    # topological sort and the modifier elimination have work to do
    ("big32_fsm", 3,
     "78af930938b52e5ce093ccb83bea8b9723d9f258a96e25608dabe68174e14393",
     "241f2a8ef9f2eb579ea54ac1c73df4385796f5f9116c437e165b6a1097b7e0d0",
     "325f86d7d715a8a7eb9b5913a3606069f55ad26910f7c11686fa7d15d03e7d90"),
    ("big100_fsm", 3,
     "6fa901e20f2a2e5047dbc0c4a0ac6b6f38d16ca9f8b95253aabc0380979fd93e",
     "a5a60a3673864fe0451a0df0feb0574cfce2f45f8468f4dc18c062d17b34e535",
     "b3b7dd8d1fbea61b3ccd19772d892a432719091d140a40bf065f197270022931"),
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
