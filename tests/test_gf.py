import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmguard as fg
from fsmguard import gf


def schoolbook_mul(a, b):
    """Independent oracle: carry-less multiply then long division by the modulus."""
    prod = 0
    for i in range(8):
        if (a >> i) & 1:
            for j in range(8):
                if (b >> j) & 1:
                    prod ^= 1 << (i + j)
    for deg in range(prod.bit_length() - 1, 7, -1):
        if (prod >> deg) & 1:
            prod ^= gf.RING_MODULUS << (deg - 8)
    return prod


def test_mul_identity():
    for b in (0x00, 0x01, 0x53, 0xFF):
        assert fg.ring_mul(0x01, b) == b


def test_mul_alpha7_times_alpha():
    # a^7 * a = a^8 = a^2 + 1 mod (a^8 + a^2 + 1)
    assert fg.ring_mul(0x80, 0x02) == 0x05


def test_mul_against_schoolbook_sampled():
    rng = random.Random(0)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert fg.ring_mul(a, b) == schoolbook_mul(a, b)


def test_mul_commutative_associative_distributive():
    rng = random.Random(1)
    for _ in range(500):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert fg.ring_mul(a, b) == fg.ring_mul(b, a)
        assert fg.ring_mul(a, fg.ring_mul(b, c)) == fg.ring_mul(fg.ring_mul(a, b), c)
        assert fg.ring_mul(a, b ^ c) == fg.ring_mul(a, b) ^ fg.ring_mul(a, c)


def test_mds_apply_zero_and_units():
    m = fg.default_mds()
    assert fg.mds_apply(m, 0) == 0
    for i in range(32):
        col = fg.mds_apply(m, 1 << i)
        via_rows = sum(((m.binary_rows[r] >> i) & 1) << r for r in range(32))
        assert col == via_rows


def test_mds_linearity():
    m = fg.default_mds()
    rng = random.Random(2)
    for _ in range(500):
        v, w = rng.getrandbits(32), rng.getrandbits(32)
        assert fg.mds_apply(m, v ^ w) == fg.mds_apply(m, v) ^ fg.mds_apply(m, w)


def _apply_binary(m, v):
    """The map through its GF(2) rows: output bit r is row r's parity over v."""
    return sum(((row & v).bit_count() & 1) << r for r, row in enumerate(m.binary_rows))


def _apply_circuit(m, v):
    """The map through the XOR circuit that hardening builds as gates."""
    vals = [(v >> i) & 1 for i in range(gf.BLOCK_BITS)]
    for a, b in m.xor_circuit.nodes:
        vals.append(vals[a] ^ vals[b])
    return sum(vals[ref] << i for i, ref in enumerate(m.xor_circuit.outputs))


def test_three_representations_agree():
    m = fg.default_mds()
    rng = random.Random(3)
    vectors = [1 << i for i in range(32)] + [rng.getrandbits(32) for _ in range(10_000)]
    for v in vectors:
        a = gf.mds_apply(m, v)
        assert _apply_binary(m, v) == a
        assert _apply_circuit(m, v) == a


def test_branch_number_identity_is_two():
    ident = gf.MdsSpec.from_entries(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)], name="identity"
    )
    assert fg.branch_number(ident) == 2


def test_branch_number_default_matrix_is_five():
    assert fg.branch_number(fg.default_mds()) == 5


def test_zero_entry_matrix_below_five():
    m = gf.MdsSpec.from_entries([[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 1]], "ok")
    # replace one entry with zero: from_entries rejects empty rows only, so tweak a single entry
    entries = [list(r) for r in m.entries]
    entries[0][1] = 0
    weak = gf.MdsSpec.from_entries(entries, name="weak")
    assert fg.branch_number(weak) == 4


# Every single-byte input of this matrix touches 5 or more bytes, and a
# million random inputs found nothing lighter, yet 0x13be maps to 0x7900004c:
# two active bytes in, two out.
WEAK4_ENTRIES = [[197, 215, 20, 132], [248, 207, 155, 244], [183, 111, 71, 144], [71, 48, 128, 75]]


def _active_bytes(v):
    return sum(1 for j in range(4) if (v >> (8 * j)) & 0xFF)


def test_branch_number_finds_multibyte_witness():
    m = gf.MdsSpec.from_entries(WEAK4_ENTRIES, name="weak4")
    assert fg.mds_apply(m, 0x13BE) == 0x7900004C
    assert fg.branch_number(m) == 4


_byte_rows = st.lists(st.integers(0, 255), min_size=4, max_size=4).filter(any)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(_byte_rows, min_size=4, max_size=4),
    drawn=st.lists(st.integers(1, (1 << 32) - 1), max_size=20),
)
def test_branch_number_never_above_any_input_weight(entries, drawn):
    m = gf.MdsSpec.from_entries(entries)
    bn = fg.branch_number(m)
    singles = [val << (8 * j) for j in range(4) for val in range(1, 256)]
    for v in singles + drawn:
        assert bn <= _active_bytes(v) + _active_bytes(fg.mds_apply(m, v))


def test_solve_identity():
    rows = [1 << i for i in range(8)]
    b = [1, 0, 1, 1, 0, 0, 1, 0]
    x = fg.solve_gf2(rows, b, 8)
    assert x == sum(bit << i for i, bit in enumerate(b))


def test_solve_inconsistent():
    assert fg.solve_gf2([0b11, 0b11], [1, 0], 2) is None


def test_solve_random_invertible():
    rng = random.Random(4)
    for _ in range(10):
        while True:
            rows = [rng.getrandbits(32) for _ in range(32)]
            if gf.gf2_rank(rows, 32) == 32:
                break
        x_true = rng.getrandbits(32)
        b = [bin(r & x_true).count("1") & 1 for r in rows]
        x = fg.solve_gf2(rows, b, 32)
        assert x == x_true


def test_solve_underdetermined_free_vars_zero():
    # single row x0 ^ x2 = 1 -> pivot on x0, free vars 0
    x = fg.solve_gf2([0b101], [1], 3)
    assert x == 0b001


def test_solve_leaves_inputs_unmodified():
    rows = [0b11, 0b10]
    b = [1, 1]
    fg.solve_gf2(rows, b, 2)
    assert rows == [0b11, 0b10] and b == [1, 1]


def _solve_augmented(rows, rhs, ncols):
    """One right-hand side carried as column ``ncols`` through the eliminator."""
    aug = [(r & ((1 << ncols) - 1)) | ((b & 1) << ncols) for r, b in zip(rows, rhs)]
    pivots = gf._eliminate(aug, ncols)
    if any(r >> ncols for r in aug[len(pivots):]):
        return None
    return sum(((aug[r] >> ncols) & 1) << col for col, r in pivots)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_one_reduction_solves_every_rhs_like_solve_gf2(ncols, data):
    rows = data.draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=1, max_size=8))
    reduced = gf.gf2_reduce(rows, ncols)
    assert len(reduced.pivots) == gf.gf2_rank(rows, ncols)
    # every rhs, so the inconsistent ones (None) come up whenever the rank is short
    for b in range(1 << len(rows)):
        bits = [(b >> i) & 1 for i in range(len(rows))]
        x = reduced.solve(b)
        assert x == fg.solve_gf2(rows, bits, ncols) == _solve_augmented(rows, bits, ncols)
        if x is not None:
            assert [(r & x).bit_count() & 1 for r in rows] == bits
