import hashlib
import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmguard as fg
from fsmguard import coding


def brute_min_distance(words):
    return min(fg.hamming(a, b) for a, b in itertools.combinations(words, 2))


def test_two_symbols_distance_one():
    code = fg.generate_code(2, 1, seed=0)
    assert code.width == 1
    assert sorted(w for _, w in code.entries) == [0, 1]


def test_four_symbols_distance_two():
    code = fg.generate_code(4, 2, seed=0)
    words = [w for _, w in code.entries]
    assert brute_min_distance(words) >= 2
    assert code.width <= 4


def test_four_symbols_distance_four():
    code = fg.generate_code(4, 4, seed=1)
    assert brute_min_distance([w for _, w in code.entries]) >= 4


@pytest.mark.parametrize("count,n", [(4, 2), (8, 3), (14, 2), (6, 4)])
def test_generated_codes_meet_distance(count, n):
    code = fg.generate_code(count, n, seed=5)
    assert len(code) == count
    assert fg.min_distance(code) >= n
    assert len({w for _, w in code.entries}) == count


def test_min_distance_hand_counted():
    cb = coding.CodeBook(1, 3, (("a", 0b000), ("b", 0b111)), "a")
    assert fg.min_distance(cb) == 3
    cb2 = coding.CodeBook(1, 4, (("a", 0b0000), ("b", 0b0011), ("c", 0b0101)), "a")
    assert fg.min_distance(cb2) == 2


def test_min_distance_generated_at_least_n():
    code = fg.generate_code(8, 3, seed=7)
    assert fg.min_distance(code) >= 3


def test_min_distance_needs_two_entries():
    cb = coding.CodeBook(1, 2, (("a", 0),), "a")
    with pytest.raises(coding.CodingError):
        fg.min_distance(cb)


def test_generation_deterministic():
    a = fg.generate_code(14, 3, seed=42)
    b = fg.generate_code(14, 3, seed=42)
    assert a == b
    c = fg.generate_code(14, 3, seed=43)
    assert a != c  # overwhelmingly likely for a shuffled search


def test_error_codeword_is_all_zeros_and_distant():
    code = fg.generate_code(9, 3, seed=3)
    assert code.error_codeword == 0
    for sym, w in code.entries:
        if sym != code.error_symbol:
            assert fg.hamming(w, 0) >= 3


def test_sub_n_flips_never_reach_another_codeword():
    code = fg.generate_code(6, 3, seed=4)
    assert code.width <= 16
    words = {w for _, w in code.entries}
    for w in words:
        for nflips in (1, 2):
            for positions in itertools.combinations(range(code.width), nflips):
                mutated = w
                for p in positions:
                    mutated ^= 1 << p
                assert mutated not in words


def test_state_codebook_covers_states_and_error(ref14_fsm):
    code = fg.state_codebook(ref14_fsm, 2, seed=0)
    assert set(code.symbols()) == set(ref14_fsm.states) | {fg.ERROR_SYMBOL}
    assert fg.min_distance(code) >= 2


def test_control_codebook_one_entry_per_guard_config(ref14_fsm):
    code = fg.control_codebook(ref14_fsm, 2, seed=0)
    labels = coding.control_symbols(ref14_fsm)
    assert set(code.symbols()) == set(labels) | {coding.INVALID_CONTROL_SYMBOL}
    assert "default" in labels
    assert fg.min_distance(code) >= 2


def test_codebook_json_round_trip():
    code = fg.generate_code(5, 2, seed=8)
    doc = code.to_json_dict()
    again = coding.CodeBook.from_json_dict(doc)
    assert again == code


def _reference_lexicode(count, n, width, rng):
    """The pairwise-scan greedy search that ``_greedy_lexicode`` must reproduce."""
    if count == 1:
        return [0]
    candidates = list(range(1, 1 << width))
    rng.shuffle(candidates)
    accepted = [0]
    for cand in candidates:
        if all(bin(cand ^ w).count("1") >= n for w in accepted):
            accepted.append(cand)
            if len(accepted) == count:
                return accepted
    return None


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(2, 120),
    n=st.integers(1, 5),
    width=st.integers(1, 11),
    seed=st.text(max_size=8),
)
def test_greedy_lexicode_matches_pairwise_reference(count, n, width, seed):
    got = coding._greedy_lexicode(count, n, width, random.Random(seed))
    assert got == _reference_lexicode(count, n, width, random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 40), n=st.integers(1, 5), seed=st.integers(0, 3))
def test_sphere_packing_skips_only_widths_that_must_fail(count, n, seed):
    # the search from the smallest width that holds ``count`` words at all
    width = max(1, (count - 1).bit_length())
    while True:
        rngs = [random.Random(f"{seed}:{width}:{attempt}") for attempt in range(8)]
        found = [w for w in (coding._greedy_lexicode(count, n, width, r) for r in rngs) if w]
        if found:
            break
        width += 1
    with mock.patch.object(coding, "_greedy_lexicode", wraps=coding._greedy_lexicode) as tried:
        code = fg.generate_code(count, n, seed=seed)
    assert (code.width, [w for _, w in code.entries]) == (width, found[0])
    # and no attempt at a width that the balls of radius (n-1)//2 overflow
    for call in tried.call_args_list:
        w = call.args[2]
        assert count * sum(math.comb(w, r) for r in range((n - 1) // 2 + 1)) <= 2**w


@pytest.mark.parametrize(
    "count,n,width,digest",
    [
        (33, 4, 11, "ae03a685e46e4fc26b604e9c6517b9ec55fb679e2696abe5c8c4b0ce83bab52b"),
        (101, 3, 12, "06035728b6f6497a7b7db789f63f97b001c037e3f905deddbbfb64fd34e8c18c"),
        (301, 3, 14, "ed555b66c7260aa0364de509131a89c8de2d87b45a86b11eb15196a9572e7b26"),
    ],
    ids=["33x4", "101x3", "301x3"],
)
def test_generate_code_output_pinned(count, n, width, digest):
    # digests of the codebooks the pairwise-scan search produced at seed 0
    code = fg.generate_code(count, n, seed=0)
    assert code.width == width
    blob = json.dumps(code.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_codebook_lookups_first_entry_wins():
    cb = coding.CodeBook(1, 3, (("a", 1), ("b", 2), ("a", 4), ("c", 2)), "a")
    assert cb.codeword("a") == 1
    assert coding.decode_exact(cb, 2) == "b"
    assert coding.decode_exact(cb, 7) is None
    with pytest.raises(KeyError):
        cb.codeword("d")
    # the lookup indexes take no part in equality, hashing or repr
    same = coding.CodeBook(1, 3, cb.entries, "a")
    assert same == cb and hash(same) == hash(cb)
    assert "_by" not in repr(cb)


def test_codebook_json_error_must_name_an_entry():
    doc = fg.generate_code(3, 2, seed=0).to_json_dict()
    assert coding.CodeBook.from_json_dict(doc).error_symbol == doc["error"]
    doc["error"] = "missing"
    with pytest.raises(coding.CodingError, match="error symbol 'missing' names no entry"):
        coding.CodeBook.from_json_dict(doc)
