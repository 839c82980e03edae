"""Hamming-distance-N codeword generation for states and control configurations."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .fsm import FsmSpec, Transition, extract_cfg

ERROR_SYMBOL = "__ERROR__"
INVALID_CONTROL_SYMBOL = "__INVALID__"


class CodingError(Exception):
    pass


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


@dataclass(frozen=True)
class CodeBook:
    protection_level: int
    width: int
    entries: Tuple[Tuple[str, int], ...]  # (symbol, codeword), entry order fixed
    error_symbol: str
    # lookup indexes derived from ``entries``; the first of duplicated entries wins
    _by_symbol: Dict[str, int] = field(init=False, repr=False, compare=False)
    _by_word: Dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_symbol: Dict[str, int] = {}
        by_word: Dict[int, str] = {}
        for s, w in self.entries:
            by_symbol.setdefault(s, w)
            by_word.setdefault(w, s)
        object.__setattr__(self, "_by_symbol", by_symbol)
        object.__setattr__(self, "_by_word", by_word)

    @property
    def error_codeword(self) -> int:
        return self.codeword(self.error_symbol)

    def codeword(self, symbol: str) -> int:
        return self._by_symbol[symbol]

    def symbols(self) -> List[str]:
        return [s for s, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "protection_level": self.protection_level,
            "entries": {s: format(w, "x") for s, w in self.entries},
            "error": self.error_symbol,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "CodeBook":
        for name in ("width", "protection_level"):
            # bool is an int subclass; int() would take "2" or truncate 1.5
            if type(doc[name]) is not int or doc[name] < 1:
                raise CodingError(f"{name} is not an integer >= 1: {doc[name]!r}")
        width = doc["width"]
        entries = tuple((s, int(w, 16)) for s, w in doc["entries"].items())
        owner: Dict[int, str] = {}  # codeword -> symbol
        for s, w in entries:
            if not 0 <= w < 1 << width:
                raise CodingError(f"codeword {w:x} of {s!r} does not fit width {width}")
            if w in owner:
                raise CodingError(f"symbols {owner[w]!r} and {s!r} share codeword {w:x}")
            owner[w] = s
        if doc["error"] not in doc["entries"]:
            raise CodingError(f"error symbol {doc['error']!r} names no entry")
        return CodeBook(doc["protection_level"], width, entries, doc["error"])


def min_distance(code: CodeBook) -> int:
    """Exact minimum pairwise Hamming distance, exhaustive over all pairs."""
    words = [w for _, w in code.entries]
    if len(words) < 2:
        raise CodingError("need at least 2 entries")
    best = code.width
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            best = min(best, hamming(words[i], words[j]))
    return best


def decode_exact(code: CodeBook, word: int) -> Optional[str]:
    """The symbol whose codeword equals ``word`` exactly, or None."""
    return code._by_word.get(word)


def _ball(n: int, width: int) -> List[int]:
    """Every ``width``-bit mask of weight below ``n``, the zero mask included."""
    return [
        sum(1 << i for i in bits)
        for r in range(min(n, width + 1))
        for bits in itertools.combinations(range(width), r)
    ]


def _greedy_lexicode(count: int, n: int, width: int, rng: random.Random) -> Optional[List[int]]:
    # all-zeros is always the first accepted word (reserved for the error entry)
    if count == 1:
        return [0]
    candidates = list(range(1, 1 << width))
    rng.shuffle(candidates)
    # a candidate is closer than n to an accepted word w exactly when it lies
    # in w ^ ball, so ``blocked`` marks every word too close to one accepted
    ball = _ball(n, width)
    blocked = bytearray(1 << width)
    for m in ball:
        blocked[m] = 1
    accepted = [0]
    for cand in candidates:
        if not blocked[cand]:
            accepted.append(cand)
            if len(accepted) == count:
                return accepted
            for m in ball:
                blocked[cand ^ m] = 1
    return None


def _johnson_bound(n: int, d: int) -> int:
    """An upper bound on the number of ``n``-bit words at pairwise distance
    ``d`` or more, the Johnson bound. For ``d = 2e + 1`` it divides ``2^n``
    by the ball of radius ``e`` plus ``C(n, e) / (n // (e + 1))`` times the
    fractional part of ``(n - e) / (e + 1)``, so it is never above the
    sphere-packing bound. Deleting one bit of a code of even distance ``d``
    leaves distinct words at distance ``d - 1`` or more, so an even ``d``
    takes the bound of ``n - 1`` bits at ``d - 1``."""
    if d % 2 == 0:
        n, d = n - 1, d - 1
    e = (d - 1) // 2
    # ball: the words within distance e of one word, C(n, 0) + ... + C(n, e)
    ball = binom = 1
    for i in range(e):
        binom = binom * (n - i) // (i + 1)
        ball += binom
    # the binom / q * r / (e + 1) more words that the ball misses, in a
    # common denominator q * (e + 1); none if q is 0, where n <= e
    q, r = n // (e + 1), (n - e) % (e + 1)
    if not q:
        return (1 << n) // ball
    return (q * (e + 1) << n) // (ball * q * (e + 1) + binom * r)


def generate_code(
    count: int, protection_level: int, seed: int = 0, symbols: Optional[Sequence[str]] = None
) -> CodeBook:
    """Randomized-greedy lexicode with pairwise Hamming distance >= protection_level.

    The first codeword is all-zeros and is designated the error entry. Width
    starts at the smallest that the Johnson bound allows and grows
    until the greedy search fits all ``count`` words. Deterministic for a
    fixed seed.
    """
    if count < 1:
        raise CodingError("count must be >= 1")
    if protection_level < 1:
        raise CodingError("protection level must be >= 1")
    width = max(1, (count - 1).bit_length())
    # no code of that width holds count words at distance N above the
    # Johnson bound, so every attempt there, each seeded on its own, would fail
    while count > _johnson_bound(width, protection_level):
        width += 1
    words = None
    while words is None:
        for attempt in range(8):
            words = _greedy_lexicode(
                count, protection_level, width, random.Random(f"{seed}:{width}:{attempt}")
            )
            if words is not None:
                break
        else:
            width += 1
    if symbols is None:
        symbols = [ERROR_SYMBOL] + [f"sym{i}" for i in range(count - 1)]
    if len(symbols) != count:
        raise CodingError("symbols length must equal count")
    return CodeBook(
        protection_level, width, tuple(zip(symbols, words)), error_symbol=symbols[0]
    )


# ---------------------------------------------------------------------------
# FSM-facing codebook builders


def state_codebook(fsm: FsmSpec, protection_level: int, seed: int = 0) -> CodeBook:
    """Codewords for every FSM state plus the terminal error state (all-zeros)."""
    symbols = [ERROR_SYMBOL] + list(fsm.states)
    return generate_code(len(symbols), protection_level, seed=seed, symbols=symbols)


def control_symbols(fsm: FsmSpec) -> List[str]:
    """Distinct guard-configuration labels across the CFG, in first-seen order."""
    seen: List[str] = []
    for t in extract_cfg(fsm):
        label = t.guard_label()
        if label not in seen:
            seen.append(label)
    return seen


def control_codebook(fsm: FsmSpec, protection_level: int, seed: int = 0) -> CodeBook:
    """Codewords for every distinct guard configuration.

    The all-zeros entry is reserved as a never-driven invalid word, so every
    valid control codeword has weight >= protection_level.
    """
    symbols = [INVALID_CONTROL_SYMBOL] + control_symbols(fsm)
    return generate_code(len(symbols), protection_level, seed=seed + 1, symbols=symbols)


def encode_edge_trace(ctrl_codes: CodeBook, edges: Sequence[Transition]) -> List[int]:
    """Encoded control word to drive per cycle for a sequence of fired edges."""
    return [ctrl_codes.codeword(e.guard_label()) for e in edges]
