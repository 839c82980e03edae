"""Arithmetic in F2[a]/(a^8 + a^2 + 1), 4x4 byte diffusion matrices, and GF(2) solving.

The modulus a^8 + a^2 + 1 factors as (a^4 + a + 1)^2 over GF(2), so the
quotient is a commutative ring with zero divisors rather than a field.
Diffusion guarantees are therefore not assumed from field axioms: the
branch number of a matrix is computed exactly from GF(2) ranks of its
byte submatrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

RING_MODULUS = 0x105  # a^8 + a^2 + 1
BLOCK_BITS = 32
BLOCK_BYTES = 4


def ring_mul(a: int, b: int) -> int:
    """Multiply two 8-bit polynomials modulo a^8 + a^2 + 1."""
    if not 0 <= a <= 0xFF or not 0 <= b <= 0xFF:
        raise ValueError("ring elements are 8-bit values")
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= RING_MODULUS
    return r & 0xFF


# ---------------------------------------------------------------------------
# XOR circuit: DAG of 2-input XOR nodes computing the 32-bit linear map.
# References 0..31 name input bits; reference 32+i names node i's output.


@dataclass(frozen=True)
class XorCircuit:
    nodes: Tuple[Tuple[int, int], ...]
    outputs: Tuple[int, ...]

    def eval(self, v: int) -> int:
        vals: List[int] = [(v >> i) & 1 for i in range(BLOCK_BITS)]
        for a, b in self.nodes:
            vals.append(vals[a] ^ vals[b])
        out = 0
        for i, ref in enumerate(self.outputs):
            out |= vals[ref] << i
        return out


def _build_xor_circuit(rows: Sequence[int]) -> XorCircuit:
    nodes: List[Tuple[int, int]] = []
    cache: Dict[Tuple[int, int], int] = {}

    def tree(refs: List[int]) -> int:
        level = refs
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                key = (level[i], level[i + 1])
                if key not in cache:
                    nodes.append(key)
                    cache[key] = BLOCK_BITS + len(nodes) - 1
                nxt.append(cache[key])
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    outputs = []
    for row in rows:
        support = [i for i in range(BLOCK_BITS) if (row >> i) & 1]
        if not support:
            raise ValueError("diffusion matrix row with empty support")
        outputs.append(tree(support))
    return XorCircuit(tuple(nodes), tuple(outputs))


# ---------------------------------------------------------------------------
# Diffusion matrix


@dataclass(frozen=True)
class MdsSpec:
    """A 4x4 byte matrix over the ring, with its GF(2) expansion and XOR DAG."""

    name: str
    entries: Tuple[Tuple[int, ...], ...]
    binary_rows: Tuple[int, ...] = field(repr=False)
    xor_circuit: XorCircuit = field(repr=False)

    @staticmethod
    def from_entries(entries: Sequence[Sequence[int]], name: str = "custom") -> "MdsSpec":
        ent = tuple(tuple(int(x) & 0xFF for x in row) for row in entries)
        if len(ent) != BLOCK_BYTES or any(len(r) != BLOCK_BYTES for r in ent):
            raise ValueError("diffusion matrix must be 4x4")
        # columns of the GF(2) expansion from the byte-level action on unit vectors
        cols = []
        for i in range(BLOCK_BITS):
            cols.append(_apply_bytes(ent, 1 << i))
        rows = []
        for r in range(BLOCK_BITS):
            mask = 0
            for c in range(BLOCK_BITS):
                mask |= ((cols[c] >> r) & 1) << c
            rows.append(mask)
        return MdsSpec(name, ent, tuple(rows), _build_xor_circuit(rows))


def _apply_bytes(entries: Sequence[Sequence[int]], v: int) -> int:
    inb = [(v >> (8 * j)) & 0xFF for j in range(BLOCK_BYTES)]
    out = 0
    for i in range(BLOCK_BYTES):
        acc = 0
        for j in range(BLOCK_BYTES):
            acc ^= ring_mul(entries[i][j], inb[j])
        out |= acc << (8 * i)
    return out


def mds_apply(m: MdsSpec, v: int) -> int:
    """Apply the diffusion map to a packed 32-bit vector (byte-level path)."""
    if not 0 <= v < (1 << BLOCK_BITS):
        raise ValueError("input must be a 32-bit value")
    return _apply_bytes(m.entries, v)


def mds_apply_binary(m: MdsSpec, v: int) -> int:
    out = 0
    for r, row in enumerate(m.binary_rows):
        out |= ((row & v).bit_count() & 1) << r
    return out


def branch_number(m: MdsSpec) -> int:
    """Minimum active input+output bytes over nonzero inputs, computed exactly.

    For an input-byte set I and an output-byte set Z, some nonzero x with
    support in I has ``M x`` zero on all of Z exactly when the rows of Z,
    masked to the bit columns of I, have GF(2) rank below 8|I|. Such an x has
    at most |I| + 4 - |Z| active bytes, and the lightest nonzero input meets
    that bound for its own support and zero set, so the minimum over all
    (I, Z) pairs is the branch number.
    """
    byte_sets = [
        [j for j in range(BLOCK_BYTES) if (s >> j) & 1] for s in range(1 << BLOCK_BYTES)
    ]
    best = 2 * BLOCK_BYTES
    for ins in byte_sets[1:]:
        cols = sum(0xFF << (8 * j) for j in ins)
        for zeros in byte_sets:
            bound = len(ins) + BLOCK_BYTES - len(zeros)
            if bound >= best:
                continue
            rows = [m.binary_rows[8 * z + b] & cols for z in zeros for b in range(8)]
            if gf2_rank(rows, BLOCK_BITS) < 8 * len(ins):
                best = bound
    return best


@functools.cache
def default_mds() -> MdsSpec:
    """The diffusion matrix: the circulant of (a, a+1, 1, 1).

    Over this ring every square submatrix has a unit determinant, so the
    byte-level branch number is 5, as ``branch_number`` computes exactly.
    """
    entries = (
        (0x02, 0x03, 0x01, 0x01),
        (0x01, 0x02, 0x03, 0x01),
        (0x01, 0x01, 0x02, 0x03),
        (0x03, 0x01, 0x01, 0x02),
    )
    return MdsSpec.from_entries(entries, name="circ-a-a1-1-1")


# ---------------------------------------------------------------------------
# GF(2) linear solving (rows as int bitmasks, LSB = column 0)


def _eliminate(rows: List[int], ncols: int) -> List[Tuple[int, int]]:
    """Gauss-Jordan reduce ``rows`` in place on columns 0..ncols-1.

    Returns the (column, row index) pivots; rows past the last pivot row are
    zero on those columns. Bits at ncols and above ride along unpivoted.
    """
    pivots: List[Tuple[int, int]] = []
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(rows)):
            if (rows[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        for r in range(len(rows)):
            if r != row_idx and ((rows[r] >> col) & 1):
                rows[r] ^= rows[row_idx]
        pivots.append((col, row_idx))
        row_idx += 1
    return pivots


def solve_gf2(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> Optional[int]:
    """Solve A x = b over GF(2); returns one solution (free variables 0) or None.

    ``rows`` holds the matrix rows as bitmasks, ``rhs`` the right-hand-side
    bits. Inputs are not modified.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs length mismatch")
    aug = [(rows[i] & ((1 << ncols) - 1)) | ((rhs[i] & 1) << ncols) for i in range(len(rows))]
    pivots = _eliminate(aug, ncols)
    for r in range(len(pivots), len(aug)):
        if aug[r] >> ncols:
            return None
    x = 0
    for col, r in pivots:
        if (aug[r] >> ncols) & 1:
            x |= 1 << col
    return x


def gf2_rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2) of ``rows`` restricted to columns 0..ncols-1."""
    return len(_eliminate([r & ((1 << ncols) - 1) for r in rows], ncols))
