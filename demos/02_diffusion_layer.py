"""Poke at the diffusion layer: ring arithmetic, branch number, XOR cost.

Run with: python3 demos/02_diffusion_layer.py
"""

import random

import fsmguard as fg
from fsmguard import gf


def main():
    print(f"Byte ring: F2[a] / (a^8 + a^2 + 1)  (modulus 0x{gf.RING_MODULUS:x})")
    print(f"  0x57 * 0x83 = 0x{fg.ring_mul(0x57, 0x83):02x}")
    print(f"  0x80 * 0x02 = 0x{fg.ring_mul(0x80, 0x02):02x}  (a^8 reduces to a^2 + 1)")

    m = fg.default_mds()
    print(f"\nDiffusion matrix '{m.name}':")
    for row in m.entries:
        print("  " + "  ".join(f"0x{x:02x}" for x in row))

    bn = fg.branch_number(m)
    print(f"\nBranch number: {bn}")
    print("Any nonzero input difference touches >= 5 active bytes across")
    print("input and output, so a single flipped input byte disturbs every")
    print("output byte of the block.")

    # avalanche: flip one input bit, count flipped output bits
    rng = random.Random(0)
    flips = []
    for _ in range(2000):
        v = rng.getrandbits(32)
        bit = 1 << rng.randrange(32)
        flips.append(bin(fg.mds_apply(m, v) ^ fg.mds_apply(m, v ^ bit)).count("1"))
    print(f"\nAvalanche over 2000 single-bit input flips:")
    print(f"  flipped output bits: min={min(flips)} avg={sum(flips)/len(flips):.1f} "
          f"max={max(flips)}")

    circ = m.xor_circuit
    print(f"\nXOR-network realization: {len(circ.nodes)} two-input XOR gates")
    print("(shared subexpressions are built once and reused across output bits)")

    # the modifier mechanism in one picture: two different (state, control)
    # pairs can be steered onto the same diffusion output
    layout = fg.plan_layout(5, 4, fg.HardeningConfig(protection_level=2, seed=0))
    print(f"\nBlock layout for 5 state + 4 control bits at N=2: k={layout.k}, "
          f"{layout.mod_width} modifier bits, error bits at the top of each block")


if __name__ == "__main__":
    main()
