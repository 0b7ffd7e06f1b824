"""numpy's `default_rng(seed).random(n)` in pure Python, with no numpy.random.

`np.random.default_rng(seed)` seeds a PCG64 generator from a SeedSequence
of the seed, and each double is the top 53 bits of one 64-bit output.  This
module runs the same three steps on Python ints: SeedSequence's hash of the
seed's 32-bit words into a four-word pool and eight state words, PCG64's
128-bit LCG step with its XSL-RR output, and the 53-bit scaling.  So it
gives the same doubles bit for bit without importing numpy.random, which
would cost a `qc` run about 5.6 MB of peak memory and 12 ms for one draw.
"""

from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, pool size and shift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_XSHIFT = 16

#: PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64), as four Python ints."""
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got seed {seed}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    # little-endian pairs of 32-bit words
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def uniforms(seed: int, n: int) -> list[float]:
    """The first n doubles of `np.random.default_rng(seed).random()`, in [0, 1).

    Raises ValueError for a negative seed, as numpy does.
    """
    words = _seed_words(operator.index(seed))
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _MASK128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        # XSL-RR: the xor of the two halves, rotated right by the top 6 bits
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 11) * (1.0 / 9007199254740992.0))
    return out
