"""Per-instance uniform draws for :func:`tdoaloc.montecarlo.run_sweep`.

``instance_rng(seed, si, ii)`` is numpy's ``default_rng`` on
``SeedSequence(seed, spawn_key=(si, ii))``: a PCG64 generator seeded by
O'Neill's ``seed_seq_fe`` hash. Building one such object per instance costs
more than solving the instance, so :func:`uniforms` computes the same
doubles for a batch of instances of any scales with array arithmetic, bit
for bit:

- ``SeedSequence`` mixes its entropy words (the seed's 32-bit words,
  zero-padded to 4, then the scale and instance indices) into a pool of
  four 32-bit words, then hashes the pool into four 64-bit state words.
  The seed's words are mixed once per batch, on Python ints. The scale and
  instance indices are one word each, so they are mixed in as two
  ``uint32`` columns with one entry per row, and the state hash runs on
  the resulting pool columns.
- PCG64 (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms") is a 128-bit LCG with XSL-RR output.
  Seeding from state words ``s0..s3`` sets ``inc = (s2:s3 << 1) | 1``,
  steps, adds ``s0:s1`` and steps; each draw steps, then outputs. The
  state after draw ``j`` is ``M**(j+1) * (s0:s1 + inc) + (M**j + ... + 1)
  * inc`` mod 2**128, so every draw of every row is one pair of 128-bit
  products, computed on ``uint64`` halves with 32-bit limbs for the high
  half of each 64-bit product.
- ``Generator.random()`` is ``(next64 >> 11) * 2**-53``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# seed_seq_fe constants, as numpy's SeedSequence uses them (pool size 4).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Largest scale or instance index that is one entropy word, the only kind
# the row arithmetic below takes.
MAX_INSTANCE_INDEX = _MASK32


def _hash_consts(init: int, mult: int):
    """seed_seq_fe's hash constants: each hash uses a constant and its successor."""
    h = init
    while True:
        h_next = h * mult & _MASK32
        yield h, h_next
        h = h_next


def _hashmix(value, consts):
    """seed_seq_fe ``hashmix``, on Python ints or ``uint32`` arrays (where the
    constants may be arrays that broadcast against ``value``)."""
    h, h_next = consts
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _words(n: int) -> list[int]:
    """numpy's coercion of a non-negative int to 32-bit entropy words."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _mix_in(pool, words, consts) -> list:
    """The pool after mixing in further entropy words, Python ints or
    ``uint32`` columns; ``pool`` is not modified."""
    for w in words:
        pool = [_mix(p, _hashmix(w, next(consts))) for p in pool]
    return pool


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool after the seed's words, and the next hash's first constant."""
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(consts)) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    return _mix_in(pool, words[_POOL_SIZE:], consts), next(consts)[0]


# generate_state(4, np.uint64) hashes the pool, cycled, into 8 words, with
# constants as columns that broadcast against a row of instances.
_STATE_CONSTS = [
    np.array(c, np.uint32)[:, None] for c in zip(*islice(_hash_consts(_INIT_B, _MULT_B), 8))
]
_STATE_CYCLE = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _limbs(values) -> tuple[np.ndarray, ...]:
    """128-bit ints as ``uint64`` arrays: high half, low half, and the low
    half's two 32-bit limbs, as columns."""
    return tuple(
        np.array([v >> shift & mask for v in values], np.uint64)[:, None]
        for shift, mask in ((64, _MASK64), (0, _MASK64), (0, _MASK32), (32, _MASK32))
    )


@lru_cache(maxsize=4)
def _jump_consts(width: int):
    """Limbs of ``M**(j+1)`` and ``M**j + ... + 1`` for draws ``j = 1..width``."""
    powers = [1]
    for _ in range(width + 1):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
    sums = [sum(powers[: j + 1]) & _MASK128 for j in range(1, width + 1)]
    return _limbs(powers[2:]), _limbs(sums)


def _mul_add(const, x_hi, x_lo, hi, lo, t0, t1) -> None:
    """``hi:lo += const * (x_hi:x_lo)`` mod 2**128 in place, for ``(W, 1)``
    constant limbs, ``(N,)`` halves ``x_*``, and ``(W, N)`` buffers."""
    c_hi, c_lo, c0, c1 = const
    x0, x1 = x_lo & _MASK32, x_lo >> 32
    # The high half of c_lo * x_lo from 32-bit limb products (exact in
    # uint64): the cross products' high halves, and in t1 the carry out of
    # the middle limb, which adds each cross product less its high half.
    np.right_shift(np.multiply(x0, c0, out=t1), 32, out=t1)
    for x, c in ((x0, c1), (x1, c0)):
        t1 += np.multiply(x, c, out=t0)
        hi += np.right_shift(t0, 32, out=t0)
        t1 -= np.left_shift(t0, 32, out=t0)
    hi += np.right_shift(t1, 32, out=t1)
    # x1 * c1, and the cross terms mod 2**64 (c_hi * x_hi is a multiple of 2**128).
    for x, c in ((x1, c1), (x_hi, c_lo), (x_lo, c_hi)):
        hi += np.multiply(x, c, out=t0)
    lo += np.multiply(x_lo, c_lo, out=t0)
    hi += lo < t0


def _seeds(seed: int, runs) -> tuple[np.ndarray, ...]:
    """PCG64's seeding halves ``x_hi, x_lo, inc_hi, inc_lo``, ``(N,)``, for ``runs``."""
    top = MAX_INSTANCE_INDEX
    for si, first, stop in runs:
        if seed < 0 or not (0 <= si <= top and 0 <= first <= stop <= top + 1):
            raise ValueError(f"stream indices out of range: seed={seed}, run {(si, first, stop)}")
    seed_pool, h = _seed_pool(seed)
    sizes = [stop - first for _, first, stop in runs]
    scale = np.repeat(np.array([si for si, _, _ in runs], np.uint32), sizes)
    index = np.concatenate([np.arange(first, stop, dtype=np.uint32) for _, first, stop in runs])
    # The seed's pool as (1,) columns, against which the index columns broadcast.
    pool = np.array(seed_pool, np.uint32)[:, None]
    pool = _mix_in(pool, (scale, index), _hash_consts(h, _MULT_A))
    state = _hashmix(np.array(pool)[_STATE_CYCLE], _STATE_CONSTS).astype(np.uint64)
    s0, s1, s2, s3 = state[0::2] | state[1::2] << 32
    # PCG64 seeding: inc = (s2:s3 << 1) | 1, and after two steps the state
    # is M * x + inc with x = s0:s1 + inc.
    inc_hi = s2 << 1 | s3 >> 63
    inc_lo = s3 << 1 | 1
    x_lo = s1 + inc_lo
    return s0 + inc_hi + (x_lo < s1), x_lo, inc_hi, inc_lo


def _draws(out, powers, sums, x_hi, x_lo, inc_hi, inc_lo) -> None:
    """Fill ``out``, ``(W, N)``: each draw's state by multiply-adds, then XSL-RR."""
    hi, lo, t0 = np.zeros((3, *out.shape), dtype=np.uint64)
    _mul_add(powers, x_hi, x_lo, hi, lo, t0, out.view(np.uint64))
    _mul_add(sums, inc_hi, inc_lo, hi, lo, t0, out.view(np.uint64))
    # XSL-RR: xor the halves, rotate right by the top 6 bits of the state.
    lo ^= hi
    hi >>= 58
    np.right_shift(lo, hi, out=t0)
    lo <<= np.bitwise_and(np.negative(hi, out=hi), 63, out=hi)
    t0 |= lo
    t0 >>= 11
    np.multiply(t0, 2.0**-53, out=out)


def uniforms(seed: int, runs, width: int) -> np.ndarray:
    """A batch's ``(N, width)`` doubles: for each ``(scale_index, first,
    stop)`` in ``runs``, in turn, the rows ``instance_rng(seed, scale_index,
    ii).random(width)`` for ``ii`` in ``range(first, stop)``, bit for bit, in
    one pass of the draw arithmetic. The seed is a non-negative int of any
    size; scale and instance indices must not exceed ``MAX_INSTANCE_INDEX``."""
    seeds = _seeds(seed, runs)
    draws = np.empty((width, len(seeds[0])))
    _draws(draws, *_jump_consts(width), *seeds)
    return draws.T
