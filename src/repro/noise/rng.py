"""Batched, bit-exact replication of NumPy's per-shot RNG streams.

The trajectory engine's determinism contract says shot ``i`` of seed ``s``
always draws from ``np.random.default_rng((s, i))`` — one private PCG64
stream per shot, so results are independent of worker count and chunk
geometry.  Constructing a ``Generator`` per shot is exactly what makes the
scalar engine slow, so this module re-implements the two fixed algorithms
behind ``default_rng`` as NumPy array arithmetic over whole shot chunks:

* :class:`numpy.random.SeedSequence` entropy-pool hashing (O'Neill's
  ``seed_seq`` construction: ``hashmix``/``mix`` over a 4-word uint32 pool),
  vectorised across shots, and
* the PCG64 bit generator (128-bit LCG with the XSL-RR output function),
  carried as ``(high, low)`` uint64 limb arrays, one lane per shot.

Both algorithms are covered by NumPy's stream-compatibility guarantee — the
project promises that ``SeedSequence`` and the ``BitGenerator``s produce
identical streams across releases — which is what makes a bit-exact
re-implementation meaningful rather than fragile.  ``tests/test_trajectory.py``
pins the equivalence against ``default_rng`` itself, draw for draw.

:class:`GeneratorLanes` keeps one chunk's PCG64 lanes alive between
draws.  ``random()`` advances every lane one word and ``random_block``
stacks columns into a ``(shots, ndraws)`` matrix.  A state-tracked shot
draws its up-front uniforms, then one ``Generator.integers`` Pauli
string per fired op (only on the shots whose error fired), then one last
uniform — and a dynamic program's mid-circuit uniforms sit between its
strings.  So ``random(lanes)`` and ``integers`` advance only the
selected lanes, replicating NumPy's small-range bounded-integer path
exactly (the 32-bit Lemire rejection sampler over ``next_uint32``,
including the half-word buffer PCG64 keeps between 32-bit draws).  Every
draw method runs the one in-place PCG64 step, :func:`_pcg_advance`,
over preallocated limb buffers.  :meth:`GeneratorLanes.advance` jumps
every lane ``k`` words at once, as ``PCG64.advance`` does: ``k`` LCG
steps are ``state * A + inc * P (mod 2**128)`` for two scalars that an
O(log k) loop finds (Brown's arbitrary-stride method), applied with the
step's own lane-by-scalar product.  :func:`uniform_streams` is the
one-burst convenience: row ``i`` of its matrix equals
``default_rng((seed, base_shot + i)).random(ndraws)`` bit for bit.

Every validation cell of one seed reads the *same* streams — the cells
differ only in their thresholds and depths.  :func:`stream_prefix` is a
process memo of the last :data:`PREFIX_STREAMS` chunks'
:class:`StreamPrefix`: the first columns of the chunk's streams, drawn
once, stored read-only up to :data:`PREFIX_BUDGET` floats, plus the
lanes checkpointed where the stored prefix ends and the seeded state
words.  A request reads the stored columns, draws any the prefix still
lacks below the budget (columns it needs anyway), and streams whatever
lies past the budget from a copy of the checkpoint, one column at a
time.  So a miss or an eviction never costs a PCG step that an unshared
pass would not take.  The event-only path reads columns only, once per
block for all the cells over one span
(:func:`repro.noise.trajectory.run_event_engines`), so a column past the
stored prefix is drawn once per pass, not once per cell.  The
state-tracked engine reads its up-front columns the same way, then takes
live lanes for its later draws from :meth:`StreamPrefix.lanes_at`, a
jump from the seeded words, so no cell's draws move a shared lane.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import chain
from typing import Iterator

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)

# --- SeedSequence constants (numpy/random/bit_generator.pyx) -------------
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)

# --- PCG64 constants (numpy/random/src/pcg64) ----------------------------
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: 53-bit uniform doubles: (word >> 11) * 2**-53, as next_double does.
_TO_DOUBLE = 1.0 / 9007199254740992.0


# ------------------------------------------------------------------
# SeedSequence pool hashing, one lane per shot
# ------------------------------------------------------------------
def _hash_const_pairs(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(pre-update, post-update) hash constants for ``count`` hashmix calls.

    The evolving hash constant never depends on the data being mixed, only
    on the call order, so the whole sequence can be precomputed as scalars.
    """
    pairs = []
    const = init
    for _ in range(count):
        updated = (const * mult) & 0xFFFFFFFF
        pairs.append((const, updated))
        const = updated
    return pairs


def _hashmix(value: np.ndarray, consts: tuple[int, int]) -> np.ndarray:
    before, after = consts
    value = value ^ np.uint32(before)
    value = value * np.uint32(after)
    return value ^ (value >> _XSHIFT)


def _mix(accumulator: np.ndarray, value: np.ndarray) -> np.ndarray:
    out = accumulator * _MIX_MULT_L - value * _MIX_MULT_R
    return out ^ (out >> _XSHIFT)


def _mixed_pool(entropy_columns: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over uint32 column arrays (one row per shot)."""
    n_entropy = len(entropy_columns)
    calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1)
    calls += max(0, n_entropy - _POOL_SIZE) * _POOL_SIZE
    consts = iter(_hash_const_pairs(_INIT_A, _MULT_A, calls))
    pool = []
    for index in range(_POOL_SIZE):
        if index < n_entropy:
            word = entropy_columns[index]
        else:
            word = np.zeros_like(entropy_columns[0])
        pool.append(_hashmix(word, next(consts)))
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for src in range(_POOL_SIZE, n_entropy):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(entropy_columns[src], next(consts)))
    return pool


def _pcg_seed_material(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, uint64) from a mixed pool, per lane.

    Returns four uint64 arrays: PCG64's ``initstate`` (high, low) and
    ``initseq`` (high, low) words, in generate_state order.
    """
    consts = _hash_const_pairs(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = [
        _hashmix(pool[index % _POOL_SIZE], consts[index])
        for index in range(2 * _POOL_SIZE)
    ]
    out: list[np.ndarray] = []
    for pair in range(_POOL_SIZE):
        low = words[2 * pair].astype(np.uint64)
        high = words[2 * pair + 1].astype(np.uint64)
        out.append(low | (high << np.uint64(32)))
    return out


# ------------------------------------------------------------------
# PCG64 as (high, low) uint64 limb arrays, advanced in place
# ------------------------------------------------------------------
_SHIFT32 = np.uint64(32)
_SHIFT58 = np.uint64(58)
_SHIFT11 = np.uint64(11)
_WIDTH = np.uint64(64)


def _scalar_limbs(value: int) -> tuple[np.uint64, np.uint64, np.uint64, np.uint64]:
    """A 128-bit scalar as (high word, low word, low word's two 32-bit halves)."""
    low = value & 0xFFFFFFFFFFFFFFFF
    return (np.uint64(value >> 64), np.uint64(low),
            np.uint64(low & 0xFFFFFFFF), np.uint64(low >> 32))


_PCG_LIMBS = _scalar_limbs(_PCG_MULT)


def _multiply_lanes(
    high: np.ndarray,
    low: np.ndarray,
    limbs: tuple[np.uint64, np.uint64, np.uint64, np.uint64],
    work: np.ndarray,
) -> None:
    """``(high, low) *= scalar (mod 2**128)`` on every lane, in place.

    ``limbs`` is the scalar's :func:`_scalar_limbs`; ``work`` is
    ``(4, lanes)`` uint64 scratch, so a product allocates nothing.  The
    high word of ``low * (scalar mod 2**64)`` comes from 32-bit limb
    products.
    """
    mult_hi, mult_lo, mult_lo_lo, mult_lo_hi = limbs
    x_lo, x_hi, part, tmp = work
    np.bitwise_and(low, _MASK32, out=x_lo)
    np.right_shift(low, _SHIFT32, out=x_hi)
    np.multiply(x_lo, mult_lo_lo, out=part)
    np.right_shift(part, _SHIFT32, out=part)
    np.multiply(x_lo, mult_lo_hi, out=x_lo)
    np.add(x_lo, part, out=x_lo)
    np.multiply(x_hi, mult_lo_lo, out=part)
    np.bitwise_and(part, _MASK32, out=tmp)
    np.add(x_lo, tmp, out=x_lo)  # the middle column, carries included
    np.right_shift(part, _SHIFT32, out=part)
    np.multiply(x_hi, mult_lo_hi, out=x_hi)
    np.add(x_hi, part, out=x_hi)
    np.right_shift(x_lo, _SHIFT32, out=x_lo)
    np.add(x_hi, x_lo, out=x_hi)  # mulhi(low, scalar mod 2**64)
    np.multiply(low, mult_hi, out=tmp)
    np.add(x_hi, tmp, out=x_hi)
    np.multiply(high, mult_lo, out=high)
    np.add(high, x_hi, out=high)
    np.multiply(low, mult_lo, out=low)


def _add_lanes(
    high: np.ndarray, low: np.ndarray, add_hi: np.ndarray, add_lo: np.ndarray,
    carry: np.ndarray,
) -> None:
    """``(high, low) += (add_hi, add_lo) (mod 2**128)`` on every lane, in place."""
    np.add(high, add_hi, out=high)
    np.add(low, add_lo, out=low)
    np.less(low, add_lo, out=carry)
    np.add(high, carry, out=high)


def _pcg_advance(
    state_hi: np.ndarray,
    state_lo: np.ndarray,
    inc_hi: np.ndarray,
    inc_lo: np.ndarray,
    work: np.ndarray,
    carry: np.ndarray,
) -> None:
    """``state = state * PCG_MULT + inc (mod 2**128)`` on every lane, in place.

    The one PCG64 step.  Every pass writes into ``state_*`` or into the
    caller's scratch — ``work`` is ``(4, lanes)`` uint64, ``carry`` is
    ``lanes`` bool — so a step allocates nothing.
    """
    _multiply_lanes(state_hi, state_lo, _PCG_LIMBS, work)
    _add_lanes(state_hi, state_lo, inc_hi, inc_lo, carry)


def _jump_scalars(steps: int) -> tuple[int, int]:
    """``(A, P)``: ``steps`` PCG64 steps take ``state`` to ``state * A + inc * P``.

    All arithmetic is mod 2**128.  Brown's O(log k) stride for a
    power-of-two-modulus LCG (the loop behind NumPy's ``PCG64.advance``),
    run with an increment of 1: the additive part of a jump is linear in
    ``inc``, so one ``P`` serves every lane's own increment.
    """
    mult, plus = 1, 0
    step_mult, step_plus = _PCG_MULT, 1
    steps &= _MASK128
    while steps:
        if steps & 1:
            mult = (mult * step_mult) & _MASK128
            plus = (plus * step_mult + step_plus) & _MASK128
        step_plus = ((step_mult + 1) * step_plus) & _MASK128
        step_mult = (step_mult * step_mult) & _MASK128
        steps >>= 1
    return mult, plus


def _pcg_output(
    state_hi: np.ndarray, state_lo: np.ndarray, work: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """XSL-RR into ``out``: rotate ``hi ^ lo`` right by the state's top six bits.

    The left half of the rotation shifts by ``64 - rotation``; NumPy
    defines a shift by the full width as 0, which is what a zero rotation
    needs.
    """
    word, rotation, left, _ = work
    np.bitwise_xor(state_hi, state_lo, out=word)
    np.right_shift(state_hi, _SHIFT58, out=rotation)
    np.subtract(_WIDTH, rotation, out=left)
    np.left_shift(word, left, out=left)
    np.right_shift(word, rotation, out=word)
    return np.bitwise_or(word, left, out=out)


def _seeded_pcg_lanes(
    entropy_columns: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 state and increment lanes for one batch of entropy rows.

    Mirrors ``pcg64_srandom``: ``inc = initseq << 1 | 1``; ``state`` starts
    at 0, steps once (landing on ``inc``), absorbs ``initstate`` and steps
    again.  Returns ``(state_hi, state_lo, inc_hi, inc_lo)``.
    """
    material = _pcg_seed_material(_mixed_pool(entropy_columns))
    init_hi, init_lo, seq_hi, seq_lo = material
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    state_lo = inc_lo + init_lo
    carry = state_lo < inc_lo
    state_hi = inc_hi + init_hi + carry
    lanes = state_lo.size
    _pcg_advance(
        state_hi, state_lo, inc_hi, inc_lo,
        np.empty((4, lanes), dtype=np.uint64), carry,
    )
    return state_hi, state_lo, inc_hi, inc_lo


# ------------------------------------------------------------------
# public entry points
# ------------------------------------------------------------------
#: Shot indices are SeedSequence entropy words below this bound; NumPy
#: seeds ``(seed, 2**64)`` from a third word the lanes do not model.
_SHOT_INDEX_LIMIT = 1 << 64


def check_shot_span(base_shot: int, shots: int) -> None:
    """Reject shot ranges the lanes cannot seed bit-exactly, with ``ValueError``.

    Every index in ``[base_shot, base_shot + shots)`` must lie in
    ``[0, 2**64)``.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if base_shot < 0:
        raise ValueError("base_shot must be non-negative")
    if base_shot + shots > _SHOT_INDEX_LIMIT:
        raise ValueError(
            f"shot indices must stay below 2**64; base_shot={base_shot} "
            f"with shots={shots} runs past it"
        )


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 decomposition of one integer."""
    if value < 0:
        raise ValueError("entropy values must be non-negative")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


class GeneratorLanes:
    """Live per-shot PCG64 streams, one lane per shot, bit-exact vs NumPy.

    Lane ``i`` reproduces ``np.random.default_rng((seed, base_shot + i))``
    draw for draw, but the whole chunk advances as NumPy array arithmetic.
    Unlike :func:`uniform_streams` the lanes persist between calls, so a
    caller can interleave uniform bursts with bounded-integer draws on a
    *subset* of lanes — the exact consumption pattern of the state-tracking
    trajectory loop (``rng.random(n)`` up front, ``rng.integers(1, 4**k)``
    per fired op, ``rng.random()`` for the final outcome sample).

    Shot indices on either side of a ``2**32`` boundary decompose into a
    different number of SeedSequence entropy words, so seeding splits the
    chunk into same-word-count groups and scatters each group's lanes back
    into shot order (in practice a chunk never straddles the boundary and
    there is exactly one group).  Indices past ``2**64 - 1`` would need a
    third word, so a span that reaches them raises ``ValueError``.
    """

    def __init__(self, seed: int, base_shot: int, shots: int) -> None:
        check_shot_span(base_shot, shots)
        words = [np.empty(shots, dtype=np.uint64) for _ in range(4)]
        self._adopt(*words)
        if shots == 0:
            return
        # offsets first, so no index is ever formed past 2**64 - 1
        indices = np.arange(shots, dtype=np.uint64) + np.uint64(base_shot)
        seed_columns = [
            np.full(shots, word, dtype=np.uint32) for word in _uint32_words(int(seed))
        ]
        index_lo = (indices & _MASK32).astype(np.uint32)
        index_hi = (indices >> np.uint64(32)).astype(np.uint32)
        single_word = indices < np.uint64(1 << 32)
        for group, word_count in ((single_word, 1), (~single_word, 2)):
            if not group.any():
                continue
            columns = [column[group] for column in seed_columns]
            columns.append(index_lo[group])
            if word_count == 2:
                columns.append(index_hi[group])
            for target, seeded in zip(words, _seeded_pcg_lanes(columns)):
                target[group] = seeded

    def _adopt(
        self,
        state_hi: np.ndarray,
        state_lo: np.ndarray,
        inc_hi: np.ndarray,
        inc_lo: np.ndarray,
    ) -> None:
        """Stand at the given PCG64 words, nothing banked, with fresh scratch.

        Takes ``state_*`` as its own; the increments are only ever read, so
        lanes of one chunk may share them.
        """
        shots = state_hi.size
        self.shots = shots
        self._state_hi, self._state_lo = state_hi, state_lo
        self._inc_hi, self._inc_lo = inc_hi, inc_lo
        #: PCG64's buffered half word: ``next_uint32`` returns the low half
        #: of a fresh 64-bit word and banks the high half for the next call.
        self._buffered = np.zeros(shots, dtype=np.uint64)
        self._has_buffer = np.zeros(shots, dtype=bool)
        #: Scratch for the in-place step, sized for every lane; a draw on a
        #: lane subset uses a prefix of it.
        self._work = np.empty((4, shots), dtype=np.uint64)
        self._carry = np.empty(shots, dtype=bool)
        self._words = np.empty(shots, dtype=np.uint64)

    def advance(self, steps: int) -> None:
        """Jump every lane ``steps`` 64-bit words ahead, like ``PCG64.advance``.

        O(log steps) scalar work plus two lane-by-scalar products —
        ``state * A + inc * P`` with the step's own multiply — however
        large ``steps`` is; the lanes then stand where ``steps`` calls of
        ``random()`` would leave them.  Like NumPy, the jump drops any
        banked 32-bit half word.  ``steps`` counts forward only.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        mult, plus = _jump_scalars(int(steps))
        _multiply_lanes(self._state_hi, self._state_lo, _scalar_limbs(mult), self._work)
        add_hi, add_lo = self._inc_hi.copy(), self._inc_lo.copy()
        _multiply_lanes(add_hi, add_lo, _scalar_limbs(plus), self._work)
        _add_lanes(self._state_hi, self._state_lo, add_hi, add_lo, self._carry)
        self._has_buffer.fill(False)

    def copy(self) -> GeneratorLanes:
        """Independent lanes standing exactly where these stand.

        Draws on the copy never move the original, nor the other way round.
        """
        twin = object.__new__(GeneratorLanes)
        for name, value in vars(self).items():
            setattr(twin, name, value.copy() if isinstance(value, np.ndarray) else value)
        return twin

    # -- raw stream advancement ----------------------------------------
    def _next64(self, lanes) -> np.ndarray:
        """Advance the selected lanes one step; their next uint64 outputs."""
        state_hi = self._state_hi[lanes]
        state_lo = self._state_lo[lanes]
        count = state_hi.size
        work = self._work[:, :count]
        _pcg_advance(
            state_hi, state_lo, self._inc_hi[lanes], self._inc_lo[lanes],
            work, self._carry[:count],
        )
        self._state_hi[lanes] = state_hi
        self._state_lo[lanes] = state_lo
        return _pcg_output(state_hi, state_lo, work, np.empty(count, dtype=np.uint64))

    def _next32(self, lanes: np.ndarray) -> np.ndarray:
        """``pcg64_next32`` on the selected lanes (``lanes`` = index array).

        Returns the banked high half where one is waiting; otherwise draws
        a fresh 64-bit word, returns its low half and banks the high half —
        exactly NumPy's buffering, per lane.
        """
        out = np.empty(lanes.size, dtype=np.uint64)
        have = self._has_buffer[lanes]
        banked = lanes[have]
        out[have] = self._buffered[banked]
        self._has_buffer[banked] = False
        fresh = lanes[~have]
        if fresh.size:
            word = self._next64(fresh)
            out[~have] = word & _MASK32
            self._buffered[fresh] = word >> np.uint64(32)
            self._has_buffer[fresh] = True
        return out

    def _uniforms(self, out: np.ndarray) -> np.ndarray:
        """Advance every lane one word in place; its 53-bit uniform into ``out``."""
        _pcg_advance(
            self._state_hi, self._state_lo, self._inc_hi, self._inc_lo,
            self._work, self._carry,
        )
        words = _pcg_output(self._state_hi, self._state_lo, self._work, self._words)
        np.right_shift(words, _SHIFT11, out=words)
        # 53-bit values convert to float64 exactly, and faster from int64
        return np.multiply(words.view(np.int64), _TO_DOUBLE, out=out)

    # -- Generator-equivalent draws ------------------------------------
    def random_block(self, ndraws: int) -> np.ndarray:
        """``rng.random(ndraws)`` on every lane: a ``(shots, ndraws)`` matrix.

        Like NumPy's ``next_double``, this consumes whole 64-bit words and
        leaves any banked 32-bit half untouched.  Column ``j`` is the
        ``j``-th ``random()`` of every lane.
        """
        if ndraws < 0:
            raise ValueError("ndraws must be non-negative")
        out = np.empty((self.shots, ndraws), dtype=np.float64)
        for draw in range(ndraws):
            self._uniforms(out[:, draw])
        return out

    def random(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """``rng.random()`` on the selected lanes only, or on every lane.

        One 53-bit uniform per selected lane, consuming a whole 64-bit word
        there (like ``next_double``, the banked 32-bit half is untouched);
        unselected lanes do not advance.  Selected lanes are the draw
        pattern of mid-circuit measurement, which samples only on the shots
        whose branch actually executes the measurement.  ``lanes=None``
        draws the next column of every lane in place, without gathering
        state: how a :class:`StreamPrefix` draws its columns.
        """
        if lanes is None:
            return self._uniforms(np.empty(self.shots, dtype=np.float64))
        return (self._next64(lanes) >> _SHIFT11) * _TO_DOUBLE

    def integers(self, lanes: np.ndarray, low: int, high: int) -> np.ndarray:
        """``rng.integers(low, high)`` on the selected lanes only.

        Bit-exact against NumPy's small-range path: ranges that fit in 32
        bits ride Lemire's rejection sampler over ``next_uint32`` (the only
        ranges the trajectory engine draws — Pauli strings over at most
        four slots).  Lanes outside ``lanes`` do not advance, matching a
        scalar loop that only draws on the shots whose error fired.
        """
        span = int(high) - int(low)  # == NumPy's rng_excl = rng + 1
        if span <= 0:
            raise ValueError("high must be greater than low")
        result = np.empty(lanes.size, dtype=np.int64)
        if lanes.size == 0:
            return result
        if span == 1:  # rng == 0: constant, no stream consumption
            result.fill(low)
            return result
        if span > 0xFFFFFFFF:
            raise NotImplementedError(
                "GeneratorLanes.integers replicates NumPy's 32-bit bounded "
                "path only (ranges above 2**32 - 1 are never drawn here)"
            )
        rng_excl = np.uint64(span)
        threshold = np.uint64((0x100000000 - span) % span)
        m = self._next32(lanes) * rng_excl
        while True:
            reject = (m & _MASK32) < threshold
            if not reject.any():
                break
            positions = np.flatnonzero(reject)
            m[positions] = self._next32(lanes[positions]) * rng_excl
        return (np.uint64(low) + (m >> np.uint64(32))).astype(np.int64)


def uniform_streams(seed: int, base_shot: int, shots: int, ndraws: int) -> np.ndarray:
    """Per-shot uniform draws for a whole chunk, bit-exact vs ``default_rng``.

    Returns a ``(shots, ndraws)`` float64 matrix whose row ``i`` equals
    ``np.random.default_rng((seed, base_shot + i)).random(ndraws)`` exactly,
    computed with vectorised RNG arithmetic instead of one ``Generator``
    per shot.  One-burst convenience wrapper over :class:`GeneratorLanes`.
    """
    check_shot_span(base_shot, shots)
    if ndraws < 0:
        raise ValueError("ndraws must be non-negative")
    if shots == 0 or ndraws == 0:
        return np.empty((shots, ndraws), dtype=np.float64)
    return GeneratorLanes(seed, base_shot, shots).random_block(ndraws)


# ------------------------------------------------------------------
# shared stream prefixes for the event-only engine
# ------------------------------------------------------------------
#: Floats one :class:`StreamPrefix` may store: 1 MiB of float64, which is
#: 32 columns of a 4096-lane chunk.
PREFIX_BUDGET = 1 << 17

#: Chunks :func:`stream_prefix` keeps.  A cell-major validation plan
#: alternates between two chunk positions (8000 shots in 4096-shot chunks).
PREFIX_STREAMS = 2


class StreamPrefix:
    """The first uniform columns of one chunk's streams, drawn once, read-only.

    Column ``j`` is the ``j``-th ``random()`` of
    ``GeneratorLanes(seed, base_shot, shots)``: entry ``i`` equals the
    ``j``-th ``default_rng((seed, base_shot + i)).random()``.  At most
    ``depth = PREFIX_BUDGET // shots`` columns are stored; the lanes stand
    where the stored prefix ends, so a deeper request continues from a copy
    of them; the event-only pass asks once per block, as deep as its
    deepest cell.  Storing a column and copying the lanes happen under one
    lock, and a stored column is never written, so any number of threads
    can read one prefix at once.
    """

    def __init__(self, seed: int, base_shot: int, shots: int) -> None:
        self._lanes = GeneratorLanes(seed, base_shot, shots)
        #: The seeded state words, the origin of every :meth:`lanes_at` jump.
        self._seeded = (self._lanes._state_hi.copy(), self._lanes._state_lo.copy())
        self.shots = shots
        self.depth = PREFIX_BUDGET // shots if shots else 0
        self._stored: list[np.ndarray] = []
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes of the stored columns (never above ``8 * PREFIX_BUDGET``)."""
        return sum(column.nbytes for column in self._stored)

    def columns(self, ndraws: int) -> Iterator[np.ndarray]:
        """Columns ``0 .. ndraws - 1`` of every lane's stream, in order.

        The first ``min(ndraws, depth)`` are the stored, read-only columns;
        any of them no earlier request drew are drawn and stored now.  The
        rest are drawn from a private copy of the checkpointed lanes, one
        column per ``next``.
        """
        if ndraws < 0:
            raise ValueError("ndraws must be non-negative")
        with self._lock:
            while len(self._stored) < min(ndraws, self.depth):
                column = self._lanes.random()
                column.flags.writeable = False
                self._stored.append(column)
            served = self._stored[:ndraws]
            if ndraws == len(served):
                return iter(served)
            lanes = self._lanes.copy()
        return chain(served, (lanes.random() for _ in range(ndraws - len(served))))

    def lanes_at(self, depth: int) -> GeneratorLanes:
        """Fresh lanes standing ``depth`` columns into the streams.

        Jumped from the seeded state words (:meth:`GeneratorLanes.advance`),
        so they need no column drawn and share nothing the caller may write:
        the state-tracked engine reads its first ``depth`` columns here and
        draws its bounded integers and last uniform from these lanes.
        """
        lanes = object.__new__(GeneratorLanes)
        lanes._adopt(self._seeded[0].copy(), self._seeded[1].copy(),
                     self._lanes._inc_hi, self._lanes._inc_lo)
        lanes.advance(depth)
        return lanes


@lru_cache(maxsize=PREFIX_STREAMS)
def stream_prefix(seed: int, base_shot: int, shots: int) -> StreamPrefix:
    """The process's shared :class:`StreamPrefix` of one chunk's streams."""
    return StreamPrefix(seed, base_shot, shots)
