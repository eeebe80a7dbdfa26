"""numpy's random draws, bit for bit, without ``numpy.random``.

``import numpy.random`` costs a process ~6 MB of peak memory (OpenSSL
through ``secrets`` among it) and 11-17 ms.  The draws graphgeo needs are
computed here with plain integer and array arithmetic instead: numpy's
``SeedSequence`` hash, its PCG64 generator and its ziggurat for the
standard normal.  :func:`spawned_normals` gives the gate's sample planes,
one spawned child stream per grid point; :class:`Stream` is
``default_rng(seed)`` for the identity suite's sequential uniforms and
integers, which draw no normals.  ``Stream`` steps its PCG64 one raw at a
time on Python integers.  Only the plane stream jumps ahead: it computes
each row's raws in place in a uint64 scratch array, and takes the
ziggurat's rejections as arrays, :data:`PIECE_ROWS` rows at a time.
"""

import functools
import math
import operator
import os
from itertools import islice

import numpy as np

from .errors import GraphGeoError, InvalidParameterError

Array = np.ndarray

# Constants of numpy's ``SeedSequence`` (hash and mix steps of its entropy
# pool and state output) and of PCG64's 128-bit linear congruential step.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Grid points a plane stream can index: the spawn keys are 32-bit words.
MAX_GRID_POINTS = 1 << 32


def _hash(value, a: int, b: int):
    """One ``SeedSequence`` hash step on a uint32 word or array: xor with
    ``a``, multiply by ``b``, fold the high half into the low (mod 2**32)."""
    x = (value ^ a) * b & _MASK32
    return x ^ (x >> 16)


def _mix(x, y):
    """``SeedSequence``'s mix of two uint32 words or arrays (mod 2**32)."""
    x = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return x ^ (x >> 16)


def _hash_steps(init: int, mult: int):
    """The constants ``(a, b)`` of ``SeedSequence``'s hash steps, in order:
    step ``k`` xors with ``init * mult**k`` and multiplies by
    ``init * mult**(k + 1)`` (mod 2**32), whatever the data."""
    const = init
    while True:
        nxt = (const * mult) & _MASK32
        yield const, nxt
        const = nxt


def _pcg_seeds(seed: int):
    """``seeds(keys)``: the four 64-bit words, a uint64 array each, with
    which ``PCG64`` seeds itself from the children of ``SeedSequence(seed)``
    whose spawn keys are the uint32 array ``keys``; ``seeds()`` gives those
    of ``SeedSequence(seed)`` itself, as ints.  A child hashes the entropy
    words of ``seed``, zero-padded to the pool size, then its spawn key.
    The hash constants advance independently of the data, so the seed's
    words are hashed once, here, and ``seeds`` takes the keys' steps for all
    keys at once."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))

    hashmix = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(hashmix)) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashmix)))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, *next(hashmix)))
    key_steps = list(islice(hashmix, _POOL_SIZE))
    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # paired little-endian into 64-bit words
    output = list(islice(_hash_steps(_INIT_B, _MULT_B), 2 * _POOL_SIZE))

    def seeds(keys: Array | None = None) -> list:
        keyed = pool if keys is None else [_mix(word, _hash(keys, *step))
                                           for word, step in zip(pool, key_steps)]
        state = [_hash(keyed[k % _POOL_SIZE], *step) for k, step in enumerate(output)]
        if keys is not None:
            state = [word.astype(np.uint64) for word in state]
        return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]

    return seeds


_MASK64, _MASK52 = (1 << 64) - 1, (1 << 52) - 1
# numpy's ziggurat for the standard normal: its layer-0 tail starts at r
_ZIGGURAT_R, _ZIGGURAT_INV_R = 3.654152885361009, 0.2736612373297583
_ZIGGURAT_TABLES = os.path.join(os.path.dirname(__file__), "ziggurat.bin")


@functools.cache
def _ziggurat() -> tuple[Array, Array, Array]:
    """numpy's ziggurat tables ``wi`` and ``ki``, indexed by a raw output's
    layer and sign bits (the sign negates ``wi``), and ``fi``.  Their 256
    entries each are copied into ``ziggurat.bin`` byte for byte from the
    ``.rodata`` symbols ``wi_double``, ``ki_double`` and ``fi_double`` of
    ``src_distributions_distributions.c.o`` in numpy 2.4.6's
    ``numpy/random/lib/libnpyrandom.a``; no formula rebuilds them exactly.
    A missing or damaged file raises :class:`GraphGeoError`."""
    try:
        wi, ki, fi = np.fromfile(_ZIGGURAT_TABLES, dtype="<u8").reshape(3, 256)
    except (OSError, ValueError) as exc:
        raise GraphGeoError(f"cannot read the ziggurat tables: {exc}") from None
    wi = wi.view("<f8")
    return np.concatenate([wi, -wi]), np.concatenate([ki, ki]), fi.view("<f8")


@functools.cache
def _ziggurat_lists() -> tuple[list, list, list]:
    """The tables of :func:`_ziggurat` as lists, for one draw at a time."""
    return tuple(table.tolist() for table in _ziggurat())


@functools.cache
def _jumps(count: int) -> Array:
    """64-bit limbs ``(a_hi, a_lo, c_hi, c_lo)`` of ``a_k, c_k``, ``k < count``, as
    columns: raw output ``k`` of a PCG64 seeded by ``srandom`` comes from the
    state ``a_k u + c_k inc`` (mod 2**128), ``u = inc + s`` for the seed ``s``."""
    a, c, limbs = _PCG_MULT, 1, []
    for _ in range(count):
        a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        limbs.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    return np.array(limbs, dtype=np.uint64).reshape(count, 4).T[..., None].copy()


def _pcg_raws(limbs: Array, start: int, work: Array) -> Array:
    """``(R, K)``: raw outputs (XSL-RR) ``start`` to ``start + K - 1`` of the
    PCG64 of each row of the limbs ``u_hi, u_lo, inc_hi, inc_lo`` (``(4, R)``),
    computed in place in the scratch ``work`` (``(4, K, R)``: rows innermost)."""
    hi, lo, s, t = work
    a_hi, a_lo, c_hi, c_lo = _jumps(start + len(lo))[:, start:]
    u_hi, u_lo, i_hi, i_lo = limbs
    np.add(np.multiply(u_lo, a_lo, out=lo), np.multiply(i_lo, c_lo, out=t), out=lo)
    np.less(lo, t, out=hi, casting="unsafe")        # the carry out of the low limb
    for x, y in ((u_hi, a_lo), (u_lo, a_hi), (i_hi, c_lo), (i_lo, c_hi)):
        hi += np.multiply(x, y, out=t)
    for x, y in ((u_lo, a_lo), (i_lo, c_lo)):       # the high limbs of x * y
        (x1, y1), (x0, y0) = (x >> 32, y >> 32), (x & _MASK32, y & _MASK32)
        np.right_shift(np.multiply(x0, y0, out=t), 32, out=t)
        np.add(np.multiply(x1, y0, out=s), t, out=s)
        hi += np.right_shift(s, 32, out=t)
        s &= _MASK32
        hi += np.right_shift(np.add(np.multiply(x0, y1, out=t), s, out=t), 32, out=t)
        hi += np.multiply(x1, y1, out=t)
    lo ^= hi                                        # rotate hi ^ lo right by hi >> 58
    np.right_shift(lo, np.right_shift(hi, 58, out=hi), out=t)
    lo <<= np.bitwise_and(np.subtract(64, hi, out=hi), 63, out=hi)
    lo |= t
    return np.ascontiguousarray(lo.T)


def _uniform(raw: int) -> float:
    """numpy's ``next_double`` of a raw output: its top 53 bits over 2**53."""
    return (raw >> 11) * 2.0 ** -53


def _candidates(raw: Array) -> tuple[Array, Array]:
    """The ziggurat's candidate normal of each raw output, and whether it is
    accepted outright (99.3% of them are)."""
    wi, ki, _ = _ziggurat()
    low, rabs = (raw & 0x1FF).astype(np.intp), (raw >> 9) & _MASK52
    return rabs.astype(np.float64) * wi[low], rabs < ki[low]


def _ziggurat_walk(raws: Array, i: int) -> tuple[float, int]:
    """numpy's ziggurat (``random_standard_normal``) on the raw outputs
    ``raws`` from ``raws[i]`` on: the normal drawn and the index of the
    first raw left.  A candidate not accepted outright takes the next raws
    as uniforms: one for a wedge (layers above 0), pairs until one is
    accepted for the tail.  ``exp`` and ``log1p`` are libm's, through
    ``math``, as in numpy's C code; numpy's own may differ in the last bit.
    Raises IndexError when the raws run out."""
    wi, ki, fi = _ziggurat_lists()
    while True:
        raw, i = raws.item(i), i + 1
        layer, rabs = raw & 0xFF, raw >> 9 & _MASK52
        x = rabs * wi[raw & 0x1FF]
        if rabs < ki[layer]:
            return x, i
        if not layer:
            while True:
                xx = -_ZIGGURAT_INV_R * math.log1p(-_uniform(raws.item(i)))
                yy = -math.log1p(-_uniform(raws.item(i + 1)))
                i += 2
                if yy + yy > xx * xx:
                    return (-(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx), i
        u, i = _uniform(raws.item(i)), i + 1
        if (fi[layer - 1] - fi[layer]) * u + fi[layer] < math.exp(-0.5 * x * x):
            return x, i


#: Wedge tests this close (relative) to numpy's ``exp`` are decided by libm's.
EXP_RECHECK = 1e-12


def _standard_normals(limbs: Array, count: int, raw: Array) -> Array:
    """``(R, count)``: the first ``count`` normals that numpy's ziggurat draws
    from the PCG64 of each row of ``limbs``, given its first raws ``raw``.
    A wedge (layers above 0) takes the next raw as its uniform, so in a run
    of adjacent rejections every other one is a uniform, and all wedges are
    tested at once (see :data:`EXP_RECHECK`).  Rows with a layer-0 (tail)
    rejection take :func:`_ziggurat_walk`.  A row that runs out of raws
    continues with its next ``count``."""
    x, use = _candidates(raw)
    K = raw.shape[1]
    flat, use_flat = raw.reshape(-1), use.reshape(-1)
    f = np.flatnonzero(~use_flat)
    tails = f[(flat[f] & 0xFF) == 0] // K
    walked = (f // K == tails[:, None]).any(axis=0)
    row, free = -1, -1                              # the first raw not yet taken in ``row``
    for r, c in zip(*(a.tolist() for a in divmod(f[walked], K))):
        if r == row and c < free:                   # taken by the walk before it
            continue
        row = r
        try:
            x[r, c], free = _ziggurat_walk(raw[r], c)
        except IndexError:                          # the row ran out of raws
            use[r, c:], free = False, K
            continue
        use[r, c], use[r, c + 1:free] = True, False

    f = f[~walked]
    n = np.arange(len(f))
    run = np.ones(len(f), dtype=bool)               # starts a run of adjacent rejections
    run[1:] = np.diff(f + f // K) != 1              # within a row: rows are K + 1 apart
    f = f[((n - np.maximum.accumulate(np.where(run, n, 0))) % 2 == 0) & (f % K < K - 1)]
    layer = (flat[f] & 0xFF).astype(np.intp)
    fi = _ziggurat()[2]
    lhs = (fi[layer - 1] - fi[layer]) * ((flat[f + 1] >> 11) * 2.0 ** -53) + fi[layer]
    xx = x.reshape(-1)[f]
    bound = np.exp(-0.5 * xx * xx)
    ok = lhs < bound
    for i in np.flatnonzero(np.abs(lhs - bound) <= EXP_RECHECK * bound).tolist():
        ok[i] = lhs[i] < math.exp(-0.5 * xx[i] * xx[i])
    use_flat[f], use_flat[f + 1] = ok, False

    taken = np.cumsum(use, axis=1)
    short = np.flatnonzero(taken[:, -1] < count)
    use &= taken <= count
    use[short] = np.arange(K) < count               # placeholders, drawn again below
    out = x[use].reshape(len(x), count)
    if len(short):
        limbs = limbs[:, short]
        more = _pcg_raws(limbs, K, np.empty((4, count, len(short)), np.uint64))
        out[short] = _standard_normals(limbs, count, np.concatenate([raw[short], more], axis=1))
    return out


#: Spare raws per row (a row of 24 normals in ~4 000 runs out; in 270 with 4
#: spare), and the rows whose raws the plane stream computes at once.
SPARE, PIECE_ROWS = 6, 256


def spawned_normals(seed: int, count: int, shape: tuple[int, ...]):
    """``draw(rows)`` for a slice ``start:stop`` of ``range(count)``: those
    rows, block-innermost, of the stream whose row ``i`` is, bit for bit,
    ``default_rng(SeedSequence(seed).spawn(count)[i]).standard_normal(shape)``.

    Each row's PCG64 is seeded as by ``srandom`` (``inc = 2 seq + 1``,
    ``state = (inc + s) * mult + inc``), and :func:`_standard_normals` draws
    :data:`PIECE_ROWS` rows at a time: besides the rows returned, ``draw`` holds
    their seeds and one piece's raws and candidates (~0.7 MB for ``(4, 2, 3)``).
    Their ``.normal(size=shape)`` is ``0.0 + 1.0 * z`` of these draws: equal
    to them except that an exact zero draw ``-0.0`` comes out ``0.0`` there.
    """
    seeds = _pcg_seeds(seed)
    if count >= MAX_GRID_POINTS:
        raise InvalidParameterError("too many grid points for one plane stream")
    size = math.prod(shape)

    def draw(rows: slice) -> Array:
        s_hi, s_lo, q_hi, q_lo = seeds(np.arange(rows.start, rows.stop, dtype=np.uint32))
        i_hi, i_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
        u_lo = i_lo + s_lo
        limbs = np.array([i_hi + s_hi + (u_lo < s_lo), u_lo, i_hi, i_lo])
        K, n = size + SPARE, len(u_lo)
        out = np.empty((size, n)).T                     # block-innermost
        work = np.empty(4 * K * min(PIECE_ROWS, n), np.uint64)
        for start in range(0, n, PIECE_ROWS):
            piece = limbs[:, start:start + PIECE_ROWS]
            # a contiguous scratch for every piece: a strided one takes twice as long
            raw = _pcg_raws(piece, 0, work[:4 * K * piece.shape[1]].reshape(4, K, -1))
            out[start:start + PIECE_ROWS] = _standard_normals(piece, size, raw)
        return out.reshape(n, *shape)

    return draw


class Stream:
    """``numpy.random.default_rng(seed)``'s ``uniform(low, high)`` and
    ``integers(low, high)``, bit for bit, in any order: PCG64 seeded as by
    ``srandom`` and stepped one raw at a time on Python integers (a suite
    draws under a hundred raws; jump-ahead serves the plane stream only).
    ``integers`` takes 32-bit halves as PCG64's ``next_uint32``: a raw's
    upper half waits for the next ``integers``, whatever comes between."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s_hi, s_lo, q_hi, q_lo = _pcg_seeds(seed)()
        self._inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _raw(self) -> int:
        """The next raw output: one LCG step, then XSL-RR of the new state."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot, x = state >> 122, (state >> 64 ^ state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def uniform(self, low, high):
        """``low + (high - low) * u`` for uniform doubles ``u``, ``high >= low``
        as numpy requires, over the broadcast bounds: a float for scalar
        bounds, computed on Python floats (the same IEEE arithmetic)."""
        if np.ndim(low) == np.ndim(high) == 0:
            low = float(low)
            return low + (float(high) - low) * _uniform(self._raw())
        low = np.asarray(low, dtype=float)
        span = np.asarray(high, dtype=float) - low
        u = np.array([_uniform(self._raw()) for _ in range(span.size)]).reshape(span.shape)
        return low + span * u

    def _u32(self) -> int:
        if self._half is None:
            raw = self._raw()
            self._half = raw >> 32
            return raw & _MASK32
        half, self._half = self._half, None
        return half

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)``, ``high - low < 2**32``, by Lemire's
        rejection on 32-bit halves; ``high - low == 1`` draws nothing."""
        span = high - low
        if not 0 < span < 1 << 32:
            raise ValueError(f"integers needs 0 < high - low < 2**32, got {span}")
        if span == 1:
            return low
        m = self._u32() * span
        if m & _MASK32 < span:
            threshold = ((1 << 32) - span) % span
            while m & _MASK32 < threshold:
                m = self._u32() * span
        return low + (m >> 32)
