"""Reproducible random-number streams.

Every stochastic component of a simulation (data synthesis, partition,
model init, per-node batch sampling, per-node training coin flips)
draws from an independent child stream of one root seed, so whole
experiments are reproducible bit-for-bit and per-node randomness is
uncorrelated (Philox-based spawning, the NumPy-recommended pattern for
parallel streams).

Per-node batch sampling is the one stream family that scales with the
fleet, so it does not live in ``n`` generator objects:
:class:`BatchSampler` holds every node's Philox4x64-10 state as arrays
and draws a whole round's mini-batches in one vectorized call. Row
``i`` replays ``RngFactory(seed).node_stream("batch", i)`` followed by
``Generator.choice(n_i, min(batch, n_i), replace=False)`` per batch,
bit for bit — Philox is counter-based (Salmon et al., SC'11), so the
stream is a pure function of the key and the counter, and
``Generator.choice``'s draw sequence (Floyd's algorithm plus a
Fisher–Yates shuffle over 32-bit Lemire bounded draws) is replayed in
array form. The equivalence is pinned by a property test against NumPy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchSampler", "RngFactory", "generator_state", "restore_generator"]


class RngFactory:
    """Named, reproducible generator streams from one root seed.

    ``factory.stream("data")`` always returns the same stream for the
    same root seed, and ``factory.node_stream("train", i)`` gives node
    ``i`` its own independent stream — identical call orders yield
    identical experiments regardless of node scheduling.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def stream(self, label: str) -> np.random.Generator:
        """Independent generator for the component named ``label``."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(_label_key(label),))
        return np.random.Generator(np.random.Philox(ss))

    def node_stream(self, label: str, node_id: int) -> np.random.Generator:
        """Independent generator for component ``label`` of node ``node_id``."""
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        ss = np.random.SeedSequence(
            self.seed, spawn_key=(_label_key(label), node_id)
        )
        return np.random.Generator(np.random.Philox(ss))

    def node_keys(self, label: str, n_nodes: int) -> np.ndarray:
        """The Philox keys of ``node_stream(label, i)`` for every
        ``i < n_nodes``, shape ``(n_nodes, 2)`` uint64, without building
        a generator: ``SeedSequence.generate_state(2, uint64)`` computed
        over all spawn keys at once in uint32 columns."""
        if not 0 <= n_nodes <= 1 << 32:
            raise ValueError("n_nodes must be in [0, 2**32]")
        run = _uint32_words(self.seed)
        # SeedSequence zero-pads short run entropy when a spawn key is given
        run += [0] * (_POOL_SIZE - len(run))
        entropy = [np.full(n_nodes, w, np.uint32)
                   for w in run + _uint32_words(_label_key(label))]
        entropy.append(np.arange(n_nodes, dtype=np.uint64).astype(np.uint32))
        mixer = _HashMix(_INIT_A, _MULT_A)
        zero = np.zeros(n_nodes, np.uint32)
        pool = [mixer(entropy[i] if i < len(entropy) else zero)
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], mixer(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], mixer(word))
        out = _HashMix(_INIT_B, _MULT_B)
        words = np.stack([out(pool[i]) for i in range(_POOL_SIZE)], axis=1)
        return words.astype("<u4").view("<u8").astype(np.uint64)


def generator_state(gen: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's bit-stream position.

    Checkpoint/resume needs mid-run RNG streams to continue exactly
    where they stopped; ``bit_generator.state`` captures that but holds
    NumPy arrays/scalars, so this deep-converts to plain Python types.
    """
    return _plain(gen.bit_generator.state)  # type: ignore[return-value]


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot.

    The snapshot names its own bit-generator class, so any NumPy bit
    generator round-trips (the factory uses Philox). Anything else —
    a name that is not a :class:`numpy.random.BitGenerator` subclass, a
    missing field, an array field of the wrong length, an unparsable
    value — raises :class:`ValueError` naming the offending field,
    without side effects on any other rng."""
    if not isinstance(state, dict):
        raise ValueError(f"rng state must be a dict, got {type(state).__name__}")
    name = state.get("bit_generator")
    cls = getattr(np.random, name, None) if isinstance(name, str) else None
    if not (
        isinstance(cls, type)
        and issubclass(cls, np.random.BitGenerator)
        and cls is not np.random.BitGenerator
    ):
        raise ValueError(
            f"rng state field 'bit_generator': unknown bit generator {name!r}"
        )
    bit_gen = cls(0)
    _check_fields(state, bit_gen.state, "")
    try:
        bit_gen.state = state
    except (TypeError, ValueError, OverflowError, KeyError, IndexError) as exc:
        raise ValueError(f"rng state for {name} rejected: {exc}") from None
    return np.random.Generator(bit_gen)


class BatchSampler:
    """Every node's mini-batch stream, held as arrays.

    Row ``i`` is node ``i``'s ``node_stream(label, i)`` Philox4x64-10
    state — key ``(n, 2)``, counter ``(n, 4)``, buffered block
    ``(n, 4)``, buffer position, and the buffered-uint32 flag and value,
    the exact fields of ``Philox.state`` — plus node ``i``'s sample
    count and its slice of the flat training arrays ``x``/``y`` (rows
    ``start[i] : start[i] + size[i]``). :meth:`sample` draws one round's
    batches for any set of rows in one vectorized pass; each row's
    draws equal ``Generator.choice(size[i], min(batch_size, size[i]),
    replace=False)`` on its own generator, bit for bit, and leave the
    row in the state that generator would be in. Calls on fewer than
    :attr:`vector_min_rows` rows, and rows in ``choice``'s tail-shuffle
    branch, run through one reused NumPy ``Generator`` set to each
    row's state instead.

    ``x``/``y`` may be omitted for index-only use (:meth:`draw`).
    """

    #: calls with fewer distinct rows replay each row through one reused
    #: NumPy ``Generator`` (cheaper than a vectorized pass's fixed cost)
    vector_min_rows = 40

    def __init__(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        batch_size: int,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
    ) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = sizes.shape[0]
        if keys.shape != (n, 2):
            raise ValueError(f"keys must have shape ({n}, 2), got {keys.shape}")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if n and (sizes.min() <= 0 or sizes.max() > 1 << 32):
            raise ValueError("every row needs between 1 and 2**32 samples")
        self.size = sizes
        self.start = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        self.batch_size = int(batch_size)
        if (x is None) != (y is None):
            raise ValueError("pass both x and y, or neither")
        if x is not None and (len(x) != sizes.sum() or len(y) != sizes.sum()):
            raise ValueError("x and y must hold sum(sizes) samples")
        self.x, self.y = x, y
        self.key = keys
        self.counter = np.zeros((n, 4), np.uint64)
        self.buffer = np.zeros((n, 4), np.uint64)
        self.buffer_pos = np.full(n, 4, np.int64)
        self.has_uint32 = np.zeros(n, np.int64)
        self.uinteger = np.zeros(n, np.uint32)
        #: mini-batches drawn per row so far
        self.steps_done = np.zeros(n, np.int64)
        self._replay_gen = np.random.Generator(np.random.Philox(0))

    def __len__(self) -> int:
        return self.size.shape[0]

    # -- drawing --------------------------------------------------------------

    def sample(self, ids, steps: int):
        """``steps`` mini-batches for each row in ``ids``: ``(x, y)``
        with ``x[p][s]`` row ``ids[p]``'s step-``s`` inputs. Stacked
        arrays ``(m, steps, b, ...)`` when every row draws ``b``
        samples, otherwise length-``m`` lists of per-row arrays."""
        return self.gather(self.draw(ids, steps))

    def draw(self, ids, steps: int) -> np.ndarray:
        """Advance each row of ``ids`` by ``steps`` mini-batches and
        return their flat sample indices, shape ``(m, steps, kmax)``
        (``-1`` pads rows that draw fewer than ``kmax`` samples).

        ``ids`` may repeat a row: its occurrences take consecutive
        batches of its stream, in order — exactly as calling the row's
        generator once per occurrence would."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if steps <= 0:
            raise ValueError("steps must be positive")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self)):
            raise ValueError(f"row ids must be in [0, {len(self)})")
        if ids.size < 2 or (ids[1:] > ids[:-1]).all():
            local = self._draw_rows(ids, np.full(ids.size, steps))
        else:
            rows, inverse, counts = np.unique(
                ids, return_inverse=True, return_counts=True
            )
            by_row = self._draw_rows(rows, counts * steps)
            # occurrence q of a row takes its batches [q*steps, (q+1)*steps)
            order = np.argsort(inverse, kind="stable")
            first = np.concatenate([[0], np.cumsum(counts)[:-1]])
            occurrence = np.empty_like(inverse)
            occurrence[order] = np.arange(ids.size) - np.repeat(first, counts)
            local = by_row[inverse[:, None],
                           occurrence[:, None] * steps + np.arange(steps)]
        return np.where(local >= 0, local + self.start[ids][:, None, None], -1)

    def _draw_rows(self, rows: np.ndarray, total: np.ndarray) -> np.ndarray:
        """``total[u]`` consecutive batches of each distinct row
        ``rows[u]``: local indices ``(U, max(total), kmax)``, -1 padded."""
        n = self.size[rows]
        k = np.minimum(n, self.batch_size)
        kmax = int(k.max()) if rows.size else 0
        width = int(total.max(initial=0))
        # NumPy's choice takes a tail shuffle of arange(n) instead of
        # Floyd's algorithm for large n with large k
        tail = (n > 10000) & (k > n // 50)
        replay = tail | (rows.size < self.vector_min_rows)
        vec = np.flatnonzero(~replay)
        if vec.size == rows.size:
            local = self._floyd(rows, n, k, total, width, kmax)
        else:
            local = np.full((rows.size, width, kmax), -1, np.int64)
            if vec.size:
                local[vec] = self._floyd(rows[vec], n[vec], k[vec], total[vec],
                                         width, kmax)
        for u in np.flatnonzero(replay):
            self._replay(rows[u], int(n[u]), int(k[u]), int(total[u]), local[u])
        self.steps_done[rows] += total
        return local

    def gather(self, flat: np.ndarray):
        """The samples at flat indices ``flat`` (a :meth:`draw` result):
        stacked ``(x, y)`` arrays, or per-row lists when padded."""
        if self.x is None:
            raise ValueError("this sampler holds no data to gather")
        if flat.size == 0 or flat[:, 0, -1].min() >= 0:
            return self.x[flat], self.y[flat]
        xs, ys = [], []
        for row in flat:
            row = row[:, : int((row[0] >= 0).sum())]
            xs.append(self.x[row])
            ys.append(self.y[row])
        return xs, ys

    def _replay(self, row: int, n: int, k: int, total: int, out: np.ndarray) -> None:
        """Row ``row``'s next ``total`` batches through NumPy itself."""
        bit_gen = self._replay_gen.bit_generator
        bit_gen.state = self._row_state(row)
        for s in range(total):
            out[s, :k] = self._replay_gen.choice(n, size=k, replace=False)
        st = bit_gen.state
        self.counter[row] = st["state"]["counter"]
        self.buffer[row] = st["buffer"]
        self.buffer_pos[row] = st["buffer_pos"]
        self.has_uint32[row] = st["has_uint32"]
        self.uinteger[row] = st["uinteger"]

    def _floyd(self, rows, n, k, total, width: int, kmax: int) -> np.ndarray:
        """``Generator.choice(n, k, replace=False)`` for every row at
        once (the Floyd branch): for ``t < k`` draw ``v = bounded(n-k+t)``
        and keep ``n-k+t`` instead if ``v`` was already taken, then
        Fisher–Yates the picks with ``bounded(i)``, ``i = k-1 … 1``.
        Row ``u`` draws ``total[u]`` batches in sequence."""
        out = np.full((rows.size, width, kmax), -1, np.int64)
        stream = _Lookahead(self, rows, int((total * (2 * k - 1)).max()))
        positions = np.arange(rows.size)
        for s in range(int(total.max())):
            live = total > s
            picked = out[:, s]
            for t in range(kmax):
                act = positions[live & (k > t)]
                j = n[act] - k[act] + t
                v = stream.bounded(act, j)
                taken = (picked[act, :t] == v[:, None]).any(axis=1)
                picked[act, t] = np.where(taken, j, v)
            for i in range(kmax - 1, 0, -1):
                act = positions[live & (k > i)]
                j = stream.bounded(act, np.full(act.size, i, np.int64))
                swap = picked[act, i]
                picked[act, i] = picked[act, j]
                picked[act, j] = swap
        stream.commit()
        return out

    # -- state ----------------------------------------------------------------

    def _row_state(self, row: int) -> dict:
        return {
            "bit_generator": "Philox",
            "state": {"counter": self.counter[row].copy(),
                      "key": self.key[row].copy()},
            "buffer": self.buffer[row].copy(),
            "buffer_pos": int(self.buffer_pos[row]),
            "has_uint32": int(self.has_uint32[row]),
            "uinteger": int(self.uinteger[row]),
        }

    def generator_state(self, row: int) -> dict:
        """Row ``row``'s stream position in :func:`generator_state`
        form — equal to the snapshot of the generator it replays."""
        return _plain(self._row_state(row))

    #: state-dict arrays and their per-row shapes and dtypes
    STATE_FIELDS = (
        ("key", (2,), np.uint64),
        ("counter", (4,), np.uint64),
        ("buffer", (4,), np.uint64),
        ("buffer_pos", (), np.int64),
        ("has_uint32", (), np.int64),
        ("uinteger", (), np.uint32),
        ("steps_done", (), np.int64),
    )

    def state_dict(self) -> dict:
        """Every row's stream position and batch count, as arrays."""
        return {
            "key": self.key.copy(),
            "counter": self.counter.copy(),
            "buffer": self.buffer.copy(),
            "buffer_pos": self.buffer_pos.copy(),
            "has_uint32": self.has_uint32.copy(),
            "uinteger": self.uinteger.copy(),
            "steps_done": self.steps_done.copy(),
        }

    def load_state_dict(self, sd: dict) -> None:
        """Restore a :meth:`state_dict` snapshot. A missing or misshapen
        array, or keys of another seed, raises :class:`ValueError`
        naming the field; nothing is restored in that case."""
        n = len(self)
        arrays = {}
        for name, shape, dtype in self.STATE_FIELDS:
            if name not in sd:
                raise ValueError(f"sampler state lacks {name!r}")
            value = np.asarray(sd[name])
            if value.shape != (n, *shape):
                raise ValueError(
                    f"sampler state {name!r} has shape {value.shape}, "
                    f"expected {(n, *shape)}"
                )
            arrays[name] = value.astype(dtype)
        if not np.array_equal(arrays["key"], self.key):
            raise ValueError(
                "sampler state 'key' belongs to different streams "
                "(another seed or label)"
            )
        bad = (arrays["buffer_pos"] < 0) | (arrays["buffer_pos"] > 4)
        if bad.any() or not np.isin(arrays["has_uint32"], (0, 1)).all():
            raise ValueError("sampler state 'buffer_pos'/'has_uint32' out of range")
        for name, value in arrays.items():
            setattr(self, name, value)


class _Lookahead:
    """The next raw uint32 draws of a set of rows, generated in bulk
    from their current Philox state, with a read cursor per row.
    :meth:`commit` advances the sampler's state arrays past what was
    read. Only ``next_uint32`` draws are replayed — all that
    ``choice`` uses for populations up to ``2**32``."""

    def __init__(self, sampler: BatchSampler, rows: np.ndarray, width: int) -> None:
        self.s = sampler
        self.rows = rows
        self.cursor = np.zeros(rows.size, np.int64)
        self._fill(width)

    def _fill(self, width: int) -> None:
        s, rows = self.s, self.rows
        has, pos = s.has_uint32[rows], s.buffer_pos[rows]
        # uint64 words: the buffered block, then blocks counter+1, +2, ...
        # (only the blocks each row's ``width`` draws reach are computed)
        blocks = np.maximum(0, -(-(pos + (width - has + 1) // 2 - 4) // 4))
        span = int(blocks.max(initial=0))
        words = np.zeros((rows.size, 1 + span, 4), np.uint64)
        words[:, 0] = s.buffer[rows]
        if span:
            step = np.arange(1, span + 1, dtype=np.uint64)
            u, b = np.nonzero(step[None, :] <= blocks[:, None].astype(np.uint64))
            words[u, 1 + b] = _philox(
                _counter_add(s.counter[rows[u]], step[b]), s.key[rows[u]]
            )
        words = words.reshape(rows.size, 4 + 4 * span)
        halves = words.astype("<u8", copy=False).view("<u4")  # lo, hi, lo, ...
        # stream position q: the buffered uint32 first (if any), then
        # the halves of words[pos:]
        src = 2 * pos[:, None] + np.arange(width)[None, :] - has[:, None]
        draws = np.take_along_axis(halves, np.maximum(src, 0), axis=1)
        draws[:, 0] = np.where(has == 1, s.uinteger[rows], draws[:, 0])
        self.words, self.draws, self.width = words, draws.astype(np.uint64), width

    def bounded(self, act: np.ndarray, r: np.ndarray) -> np.ndarray:
        """A uniform draw in ``[0, r[p]]`` for each row ``act[p]``:
        32-bit Lemire on ``next_uint32``, rejecting while
        ``low32(u·(r+1)) < 2**32 mod (r+1)``; ``r = 0`` draws nothing."""
        out = np.zeros(act.size, np.int64)
        todo = np.flatnonzero(r > 0)
        excl = r[todo].astype(np.uint64) + np.uint64(1)
        threshold = np.uint64(1 << 32) % excl
        while todo.size:
            slots = act[todo]
            at = self.cursor[slots]
            if at.max() >= self.width:
                self._fill(2 * self.width)
            self.cursor[slots] = at + 1
            m = self.draws[slots, at] * excl
            ok = (m & _LO32) >= threshold
            out[todo[ok]] = (m[ok] >> _S32).astype(np.int64)
            keep = ~ok
            todo, excl, threshold = todo[keep], excl[keep], threshold[keep]
        return out

    def commit(self) -> None:
        """Move each row's Philox state past the draws it consumed."""
        s, rows = self.s, self.rows
        used = self.cursor
        has, pos = s.has_uint32[rows], s.buffer_pos[rows]
        first = (used > 0) & (has == 1)  # the buffered uint32 goes first
        rest = used - first
        end = pos + (rest + 1) // 2  # words consumed, in window coordinates
        idx = np.flatnonzero(rest > 0)
        s.uinteger[rows[idx]] = (
            self.words[idx, end[idx] - 1] >> _S32
        ).astype(np.uint32)
        s.has_uint32[rows] = np.where(used > 0, rest % 2, has)
        blocks = np.maximum(0, -(-(end - 4) // 4))
        s.buffer_pos[rows] = end - 4 * blocks
        idx = np.flatnonzero(blocks > 0)
        if idx.size:
            lo = 4 * blocks[idx]
            s.buffer[rows[idx]] = self.words[idx[:, None], lo[:, None] + np.arange(4)]
            s.counter[rows[idx]] = _counter_add(
                s.counter[rows[idx]], blocks[idx].astype(np.uint64)
            )


# -- Philox4x64-10 and SeedSequence, vectorized --------------------------------

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _mulhilo(m: np.uint64, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit product ``m * a``, from
    32-bit partial products (in place where possible: this is the
    sampler's inner loop)."""
    m_lo, m_hi = m & _LO32, m >> _S32
    lo = a * m
    a_lo = a & _LO32
    hi = a >> _S32
    lh = a_lo * m_hi
    hl = hi * m_lo
    a_lo *= m_lo
    a_lo >>= _S32
    carry = lh & _LO32
    carry += a_lo
    carry += hl & _LO32
    carry >>= _S32
    hi *= m_hi
    lh >>= _S32
    hi += lh
    hl >>= _S32
    hi += hl
    hi += carry
    return hi, lo


def _philox(ctr: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks of counters ``ctr[..., 4]`` under keys
    ``key[..., 2]`` (Random123's round function and key schedule)."""
    shape = ctr.shape
    c0, c1, c2, c3 = (ctr[..., w].reshape(-1) for w in range(4))
    k0, k1 = (key[..., w].reshape(-1).copy() for w in range(2))
    for r in range(10):
        if r:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(shape)


def _counter_add(ctr: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """256-bit little-endian counters ``ctr[..., 4]`` plus ``inc``."""
    low = ctr[..., 0] + inc
    out = np.empty(low.shape + (4,), np.uint64)
    out[..., 0] = low
    carry = (low < inc).astype(np.uint64)
    for w in range(1, 4):
        word = ctr[..., w] + carry
        out[..., w] = word
        carry &= (word == 0).astype(np.uint64)
    return out


class _HashMix:
    """SeedSequence's ``hashmix`` with its running hash constant."""

    def __init__(self, init: int, mult: int) -> None:
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & 0xFFFFFFFF
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _plain(value: object) -> object:
    """Deep-convert NumPy arrays and scalars to plain Python types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    return value


def _check_fields(got: dict, want: dict, path: str) -> None:
    """``got`` has every field of the reference state ``want``, nested
    dicts where ``want`` has them and arrays of ``want``'s shapes."""
    for key, ref in want.items():
        field = f"{path}{key}"
        if key not in got:
            raise ValueError(f"rng state lacks field {field!r}")
        value = got[key]
        if isinstance(ref, dict):
            if not isinstance(value, dict):
                raise ValueError(f"rng state field {field!r} must be a dict")
            _check_fields(value, ref, f"{field}.")
        elif isinstance(ref, np.ndarray) and np.shape(value) != ref.shape:
            raise ValueError(
                f"rng state field {field!r} has shape {np.shape(value)}, "
                f"expected {ref.shape}"
            )


def _label_key(label: str) -> int:
    """Stable 63-bit key for a stream label (Python's ``hash`` is salted
    per process, so fold the bytes explicitly)."""
    h = 1469598103934665603  # FNV-1a offset basis
    for b in label.encode():
        h = ((h ^ b) * 1099511628211) % (1 << 63)
    return h
