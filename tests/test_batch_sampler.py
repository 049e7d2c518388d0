"""The array-backed batch sampler against NumPy's own per-node streams,
its checkpoint codec, and the rng-state validation it relies on."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DPSGD
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.nn import small_mlp
from repro.simulation import (
    AsyncDPSGD,
    AsyncGossipEngine,
    BatchSampler,
    CheckpointError,
    EngineConfig,
    RngFactory,
    SimulationEngine,
    build_nodes,
    generator_state,
    load_async_run_checkpoint,
    load_run_checkpoint,
    restore_generator,
    save_async_run_checkpoint,
    save_run_checkpoint,
)
from repro.topology import metropolis_hastings_weights, neighbor_lists, regular_graph

N = 8
SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)

#: populations covering every branch of ``Generator.choice``: fewer or
#: exactly as many samples as the batch, the Floyd branch above 10000
#: (small batches) and the tail-shuffle branch (batch > n // 50), and
#: n ≈ 3e9, where 32-bit Lemire rejects about 30% of draws
SIZES = st.one_of(
    st.integers(1, 12),
    st.integers(10001, 12500),
    st.integers(2_900_000_000, 3_100_000_000),
    st.just(2**32),
)


@st.composite
def sampler_cases(draw):
    batch = draw(st.sampled_from([1, 3, 8, 250]))
    sizes = draw(st.lists(st.one_of(SIZES, st.just(batch)), min_size=1,
                          max_size=6))
    calls = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=10),
            st.integers(1, 3),
        ),
        min_size=1, max_size=3,
    ))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**80)))
    return seed, batch, sizes, calls


class TestSamplerMatchesNumPy:
    @given(case=sampler_cases(), vector_min_rows=st.sampled_from([0, 8]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_indices_and_states_equal_per_node_generators(
        self, case, vector_min_rows
    ):
        """Each row ≡ ``node_stream("batch", i)`` + ``Generator.choice``,
        through the vectorized pass (``vector_min_rows=0``) and the
        default dispatch, with repeated rows and several steps."""
        seed, batch, sizes, calls = case
        factory = RngFactory(seed)
        sampler = BatchSampler(factory.node_keys("batch", len(sizes)), sizes,
                               batch)
        sampler.vector_min_rows = vector_min_rows
        gens = [factory.node_stream("batch", i) for i in range(len(sizes))]
        for ids, steps in calls:
            flat = sampler.draw(ids, steps)
            assert flat.shape[:2] == (len(ids), steps)
            for p, i in enumerate(ids):
                k = min(batch, sizes[i])
                for s in range(steps):
                    want = gens[i].choice(sizes[i], size=k, replace=False)
                    np.testing.assert_array_equal(
                        flat[p, s, :k] - sampler.start[i], want
                    )
                    assert (flat[p, s, k:] == -1).all()
        for i, gen in enumerate(gens):
            assert sampler.generator_state(i) == generator_state(gen)

    def test_keys_match_seed_sequence_spawns(self):
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130):
            keys = RngFactory(seed).node_keys("batch", 40)
            for i in (0, 1, 39):
                want = RngFactory(seed).node_stream("batch", i)
                np.testing.assert_array_equal(
                    keys[i], want.bit_generator.state["state"]["key"]
                )

    def test_build_nodes_gathers_each_nodes_own_rows(self):
        """``sample`` returns node i's dataset rows at the indices its
        own generator picks — the flat-data offsets are right."""
        rngs = RngFactory(5)
        train, _ = make_classification_images(SPEC, 203, rngs.stream("data"))
        parts = shard_partition(train.y, N, rng=rngs.stream("partition"))
        nodes = build_nodes(train, parts, 8, rngs)
        sampler = nodes[0].sampler
        ids = np.array([0, 3, 3, 7, 5, 1, 2, 4, 6])
        x, y = sampler.sample(ids, 2)
        assert x.shape == (len(ids), 2, 8, 1, 4, 4)
        gens = {i: RngFactory(5).node_stream("batch", i) for i in set(ids)}
        for p, i in enumerate(ids):
            for s in range(2):
                idx = gens[i].choice(len(nodes[i].dataset), 8, replace=False)
                np.testing.assert_array_equal(x[p, s], nodes[i].dataset.x[idx])
                np.testing.assert_array_equal(y[p, s], nodes[i].dataset.y[idx])
        np.testing.assert_array_equal(sampler.steps_done[[3, 0]], [4, 2])

    def test_ragged_rows_come_back_per_row(self):
        sampler = BatchSampler(RngFactory(1).node_keys("batch", 3), [2, 9, 5],
                               4, x=np.arange(16.0), y=np.arange(16))
        x, y = sampler.sample([0, 1, 2], 3)
        assert [xi.shape for xi in x] == [(3, 2), (3, 4), (3, 4)]
        for xi, yi in zip(x, y):
            np.testing.assert_array_equal(xi, yi.astype(float))


class TestSamplerState:
    def make(self, seed=3):
        return BatchSampler(RngFactory(seed).node_keys("batch", 5),
                            [9, 4, 12, 8, 8], 4)

    def test_state_dict_roundtrip_continues_streams(self):
        a = self.make()
        a.draw([0, 1, 2, 3, 4, 2], 3)
        b = self.make()
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.draw(np.arange(5), 2),
                                      b.draw(np.arange(5), 2))
        for i in range(5):
            assert a.generator_state(i) == b.generator_state(i)

    def test_load_rejects_missing_misshapen_and_foreign_state(self):
        a = self.make()
        sd = a.state_dict()
        with pytest.raises(ValueError, match="'counter'"):
            a.load_state_dict({k: v for k, v in sd.items() if k != "counter"})
        with pytest.raises(ValueError, match="'buffer' has shape"):
            a.load_state_dict({**sd, "buffer": sd["buffer"][:, :3]})
        with pytest.raises(ValueError, match="'key'"):
            a.load_state_dict(self.make(seed=4).state_dict())


class TestRestoreGenerator:
    def good_state(self):
        gen = RngFactory(7).node_stream("batch", 3)
        gen.random(5)
        return generator_state(gen)

    def test_seed_is_rejected_without_reseeding_the_legacy_rng(self):
        legacy = np.random.get_state()
        with pytest.raises(ValueError, match="'bit_generator'"):
            restore_generator({**self.good_state(), "bit_generator": "seed"})
        after = np.random.get_state()
        np.testing.assert_array_equal(legacy[1], after[1])
        assert legacy[2:] == after[2:]

    @pytest.mark.parametrize("name", ["Generator", "BitGenerator",
                                      "SeedSequence", "random"])
    def test_non_bit_generator_names_rejected(self, name):
        with pytest.raises(ValueError, match="'bit_generator'"):
            restore_generator({**self.good_state(), "bit_generator": name})

    def test_truncated_counter_names_the_field(self):
        state = self.good_state()
        state["state"] = {**state["state"], "counter": state["state"]["counter"][:2]}
        with pytest.raises(ValueError, match="'state.counter'"):
            restore_generator(state)

    def test_missing_field_named(self):
        state = {k: v for k, v in self.good_state().items() if k != "buffer"}
        with pytest.raises(ValueError, match="'buffer'"):
            restore_generator(state)

    def test_valid_state_still_roundtrips(self):
        state = self.good_state()
        gen = restore_generator(json.loads(json.dumps(state)))
        assert generator_state(gen) == state


def _nodes_and_test(seed):
    rngs = RngFactory(seed)
    train, protos = make_classification_images(SPEC, 400, rngs.stream("data"))
    test, _ = make_classification_images(SPEC, 100, rngs.stream("test"),
                                         prototypes=protos)
    parts = shard_partition(train.y, N, rng=rngs.stream("partition"))
    return rngs, build_nodes(train, parts, 8, rngs), test


def sync_engine(seed=0, vectorized=False):
    rngs, nodes, test = _nodes_and_test(seed)
    w = metropolis_hastings_weights(regular_graph(N, 3, seed=0))
    cfg = EngineConfig(local_steps=2, learning_rate=0.2, total_rounds=8,
                       eval_every=4, vectorized=vectorized)
    model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
    return SimulationEngine(model, nodes, w, cfg, test,
                            eval_rng=rngs.stream("eval"))


def async_engine(seed=0, vectorized=False):
    rngs, nodes, test = _nodes_and_test(seed)
    model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
    return AsyncGossipEngine(
        model, nodes, neighbor_lists(regular_graph(N, 3, seed=0)), test,
        local_steps=2, learning_rate=0.2, rng=rngs.stream("events"),
        eval_rng=rngs.stream("async-eval"), vectorized=vectorized,
    )


def _rewrite(path, edit):
    """Rewrite the npz at ``path`` with ``edit(dict of arrays)``."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _to_old_layout(arrays):
    """The layout before the array-backed sampler: per-node JSON."""
    for key in [k for k in arrays if k.startswith("sampler_")]:
        del arrays[key]
    arrays["node_rng_json"] = np.array(json.dumps(
        [generator_state(RngFactory(0).node_stream("batch", i))
         for i in range(N)]
    ))


def _truncate_counter(arrays):
    arrays["sampler_counter"] = arrays["sampler_counter"][:-1]


class TestCheckpointSamplerArrays:
    def sync_checkpoint(self, tmp_path):
        eng = sync_engine()
        algo = DPSGD(N)
        history = eng.run(algo)
        path = tmp_path / "sync.npz"
        save_run_checkpoint(eng, algo, history, 8, path)
        return path

    def async_checkpoint(self, tmp_path):
        eng = async_engine()
        history = eng.run(AsyncDPSGD(), activations_per_node=2)
        path = tmp_path / "async.npz"
        save_async_run_checkpoint(eng, AsyncDPSGD(), history, 2 * N, path)
        return path

    def test_sync_resume_restores_streams(self, tmp_path):
        path = self.sync_checkpoint(tmp_path)
        fresh = sync_engine()
        load_run_checkpoint(fresh, DPSGD(N), path)
        done = sync_engine()
        done.run(DPSGD(N))
        for i in range(N):
            assert fresh.sampler.generator_state(i) == done.sampler.generator_state(i)

    @pytest.mark.parametrize("edit,match", [
        (_to_old_layout, r"sync\.npz: checkpoint lacks 'sampler_key'.*node_rng_json"),
        (_truncate_counter, r"sync\.npz: .*'counter' has shape"),
    ], ids=["pre-sampler-layout", "truncated-array"])
    def test_sync_rejects_unresumable_sampler_state(self, tmp_path, edit, match):
        path = self.sync_checkpoint(tmp_path)
        _rewrite(path, edit)
        fresh = sync_engine()
        before = fresh.sampler.state_dict()
        with pytest.raises(CheckpointError, match=match):
            load_run_checkpoint(fresh, DPSGD(N), path)
        for key, value in fresh.sampler.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    @pytest.mark.parametrize("edit,match", [
        (_to_old_layout, r"async\.npz: checkpoint lacks 'sampler_key'.*node_rng_json"),
        (_truncate_counter, r"async\.npz: .*'counter' has shape"),
    ], ids=["pre-sampler-layout", "truncated-array"])
    def test_async_rejects_unresumable_sampler_state(self, tmp_path, edit, match):
        path = self.async_checkpoint(tmp_path)
        _rewrite(path, edit)
        with pytest.raises(CheckpointError, match=match):
            load_async_run_checkpoint(async_engine(), AsyncDPSGD(), path)



def _record_gathers(engine):
    """Log the row count of every gather from the engine's sampler."""
    sampler, gather = engine.sampler, engine.sampler.gather
    rows = []

    def logged(flat):
        rows.append(flat.shape[0])
        return gather(flat)

    sampler.gather = logged
    return rows


def _assert_same_streams(a, b):
    for i in range(N):
        assert a.sampler.generator_state(i) == b.sampler.generator_state(i)


class TestEnginesGatherPerBatch:
    """Engines draw once per round or window but keep only indices:
    the data is gathered for one event batch (async, vectorized) or one
    node (sync, serial) at a time, and trajectories stay bit-identical."""

    def test_async_window_attaches_indices(self):
        serial = async_engine(seed=2)
        batched = async_engine(seed=2, vectorized=True)
        run_batch, seen = batched._execute_batch, []

        def spy(batch):
            if batch.train_ids:
                seen.append((batch.samples.dtype, batch.samples.shape,
                             len(batch.train_ids)))
            run_batch(batch)

        batched._execute_batch = spy
        gathered = _record_gathers(batched)
        serial.run(AsyncDPSGD(), activations_per_node=4, eval_every=16)
        batched.run(AsyncDPSGD(), activations_per_node=4, eval_every=16)
        assert seen
        # (rows, local steps, batch size) indices, not gathered tensors
        assert all(dtype == np.int64 and shape == (m, 2, 8)
                   for dtype, shape, m in seen)
        assert gathered == [m for _, _, m in seen]
        np.testing.assert_array_equal(serial.state, batched.state)
        _assert_same_streams(serial, batched)

    def test_serial_sync_gathers_one_node_at_a_time(self):
        serial = sync_engine(seed=5)
        vectorized = sync_engine(seed=5, vectorized=True)
        gathered = _record_gathers(serial)
        serial.run(DPSGD(N))
        vectorized.run(DPSGD(N))
        assert gathered == [1] * (N * 8)  # D-PSGD trains all N, 8 rounds
        np.testing.assert_array_equal(serial.state, vectorized.state)
        _assert_same_streams(serial, vectorized)
