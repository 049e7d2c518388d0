"""Convenience constructors wiring data, topology, energy and engine."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.partition import flat_partition, iid_partition, shard_partition
from ..energy.devices import DeviceProfile
from ..energy.traces import assign_devices_round_robin
from .node import Node
from .rng import BatchSampler, RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.synthetic import SyntheticSpec
    from ..nn.module import Module
    from .engine import EngineConfig, SimulationEngine

__all__ = ["build_nodes", "build_engine"]


def build_nodes(
    global_train: ArrayDataset,
    partition: list[np.ndarray],
    batch_size: int,
    rngs: RngFactory,
    devices: tuple[DeviceProfile, ...] | None = None,
) -> list[Node]:
    """Materialize one :class:`Node` per partition cell.

    The nodes share one :class:`BatchSampler` whose row ``i`` is node
    ``i``'s batch stream (``rngs.node_stream("batch", i)``, held as
    arrays); node datasets are views into the sampler's flat copy of
    the partitioned rows. Devices default to the paper's round-robin
    assignment over the four phones.
    """
    flat, bounds = flat_partition(global_train, partition)
    n = len(partition)
    if devices is None:
        devices = assign_devices_round_robin(n)
    if len(devices) != n:
        raise ValueError("one device per node required")
    sampler = BatchSampler(
        rngs.node_keys("batch", n), np.diff(bounds), batch_size,
        x=flat.x, y=flat.y,
    )
    return [
        Node(node_id=i, dataset=flat.subset(slice(lo, hi)), sampler=sampler,
             device=devices[i])
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def build_engine(
    spec: "SyntheticSpec",
    n_nodes: int,
    config: "EngineConfig",
    model_factory: Callable[[np.random.Generator], "Module"],
    *,
    seed: int = 0,
    num_train: int | None = None,
    num_test: int = 256,
    batch_size: int = 8,
    partition: str = "shard",
    topology: str = "regular",
    degree: int = 3,
    parallel: bool = False,
    processes: int | None = None,
    block_size: int | None = None,
) -> "SimulationEngine":
    """One-call simulation setup from a synthetic spec (benchmarks/tests).

    Wires the full pipeline — data synthesis, partition, nodes, mixing
    matrix, engine — with every stochastic component drawn from one
    :class:`RngFactory`, so two calls with the same arguments produce
    engines with identical trajectories regardless of engine flavor
    (serial, vectorized, parallel). ``topology`` is ``"regular"`` (random
    ``degree``-regular) or ``"ring"``; ``partition`` is ``"shard"`` or
    ``"iid"``.
    """
    from ..data.synthetic import make_classification_images
    from ..topology import (
        metropolis_hastings_weights,
        regular_graph,
        ring_graph,
    )
    from .engine import SimulationEngine
    from .parallel import ParallelSimulationEngine

    rngs = RngFactory(seed)
    if num_train is None:
        num_train = 100 * n_nodes
    train, protos = make_classification_images(spec, num_train, rngs.stream("data"))
    test, _ = make_classification_images(
        spec, num_test, rngs.stream("test"), prototypes=protos
    )
    if partition == "shard":
        parts = shard_partition(train.y, n_nodes, rng=rngs.stream("partition"))
    elif partition == "iid":
        parts = iid_partition(len(train), n_nodes, rng=rngs.stream("partition"))
    else:
        raise ValueError(f"unknown partition {partition!r}")
    nodes = build_nodes(train, parts, batch_size, rngs)
    if topology == "regular":
        graph = regular_graph(n_nodes, degree, seed=seed)
    elif topology == "ring":
        graph = ring_graph(n_nodes)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    w = metropolis_hastings_weights(graph)
    model_rng = rngs.stream("model")
    if parallel:
        # A seeded factory closure keeps worker models identical to the
        # parent's (picklable: references only module-level names).
        return ParallelSimulationEngine(
            _SeededModelFactory(model_factory, model_rng),
            nodes,
            w,
            config,
            test,
            eval_rng=rngs.stream("eval"),
            processes=processes,
            block_size=block_size,
        )
    return SimulationEngine(
        model_factory(model_rng), nodes, w, config, test,
        eval_rng=rngs.stream("eval"),
    )


class _SeededModelFactory:
    """Picklable zero-arg model factory with a frozen rng state.

    Every call replays the same generator state, so the parent engine
    and each pool worker construct bit-identical models.
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], "Module"],
        rng: np.random.Generator,
    ) -> None:
        self._factory = model_factory
        self._state = rng.bit_generator.state

    def __call__(self) -> "Module":
        bit_gen = getattr(np.random, self._state["bit_generator"])()
        bit_gen.state = self._state
        return self._factory(np.random.Generator(bit_gen))
