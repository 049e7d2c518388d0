"""Per-node state: local data and (optionally) device identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import ArrayDataset
from ..energy.devices import DeviceProfile
from .rng import BatchSampler

__all__ = ["Node", "shared_sampler"]


@dataclass
class Node:
    """One participant in the decentralized network.

    Model *parameters* live in the engine's shared ``(n, dim)`` state
    matrix, not here — plain SGD is stateless, so nodes only need their
    data, their row of the fleet's :class:`~repro.simulation.rng.
    BatchSampler` (row ``node_id``), and their device identity. This
    keeps memory at one model's worth plus the state matrix, instead of
    ``n`` full model objects.
    """

    node_id: int
    dataset: ArrayDataset
    sampler: BatchSampler
    device: DeviceProfile | None = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if len(self.dataset) == 0:
            raise ValueError(f"node {self.node_id} has an empty dataset")

    def sample_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """One local mini-batch from this node's sampler row. The
        engines draw a whole round's batches at once through
        :meth:`BatchSampler.sample`; this is the one-node view of it."""
        x, y = self.sampler.sample([self.node_id], 1)
        return x[0][0], y[0][0]


def shared_sampler(nodes: list[Node]) -> BatchSampler:
    """The one sampler every node of ``nodes`` draws from, with node
    ``i`` as its row ``i`` — what the engines' per-round draws rely on."""
    sampler = nodes[0].sampler
    if len(sampler) != len(nodes):
        raise ValueError(
            f"sampler has {len(sampler)} rows for {len(nodes)} nodes"
        )
    for i, node in enumerate(nodes):
        if node.sampler is not sampler or node.node_id != i:
            raise ValueError(
                "nodes must share one sampler, node i being its row i"
            )
    return sampler
