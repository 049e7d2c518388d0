"""Process-parallel local training.

The round structure of D-PSGD/SkipTrain is embarrassingly parallel
within a round: node trainings are independent between two mixing
steps (the paper runs 256 processes over 8 machines). This module
parallelizes exactly that stage with a process pool.

Work is shipped as node *blocks*: the masked nodes are split into one
chunk per worker (tunable via ``block_size``) and each worker trains its
whole ``(m, dim)`` block in one task. Within a block the worker either
loops rows serially or — when ``EngineConfig.vectorized`` is set — runs
the block through a :class:`repro.nn.batched.BatchedTrainer`, so the
process-parallel and vectorized speedups compose: ``n_workers`` blocks
each doing stacked-GEMM training. Blocks also amortize pickling: one
task per worker per round instead of one per node.

Determinism is preserved by drawing every mini-batch in the *parent*
process (one vectorized sampler call per round) and shipping
``(block, batches)`` to workers that only run the compute-heavy SGD
steps. The result is bit-identical to the serial engine — and to the
vectorized single-process engine — because the parent consumes each
node's batch stream in the same order and both block paths are
slice-for-slice bit-exact (see ``repro.nn.batched``).
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Callable

import numpy as np

from ..nn.batched import BatchedTrainer
from ..nn.losses import CrossEntropyLoss
from ..nn.module import Module
from ..nn.optim import SGD
from ..nn.serialization import parameter_vector, set_parameter_vector
from .engine import SimulationEngine

__all__ = ["ParallelSimulationEngine", "train_rows_serial"]

# Worker globals installed by _init_worker (one model per process; the
# batched trainer is built lazily on the first vectorized block).
_WORKER_MODEL: Module | None = None
_WORKER_LR: float | None = None
_WORKER_MOMENTUM: float = 0.0
_WORKER_WEIGHT_DECAY: float = 0.0
_WORKER_TRAINER: BatchedTrainer | None = None


def _init_worker(
    model_factory: Callable[[], Module],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    global _WORKER_MODEL, _WORKER_LR, _WORKER_MOMENTUM, _WORKER_WEIGHT_DECAY
    global _WORKER_TRAINER
    _WORKER_MODEL = model_factory()
    _WORKER_LR = lr
    _WORKER_MOMENTUM = momentum
    _WORKER_WEIGHT_DECAY = weight_decay
    _WORKER_TRAINER = None


def _train_block(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Train one ``(m, dim)`` block of node rows (worker side) on
    batches ``(x, y)``, row ``r``'s step ``s`` being ``x[r][s]``.

    Returns ``(rows, losses)`` where ``losses[i]`` is row ``i``'s mean
    training loss over its local steps.
    """
    rows, x, y, vectorized = args
    model = _WORKER_MODEL
    assert model is not None, "worker not initialized"
    if vectorized:
        global _WORKER_TRAINER
        if _WORKER_TRAINER is None:
            _WORKER_TRAINER = BatchedTrainer(
                model, lr=_WORKER_LR, weight_decay=_WORKER_WEIGHT_DECAY
            )
        losses = _WORKER_TRAINER.train_block(rows, x, y)
        return rows, losses
    loss = CrossEntropyLoss()
    losses = np.empty(rows.shape[0])
    for r in range(rows.shape[0]):
        # Fresh optimizer per row: momentum velocity must not leak from
        # one node to the next within a block, or results would depend
        # on how the masked ids were partitioned into blocks.
        opt = SGD(
            model.parameters(),
            lr=_WORKER_LR,
            momentum=_WORKER_MOMENTUM,
            weight_decay=_WORKER_WEIGHT_DECAY,
        )
        set_parameter_vector(model, rows[r])
        total = 0.0
        for xb, yb in zip(x[r], y[r]):
            logits = model(xb)
            total += loss.forward(logits, yb)
            model.zero_grad()
            model.backward(loss.backward())
            opt.step()
        parameter_vector(model, out=rows[r])
        losses[r] = total / len(x[r])
    return rows, losses


def train_rows_serial(
    model: Module,
    rows: np.ndarray,
    x,
    y,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """Reference serial implementation of the worker loop (used by the
    equivalence tests): row ``r`` trains on ``(x[r][s], y[r][s])`` for
    each step ``s``."""
    out = np.empty_like(rows)
    loss = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    for r in range(rows.shape[0]):
        set_parameter_vector(model, rows[r])
        for xb, yb in zip(x[r], y[r]):
            logits = model(xb)
            loss.forward(logits, yb)
            model.zero_grad()
            model.backward(loss.backward())
            opt.step()
        parameter_vector(model, out=out[r])
    return out


class ParallelSimulationEngine(SimulationEngine):
    """Drop-in engine that fans node-block training out to a process pool.

    ``model_factory`` must be a picklable zero-argument callable
    producing the same architecture as ``model``. ``block_size`` caps
    the nodes per task (default: masked nodes split evenly across
    workers). Worth using when ``E × batch × model_flops`` dominates the
    pickling cost of one block per worker per round; for the tiny bench
    models the serial engine is usually faster. Combine with
    ``EngineConfig.vectorized`` to run each worker's block through the
    batched trainer.

    Evaluation is inherited from :class:`SimulationEngine` and runs in
    the parent process: with ``vectorized`` (or ``eval_mode="batched"``)
    the cross-node :class:`repro.nn.batched.BatchedEvaluator` evaluates
    all nodes in stacked forward passes, so eval rounds never pay the
    pool's IPC cost.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        *args,
        processes: int | None = None,
        block_size: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(model_factory(), *args, **kwargs)
        if block_size is not None and block_size <= 0:
            raise ValueError("block_size must be positive when given")
        self.model_factory = model_factory
        self.block_size = block_size
        ctx = mp.get_context("fork")
        self._processes = processes if processes is not None else mp.cpu_count()
        self.pool = ctx.Pool(
            processes=processes,
            initializer=_init_worker,
            initargs=(
                model_factory,
                self.config.learning_rate,
                self.config.momentum,
                self.config.weight_decay,
            ),
        )

    def close(self) -> None:
        """Terminate the worker pool."""
        self.pool.terminate()
        self.pool.join()

    def __enter__(self) -> "ParallelSimulationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _node_blocks(self, ids: np.ndarray) -> list[np.ndarray]:
        """Split masked node ids into per-task blocks (ascending order)."""
        if self.block_size is not None:
            n_blocks = -(-ids.size // self.block_size)
        else:
            n_blocks = min(self._processes, ids.size)
        return np.array_split(ids, n_blocks)

    def _train_round(self, mask: np.ndarray) -> list[float]:
        """The round's local-training stage, fanned out as node blocks.

        Only this stage is overridden: the inherited
        :meth:`SimulationEngine.run` keeps the round skeleton —
        failure-model masking, aggregation, energy accounting with the
        compressor's communication scale, eval cadence — identical to
        the serial engine by construction.
        """
        ids = np.nonzero(mask)[0]
        if not ids.size:
            return []
        # Draw all batches in the parent to keep rng streams identical
        # to the serial engine.
        cfg = self.config
        x, y = self.sampler.sample(ids, cfg.local_steps)
        blocks = self._node_blocks(ids)
        tasks = []
        lo = 0
        for block_ids in blocks:
            hi = lo + block_ids.size
            tasks.append((self.state[block_ids], x[lo:hi], y[lo:hi], cfg.vectorized))
            lo = hi
        results = self.pool.map(_train_block, tasks)
        losses: list[float] = []
        for block_ids, (rows, block_losses) in zip(blocks, results):
            self.state[block_ids] = rows
            losses.extend(block_losses)
        return losses
