"""Supervised training over (input, joints-at-t+horizon) pairs."""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, PairSet, split
from .models import MODEL_TABLE, ModelParams, ModelSpec, build_from_spec, forward_batch, \
    load_checkpoint, save_checkpoint
from .optim import AdamConfig, adam_step
from .tensor import NonFiniteError, Tensor, backward, mse_loss, no_grad
from .topology import HandTopology


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 100
    epochs: int = 200            # desk-scale default; full-scale runs pass 5000
    adam: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0
    checkpoint_every: int = 0    # 0 = only best + final
    spec: ModelSpec = MODEL_TABLE["III"]

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    final_checkpoint: str | None
    best_checkpoint: str | None
    best_val: float
    start_epoch: int

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


def mean_loss(params: ModelParams, pairs: PairSet, batch_size: int = 100) -> float:
    """Mean MSE over all pairs, computed in batches without touching grads."""
    if pairs.tactile.shape[1] != params.n_nodes:
        raise ValueError(f"pairs carry {pairs.tactile.shape[1]} nodes, "
                         f"model expects {params.n_nodes}")
    total = 0.0
    with no_grad():
        for s in range(0, len(pairs), batch_size):
            batch = pairs[s:s + batch_size]
            pred = forward_batch(params, Tensor(batch.tactile), Tensor(batch.aux()))
            diff = pred.data - batch.targets
            total += float((diff * diff).sum())
    return total / (len(pairs) * pairs.targets.shape[1])


def fit_pairs(params: ModelParams, train_set: PairSet, val_set: PairSet | None,
              cfg: TrainConfig, out_dir: str | None = None,
              start_epoch: int = 0) -> TrainReport:
    """Run cfg.epochs epochs starting at start_epoch.

    Shuffle order for epoch e is seeded by (cfg.seed, e), so resuming
    from a checkpoint replays exactly the batches a straight-through run
    would have seen.
    """
    n = len(train_set)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = float("inf")
    best_path = final_path = None
    metrics_path = os.path.join(out_dir, "metrics.ndjson") if out_dir else None
    if metrics_path:
        kept = _metrics_before(metrics_path, start_epoch)
        with open(metrics_path, "w") as f:
            f.writelines(kept)
        best_val, best_path = _best_before(kept, out_dir)

    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        e0 = time.monotonic()
        perm = np.random.default_rng((cfg.seed, epoch)).permutation(n)
        sq_sum = 0.0
        for b, s in enumerate(range(0, n, cfg.batch_size)):
            batch = train_set[perm[s:s + cfg.batch_size]]
            try:
                pred = forward_batch(params, Tensor(batch.tactile), Tensor(batch.aux()))
                loss = mse_loss(pred, Tensor(batch.targets))
            except NonFiniteError as e:
                raise NonFiniteError(
                    f"non-finite training loss at epoch {epoch}, batch {b}: {e}") from e
            backward(loss)
            adam_step(params.parameters(), cfg.adam)
            sq_sum += loss.item() * len(batch)
        train_loss = sq_sum / n
        train_losses.append(train_loss)

        val_loss = mean_loss(params, val_set, cfg.batch_size) if val_set is not None else None
        if val_loss is not None:
            val_losses.append(val_loss)
            if out_dir and val_loss < best_val:
                best_val = val_loss
                best_path = os.path.join(out_dir, "best.ckpt.json")
                save_checkpoint(params, best_path, extra=_extra(cfg, epoch + 1))
        if metrics_path:
            with open(metrics_path, "a") as f:
                f.write(json.dumps({"epoch": epoch, "train_loss": train_loss,
                                    "val_loss": val_loss,
                                    "seconds": time.monotonic() - e0}) + "\n")
        if out_dir and cfg.checkpoint_every and (epoch + 1 - start_epoch) % cfg.checkpoint_every == 0:
            save_checkpoint(params, os.path.join(out_dir, f"epoch{epoch + 1:06d}.ckpt.json"),
                            extra=_extra(cfg, epoch + 1))

    if out_dir:
        final_path = os.path.join(out_dir, "final.ckpt.json")
        save_checkpoint(params, final_path, extra=_extra(cfg, start_epoch + cfg.epochs))
    return TrainReport(train_losses=train_losses, val_losses=val_losses,
                       final_checkpoint=final_path, best_checkpoint=best_path,
                       best_val=best_val, start_epoch=start_epoch)


def _metrics_before(path: str, epoch: int) -> list[str]:
    """Complete lines of an earlier run's metrics for epochs before `epoch`.

    A fresh run (epoch 0) keeps none and a resumed one keeps the history
    up to its checkpoint, so the file never mixes two runs.
    """
    if epoch == 0 or not os.path.exists(path):
        return []
    with open(path) as f:  # a last line without its newline was cut off mid-write
        return [line for line in f if line.endswith("\n") and json.loads(line)["epoch"] < epoch]


def _best_before(kept: list[str], out_dir: str) -> tuple[float, str | None]:
    """The least val_loss of the kept metrics lines, and best.ckpt.json if it was saved then.

    So a resumed run keeps the best checkpoint a straight run keeps.  A best
    checkpoint of any other epoch belongs to another run: start afresh.
    """
    path = os.path.join(out_dir, "best.ckpt.json")
    scored = [(m["val_loss"], m["epoch"] + 1) for m in map(json.loads, kept)
              if m["val_loss"] is not None]
    best = min(scored, default=None)   # a tie keeps the first epoch, as `<` does when training
    try:
        with open(path) as f:
            saved = json.load(f)["extra"]["epoch"]
    except (OSError, ValueError, KeyError, TypeError):   # no best checkpoint that can be read
        saved = None
    return (best[0], path) if best and saved == best[1] else (float("inf"), None)


def _extra(cfg: TrainConfig, epoch: int) -> dict:
    model = next((name for name, spec in MODEL_TABLE.items() if spec == cfg.spec), "custom")
    return {"epoch": epoch, "model": model, "train_seed": cfg.seed}


def train_seed(path: str, extra: dict) -> int:
    """The seed the run that wrote a checkpoint split and shuffled by, from its extra."""
    seed = extra.get("train_seed")
    if type(seed) is not int:   # a JSON integer, not true or false
        raise ValueError(f"checkpoint {path}: extra has no integer 'train_seed', got {seed!r}")
    return seed


def train(ds: Dataset, cfg: TrainConfig, topo: HandTopology, out_dir: str | None = None,
          resume_from: str | None = None) -> TrainReport:
    """Split the dataset, build or resume the model, and fit.

    When resuming, cfg.epochs counts the additional epochs to run; the
    shuffle schedule continues from the checkpoint's epoch counter.
    """
    train_set, val_set = split(ds, cfg.seed)
    if resume_from is not None:
        params, extra = load_checkpoint(resume_from, topo)
        start_epoch = int(extra.get("epoch", 0))
        if params.spec != cfg.spec:
            raise ValueError("checkpoint architecture does not match the training config")
        if train_seed(resume_from, extra) != cfg.seed:
            raise ValueError(f"checkpoint seed {extra['train_seed']} is not the run's seed {cfg.seed}")
    else:
        params, start_epoch = build_from_spec(cfg.spec, topo, cfg.seed), 0
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    return fit_pairs(params, train_set, val_set, cfg, out_dir, start_epoch)


def evaluate(ckpt_path: str, pairs: PairSet, topology: HandTopology,
             batch_size: int = 100) -> float:
    """Mean MSE of a stored checkpoint over pairs; read-only."""
    params, _ = load_checkpoint(ckpt_path, topology)
    return mean_loss(params, pairs, batch_size)
