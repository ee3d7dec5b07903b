"""Supervised training over (input, joints-at-t+horizon) pairs."""
from __future__ import annotations

import json
import math
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .dataset import HORIZON, Dataset, PairSet, at_least, split
from .models import MODEL_TABLE, Manifest, ModelParams, ModelSpec, build_from_spec, \
    checkpoint_blob, forward_batch, load_checkpoint, predict, read_manifest, save_checkpoint
from .optim import AdamConfig, adam_step
from .tensor import NonFiniteError, backward, mse_loss
from .topology import HandTopology


@dataclass(frozen=True)
class TrainConfig:
    """A training recipe; the counts and the seed are ints, not bools, as a checkpoint records them."""
    batch_size: int = 100
    epochs: int = 200            # desk-scale default; full-scale runs pass 5000
    adam: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0
    checkpoint_every: int = 0    # 0 = only best + final
    spec: ModelSpec = MODEL_TABLE["III"]

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 1), ("checkpoint_every", 0), ("seed", 0)):
            at_least(name, getattr(self, name), least)


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
    """Mean MSE over all pairs, computed in batches off the tape (`predict`)."""
    total = 0.0
    for s in range(0, len(pairs), batch_size):
        batch = pairs[s:s + batch_size]
        diff = predict(params, batch.tactile, batch.aux()) - batch.targets
        total += float((diff * diff).sum())
    return total / (len(pairs) * pairs.targets.shape[1])


def fit_pairs(params: ModelParams, train_set: PairSet, val_set: PairSet | None,
              cfg: TrainConfig, out_dir: str | None = None, start_epoch: int = 0,
              best_val: float = math.inf, target_length: int | None = None) -> TrainReport:
    """Run cfg.epochs epochs starting at start_epoch, writing into out_dir (made if missing).

    Shuffle order for epoch e is seeded by (cfg.seed, e), so resuming
    from a checkpoint replays exactly the batches a straight-through run
    would have seen.  An epoch whose val loss beats best_val writes the best
    checkpoint.  Every checkpoint records the recipe (see `recipe`).
    """
    n = len(train_set)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_path = final_path = None
    model = next((name for name, spec in MODEL_TABLE.items() if spec == cfg.spec), "custom")

    def save(name: str, epoch: int) -> str:
        path = os.path.join(out_dir, name)
        save_checkpoint(params, path, extra={
            "epoch": epoch, "model": model, "train_seed": cfg.seed, "target_length": target_length,
            "batch_size": cfg.batch_size, "lr": cfg.adam.learning_rate,
            "best_val": best_val if best_val < math.inf else None})
        return path

    metrics_path = os.path.join(out_dir, "metrics.ndjson") if out_dir else None
    if metrics_path:
        os.makedirs(out_dir, exist_ok=True)
        kept = _metrics_before(metrics_path, start_epoch)
        with open(metrics_path, "w") as f:
            f.writelines(kept)
        best_path = _best_kept(out_dir, start_epoch, best_val)

    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        e0 = time.monotonic()
        perm = np.random.default_rng((cfg.seed, epoch)).permutation(n)
        sq_sum = 0.0
        for b, s in enumerate(range(0, n, cfg.batch_size)):
            batch = train_set[perm[s:s + cfg.batch_size]]
            try:
                pred = forward_batch(params, batch.tactile, batch.aux())
                loss = mse_loss(pred, batch.targets)
            except NonFiniteError as e:
                raise NonFiniteError(
                    f"non-finite training loss at epoch {epoch}, batch {b}: {e}") from e
            backward(loss)
            adam_step(params.parameters(), cfg.adam)
            sq_sum += float(loss.data) * len(batch)
        train_loss = sq_sum / n
        train_losses.append(train_loss)

        val_loss = mean_loss(params, val_set, cfg.batch_size) if val_set is not None else None
        if val_loss is not None:
            val_losses.append(val_loss)
            if out_dir and val_loss < best_val:
                best_val = val_loss
                best_path = save("best.ckpt.json", epoch + 1)
        if metrics_path:
            with open(metrics_path, "a") as f:
                f.write(json.dumps({"epoch": epoch, "train_loss": train_loss,
                                    "val_loss": val_loss,
                                    "seconds": time.monotonic() - e0}) + "\n")
        if out_dir and cfg.checkpoint_every and (epoch + 1 - start_epoch) % cfg.checkpoint_every == 0:
            save(f"epoch{epoch + 1:06d}.ckpt.json", epoch + 1)

    if out_dir:
        final_path = save("final.ckpt.json", start_epoch + cfg.epochs)
    return TrainReport(train_losses=train_losses, val_losses=val_losses,
                       final_checkpoint=final_path, best_checkpoint=best_path,
                       best_val=best_val, start_epoch=start_epoch)


def _metrics_before(path: str, epoch: int) -> list[str]:
    """Lines of an earlier run's metrics for epochs before `epoch`.

    A fresh run (epoch 0) keeps none and a resumed one keeps the history
    up to its checkpoint, so the file never mixes two runs.  A line cut off
    mid-write (no newline), or not a JSON object with an integer epoch once
    read as UTF-8 with bad bytes replaced, is not kept.
    """
    if epoch == 0 or not os.path.exists(path):
        return []
    kept = []
    with open(path, errors="replace") as f:
        for line in f:
            with suppress(ValueError):
                record = json.loads(line)
                if line.endswith("\n") and isinstance(record, dict) \
                        and type(record.get("epoch")) is int and record["epoch"] < epoch:
                    kept.append(line)
    return kept


def _best_kept(out_dir: str, epoch: int, best_val: float) -> str | None:
    """best.ckpt.json if it loads and its extra holds best_val from no later epoch, else removed."""
    path = os.path.join(out_dir, "best.ckpt.json")
    with suppress(OSError, ValueError):   # a manifest or blob that does not load
        extra = read_manifest(path).extra
        saved, at = extra.get("best_val"), extra.get("epoch")
        if (math.inf if saved is None else saved) == best_val and type(at) is int and at <= epoch:
            return path
    for stale in (path, checkpoint_blob(path)):
        with suppress(FileNotFoundError):
            os.remove(stale)
    return None


# a trial yields pairs only with more frames than the horizon
LEAST_TARGET_LENGTH = HORIZON + 1


def recipe(path: str, extra: dict) -> dict:
    """A checkpoint's extra once its recipe is checked, a null best_val (no val loss yet) read
    as +inf.  The recipe's values come from a file, so ValueError names the file and the
    missing key, or the rule a value breaks.
    """
    try:   # TrainConfig owns train_seed, batch_size and lr (its seed, batch_size, learning_rate)
        at_least("epoch", extra["epoch"], 0)
        at_least("target_length", extra["target_length"], LEAST_TARGET_LENGTH)
        TrainConfig(batch_size=extra["batch_size"], seed=extra["train_seed"],
                    adam=AdamConfig(learning_rate=extra["lr"]))
        best = extra["best_val"]
        if best is not None:
            at_least("best_val", best, 0.0)
    except KeyError as e:
        raise ValueError(f"checkpoint {path}: extra has no {e}") from None
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: extra {e}") from None
    return extra | {"best_val": math.inf if best is None else best}


def resume_point(path: str, topology: HandTopology | None = None) -> Manifest:
    """The manifest of a checkpoint to resume from (`read_manifest`), its extra the checked
    `recipe`; the blob is left unread."""
    man = read_manifest(path, topology)
    return man._replace(extra=recipe(path, man.extra))


def train(ds: Dataset, cfg: TrainConfig, topo: HandTopology, out_dir: str | None = None,
          resume_from: Manifest | None = None) -> TrainReport:
    """Split the dataset, build or resume the model, and fit.

    `resume_from` is a `resume_point`; cfg.epochs then counts the additional epochs
    to run, and the shuffle schedule and the best val loss continue from the
    checkpoint's.  The caller sees that cfg, topo and ds.target_length are the
    checkpoint's.
    """
    train_set, val_set = split(ds, cfg.seed)
    if resume_from is not None:
        params = resume_from.model()
        start_epoch, best_val = resume_from.extra["epoch"], resume_from.extra["best_val"]
    else:
        params, start_epoch, best_val = build_from_spec(cfg.spec, topo, cfg.seed), 0, math.inf
    return fit_pairs(params, train_set, val_set, cfg, out_dir, start_epoch, best_val,
                     ds.target_length)


def evaluate(ckpt_path: str, pairs: PairSet, topology: HandTopology,
             batch_size: int = 100) -> float:
    """Mean MSE of a stored checkpoint over pairs; reads only its weights."""
    params, _ = load_checkpoint(ckpt_path, topology, weights_only=True)
    return mean_loss(params, pairs, batch_size)
