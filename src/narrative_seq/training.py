"""Dataset splitting, categorical cross-entropy, Adam, and the training loop.

The split is a seeded permutation carved into 80/20 train/test, with 10% of
the train portion held out for validation. By default the holdout is drawn
once and evaluated every epoch so curves are comparable across epochs; the
``revalidate_per_epoch`` option re-draws it each epoch instead.

Gradients are reduced as the batch mean, clipped to a global norm, then fed
to Adam with bias correction. Everything is deterministic given the config
seed: per-epoch shuffles come from seed substreams, never global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset_io import EncodedDataset
from .errors import DataError, DimensionError, NumericError
from .neural_layers import (
    ModelSpec,
    ParamDict,
    init_params,
    model_backward,
    model_forward,
    predict_classes,
    predict_proba,
)
from .tensor_core import SeededRng
from .text_pipeline import labels_to_one_hot

LOSS_FLOOR = 1e-12

# Substream tags for SeededRng; fixed so runs stay reproducible.
_TAG_SPLIT = 1
_TAG_INIT = 2
_TAG_SHUFFLE = 3
_TAG_HOLDOUT = 4


@dataclass(frozen=True)
class SplitSpec:
    """Seeded 80/20 split with a 10% validation holdout from the train side."""

    seed: int = 0
    test_fraction: float = 0.20
    validation_fraction_of_train: float = 0.10

    def __post_init__(self):
        for name in ("test_fraction", "validation_fraction_of_train"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 5.0
    seed: int = 0
    revalidate_per_epoch: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size", "learning_rate", "clip_norm", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(
                    f"{name} must lie strictly between 0 and 1, got {getattr(self, name)!r}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: ParamDict
    v: ParamDict
    t: int = 0

    @classmethod
    def initialize(cls, params: ParamDict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


TrainingHistory = list[EpochStats]


def split_dataset(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train, validation, test) index arrays partitioning 0..n-1.

    The permutation is seeded; the last 20% (rounded down) becomes test, the
    last 10% (rounded down) of the remainder becomes validation.
    """
    if n < 10:
        raise DataError(f"need at least 10 records to split, got {n}")
    perm = SeededRng(spec.seed, _TAG_SPLIT).permutation(n)
    n_test = int(n * spec.test_fraction)
    test = perm[n - n_test:]
    remainder = perm[: n - n_test]
    n_val = int(len(remainder) * spec.validation_fraction_of_train)
    validation = remainder[len(remainder) - n_val:]
    train = remainder[: len(remainder) - n_val]
    return train, validation, test


def cross_entropy(probs: np.ndarray, label: np.ndarray) -> float:
    """-ln(p_true) floored at 1e-12 so a confident miss stays finite."""
    p_true = float(np.dot(np.asarray(probs, dtype=np.float64), np.asarray(label)))
    return -math.log(max(p_true, LOSS_FLOOR))


def batch_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean floored cross-entropy over a batch; labels are integer codes."""
    p_true = probs[np.arange(probs.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(p_true, LOSS_FLOOR))))


def clip_gradients(grads: ParamDict, clip_norm: float) -> float:
    """Scale all gradients in place so their global norm is at most
    ``clip_norm``; returns the pre-clip global norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_update(params: ParamDict, grads: ParamDict, state: AdamState,
                config: TrainConfig) -> tuple[ParamDict, AdamState]:
    """One bias-corrected Adam step over every parameter tensor, in place.

    The step counter increments exactly once per call. Gradients are
    expected to be clipped already.
    """
    if grads.keys() != params.keys():
        raise DimensionError(
            f"gradient names {sorted(grads)} do not match parameters {sorted(params)}"
        )
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise DimensionError(
                f"gradient {name} has shape {g.shape}, parameter has "
                f"{params[name].shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        params[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return params, state


def score_records(spec: ModelSpec, params: ParamDict, dataset: EncodedDataset,
                  indices: Sequence[int] | np.ndarray,
                  batch_size: int) -> tuple[np.ndarray, float]:
    """(predicted classes [n], summed floored cross-entropy) of frozen params
    over the given record indices, scored ``batch_size`` records at a time
    through the forward-only ``predict_proba``."""
    idx = np.asarray(indices)
    preds = np.empty(idx.size, dtype=np.int64)
    total_loss = 0.0
    for start in range(0, idx.size, batch_size):
        chunk = idx[start:start + batch_size]
        labels = dataset.labels[chunk].astype(np.int64)
        probs = predict_proba(dataset.sequences[chunk], spec, params)
        p_true = probs[np.arange(chunk.size), labels]
        total_loss += float(np.sum(-np.log(np.maximum(p_true, LOSS_FLOOR))))
        preds[start:start + chunk.size] = predict_classes(probs)
    return preds, total_loss


def evaluate_model(spec: ModelSpec, params: ParamDict, dataset: EncodedDataset,
                   indices: Sequence[int] | np.ndarray,
                   batch_size: int = 64) -> tuple[float, float]:
    """(mean loss, accuracy) of frozen params over the given record indices."""
    idx = np.asarray(indices)
    if idx.size == 0:
        return 0.0, 0.0
    preds, total_loss = score_records(spec, params, dataset, idx, batch_size)
    correct = int(np.sum(preds == dataset.labels[idx]))
    return total_loss / idx.size, correct / idx.size


def train_model(spec: ModelSpec, dataset: EncodedDataset, config: TrainConfig,
                split: SplitSpec) -> tuple[ParamDict, TrainingHistory]:
    """Train one architecture; returns final params and per-epoch history.

    Per epoch: shuffle the train indices with an epoch-derived seed, step
    through mini-batches (the last one may be short), backpropagate the
    batch-mean loss, clip, apply Adam, then evaluate train and validation
    loss/accuracy.
    """
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    train_idx, val_idx, _ = split_dataset(len(dataset), split)
    params = init_params(spec, dataset.vocab_size, SeededRng(config.seed, _TAG_INIT))
    state = AdamState.initialize(params)
    history: TrainingHistory = []
    holdout_pool = np.concatenate([train_idx, val_idx])

    for epoch in range(config.epochs):
        if config.revalidate_per_epoch:
            perm = SeededRng(config.seed, _TAG_HOLDOUT, epoch).permutation(
                holdout_pool.size
            )
            shuffled = holdout_pool[perm]
            n_val = int(shuffled.size * split.validation_fraction_of_train)
            epoch_val = shuffled[shuffled.size - n_val:]
            epoch_train = shuffled[: shuffled.size - n_val]
        else:
            epoch_train, epoch_val = train_idx, val_idx

        order = epoch_train[
            SeededRng(config.seed, _TAG_SHUFFLE, epoch).permutation(epoch_train.size)
        ]
        for batch_no, start in enumerate(range(0, order.size, config.batch_size)):
            batch = order[start:start + config.batch_size]
            labels = dataset.labels[batch].astype(np.int64)
            probs, cache = model_forward(dataset.sequences[batch], spec, params)
            loss = batch_cross_entropy(probs, labels)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch + 1}, batch {batch_no + 1} "
                    f"while training {spec.name!r}"
                )
            grads = model_backward(cache, labels_to_one_hot(labels), spec, params)
            clip_gradients(grads, config.clip_norm)
            adam_update(params, grads, state, config)
            # Release this batch's cache and gradients before the next
            # forward builds its own; holding both doubles peak memory at
            # long seq_len.
            del cache, grads

        train_loss, train_acc = evaluate_model(spec, params, dataset, epoch_train)
        val_loss, val_acc = evaluate_model(spec, params, dataset, epoch_val)
        history.append(
            EpochStats(
                train_loss=train_loss,
                train_accuracy=train_acc,
                val_loss=val_loss,
                val_accuracy=val_acc,
            )
        )

    return params, history


def history_to_csv(history: TrainingHistory) -> str:
    """CSV with one row per epoch, six decimal places."""
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for epoch, stats in enumerate(history, start=1):
        lines.append(
            f"{epoch},{stats.train_loss:.6f},{stats.train_accuracy:.6f},"
            f"{stats.val_loss:.6f},{stats.val_accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"
