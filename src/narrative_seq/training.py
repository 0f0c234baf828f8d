"""Dataset splitting, categorical cross-entropy, Adam, and the training loop.

The split is the paper's protocol, fixed: a seeded permutation carved into
80/20 train/test, with 10% of the train portion held out for validation.
Only its seed varies. ``split_dataset`` refuses a dataset too small to give
every split a record (``MIN_SPLIT_RECORDS``), so ``train_model`` refuses it
before it trains; ``split_indices`` is the lookup from a split name to its
records. The holdout is drawn once and re-scored with frozen parameters
after every epoch, so curves are comparable across epochs and no validation
record is ever trained on.

The train loss and accuracy of an epoch come from the training batches' own
forwards: the record-weighted mean of the batch losses and the share of
records the batches predicted right, each batch measured with the
parameters as they stood before its update. The train split is not
re-scored.

Gradients are reduced as the batch mean, clipped to the global norm
``CLIP_NORM``, then fed to Adam with bias correction at the constants
``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``: the paper varies the
architecture, not the optimizer, so only the learning rate is a setting.
Everything is deterministic given the config seed: per-epoch shuffles come
from seed substreams, never global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

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

LOSS_FLOOR = 1e-12

# Adam's moment decay rates and denominator guard, at the values Kingma & Ba
# recommend (arXiv:1412.6980), and the global gradient-norm clip.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
CLIP_NORM = 5.0

# Records per forward-only scoring batch: the epoch-end validation score,
# evaluate and compare all score through score_records at this size.
SCORE_BATCH = 64

# Substream tags for SeededRng; fixed so runs stay reproducible.
_TAG_SPLIT = 1
_TAG_INIT = 2
_TAG_SHUFFLE = 3


@dataclass(frozen=True)
class SplitSpec:
    """The paper's seeded 80/20 train/test split, with 10% of the train side
    held out for validation. The fractions are constants; only the seed
    varies."""

    seed: int = 0
    test_fraction: ClassVar[float] = 0.20
    validation_fraction_of_train: ClassVar[float] = 0.10


# The fewest records that leave every split of SplitSpec non-empty: 11
# records give a validation split of 0, 12 give 9/1/2.
MIN_SPLIT_RECORDS = 12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "learning_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
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
    last 10% (rounded down) of the remainder becomes validation. A dataset
    of fewer than ``MIN_SPLIT_RECORDS`` records would leave a split empty
    and is a ``DataError``.
    """
    if n < MIN_SPLIT_RECORDS:
        raise DataError(f"need at least {MIN_SPLIT_RECORDS} records to split, got {n}")
    perm = SeededRng(spec.seed, _TAG_SPLIT).permutation(n)
    n_test = int(n * spec.test_fraction)
    test = perm[n - n_test:]
    remainder = perm[: n - n_test]
    n_val = int(len(remainder) * spec.validation_fraction_of_train)
    validation = remainder[len(remainder) - n_val:]
    train = remainder[: len(remainder) - n_val]
    return train, validation, test


SPLIT_NAMES = ("train", "validation", "test", "all")


def split_indices(n: int, spec: SplitSpec, name: str) -> np.ndarray:
    """The record indices of split ``name`` (one of ``SPLIT_NAMES``) of an
    ``n``-record dataset; refused like ``split_dataset``."""
    return dict(zip(SPLIT_NAMES, (*split_dataset(n, spec), np.arange(n))))[name]


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-record loss -ln(p_true) of ``probs`` [B, 4] against integer class
    codes ``labels`` [B], with p_true floored at 1e-12 so a confident miss
    stays finite."""
    p_true = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(p_true, LOSS_FLOOR))


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
    """One bias-corrected Adam step over every parameter tensor, in place,
    at ``config.learning_rate`` with ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPSILON``.

    The step counter increments exactly once per call. Gradients are
    expected to be clipped already.
    """
    if grads.keys() != params.keys():
        raise DimensionError(
            f"gradient names {sorted(grads)} do not match parameters {sorted(params)}"
        )
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise DimensionError(
                f"gradient {name} has shape {g.shape}, parameter has "
                f"{params[name].shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        params[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params, state


def score_records(spec: ModelSpec, params: ParamDict, dataset: EncodedDataset,
                  indices: Sequence[int] | np.ndarray) -> tuple[np.ndarray, float]:
    """(predicted classes [n], summed floored cross-entropy) of frozen params
    over the given record indices, scored ``SCORE_BATCH`` records at a time
    through the forward-only ``predict_proba``."""
    idx = np.asarray(indices)
    preds = np.empty(idx.size, dtype=np.int64)
    total_loss = 0.0
    for start in range(0, idx.size, SCORE_BATCH):
        chunk = idx[start:start + SCORE_BATCH]
        labels = dataset.labels[chunk].astype(np.int64)
        probs = predict_proba(dataset.sequences[chunk], spec, params)
        total_loss += float(np.sum(cross_entropy(probs, labels)))
        preds[start:start + chunk.size] = predict_classes(probs)
    return preds, total_loss


def evaluate_model(spec: ModelSpec, params: ParamDict, dataset: EncodedDataset,
                   indices: Sequence[int] | np.ndarray) -> tuple[float, float]:
    """(mean loss, accuracy) of frozen params over the given record indices."""
    idx = np.asarray(indices)
    preds, total_loss = score_records(spec, params, dataset, idx)
    correct = int(np.sum(preds == dataset.labels[idx]))
    return total_loss / idx.size, correct / idx.size


def train_model(spec: ModelSpec, dataset: EncodedDataset, config: TrainConfig,
                split: SplitSpec) -> tuple[ParamDict, TrainingHistory]:
    """Train one architecture; returns final params and per-epoch history.

    Refuses a dataset too small to split with a ``DataError`` before
    training. Per epoch: shuffle the train indices with an epoch-derived
    seed, step through mini-batches (the last one may be short),
    backpropagate the batch-mean loss, clip to ``CLIP_NORM`` and apply
    Adam. The epoch's train loss and accuracy are taken from those
    batch forwards; the validation holdout is then scored with the epoch's
    final params.
    """
    train_idx, val_idx, _ = split_dataset(len(dataset), split)
    params = init_params(spec, dataset.vocab_size, SeededRng(config.seed, _TAG_INIT))
    state = AdamState.initialize(params)
    history: TrainingHistory = []

    for epoch in range(config.epochs):
        order = train_idx[
            SeededRng(config.seed, _TAG_SHUFFLE, epoch).permutation(train_idx.size)
        ]
        loss_sum, hits = 0.0, 0
        for batch_no, start in enumerate(range(0, order.size, config.batch_size)):
            batch = order[start:start + config.batch_size]
            labels = dataset.labels[batch].astype(np.int64)
            probs, cache = model_forward(dataset.sequences[batch], spec, params)
            loss = float(np.mean(cross_entropy(probs, labels)))
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch + 1}, batch {batch_no + 1} "
                    f"while training {spec.name!r}"
                )
            loss_sum += loss * batch.size
            hits += int(np.sum(predict_classes(probs) == labels))
            grads = model_backward(cache, labels, spec, params)
            clip_gradients(grads, CLIP_NORM)
            adam_update(params, grads, state, config)
            # Release this batch's cache and gradients before the next
            # forward builds its own; holding both doubles peak memory at
            # long seq_len.
            del cache, grads

        val_loss, val_acc = evaluate_model(spec, params, dataset, val_idx)
        history.append(
            EpochStats(
                train_loss=loss_sum / train_idx.size,
                train_accuracy=hits / train_idx.size,
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
