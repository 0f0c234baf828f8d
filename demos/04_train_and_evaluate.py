#!/usr/bin/env python3
"""Walkthrough: train one model on the bundled corpus and evaluate it.

Runs at desk scale (short sequences, small widths, few epochs); the point is
the mechanics, not the score. On 200 records every model mostly learns the
majority class, which is exactly why the report prints the baseline.
"""

import tempfile
from pathlib import Path

from narrative_seq import (
    EncodedDataset,
    SplitSpec,
    TrainConfig,
    compute_metrics,
    confusion_matrix,
    load_checkpoint,
    save_checkpoint,
    train_model,
    write_encoded_dataset,
    write_vocab_sidecar,
)
from narrative_seq.dataset_io import ENCODED_FILENAME, VOCAB_FILENAME, vocab_fingerprint
from narrative_seq.evaluation import format_evaluation_summary
from narrative_seq.neural_layers import predict_classes, predict_proba
from narrative_seq.synthetic import generate_fixture_corpus
from narrative_seq.text_pipeline import preprocess_corpus
from narrative_seq.training import split_dataset
from narrative_seq.zoo import build_spec

records = generate_fixture_corpus()
sequences, labels, vocab = preprocess_corpus(records, vocab_size=400, seq_len=24)
dataset = EncodedDataset(sequences=sequences, labels=labels, vocab_size=vocab.size)
print(f"encoded {len(dataset)} records at seq_len={dataset.seq_len}, "
      f"vocab size {vocab.size}")

spec = build_spec("GRU", embedding_dim=16, hidden_units=16, dense_hidden_units=16)
config = TrainConfig(epochs=4, seed=11)
split = SplitSpec(seed=11)

params, history = train_model(spec, dataset, config, split)
# The train columns average the epoch's training batches, each measured
# before its update; the validation columns re-score the holdout after it.
print("\nper-epoch history:")
print("epoch  train_loss  train_acc  val_loss  val_acc")
for epoch, stats in enumerate(history, start=1):
    print(f"{epoch:>5}  {stats.train_loss:>10.4f}  {stats.train_accuracy:>9.4f}  "
          f"{stats.val_loss:>8.4f}  {stats.val_accuracy:>7.4f}")

# Evaluate on the held-out test indices (same seed -> same split).
_, _, test_idx = split_dataset(len(dataset), split)
probs = predict_proba(dataset.sequences[test_idx], spec, params)
preds = predict_classes(probs)
true = dataset.labels[test_idx].astype(int)

# One report holds the per-class metrics, accuracy, the majority-class
# baseline and both the weighted and the macro aggregates.
report = compute_metrics(confusion_matrix(preds, true))

print(f"\ntest-split evaluation ({len(test_idx)} records):")
print(format_evaluation_summary(report))

# Checkpoints pin the vocabulary they were trained against.
out = Path(tempfile.mkdtemp())
write_encoded_dataset(out / ENCODED_FILENAME, dataset)
write_vocab_sidecar(out / VOCAB_FILENAME, vocab)
fingerprint = vocab_fingerprint(out / VOCAB_FILENAME)
ckpt = out / "gru.nsck"
save_checkpoint(params, spec, fingerprint, ckpt)
loaded_spec, loaded_params = load_checkpoint(ckpt, fingerprint)
reread = predict_proba(dataset.sequences[test_idx], loaded_spec, loaded_params)
print(f"checkpoint round trip bit-identical: {(reread == probs).all()}")
print(f"artifacts in {out}")
