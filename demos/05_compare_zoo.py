#!/usr/bin/env python3
"""Walkthrough: the experiment harness comparing several architectures on
one shared split, with checkpoints, histories, metrics, and a manifest.

Uses three of the ten zoo models at small widths to stay quick; drop the
``model_names`` key to run all ten. With more than one CPU, ``run_experiment``
trains the models in worker processes started with ``spawn``, which import
the main module again: so the walkthrough runs under a ``__main__`` guard.
"""

import json
import tempfile
from pathlib import Path

from narrative_seq import EncodedDataset, config_from_dict, run_experiment
from narrative_seq.dataset_io import (
    ENCODED_FILENAME,
    VOCAB_FILENAME,
    write_encoded_dataset,
    write_vocab_sidecar,
)
from narrative_seq.synthetic import generate_fixture_corpus
from narrative_seq.text_pipeline import preprocess_corpus


def main() -> None:
    workdir = Path(tempfile.mkdtemp())
    data_dir = workdir / "encoded"
    data_dir.mkdir()

    records = generate_fixture_corpus()
    sequences, labels, vocab = preprocess_corpus(records, vocab_size=400, seq_len=24)
    write_encoded_dataset(
        data_dir / ENCODED_FILENAME,
        EncodedDataset(sequences=sequences, labels=labels, vocab_size=vocab.size),
    )
    write_vocab_sidecar(data_dir / VOCAB_FILENAME, vocab)

    # The config holds only run settings; the dataset and output directories
    # are arguments of run_experiment.
    config = config_from_dict({
        "model_names": ["sRNN", "GRU", "GRU-LSTM"],
        "epochs": 3,
        "seed": 42,
        "embedding_dim": 16,
        "hidden_units": 16,
        "dense_hidden_units": 16,
    })

    manifest = run_experiment(config, data_dir, workdir / "results")

    print("combined results table:")
    print((workdir / "results" / "results_table.txt").read_text())

    print("model status:")
    for name, status in manifest["models"].items():
        print(f"  {name:<10} {status['status']}")

    print("\nartifacts with content hashes:")
    for rel, digest in manifest["files"].items():
        print(f"  {digest[:12]}  {rel}")

    metrics = json.loads((workdir / "results" / "GRU" / "metrics.json").read_text())
    print(f"\nGRU accuracy {metrics['accuracy']:.4f} vs majority baseline "
          f"{metrics['majority_baseline']:.4f}")
    print(f"everything under {workdir}/results")


if __name__ == "__main__":
    main()
