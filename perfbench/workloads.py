"""The three benchmark workloads: input generation from a seed, one timed
iteration, and the output checks that decide whether an operation failed.

Each workload's ``setup`` writes every input the program sees into a work
directory; ``iterate`` runs the timed calls once and returns an
``Iteration``. The program only ever receives the generated files and
arrays. Inputs come from a ``numpy`` PCG64 generator seeded with the
workload seed, so one seed always gives byte-identical inputs on a given
numpy build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from narrative_seq import checkpoint, cli, dataset_io, training, zoo
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.neural_layers import init_params
from narrative_seq.synthetic import NTSB_2005_2020_DAMAGE_COUNTS
from narrative_seq.tensor_core import SeededRng
from narrative_seq.text_pipeline import (
    Vocabulary,
    default_lemma_exceptions,
    default_stoplist,
)

# Paper shapes: seq_len 2000, vocabulary 5000, E = H = D = 64 (the zoo
# defaults), batch 32.
PAPER_SEQ_LEN = 2000
PAPER_VOCAB = 5000
TRAIN_MODELS = ("LSTM", "BLSTM", "GRU", "sRNN")
# 45 records split 33 train / 3 validation / 9 test: two optimizer steps
# (32 + 1) plus the epoch-end history evaluation per model.
TRAIN_RECORDS = 45
EVAL_MODEL = "GRU-LSTM-sRNN"
# Three full batches of the CLI's fixed evaluation batch of 64.
EVAL_RECORDS = 192

# Desk shapes, as in the README quick start: seq_len 24, E = H = D = 16.
DESK_RECORDS = 2000
DESK_WORDS = 400
DESK_SEQ_LEN = 24
DESK_VOCAB = 3000
DESK_WIDTH = 16
DESK_LEXICON = 6000

_LABEL_SPELLINGS = {
    DamageLabel.DESTROYED: ("Destroyed", "DSTR", "destroyed"),
    DamageLabel.SUBSTANTIAL: ("Substantial", "SUBS", "substantial"),
    DamageLabel.MINOR: ("Minor", "MINR", "minor"),
    DamageLabel.NO_DAMAGE: ("None", "NONE REPORTED", "none"),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _class_counts(total: int) -> dict[DamageLabel, int]:
    """``total`` split in the NTSB 2005-2020 damage ratios (largest remainder)."""
    counts = NTSB_2005_2020_DAMAGE_COUNTS
    denom = sum(counts.values())
    exact = {label: total * c / denom for label, c in counts.items()}
    out = {label: int(v) for label, v in exact.items()}
    by_remainder = sorted(exact, key=lambda lb: exact[lb] - out[lb], reverse=True)
    for label in by_remainder[: total - sum(out.values())]:
        out[label] += 1
    return out


def _labels(rng: np.random.Generator, total: int) -> np.ndarray:
    labels = np.concatenate([
        np.full(n, int(label), dtype=np.uint8) for label, n in _class_counts(total).items()
    ])
    return labels[rng.permutation(total)]


def _random_dataset(seed: int, n: int) -> dataset_io.EncodedDataset:
    rng = _rng(seed, 1)
    sequences = rng.integers(2, PAPER_VOCAB, size=(n, PAPER_SEQ_LEN), dtype=np.uint32)
    return dataset_io.EncodedDataset(
        sequences=sequences, labels=_labels(rng, n), vocab_size=PAPER_VOCAB
    )


def _paper_vocab() -> Vocabulary:
    tokens = tuple(f"w{i:04d}" for i in range(PAPER_VOCAB - 2))
    return Vocabulary(tokens=tokens, frequencies={t: PAPER_VOCAB - i for i, t in enumerate(tokens)},
                      max_size=PAPER_VOCAB)


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, tensor in params.items():
        h.update(f"{name}:{tensor.shape}:{tensor.dtype.str}\n".encode())
        h.update(np.ascontiguousarray(tensor).tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _history_finite(path: Path) -> bool:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return bool(rows) and all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def _cli(argv: list[str]) -> int:
    """Exit code of one in-process CLI command; a crash counts as exit 1.

    The CLI prints its report to stdout; the benchmark's own stdout must end
    with the result line, so the report is captured and dropped.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # recorded as a failed operation
        traceback.print_exc()
        return 1


@dataclass
class Iteration:
    """One timed pass over a workload's operations."""

    wall_s: float = 0.0
    tokens: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    parts_s: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class TrainPaper:
    """``training.train_model``, one epoch, on four single-layer models."""

    name = "train_paper"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        self.dataset = _random_dataset(self.seed, TRAIN_RECORDS)
        self.split = training.SplitSpec(seed=self.seed)
        self.config = training.TrainConfig(epochs=1, seed=self.seed)
        self.n_train = training.split_dataset(TRAIN_RECORDS, self.split)[0].size

    def iterate(self) -> Iteration:
        it = Iteration()
        for model in TRAIN_MODELS:
            spec = zoo.build_spec(model)
            t0 = time.perf_counter()
            try:
                params, history = training.train_model(spec, self.dataset, self.config, self.split)
            except Exception as exc:  # recorded as a failed operation
                it.wall_s += time.perf_counter() - t0
                it.check(False, f"{model}: train_model raised {exc!r}")
                continue
            it.wall_s += time.perf_counter() - t0
            it.tokens += self.n_train * PAPER_SEQ_LEN
            it.check(True, f"{model}: train_model")
            losses = [v for s in history for v in (s.train_loss, s.val_loss)]
            it.check(len(history) == 1 and all(math.isfinite(v) for v in losses),
                     f"{model}: non-finite or missing epoch loss")
            it.check(all(np.isfinite(p).all() for p in params.values()),
                     f"{model}: non-finite parameters")
            it.digests[f"params.{model}"] = params_digest(params)
        return it


class EvalPaper:
    """CLI ``evaluate --split all`` on a seeded-init GRU-LSTM-sRNN checkpoint."""

    name = "eval_paper"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.data = work / "encoded"
        self.model_file = work / "model.nsck"
        self.out = work / "eval"

    def setup(self) -> None:
        self.data.mkdir(parents=True, exist_ok=True)
        dataset_io.write_encoded_dataset(self.data / dataset_io.ENCODED_FILENAME,
                                         _random_dataset(self.seed, EVAL_RECORDS))
        dataset_io.write_vocab_sidecar(self.data / dataset_io.VOCAB_FILENAME, _paper_vocab())
        fingerprint = dataset_io.vocab_fingerprint(self.data / dataset_io.VOCAB_FILENAME)
        spec = zoo.build_spec(EVAL_MODEL)
        params = init_params(spec, PAPER_VOCAB, SeededRng(self.seed, 9))
        checkpoint.save_checkpoint(params, spec, fingerprint, self.model_file)

    def iterate(self) -> Iteration:
        it = Iteration()
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["--seed", str(self.seed), "evaluate", "--model-file", str(self.model_file),
                "--data", str(self.data), "--split", "all", "--out", str(self.out)]
        t0 = time.perf_counter()
        code = _cli(argv)
        it.wall_s = time.perf_counter() - t0
        if not it.check(code == 0, f"evaluate exited {code}"):
            return it
        it.tokens = EVAL_RECORDS * PAPER_SEQ_LEN
        metrics_path = self.out / "metrics.json"
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        total = int(np.sum(metrics["confusion"]))
        it.check(total == EVAL_RECORDS,
                 f"confusion total {total} != {EVAL_RECORDS} records scored")
        it.check(_all_finite(metrics), "non-finite value in metrics.json")
        it.digests["metrics.json"] = file_digest(metrics_path)
        return it


class PipelineDesk:
    """CLI ``preprocess`` then ``compare`` over the whole zoo, one epoch."""

    name = "pipeline_desk"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.corpus = work / "corpus.json"
        self.config = work / "config.json"
        self.encoded = work / "encoded"
        self.results = work / "results"

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.corpus.write_text(json.dumps(desk_corpus(self.seed)), encoding="utf-8")
        self.config.write_text(json.dumps({
            "embedding_dim": DESK_WIDTH, "hidden_units": DESK_WIDTH,
            "dense_hidden_units": DESK_WIDTH, "seed": self.seed,
        }), encoding="utf-8")
        self.n_test = int(DESK_RECORDS * training.SplitSpec().test_fraction)

    def iterate(self) -> Iteration:
        it = Iteration()
        shutil.rmtree(self.encoded, ignore_errors=True)
        shutil.rmtree(self.results, ignore_errors=True)
        t0 = time.perf_counter()
        code = _cli(["preprocess", "--data", str(self.corpus), "--out", str(self.encoded),
                     "--vocab-size", str(DESK_VOCAB), "--seq-len", str(DESK_SEQ_LEN)])
        t1 = time.perf_counter()
        it.parts_s["preprocess_s"] = t1 - t0
        if not it.check(code == 0, f"preprocess exited {code}"):
            it.wall_s = t1 - t0
            return it
        code = _cli(["--config", str(self.config), "compare", "--data", str(self.encoded),
                     "--out", str(self.results), "--epochs", "1"])
        t2 = time.perf_counter()
        it.parts_s["compare_s"] = t2 - t1
        it.wall_s = t2 - t0
        if not it.check(code == 0, f"compare exited {code}"):
            return it
        manifest_path = self.results / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        n_train = DESK_RECORDS - self.n_test
        n_train -= int(n_train * training.SplitSpec().validation_fraction_of_train)
        for model in zoo.ZOO_NAMES:
            status = manifest["models"].get(model, {}).get("status")
            if not it.check(status == "ok", f"{model}: compare status {status}"):
                continue
            it.tokens += n_train * DESK_SEQ_LEN
            metrics = json.loads((self.results / model / "metrics.json").read_text(encoding="utf-8"))
            total = int(np.sum(metrics["confusion"]))
            it.check(total == self.n_test,
                     f"{model}: confusion total {total} != {self.n_test} test records")
            it.check(_all_finite(metrics) and _history_finite(self.results / model / "history.csv"),
                     f"{model}: non-finite metric or loss")
        it.digests["manifest.json"] = file_digest(manifest_path)
        return it


def _lexicon(rng: np.random.Generator) -> list[str]:
    """Distinct pronounceable stems; some end in y, ss or a consonant so the
    ies/sses/s/ing/ed lemma rules all have something to fire on."""
    onsets = np.array(list("bcdfghjklmnprstvwz") + ["br", "cl", "st", "tr", "pl", "gr"])
    vowels = np.array(list("aeiou") + ["ai", "ou", "ee"])
    endings = np.array(["", "y", "ss", "t", "n", "r", "k", "l", "m", "d"])
    words: dict[str, None] = {}
    while len(words) < DESK_LEXICON:
        n_syl = rng.integers(1, 4)
        stem = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(n_syl))
        words.setdefault(stem + rng.choice(endings))
    return list(words)


def _surface_forms(stem: str) -> list[str]:
    if stem.endswith("y"):
        return [stem, stem[:-1] + "ies", stem + "ing", stem[:-1] + "ied"]
    if stem.endswith("ss"):
        return [stem, stem + "es", stem + "ing", stem + "ed"]
    return [stem, stem + "s", stem + "ing", stem + "ed"]


def desk_corpus(seed: int) -> list[dict]:
    """About 2,000 completed reports of about 400 words in the NTSB damage
    ratios, plus incomplete investigations and malformed entries that the
    loader must skip.

    Words are Zipf-distributed over a synthetic lexicon with inflections,
    mixed case, punctuation, stopwords and irregular forms, so every
    normalize, stopword and lemma rule fires.
    """
    rng = _rng(seed, 2)
    lexicon = _lexicon(rng)
    forms = np.array([f for stem in lexicon for f in _surface_forms(stem)], dtype=object)
    n_forms = 4
    stopwords = np.array(sorted(default_stoplist()), dtype=object)
    irregular = np.array(sorted(default_lemma_exceptions()), dtype=object)
    zipf = 1.0 / np.arange(1, len(lexicon) + 1) ** 1.07
    zipf /= zipf.sum()

    punct = np.array(["", ",", ".", ";", ":", "'s", ")", "-", "/"], dtype=object)
    punct_p = np.array([0.86, 0.05, 0.04, 0.01, 0.01, 0.01, 0.005, 0.01, 0.005])
    punct_p /= punct_p.sum()

    def words(n: int) -> np.ndarray:
        kind = rng.random(n)
        out = forms[rng.choice(len(lexicon), size=n, p=zipf) * n_forms
                    + rng.integers(0, n_forms, size=n)]
        is_stop = kind < 0.30
        out[is_stop] = stopwords[rng.integers(0, stopwords.size, size=int(is_stop.sum()))]
        is_irr = (kind >= 0.30) & (kind < 0.33)
        out[is_irr] = irregular[rng.integers(0, irregular.size, size=int(is_irr.sum()))]
        case = rng.random(n)
        out[case < 0.10] = np.char.capitalize(out[case < 0.10].astype(str)).astype(object)
        out[case > 0.98] = np.char.upper(out[case > 0.98].astype(str)).astype(object)
        return out + punct[rng.choice(punct.size, size=n, p=punct_p)]

    # Generated in chunks so the benchmark's own peak memory stays below the
    # program's: peak_rss_mb covers the whole process.
    lengths = rng.integers(DESK_WORDS - 40, DESK_WORDS + 41, size=DESK_RECORDS)
    narratives: list[str] = []
    for lo in range(0, DESK_RECORDS, 100):
        chunk = lengths[lo:lo + 100]
        bounds = np.concatenate([[0], np.cumsum(chunk)])
        text = words(int(bounds[-1]))
        narratives += [" ".join(text[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    labels = _labels(rng, DESK_RECORDS)
    entries: list[dict] = []
    for i in range(DESK_RECORDS):
        label = DamageLabel(int(labels[i]))
        entries.append({
            "report_id": f"BENCH{seed}-{i:05d}",
            "narrative": narratives[i] + f" N{100 + i % 900}AB.",
            "damage_level": _LABEL_SPELLINGS[label][i % 3],
            "investigation_complete": True,
        })
    # 2% incomplete investigations (filtered after loading) and 1% malformed
    # entries (skipped with a warning by the loader).
    n_extra = DESK_RECORDS // 50
    for j in range(n_extra):
        entries.append({"report_id": f"BENCH{seed}-open-{j:04d}",
                        "narrative": entries[j]["narrative"],
                        "damage_level": "Substantial", "investigation_complete": False})
    bad = ({"damage_level": "Partial"}, {"investigation_complete": "yes"}, {"narrative": None})
    for j in range(n_extra // 2):
        entry = {"report_id": f"BENCH{seed}-bad-{j:04d}", "narrative": "gear collapsed",
                 "damage_level": "Minor", "investigation_complete": True}
        entry.update(bad[j % len(bad)])
        entries.append(entry)
    order = rng.permutation(len(entries))
    return [entries[i] for i in order]


WORKLOADS = {w.name: w for w in (TrainPaper, EvalPaper, PipelineDesk)}
