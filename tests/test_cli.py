"""End-to-end command-line checks, run in-process through cli.main for
speed with one subprocess smoke test for the installed entry point.
"""

import contextlib
import csv
import errno
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from narrative_seq import dataset_io, harness
from narrative_seq.checkpoint import MAGIC, save_checkpoint
from narrative_seq.cli import main
from narrative_seq.errors import NumericError
from narrative_seq.neural_layers import init_params, predict_proba
from narrative_seq.tensor_core import SeededRng
from narrative_seq.text_pipeline import preprocess_corpus
from narrative_seq.training import train_model
from narrative_seq.zoo import build_spec
from narrative_seq.synthetic import generate_fixture_corpus, records_to_json


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_corpus") / "corpus.json"
    path.write_text(records_to_json(generate_fixture_corpus()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def csv_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_csv_corpus") / "corpus.csv"
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["report_id", "narrative", "damage_level", "investigation_complete"])
        for r in generate_fixture_corpus():
            writer.writerow([r.report_id, r.narrative, r.damage_level.display_name,
                             str(r.investigation_complete).lower()])
    return path


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli() == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("ingest", "--nonsense") == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run_cli("ingest", "--data", str(tmp_path / "gone.json")) == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_model_is_data_error(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "enc"
        run_cli("preprocess", "--data", str(corpus_file), "--out", str(out),
                "--seq-len", "8", "--vocab-size", "50")
        capsys.readouterr()
        # LSTM-GRU is made of zoo layers but is not one of the ten zoo models.
        # train and compare refuse a name with the one message of zoo.build_spec.
        for model in ("CNN", "LSTM-GRU"):
            errors = []
            for argv in (["train", "--model", model], ["compare", "--models", model]):
                assert run_cli(*argv, "--data", str(out), "--out", str(tmp_path / "m")) == 2
                errors.append(capsys.readouterr().err)
                assert not (tmp_path / "m").exists()
            assert errors[0] == errors[1]
            assert errors[0].startswith(f"data error: unknown model name {model!r}; zoo models")

    def test_unknown_extension_needs_format(self, tmp_path):
        weird = tmp_path / "corpus.dat"
        weird.write_text("[]", encoding="utf-8")
        assert run_cli("ingest", "--data", str(weird)) == 2

    @pytest.mark.parametrize("name,body,command", [
        ("corpus.json", b'[{"x": "\xff\xfe"}]', "ingest"),
        ("corpus.csv", b"report_id,narrative\n1,\xff\xfe\n", "preprocess"),
    ], ids=["json", "csv"])
    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys, name, body, command):
        corpus = tmp_path / name
        corpus.write_bytes(body)
        out = ["--out", str(tmp_path / "enc")] if command == "preprocess" else []
        assert run_cli(command, "--data", str(corpus), *out) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(corpus) in err


class TestIngest:
    def test_prints_table_and_json(self, corpus_file, capsys):
        assert run_cli("ingest", "--data", str(corpus_file)) == 0
        out = capsys.readouterr().out
        assert "Damage level" in out and "Substantial" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["total"] == 200
        assert payload["counts"]["Substantial"] == 179

    def test_warning_count_on_stderr(self, tmp_path, capsys):
        entries = [
            {"report_id": "a", "narrative": "x", "damage_level": "Substantial",
             "investigation_complete": True},
            {"report_id": "b", "narrative": "x", "damage_level": "UNKNOWN",
             "investigation_complete": True},
        ]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        assert run_cli("ingest", "--data", str(path)) == 0
        captured = capsys.readouterr()
        assert "skipped 1" in captured.err


@pytest.fixture(scope="module")
def encoded_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("cli_encoded")
    code = run_cli(
        "preprocess", "--data", str(corpus_file), "--out", str(out),
        "--seq-len", "16", "--vocab-size", "200",
    )
    assert code == 0
    return out


def _drop_frequency(entries):
    del entries[3]["frequency"]
    return entries


def _skip_index(entries):
    for entry in entries[3:]:
        entry["index"] += 1
    return entries


_SIDECAR_MANGLES = {
    "sidecar-not-a-list": lambda entries: {"entries": entries},
    "sidecar-missing-key": _drop_frequency,
    "sidecar-index-gap": _skip_index,
}


class TestPipelineFlow:
    def test_preprocess_artifacts(self, encoded_dir):
        assert (encoded_dir / "encoded.nseq").exists()
        assert (encoded_dir / "vocab.json").exists()

    def test_train_then_evaluate(self, tmp_path, encoded_dir, capsys):
        model_dir = tmp_path / "model"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"embedding_dim": 8, "hidden_units": 8, "dense_hidden_units": 8}
        ))
        code = run_cli(
            "--config", str(config), "--seed", "3",
            "train", "--data", str(encoded_dir), "--model", "sRNN",
            "--out", str(model_dir), "--epochs", "2",
        )
        assert code == 0
        assert (model_dir / "checkpoint.nsck").exists()
        assert (model_dir / "history.csv").exists()
        capsys.readouterr()

        eval_dir = tmp_path / "eval"
        code = run_cli(
            "--config", str(config), "--seed", "3",
            "evaluate", "--model-file", str(model_dir / "checkpoint.nsck"),
            "--data", str(encoded_dir), "--split", "test", "--out", str(eval_dir),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out and "baseline" in out.lower()
        payload = json.loads((eval_dir / "metrics.json").read_text())
        assert set(payload["aggregates"]) == {"weighted", "macro"}

    def test_evaluate_rejects_foreign_checkpoint(self, tmp_path, encoded_dir,
                                                 corpus_file, capsys):
        # A checkpoint trained against a different vocabulary must refuse
        # to evaluate: its token ids mean different words.
        other = tmp_path / "other_enc"
        run_cli("preprocess", "--data", str(corpus_file), "--out", str(other),
                "--seq-len", "16", "--vocab-size", "50")
        model_dir = tmp_path / "other_model"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"embedding_dim": 8, "hidden_units": 8, "dense_hidden_units": 8}
        ))
        run_cli("--config", str(config), "train", "--data", str(other),
                "--model", "sRNN", "--out", str(model_dir), "--epochs", "1")
        capsys.readouterr()
        code = run_cli(
            "--config", str(config),
            "evaluate", "--model-file", str(model_dir / "checkpoint.nsck"),
            "--data", str(encoded_dir),
        )
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["token", "label", "vocab", *_SIDECAR_MANGLES])
    def test_evaluate_rejects_out_of_range_dataset(self, tmp_path, encoded_dir, field):
        # A record whose token id lies outside the vocabulary (or whose label
        # is not a damage level) fails at the reader with exit 2, not deep in
        # the forward pass with a traceback. So does a checkpoint whose
        # embedding has fewer rows than the dataset's vocabulary, and a
        # malformed vocab.json that the checkpoint is pinned to.
        data = tmp_path / "bad_enc"
        data.mkdir()
        sidecar = data / dataset_io.VOCAB_FILENAME
        shutil.copy(encoded_dir / dataset_io.VOCAB_FILENAME, sidecar)
        if field in _SIDECAR_MANGLES:
            entries = json.loads(sidecar.read_text(encoding="utf-8"))
            sidecar.write_text(json.dumps(_SIDECAR_MANGLES[field](entries)), encoding="utf-8")
        dataset = dataset_io.read_encoded_dataset(encoded_dir / dataset_io.ENCODED_FILENAME)
        if field == "token":
            dataset.sequences[-1, 0] = dataset.vocab_size
        elif field == "label":
            dataset.labels[-1] = 4
        dataset_io.write_encoded_dataset(data / dataset_io.ENCODED_FILENAME, dataset)
        spec = build_spec("sRNN", embedding_dim=4, hidden_units=4, dense_hidden_units=4)
        model = tmp_path / "model.nsck"
        rows = dataset.vocab_size // 4 if field == "vocab" else dataset.vocab_size
        save_checkpoint(init_params(spec, rows, SeededRng(0)), spec,
                        dataset_io.vocab_fingerprint(data / dataset_io.VOCAB_FILENAME), model)
        proc = subprocess.run(
            [sys.executable, "-m", "narrative_seq", "evaluate", "--model-file", str(model),
             "--data", str(data), "--split", "all"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr and "Traceback" not in proc.stderr

    def test_compare_single_model(self, tmp_path, encoded_dir, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "--seed", "5",
            "compare", "--data", str(encoded_dir), "--out", str(out),
            "--models", "GRU", "--epochs", "1",
        )
        # Width defaults are fine here; the run just needs to be quick.
        assert code == 0
        stdout = capsys.readouterr().out
        assert "GRU" in stdout and "1/1 models completed" in stdout
        assert (out / "manifest.json").exists()

    def test_compare_without_data_is_usage_error(self, capsys):
        assert run_cli("compare", "--out", "x") == 1
        assert "usage error" in capsys.readouterr().err

    def test_compare_without_out_is_usage_error(self, encoded_dir, capsys):
        # Paths are flags only: --data and --out are required, like train's.
        assert run_cli("compare", "--data", str(encoded_dir)) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["post", "pre"])
    def test_pad_flag_is_usage_error(self, tmp_path, corpus_file, capsys, value):
        # Post-padding is fixed; --pad is no flag.
        out = tmp_path / "enc"
        assert run_cli("preprocess", "--data", str(corpus_file), "--out", str(out),
                       "--pad", value) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


SMALL = {"embedding_dim": 4, "hidden_units": 4, "dense_hidden_units": 4}


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, encoded_dir):
    dataset = dataset_io.read_encoded_dataset(encoded_dir / dataset_io.ENCODED_FILENAME)
    spec = build_spec("sRNN", **SMALL)
    path = tmp_path_factory.mktemp("cli_model") / "model.nsck"
    save_checkpoint(init_params(spec, dataset.vocab_size, SeededRng(0)), spec,
                    dataset_io.vocab_fingerprint(encoded_dir / dataset_io.VOCAB_FILENAME), path)
    return path


def _command_argv(command, out, corpus_file, encoded_dir, model_file):
    """A run of ``command`` that succeeds with the ``SMALL`` config file."""
    return {
        "ingest": ["ingest", "--data", str(corpus_file)],
        "preprocess": ["preprocess", "--data", str(corpus_file), "--out", str(out),
                       "--vocab-size", "50"],
        "train": ["train", "--data", str(encoded_dir), "--model", "sRNN", "--out", str(out)],
        "evaluate": ["evaluate", "--model-file", str(model_file), "--data", str(encoded_dir),
                     "--out", str(out)],
        "compare": ["compare", "--data", str(encoded_dir), "--out", str(out), "--models", "sRNN"],
    }[command]


@pytest.mark.parametrize("command,flags,values,key", [
    ("train", ["--epochs", "0"], {}, "epochs"),
    ("train", ["--batch", "0"], {}, "batch_size"),
    ("train", ["--seed", "-1"], {}, "seed"),
    ("preprocess", ["--seq-len", "0"], {}, "seq_len"),
    ("preprocess", ["--vocab-size", "0"], {}, "vocab_size"),
    ("preprocess", ["--vocab-size", "1"], {}, "vocab_size"),
    ("train", [], {"test_fraction": 1.5}, "test_fraction"),
    # pad and stoplist are not config keys: post-padding is fixed, and the
    # stoplist path is the --stoplist flag.
    ("preprocess", [], {"pad": "middle"}, "pad"),
    ("preprocess", [], {"stoplist": "no-such-stoplist.txt"}, "stoplist"),
    ("preprocess", ["--stoplist", "no-such-stoplist.txt"], {}, "no-such-stoplist.txt"),
    # An infinite step would train until a non-finite loss; a seq_len past
    # the .nseq header's uint32 would fail in numpy (these two lengths are
    # too large for numpy to describe, so nothing is allocated without the
    # check either; test_harness pins the 2**32 boundary).
    ("train", ["--lr", "inf"], {}, "learning_rate"),
    ("compare", [], {"learning_rate": math.inf}, "learning_rate"),
    ("preprocess", ["--seq-len", str(10**30)], {}, "seq_len"),
    ("preprocess", [], {"seq_len": 2**63}, "seq_len"),
    ("train", [], {"epochs": "2"}, "epochs"),
    ("train", [], {"epochs": 2.5}, "epochs"),
    # revalidate_per_epoch, Adam's constants and the clip norm are not config keys.
    ("train", [], {"revalidate_per_epoch": False}, "revalidate_per_epoch"),
    ("train", [], {"beta1": 0.9}, "beta1"),
    ("train", [], {"beta2": 0.999}, "beta2"),
    ("compare", [], {"epsilon": 1e-8}, "epsilon"),
    ("compare", [], {"clip_norm": 5.0}, "clip_norm"),
    ("ingest", [], {"bogus": 1}, "bogus"),
    ("preprocess", [], {"bogus": 1}, "bogus"),
    ("train", [], {"bogus": 1}, "bogus"),
    ("evaluate", [], {"bogus": 1}, "bogus"),
    ("compare", [], {"bogus": 1}, "bogus"),
    # Fractions that would leave a split empty. The paper's fractions are
    # fixed, so these are unknown keys; an 11-record dataset is the one way
    # to an empty split (test_dataset_too_small_to_split_is_data_error).
    ("evaluate", ["--split", "validation"], {"validation_fraction_of_train": 0.0},
     "validation_fraction_of_train"),
    ("compare", [], {"test_fraction": 0.0}, "test_fraction"),
    ("train", [], {"validation_fraction_of_train": 0.0}, "validation_fraction_of_train"),
    ("compare", [], {"validation_fraction_of_train": 0.0}, "validation_fraction_of_train"),
], ids=["epochs-0", "batch-0", "seed-negative", "seq_len-0", "vocab_size-0", "vocab_size-1",
        "test_fraction-1.5", "pad-middle", "stoplist-missing", "stoplist-flag-missing",
        "train-lr-inf", "compare-lr-inf", "seq_len-flag-1e30", "seq_len-2**63",
        "epochs-str", "epochs-float",
        "reval-removed", "beta1-removed", "beta2-removed", "epsilon-removed",
        "clip_norm-removed", "ingest-bogus", "preprocess-bogus", "train-bogus", "evaluate-bogus",
        "compare-bogus", "evaluate-empty-validation", "compare-empty-test",
        "train-empty-validation", "compare-empty-validation"])
def test_invalid_config_is_data_error(tmp_path, corpus_file, encoded_dir, model_file,
                                      monkeypatch, capsys, command, flags, values, key):
    # Exit 2 naming the key, before any training, and nothing written.
    trained = _record_calls(monkeypatch, train_model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "epochs": 1, **values}))
    out = tmp_path / "out"
    argv = _command_argv(command, out, corpus_file, encoded_dir, model_file)
    assert run_cli("--config", str(config), *argv, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and key in err
    assert trained == []
    assert not out.exists()


@pytest.mark.parametrize("key,old_default", [
    ("test_fraction", 0.2), ("validation_fraction_of_train", 0.1),
    ("data_path", "encoded/"), ("output_dir", "results/"), ("stoplist", None), ("pad", "post")])
@pytest.mark.parametrize("command", ["ingest", "preprocess", "train", "evaluate", "compare"])
def test_split_fractions_are_unknown_keys(tmp_path, corpus_file, encoded_dir, model_file,
                                          capsys, command, key, old_default):
    # Even at its old default, a removed key (a split fraction, which the
    # paper fixes; a file path, which is a flag only; or pad, fixed at the
    # end) is refused by every subcommand before it reads or writes anything.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "epochs": 1, key: old_default}))
    out = tmp_path / "out"
    argv = _command_argv(command, out, corpus_file, encoded_dir, model_file)
    assert run_cli("--config", str(config), *argv) == 2
    assert capsys.readouterr().err == f"data error: unknown config keys [{key!r}]\n"
    assert not out.exists()


def _first_records(encoded_dir, n, data):
    """A dataset directory holding the first ``n`` records of ``encoded_dir``
    under the same vocabulary sidecar."""
    dataset = dataset_io.read_encoded_dataset(encoded_dir / dataset_io.ENCODED_FILENAME)
    data.mkdir()
    shutil.copy(encoded_dir / dataset_io.VOCAB_FILENAME, data / dataset_io.VOCAB_FILENAME)
    dataset_io.write_encoded_dataset(
        data / dataset_io.ENCODED_FILENAME,
        dataset_io.EncodedDataset(sequences=dataset.sequences[:n], labels=dataset.labels[:n],
                                  vocab_size=dataset.vocab_size))
    return data


@pytest.mark.parametrize("command,flags", [
    ("train", []), ("evaluate", ["--split", "validation"]), ("evaluate", ["--split", "all"]),
    ("compare", []),
], ids=["train", "evaluate-validation", "evaluate-all", "compare"])
def test_dataset_too_small_to_split_is_data_error(tmp_path, encoded_dir, model_file,
                                                  monkeypatch, capsys, command, flags):
    # 11 records would split 9/0/2. Every command refuses with the one
    # message of split_dataset, before any training or scoring, and writes
    # nothing.
    data = _first_records(encoded_dir, 11, tmp_path / "enc11")
    work = [*_record_calls(monkeypatch, train_model), *_record_calls(monkeypatch, predict_proba)]
    out = tmp_path / "out"
    argv = _command_argv(command, out, None, data, model_file)
    assert run_cli(*argv, *flags) == 2
    assert capsys.readouterr().err == "data error: need at least 12 records to split, got 11\n"
    assert work == []
    assert not out.exists()


def test_twelve_records_split_9_1_2(tmp_path, encoded_dir, model_file, capsys):
    data = _first_records(encoded_dir, 12, tmp_path / "enc12")
    for split, size in (("train", 9), ("validation", 1), ("test", 2), ("all", 12)):
        assert run_cli("evaluate", "--model-file", str(model_file), "--data", str(data),
                       "--split", split) == 0
        assert f"on the {split} split ({size} records)" in capsys.readouterr().out


@pytest.mark.parametrize("spelling", ["config", "flag"])
def test_empty_stoplist_path_is_data_error(tmp_path, corpus_file, capsys, spelling):
    # An empty --stoplist path names no file: it is unreadable, not a request
    # for the bundled stoplist. In a config file, stoplist is an unknown key.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stoplist": ""} if spelling == "config" else {}))
    out = tmp_path / "out"
    flag = ["--stoplist", ""] if spelling == "flag" else []
    assert run_cli("--config", str(config), "preprocess", "--data", str(corpus_file),
                   "--out", str(out), "--vocab-size", "50", *flag) == 2
    assert capsys.readouterr().err.startswith({
        "config": "data error: unknown config keys ['stoplist']\n",
        "flag": "data error: cannot read stoplist '': "}[spelling])
    assert not out.exists()


def test_invalid_config_exits_without_traceback(tmp_path, encoded_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": "2"}))
    proc = subprocess.run(
        [sys.executable, "-m", "narrative_seq", "--config", str(config), "train",
         "--data", str(encoded_dir), "--model", "sRNN", "--out", str(tmp_path / "m")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "data error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("reader", ["corpus", "config", "vocab", "checkpoint"])
def test_deeply_nested_json_is_data_error(tmp_path, corpus_file, encoded_dir, model_file,
                                          capsys, reader):
    # json.loads gives up on deep nesting with a RecursionError; each JSON
    # reader turns it into exit 2 before anything is written.
    deep = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    out = tmp_path / "out"
    argv = _command_argv("compare", out, corpus_file, encoded_dir, model_file)
    if reader == "corpus":
        argv = ["ingest", "--data", str(path)]
    elif reader == "config":
        argv = ["--config", str(path), *argv]
    elif reader == "vocab":
        data = tmp_path / "data"
        shutil.copytree(encoded_dir, data)
        (data / dataset_io.VOCAB_FILENAME).write_text(deep, encoding="utf-8")
        argv = _command_argv("train", out, corpus_file, data, model_file)
    else:
        body = deep.encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(body)) + body)
        argv = _command_argv("evaluate", out, corpus_file, encoded_dir, path)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "compare"])
def test_out_naming_a_file_is_data_error(tmp_path, corpus_file, encoded_dir, model_file,
                                         command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "afile"
    out.write_text("not a directory", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "narrative_seq", "--config", str(config),
         *_command_argv(command, out, corpus_file, encoded_dir, model_file)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "data error" in proc.stderr and str(out) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8") == "not a directory"


def _record_calls(monkeypatch, real):
    """Stub every module's binding of ``real``, however the CLI reaches it;
    returns the list the stub appends each call's arguments to."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("narrative_seq") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_train_rejects_out_before_training(tmp_path, encoded_dir, monkeypatch, capsys, under):
    trained = _record_calls(monkeypatch, harness.train_model)
    afile = tmp_path / "afile"
    afile.write_text("not a directory", encoding="utf-8")
    out = afile / "run" if under else afile
    assert run_cli("train", "--data", str(encoded_dir), "--model", "sRNN",
                   "--out", str(out)) == 2
    assert trained == []
    assert "data error" in capsys.readouterr().err
    assert afile.read_text(encoding="utf-8") == "not a directory"


def test_compare_prints_only_this_runs_table(tmp_path, encoded_dir, monkeypatch, capsys):
    # A rerun into the same --out whose every model fails must not print
    # the table the earlier run left there.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "cmp"
    argv = ["--config", str(config), "compare", "--data", str(encoded_dir),
            "--out", str(out), "--models", "sRNN"]
    assert run_cli(*argv) == 0
    table = (out / harness.RESULTS_TABLE_FILENAME).read_text(encoding="utf-8")
    assert table in capsys.readouterr().out

    def diverge(*args):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(harness, "train_model", diverge)
    assert run_cli(*argv) == 3
    assert capsys.readouterr().out == f"0/1 models completed; manifest in {out}\n"
    manifest = json.loads((out / harness.MANIFEST_FILENAME).read_text(encoding="utf-8"))
    assert manifest["files"] == {}
    # The earlier run's results are gone with its table.
    assert not (out / harness.RESULTS_TABLE_FILENAME).exists()
    assert not (out / harness.RESULTS_CSV_FILENAME).exists()


def test_compare_refuses_repeated_models(tmp_path, encoded_dir, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--data", str(encoded_dir), "--out", str(out),
                   "--models", "sRNN,GRU,sRNN") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "['sRNN']" in err
    assert not out.exists()


def test_failed_train_rerun_leaves_none_of_the_earlier_artifacts(tmp_path, encoded_dir,
                                                                 monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "m"
    argv = ["--config", str(config), "train", "--data", str(encoded_dir), "--model", "sRNN",
            "--out", str(out)]
    assert run_cli(*argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.nsck", "history.csv"]

    def diverge(*args):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(harness, "train_model", diverge)
    assert run_cli(*argv) == 3
    assert out.is_dir() and list(out.iterdir()) == []


@pytest.mark.parametrize("command,artifact", [("evaluate", harness.METRICS_FILENAME),
                                              ("train", harness.HISTORY_FILENAME)])
def test_directory_at_an_artifact_path_is_data_error(tmp_path, corpus_file, encoded_dir,
                                                     model_file, capsys, command, artifact):
    # os.replace cannot put a file where a directory stands: exit 2 naming
    # the path, the directory untouched, and no temp file or other
    # artifact of the failed command left beside it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    argv = _command_argv(command, out, corpus_file, encoded_dir, model_file)
    assert run_cli("--config", str(config), *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(out / artifact) in err
    assert [p.name for p in out.iterdir()] == [artifact]
    assert list((out / artifact).iterdir()) == []


@pytest.mark.parametrize("command,artifact,work", [
    ("preprocess", dataset_io.VOCAB_FILENAME, preprocess_corpus),
    ("train", harness.CHECKPOINT_FILENAME, train_model),
    ("evaluate", harness.METRICS_FILENAME, predict_proba),
    ("compare", harness.MANIFEST_FILENAME, train_model),
    ("compare", f"GRU/{harness.CHECKPOINT_FILENAME}", train_model),
], ids=["preprocess", "train", "evaluate", "compare-manifest", "compare-second-model"])
def test_output_names_are_claimed_before_any_work(tmp_path, corpus_file, encoded_dir,
                                                   model_file, monkeypatch, capsys,
                                                   command, artifact, work):
    # A directory at any name the command would write: exit 2 naming it
    # before any preprocessing, training or scoring, and nothing else made.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    calls = _record_calls(monkeypatch, work)
    argv = _command_argv(command, out, corpus_file, encoded_dir, model_file)
    if command == "compare":
        argv[-1] = "sRNN,GRU"
    assert run_cli("--config", str(config), *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and f"{str(out / artifact)!r}: Is a directory" in err
    assert calls == []
    left = {p.relative_to(out) for p in out.rglob("*")}
    assert left == {Path(artifact), *Path(artifact).parents} - {Path(".")}


@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "compare"])
def test_unwritable_out_is_data_error(tmp_path, corpus_file, encoded_dir, model_file,
                                      monkeypatch, capsys, command):
    # Tests may run as root, for whom a read-only directory is writable, so
    # mkdir itself refuses.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "out"

    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    argv = _command_argv(command, out, corpus_file, encoded_dir, model_file)
    assert run_cli("--config", str(config), *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and f"{str(out)!r}: Permission denied" in err
    assert not out.exists()


def test_compare_and_evaluate_write_the_same_metrics(tmp_path, encoded_dir):
    # compare's test-split metrics and evaluate's on the checkpoint compare
    # wrote come from one scoring path: their metrics.json bytes agree.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    out = tmp_path / "cmp"
    assert run_cli("--config", str(config), "compare", "--data", str(encoded_dir),
                   "--out", str(out), "--models", "GRU-BLSTM") == 0
    assert run_cli("--config", str(config), "evaluate", "--model-file",
                   str(out / "GRU-BLSTM" / harness.CHECKPOINT_FILENAME),
                   "--data", str(encoded_dir), "--split", "test",
                   "--out", str(tmp_path / "eval")) == 0
    assert ((tmp_path / "eval" / harness.METRICS_FILENAME).read_bytes()
            == (out / "GRU-BLSTM" / harness.METRICS_FILENAME).read_bytes())


def test_train_rejects_sidecar_of_another_vocabulary(tmp_path, corpus_file, monkeypatch,
                                                     capsys):
    # The sidecar of a 50-entry vocabulary next to a larger dataset: the
    # fingerprint matches the bytes, but the sizes do not.
    small, large = tmp_path / "enc50", tmp_path / "enc400"
    for out, size in ((small, "50"), (large, "400")):
        assert run_cli("preprocess", "--data", str(corpus_file), "--out", str(out),
                       "--seq-len", "16", "--vocab-size", size) == 0
    shutil.copy(small / dataset_io.VOCAB_FILENAME, large / dataset_io.VOCAB_FILENAME)
    trained = []
    monkeypatch.setattr(harness, "train_model", lambda *args: trained.append(args))
    capsys.readouterr()
    assert run_cli("train", "--data", str(large), "--model", "sRNN",
                   "--out", str(tmp_path / "model")) == 2
    assert trained == [] and not (tmp_path / "model").exists()
    err = capsys.readouterr().err
    assert "data error" in err and "50 entries" in err


def test_train_refuses_a_dataset_of_seq_len_0(tmp_path, encoded_dir, capsys):
    # preprocess never writes seq_len 0; a hand-made file that says so must
    # not train a model on no tokens.
    data = tmp_path / "enc"
    shutil.copytree(encoded_dir, data)
    nseq = data / dataset_io.ENCODED_FILENAME
    dataset = dataset_io.read_encoded_dataset(nseq)
    dataset_io.write_encoded_dataset(nseq, dataset_io.EncodedDataset(
        sequences=np.zeros((len(dataset), 0), dtype=np.uint32), labels=dataset.labels,
        vocab_size=dataset.vocab_size))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data), "--model", "LSTM",
                   "--out", str(tmp_path / "model")) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(nseq) in err and "seq_len is 0" in err
    assert not (tmp_path / "model").exists()


# The module fixtures are only read: each example corrupts its own copy.
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("name", [dataset_io.ENCODED_FILENAME, dataset_io.VOCAB_FILENAME])
def test_corrupt_dataset_file_exits_0_or_2(tmp_path_factory, encoded_dir, model_file,
                                          name, data):
    # A truncated file or one changed byte either still evaluates or is a
    # data error; no exception escapes cli.main.
    corrupt = tmp_path_factory.mktemp("corrupt")
    for f in (dataset_io.ENCODED_FILENAME, dataset_io.VOCAB_FILENAME):
        shutil.copy(encoded_dir / f, corrupt / f)
    (corrupt / name).write_bytes(_corrupted((encoded_dir / name).read_bytes(), data))
    assert main(["evaluate", "--model-file", str(model_file), "--data", str(corrupt)]) in (0, 2)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_corrupt_corpus_exits_0_or_2(tmp_path_factory, corpus_file, csv_corpus_file,
                                     fmt, data):
    # A truncated corpus or one changed byte either still ingests and
    # preprocesses or is a data error; no exception escapes cli.main.
    source = corpus_file if fmt == "json" else csv_corpus_file
    corrupt = tmp_path_factory.mktemp("corrupt_corpus")
    path = corrupt / source.name
    path.write_bytes(_corrupted(source.read_bytes(), data))
    assert main(["ingest", "--data", str(path)]) in (0, 2)
    assert main(["preprocess", "--data", str(path), "--out", str(corrupt / "enc"),
                 "--seq-len", "16", "--vocab-size", "100"]) in (0, 2)


def _corrupted(raw: bytes, data) -> bytes:
    """``raw`` truncated at, or with one changed byte at, a drawn position.

    Positions favour the first 64 bytes, which hold the .nseq header, the
    sidecar's reserved rows and a corpus's header or first record.
    """
    raw = bytearray(raw)
    pos = data.draw(st.integers(0, 63) | st.integers(0, len(raw) - 1), label="pos")
    if data.draw(st.booleans(), label="truncate"):
        del raw[pos:]
    else:
        raw[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte")
    return bytes(raw)


def _history_epochs(out):
    return len((out / "history.csv").read_text(encoding="utf-8").splitlines()) - 1


def _nseq_seq_len(out):
    return dataset_io.read_encoded_dataset(out / dataset_io.ENCODED_FILENAME).sequences.shape[1]


def _manifest_value(key):
    return lambda out: json.loads((out / "manifest.json").read_text())["config"][key]


@pytest.mark.parametrize("source", ["flag", "file", "default"])
@pytest.mark.parametrize("command,flag,key,flag_value,file_value,default,read", [
    ("train", "--epochs", "epochs", 3, 2, 10, _history_epochs),
    ("preprocess", "--seq-len", "seq_len", 12, 9, 2000, _nseq_seq_len),
    ("compare", "--epochs", "epochs", 2, 1, 10, _manifest_value("epochs")),
    ("compare", "--seed", "seed", 7, 5, 0, _manifest_value("seed")),
], ids=["train-epochs", "preprocess-seq_len", "compare-epochs", "compare-seed"])
def test_flag_beats_file_beats_default(tmp_path, corpus_file, encoded_dir, source, command,
                                       flag, key, flag_value, file_value, default, read):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, **({key: file_value} if source != "default" else {}))))
    out = tmp_path / "out"
    argv = _command_argv(command, out, corpus_file, encoded_dir, None)
    if source == "flag":
        # compare has no --seed of its own; the global flag precedes it.
        given = [flag, str(flag_value)]
        argv = [*given, *argv] if flag == "--seed" else [*argv, *given]
    assert run_cli("--config", str(config), *argv) == 0
    assert read(out) == {"flag": flag_value, "file": file_value, "default": default}[source]


def test_seed_flag_is_the_same_before_and_after_train(tmp_path, encoded_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL, epochs=1)))
    train = ["train", "--data", str(encoded_dir), "--model", "sRNN"]

    def checkpoint(name, *argv):
        assert run_cli("--config", str(config), *argv, "--out", str(tmp_path / name)) == 0
        return (tmp_path / name / "checkpoint.nsck").read_bytes()

    global_seed = checkpoint("global", "--seed", "3", *train)
    assert checkpoint("train", *train, "--seed", "3") == global_seed
    # The subcommand's flag wins over the global one.
    assert checkpoint("both", "--seed", "4", *train, "--seed", "3") == global_seed
    assert checkpoint("default", *train) != global_seed


def test_installed_entrypoint_smoke(corpus_file):
    proc = subprocess.run(
        [sys.executable, "-m", "narrative_seq", "ingest", "--data", str(corpus_file)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Substantial" in proc.stdout


# Every config key with a strategy for values it accepts and one for values
# it may refuse. Size keys draw only small ints (or wrong-typed values), so
# no example asks for a large model or a long sequence; the one large
# seq_len, 10**30, is too large for numpy to describe, so nothing allocates
# it even without the header check.
_SIZE_LIMITS = {"seq_len": 16, "vocab_size": 64, "embedding_dim": 4, "hidden_units": 4,
                "dense_hidden_units": 4, "epochs": 2, "batch_size": 64}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5)
_CONFIG_VALUES = {
    **{key: (st.integers(1, limit), st.integers(-1, 0) | _JSON_VALUES)
       for key, limit in _SIZE_LIMITS.items()},
    "seq_len": (st.integers(1, _SIZE_LIMITS["seq_len"]),
                st.integers(-1, 0) | st.just(10**30) | _JSON_VALUES),
    "model_names": (st.lists(st.sampled_from(["sRNN", "GRU", "LSTM"]), min_size=1, unique=True),
                    st.lists(st.sampled_from(["sRNN", "LSTM-GRU", ""])) | _JSON_VALUES),
    "learning_rate": (st.floats(1e-6, 1e6),
                      st.floats(-1.0, 0.0) | st.just(math.inf) | _JSON_VALUES),
    "seed": (st.integers(0, 2**64), st.integers(-2, -1) | _JSON_VALUES),
}

# Keys every subcommand refuses: the removed split fractions, paths and pad,
# and one unknown key.
_REFUSED_KEYS = ("test_fraction", "validation_fraction_of_train", "data_path", "output_dir",
                 "stoplist", "pad", "bogus")

# The flag spelling of each config key, and the subcommands that take it
# (--seed is global and goes before the subcommand). --stoplist is a path,
# not a key; its values come from a fixed set, so no example reads an
# arbitrary file.
_FLAGS = {"--seq-len": ("seq_len", {"preprocess"}),
          "--vocab-size": ("vocab_size", {"preprocess"}),
          "--stoplist": (None, {"preprocess"}),
          "--epochs": ("epochs", {"train", "compare"}),
          "--batch": ("batch_size", {"train", "compare"}),
          "--lr": ("learning_rate", {"train", "compare"}),
          "--seed": ("seed", None)}


def _files_under(root):
    return {p: p.stat().st_mtime_ns for p in Path(root).rglob("*")}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_any_config_exits_with_a_documented_code(tmp_path_factory, corpus_file, encoded_dir,
                                                 model_file, data):
    # Whatever the config file and the flags hold, ingest, preprocess, train,
    # evaluate and compare exit 0, 1, 2 or 3 with no exception escaping main,
    # and write nothing outside their --out. Drawn keys overlay small widths
    # and one epoch, so a config that draws no size key trains quickly too.
    work = tmp_path_factory.mktemp("any_config")
    stoplist = work / "stoplist.txt"
    stoplist.write_text("the\na\n", encoding="utf-8")
    keys = data.draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=4, unique=True),
                     label="keys")
    # Three values in four are of a kind the key accepts, so a good share
    # of examples gets past the config and trains.
    values = {key: data.draw(_CONFIG_VALUES[key][data.draw(st.integers(0, 3)) == 0], label=key)
              for key in keys}
    if data.draw(st.integers(0, 3), label="refused key") == 0:
        values[data.draw(st.sampled_from(_REFUSED_KEYS))] = data.draw(_JSON_VALUES)
    flags = {}
    for flag in data.draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=2, unique=True),
                          label="flags"):
        key = _FLAGS[flag][0]
        if key is None:
            value = data.draw(st.sampled_from([str(stoplist), "", "no-such-stoplist.txt", "."]))
        else:
            value = data.draw(_CONFIG_VALUES[key][data.draw(st.integers(0, 3)) == 0], label=flag)
        flags[flag] = str(value)
    global_flags = [w for flag, value in flags.items() if _FLAGS[flag][1] is None
                    for w in (flag, value)]
    config = work / "config.json"
    config.write_text(json.dumps({**SMALL, "epochs": 1, **values}))
    out = work / "out"
    inputs = [work, corpus_file.parent, encoded_dir, model_file.parent]
    before = [_files_under(root) for root in inputs]
    with contextlib.chdir(work):
        for argv in (["ingest", "--data", str(corpus_file)],
                     ["preprocess", "--data", str(corpus_file), "--out", str(out / "enc")],
                     ["train", "--data", str(encoded_dir), "--model", "sRNN",
                      "--out", str(out / "model")],
                     ["evaluate", "--model-file", str(model_file), "--data", str(encoded_dir),
                      "--out", str(out / "eval")],
                     ["compare", "--data", str(encoded_dir), "--out", str(out / "cmp"),
                      "--models", "sRNN"]):
            argv += [w for flag, value in flags.items() if argv[0] in (_FLAGS[flag][1] or ())
                     for w in (flag, value)]
            assert main(["--config", str(config), *global_flags, *argv]) in (0, 1, 2, 3), argv
    after = [_files_under(root) for root in inputs]
    after[0] = {p: t for p, t in after[0].items() if out not in (p, *p.parents)}
    assert after == before
