"""End-to-end command-line checks, run in-process through cli.main for
speed with one subprocess smoke test for the installed entry point.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from narrative_seq import dataset_io, harness
from narrative_seq.checkpoint import save_checkpoint
from narrative_seq.cli import main
from narrative_seq.errors import NumericError
from narrative_seq.neural_layers import init_params
from narrative_seq.tensor_core import SeededRng
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
        assert run_cli("train", "--data", str(out), "--model", "CNN",
                       "--out", str(tmp_path / "m")) == 2

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
    ("preprocess", [], {"pad": "middle"}, "pad"),
    ("preprocess", [], {"stoplist": "no-such-stoplist.txt"}, "stoplist"),
    ("train", [], {"epochs": "2"}, "epochs"),
    ("train", [], {"epochs": 2.5}, "epochs"),
    # revalidate_per_epoch is not a config key.
    ("train", [], {"revalidate_per_epoch": False}, "revalidate_per_epoch"),
    ("ingest", [], {"bogus": 1}, "bogus"),
    ("preprocess", [], {"bogus": 1}, "bogus"),
    ("train", [], {"bogus": 1}, "bogus"),
    ("evaluate", [], {"bogus": 1}, "bogus"),
    ("compare", [], {"bogus": 1}, "bogus"),
    # Valid fractions that leave the evaluated split empty.
    ("evaluate", ["--split", "validation"], {"validation_fraction_of_train": 0.0},
     "validation_fraction_of_train"),
    ("compare", [], {"test_fraction": 0.0}, "test_fraction"),
    # A validation split left empty would report a score over no records.
    ("train", [], {"validation_fraction_of_train": 0.0}, "validation_fraction_of_train"),
    ("compare", [], {"validation_fraction_of_train": 0.0}, "validation_fraction_of_train"),
], ids=["epochs-0", "batch-0", "seed-negative", "seq_len-0", "vocab_size-0", "vocab_size-1",
        "test_fraction-1.5", "pad-middle", "stoplist-missing", "epochs-str", "epochs-float",
        "reval-removed", "ingest-bogus", "preprocess-bogus", "train-bogus", "evaluate-bogus",
        "compare-bogus", "evaluate-empty-validation", "compare-empty-test",
        "train-empty-validation", "compare-empty-validation"])
def test_invalid_config_is_data_error(tmp_path, corpus_file, encoded_dir, model_file,
                                      capsys, command, flags, values, key):
    # Exit 2 naming the key, and nothing written.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "epochs": 1, **values}))
    out = tmp_path / "out"
    argv = _command_argv(command, out, corpus_file, encoded_dir, model_file)
    assert run_cli("--config", str(config), *argv, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and key in err
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


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_train_rejects_out_before_training(tmp_path, encoded_dir, monkeypatch, capsys, under):
    # Stub every module's binding of train_model, however the CLI reaches it.
    trained, real = [], harness.train_model
    for name, module in list(sys.modules.items()):
        if name.startswith("narrative_seq") and getattr(module, "train_model", None) is real:
            monkeypatch.setattr(module, "train_model", lambda *args: trained.append(args))
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
