"""End-to-end command-line checks, run in-process through cli.main for
speed with one subprocess smoke test for the installed entry point.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from narrative_seq import dataset_io, harness
from narrative_seq.checkpoint import save_checkpoint
from narrative_seq.cli import main
from narrative_seq.neural_layers import init_params
from narrative_seq.tensor_core import SeededRng
from narrative_seq.zoo import build_spec
from narrative_seq.synthetic import generate_fixture_corpus, records_to_json


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_corpus") / "corpus.json"
    path.write_text(records_to_json(generate_fixture_corpus()), encoding="utf-8")
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

    @pytest.mark.parametrize("field", ["token", "label", "vocab"])
    def test_evaluate_rejects_out_of_range_dataset(self, tmp_path, encoded_dir, field):
        # A record whose token id lies outside the vocabulary (or whose label
        # is not a damage level) fails at the reader with exit 2, not deep in
        # the forward pass with a traceback. So does a checkpoint whose
        # embedding has fewer rows than the dataset's vocabulary.
        data = tmp_path / "bad_enc"
        data.mkdir()
        shutil.copy(encoded_dir / dataset_io.VOCAB_FILENAME, data)
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
    ("train", [], {"revalidate_per_epoch": 1}, "revalidate_per_epoch"),
    ("ingest", [], {"bogus": 1}, "bogus"),
    ("preprocess", [], {"bogus": 1}, "bogus"),
    ("train", [], {"bogus": 1}, "bogus"),
    ("evaluate", [], {"bogus": 1}, "bogus"),
    ("compare", [], {"bogus": 1}, "bogus"),
], ids=["epochs-0", "batch-0", "seed-negative", "seq_len-0", "vocab_size-0", "vocab_size-1",
        "test_fraction-1.5", "pad-middle", "stoplist-missing", "epochs-str", "epochs-float",
        "reval-int", "ingest-bogus", "preprocess-bogus", "train-bogus", "evaluate-bogus",
        "compare-bogus"])
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
