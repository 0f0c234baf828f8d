"""End-to-end command-line checks, run in-process through cli.main for
speed with one subprocess smoke test for the installed entry point.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from narrative_seq import dataset_io
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

    @pytest.mark.parametrize("field", ["token", "label"])
    def test_evaluate_rejects_out_of_range_dataset(self, tmp_path, encoded_dir, field):
        # A record whose token id lies outside the vocabulary (or whose label
        # is not a damage level) fails at the reader with exit 2, not deep in
        # the forward pass with a traceback.
        data = tmp_path / "bad_enc"
        data.mkdir()
        shutil.copy(encoded_dir / dataset_io.VOCAB_FILENAME, data)
        dataset = dataset_io.read_encoded_dataset(encoded_dir / dataset_io.ENCODED_FILENAME)
        if field == "token":
            dataset.sequences[-1, 0] = dataset.vocab_size
        else:
            dataset.labels[-1] = 4
        dataset_io.write_encoded_dataset(data / dataset_io.ENCODED_FILENAME, dataset)
        spec = build_spec("sRNN", embedding_dim=4, hidden_units=4, dense_hidden_units=4)
        model = tmp_path / "model.nsck"
        save_checkpoint(init_params(spec, dataset.vocab_size, SeededRng(0)), spec,
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


def test_installed_entrypoint_smoke(corpus_file):
    proc = subprocess.run(
        [sys.executable, "-m", "narrative_seq", "ingest", "--data", str(corpus_file)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Substantial" in proc.stdout
