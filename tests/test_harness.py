import argparse
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from narrative_seq import cli, harness
from narrative_seq.errors import DataError, NumericError
from narrative_seq.harness import ExperimentConfig, config_from_dict, run_experiment
from narrative_seq.training import SplitSpec, TrainConfig, split_dataset

SMALL = dict(embedding_dim=8, hidden_units=8, dense_hidden_units=8)


def _config(data_dir, out_dir, models=("sRNN", "GRU"), **extra):
    merged = {
        "data_path": str(data_dir),
        "output_dir": str(out_dir),
        "model_names": list(models),
        "epochs": 2,
        "seed": 11,
        **SMALL,
        **extra,
    }
    return config_from_dict(merged)


class TestConfig:
    def test_defaults(self):
        config = config_from_dict({"data_path": "x", "output_dir": "y"})
        assert config.model_names == tuple(
            ["LSTM", "BLSTM", "sRNN", "GRU", "GRU-LSTM", "GRU-BLSTM",
             "sRNN-BLSTM", "sRNN-LSTM", "GRU-BLSTM-sRNN", "GRU-LSTM-sRNN"]
        )
        assert config.train.epochs == 10
        assert config.split.test_fraction == 0.20
        assert config.seq_len == 2000
        assert config.vocab_size == 100_000

    def test_seed_reaches_both_train_and_split(self):
        config = config_from_dict({"seed": 42})
        assert config.train.seed == 42
        assert config.split.seed == 42

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="optimiser"):
            config_from_dict({"optimiser": "sgd"})
        # parallelism is not a config key.
        with pytest.raises(DataError, match="parallelism"):
            config_from_dict({"parallelism": 2})

    def test_unknown_model_rejected(self):
        with pytest.raises(DataError, match="CNN"):
            config_from_dict({"model_names": ["CNN"]})

    def test_repeated_model_names_rejected(self):
        with pytest.raises(DataError, match=r"\['sRNN', 'GRU'\]"):
            config_from_dict({"model_names": ["sRNN", "GRU", "sRNN", "LSTM", "GRU"]})

    def test_empty_model_list_rejected(self):
        with pytest.raises(DataError):
            config_from_dict({"model_names": []})

    @pytest.mark.parametrize("values,key", [
        ({"seed": True}, "seed"),
        ({"epochs": 2.0}, "epochs"),
        ({"learning_rate": "0.01"}, "learning_rate"),
        ({"model_names": "LSTM"}, "model_names"),
        ({"stoplist": 3}, "stoplist"),
        ({"hidden_units": 0}, "hidden_units"),
        ({"beta2": 1.0}, "beta2"),
        ({"clip_norm": float("nan")}, "clip_norm"),
    ], ids=["bool-seed", "float-epochs", "str-lr", "str-models", "int-stoplist",
            "zero-width", "beta2-1", "nan-clip"])
    def test_invalid_values_name_the_key(self, values, key):
        with pytest.raises(DataError, match=key):
            config_from_dict(values)

    def test_int_accepted_for_float(self):
        assert config_from_dict({"learning_rate": 1, "clip_norm": 2}).train.clip_norm == 2

    def test_readme_schema_matches(self):
        # The README's schema block lists every accepted key with its default.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file schema", 1)[1]
        schema = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert set(schema) == harness.CONFIG_KEYS
        paths = {"data_path": "", "output_dir": ""}
        assert config_from_dict({**schema, **paths}) == config_from_dict({})

    def test_readme_cli_flags_are_accepted(self):
        # Every flag the README's command-line block shows for a subcommand
        # is one that subcommand, or the global parser, accepts.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        shown = {}
        for command in block.replace("\\\n", " ").splitlines():
            words = command.split()
            assert words[0] == "narrative-seq" and words[1] in subparsers, command
            shown[words[1]] = re.findall(r"--[a-z][a-z-]*", command)
        assert set(shown) == set(subparsers)
        for name, flags in shown.items():
            accepted = (subparsers[name]._option_string_actions.keys()
                        | parser._option_string_actions.keys())
            assert set(flags) <= accepted, (name, sorted(set(flags) - accepted))

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 3, "model_names": ["LSTM"]}))
        config = harness.load_config(path)
        assert config.train.epochs == 3
        assert config.model_names == ("LSTM",)


class TestRunExperiment:
    def test_single_model_manifest(self, encoded_fixture_dir, tmp_path):
        config = _config(encoded_fixture_dir, tmp_path / "out", models=("LSTM",))
        manifest = run_experiment(config)
        assert set(manifest["models"]) == {"LSTM"}
        assert manifest["models"]["LSTM"]["status"] == "ok"
        files = set(manifest["files"])
        assert files == {
            "LSTM/checkpoint.nsck",
            "LSTM/history.csv",
            "LSTM/metrics.json",
            "results_table.txt",
            "results.csv",
        }

    def test_artifacts_and_hashes(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        config = _config(encoded_fixture_dir, out)
        manifest = run_experiment(config)
        for rel, digest in manifest["files"].items():
            blob = (out / rel).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest
        written = json.loads((out / "manifest.json").read_text())
        assert written == manifest

    def test_metrics_in_range_and_both_modes(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(_config(encoded_fixture_dir, out, models=("GRU",)))
        payload = json.loads((out / "GRU" / "metrics.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert set(payload["aggregates"]) == {"weighted", "macro"}
        assert 0.0 <= payload["majority_baseline"] <= 1.0
        assert len(payload["confusion"]) == 4

    def test_results_table_in_zoo_order(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(_config(encoded_fixture_dir, out, models=("sRNN", "GRU")))
        lines = (out / "results_table.txt").read_text().splitlines()
        names = [line.split()[0] for line in lines[2:]]
        assert names == ["sRNN", "GRU"]

    def test_history_rows_match_epochs(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(_config(encoded_fixture_dir, out, models=("sRNN",), epochs=3))
        rows = (out / "sRNN" / "history.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + one per epoch

    def test_paired_split_across_models(self, encoded_fixture_dir):
        # Identical SplitSpec means identical index sets for every model.
        config = _config(encoded_fixture_dir, "unused")
        n = 200
        first = split_dataset(n, config.split)
        second = split_dataset(n, config.split)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_failure_isolation(self, encoded_fixture_dir, tmp_path, monkeypatch):
        real_train = harness.train_model

        def flaky(spec, dataset, config, split):
            if spec.name == "GRU":
                raise NumericError("non-finite loss at epoch 1, batch 1 (injected)")
            return real_train(spec, dataset, config, split)

        monkeypatch.setattr(harness, "train_model", flaky)
        out = tmp_path / "out"
        manifest = run_experiment(_config(encoded_fixture_dir, out))
        assert manifest["models"]["GRU"]["status"] == "failed"
        assert "injected" in manifest["models"]["GRU"]["error"]
        assert manifest["models"]["sRNN"]["status"] == "ok"
        table = (out / "results_table.txt").read_text()
        assert "sRNN" in table and "GRU" not in table
        assert not (out / "GRU").exists()

    def test_failed_training_keeps_a_directory_it_did_not_create(
            self, encoded_fixture_dir, tmp_path, monkeypatch):
        def failing(*args):
            raise NumericError("injected")

        monkeypatch.setattr(harness, "train_model", failing)
        dataset, fingerprint = harness.read_dataset_dir(encoded_fixture_dir)
        config = _config(encoded_fixture_dir, tmp_path / "out")
        existing = tmp_path / "existing"
        existing.mkdir()
        for model_dir in (existing, tmp_path / "fresh"):
            with pytest.raises(NumericError):
                harness.train_and_save("sRNN", config, dataset, fingerprint, model_dir)
        assert existing.is_dir() and not (tmp_path / "fresh").exists()

    def test_failed_rerun_leaves_none_of_the_earlier_artifacts(
            self, encoded_fixture_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = _config(encoded_fixture_dir, out, models=("sRNN",), epochs=1)
        run_experiment(config)
        model_dir = out / "sRNN"
        artifacts = sorted(p.name for p in model_dir.iterdir())
        assert artifacts == ["checkpoint.nsck", "history.csv", "metrics.json"]

        def failing(*args):
            raise NumericError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "train_model", failing)
            manifest = run_experiment(config)
        assert manifest["models"]["sRNN"]["status"] == "failed"
        # The directory was there before the rerun, so it stays, emptied.
        assert model_dir.is_dir() and list(model_dir.iterdir()) == []

        # A metrics write that fails takes this run's checkpoint and history
        # with it; the directory standing in its way is left alone.
        (model_dir / "metrics.json").mkdir()
        with pytest.raises(DataError, match="metrics.json"):
            run_experiment(config)
        assert [p.name for p in model_dir.iterdir()] == ["metrics.json"]

    def test_rerun_stopped_by_a_data_error_leaves_no_earlier_listing(
            self, encoded_fixture_dir, tmp_path):
        # The earlier run's manifest, table and CSV would list GRU's files,
        # which the failed rerun has removed.
        out = tmp_path / "out"
        config = _config(encoded_fixture_dir, out, epochs=1)
        run_experiment(config)
        listings = (harness.MANIFEST_FILENAME, harness.RESULTS_TABLE_FILENAME,
                    harness.RESULTS_CSV_FILENAME)
        assert all((out / name).is_file() for name in listings)
        (out / "GRU" / "metrics.json").unlink()
        (out / "GRU" / "metrics.json").mkdir()
        with pytest.raises(DataError, match="metrics.json"):
            run_experiment(config)
        assert [name for name in listings if (out / name).exists()] == []
        assert (out / "sRNN" / "metrics.json").is_file()

    def test_missing_dataset_is_data_error(self, tmp_path):
        config = _config(tmp_path / "nowhere", tmp_path / "out", models=("LSTM",))
        with pytest.raises(DataError):
            run_experiment(config)
