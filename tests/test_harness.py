import argparse
import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from narrative_seq import cli, harness
from narrative_seq.errors import DataError, NumericError
from narrative_seq.harness import ExperimentConfig, config_from_dict, run_experiment
from narrative_seq.training import SplitSpec, TrainConfig, split_dataset

SMALL = dict(embedding_dim=8, hidden_units=8, dense_hidden_units=8)


def _config(models=("sRNN", "GRU"), **extra):
    merged = {
        "model_names": list(models),
        "epochs": 2,
        "seed": 11,
        **SMALL,
        **extra,
    }
    return config_from_dict(merged)


class TestConfig:
    def test_defaults(self):
        config = config_from_dict({})
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

    def test_split_is_derived_from_the_seed(self):
        # The split is not a field: one seed pins it, in the library as in the CLI.
        assert "split" not in {f.name for f in fields(ExperimentConfig)}
        assert len(harness.CONFIG_KEYS) == 10
        for seed in (0, 7):
            config = ExperimentConfig(train=TrainConfig(seed=seed))
            assert config.split == SplitSpec(seed=seed)

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
        # Adam's constants and the clip norm are not config keys, even at
        # their old defaults.
        ({"beta1": 0.9}, "beta1"),
        ({"beta2": 0.999}, "beta2"),
        ({"epsilon": 1e-8}, "epsilon"),
        ({"clip_norm": 5.0}, "clip_norm"),
        # Nor are the split fractions, which the paper fixes at 80/20 + 10%.
        ({"test_fraction": 0.2}, "test_fraction"),
        ({"validation_fraction_of_train": 0.1}, "validation_fraction_of_train"),
        # Nor are file paths, which are flags or arguments, or the padding
        # side, which is fixed at the end.
        ({"data_path": "encoded/"}, "data_path"),
        ({"output_dir": "results/"}, "output_dir"),
        ({"stoplist": None}, "stoplist"),
        ({"pad": "post"}, "pad"),
        # A step must be finite, and seq_len must fit the .nseq header's uint32.
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"seq_len": 2**32}, "seq_len"),
    ], ids=["bool-seed", "float-epochs", "str-lr", "str-models", "int-stoplist",
            "zero-width", "beta2-1", "nan-clip", "beta1-removed", "beta2-removed",
            "epsilon-removed", "clip_norm-removed", "test_fraction-removed",
            "validation_fraction_of_train-removed", "data_path-removed", "output_dir-removed",
            "stoplist-removed", "pad-removed", "inf-lr", "nan-lr", "seq_len-2**32"])
    def test_invalid_values_name_the_key(self, values, key):
        with pytest.raises(DataError, match=key):
            config_from_dict(values)

    def test_int_accepted_for_float(self):
        assert config_from_dict({"learning_rate": 1}).train.learning_rate == 1

    def test_longest_seq_len_fits_the_nseq_header(self):
        # Building the config allocates nothing, so the boundary is safe here.
        assert config_from_dict({"seq_len": 2**32 - 1}).seq_len == 2**32 - 1

    def test_readme_schema_matches(self):
        # The README's schema block lists every accepted key with its default.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file schema", 1)[1]
        schema = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert set(schema) == harness.CONFIG_KEYS
        default = config_from_dict({})
        train_keys = {f.name for f in fields(TrainConfig)}
        for key, value in schema.items():
            expected = getattr(default.train if key in train_keys else default, key)
            assert value == (list(expected) if isinstance(expected, tuple) else expected), key

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
        manifest = run_experiment(_config(models=("LSTM",)), encoded_fixture_dir,
                                  tmp_path / "out")
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
        manifest = run_experiment(_config(), encoded_fixture_dir, out)
        for rel, digest in manifest["files"].items():
            blob = (out / rel).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest
        written = json.loads((out / "manifest.json").read_text())
        assert written == manifest

    def test_metrics_in_range_and_both_modes(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(_config(models=("GRU",)), encoded_fixture_dir, out)
        payload = json.loads((out / "GRU" / "metrics.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert set(payload["aggregates"]) == {"weighted", "macro"}
        assert 0.0 <= payload["majority_baseline"] <= 1.0
        assert len(payload["confusion"]) == 4

    def test_results_table_in_zoo_order(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(_config(models=("sRNN", "GRU")), encoded_fixture_dir, out)
        lines = (out / "results_table.txt").read_text().splitlines()
        names = [line.split()[0] for line in lines[2:]]
        assert names == ["sRNN", "GRU"]

    def test_history_rows_match_epochs(self, encoded_fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_experiment(_config(models=("sRNN",), epochs=3), encoded_fixture_dir, out)
        rows = (out / "sRNN" / "history.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + one per epoch

    def test_paired_split_across_models(self, encoded_fixture_dir):
        # Identical SplitSpec means identical index sets for every model.
        config = _config()
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
        # A spawned worker would not see the patch: train in this process.
        monkeypatch.setattr(harness, "_worker_count", lambda n_models: 1)
        out = tmp_path / "out"
        manifest = run_experiment(_config(), encoded_fixture_dir, out)
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
        config = _config()
        existing = tmp_path / "existing"
        existing.mkdir()
        for model_dir in (existing, tmp_path / "fresh"):
            with pytest.raises(NumericError):
                harness.train_and_save("sRNN", config, dataset, fingerprint, model_dir)
        assert existing.is_dir() and not (tmp_path / "fresh").exists()

    def test_failed_rerun_leaves_none_of_the_earlier_artifacts(
            self, encoded_fixture_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = _config(models=("sRNN",), epochs=1)
        run_experiment(config, encoded_fixture_dir, out)
        model_dir = out / "sRNN"
        artifacts = sorted(p.name for p in model_dir.iterdir())
        assert artifacts == ["checkpoint.nsck", "history.csv", "metrics.json"]

        def failing(*args):
            raise NumericError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "train_model", failing)
            manifest = run_experiment(config, encoded_fixture_dir, out)
        assert manifest["models"]["sRNN"]["status"] == "failed"
        # The directory was there before the rerun, so it stays, emptied.
        assert model_dir.is_dir() and list(model_dir.iterdir()) == []

        # A metrics write that fails takes this run's checkpoint and history
        # with it; the directory standing in its way is left alone.
        (model_dir / "metrics.json").mkdir()
        with pytest.raises(DataError, match="metrics.json"):
            run_experiment(config, encoded_fixture_dir, out)
        assert [p.name for p in model_dir.iterdir()] == ["metrics.json"]

    def test_rerun_stopped_by_a_data_error_leaves_no_earlier_listing(
            self, encoded_fixture_dir, tmp_path):
        # The earlier run's manifest, table and CSV would list GRU's files,
        # which the failed rerun has removed.
        out = tmp_path / "out"
        config = _config(epochs=1)
        run_experiment(config, encoded_fixture_dir, out)
        listings = (harness.MANIFEST_FILENAME, harness.RESULTS_TABLE_FILENAME,
                    harness.RESULTS_CSV_FILENAME)
        assert all((out / name).is_file() for name in listings)
        (out / "GRU" / "metrics.json").unlink()
        (out / "GRU" / "metrics.json").mkdir()
        with pytest.raises(DataError, match="metrics.json"):
            run_experiment(config, encoded_fixture_dir, out)
        assert [name for name in listings if (out / name).exists()] == []
        # The claim stops at GRU's metrics.json before any model trains; the
        # earlier files of the selected models it passed on the way are gone.
        assert list((out / "sRNN").iterdir()) == []
        assert [p.name for p in (out / "GRU").iterdir()] == ["metrics.json"]

    def test_missing_dataset_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            run_experiment(_config(models=("LSTM",)), tmp_path / "nowhere", tmp_path / "out")
