"""``compare`` in worker processes: ``harness.run_experiment`` trains its
models in ``harness._worker_count`` spawned processes and collects their
outcomes in config order, so two workers leave the same bytes as one.

A spawned worker sees no monkeypatch of the test process; the tests that
patch the job or count the workers patch ``_worker_count`` in the parent.
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from narrative_seq import harness
from narrative_seq.checkpoint import load_checkpoint
from narrative_seq.cli import main
from narrative_seq.errors import DataError

ROOT = Path(__file__).resolve().parent.parent
SMALL = dict(embedding_dim=8, hidden_units=8, dense_hidden_units=8, epochs=1, seed=5)


def _tree(out: Path) -> dict[str, bytes | None]:
    """Every path under ``out``: a file's bytes, ``None`` for a directory."""
    return {str(p.relative_to(out)): None if p.is_dir() else p.read_bytes()
            for p in sorted(out.rglob("*"))}


def _compare(tmp_path, monkeypatch, capfd, workers, *flags):
    """Exit code, stdout, stderr and output tree of a ten-model ``compare``
    run with ``workers`` processes, in a directory of its own."""
    run_dir = tmp_path / f"workers{workers}"
    run_dir.mkdir()
    (run_dir / "config.json").write_text(json.dumps(SMALL), encoding="utf-8")
    monkeypatch.chdir(run_dir)  # relative paths, so stdout does not name the directory
    monkeypatch.setattr(harness, "_worker_count", lambda n_models: min(workers, n_models))
    capfd.readouterr()
    code = main(["--config", "config.json", "compare", "--data", "../data", "--out", "out",
                 *flags])
    out, err = capfd.readouterr()  # file descriptors, so a worker's output is caught too
    assert multiprocessing.active_children() == []
    return code, out, err, _tree(run_dir / "out")


@pytest.fixture()
def data_link(tmp_path, encoded_fixture_dir):
    (tmp_path / "data").symlink_to(encoded_fixture_dir, target_is_directory=True)


@pytest.mark.parametrize("flags,code", [([], 0), (["--lr", "1e300"], 3)],
                         ids=["train", "all-diverge"])
def test_two_workers_write_the_same_bytes_as_one(tmp_path, monkeypatch, capfd, data_link,
                                                 flags, code):
    one = _compare(tmp_path, monkeypatch, capfd, 1, *flags)
    two = _compare(tmp_path, monkeypatch, capfd, 2, *flags)
    assert one[0] == code
    assert two == one
    manifest = json.loads(one[3]["manifest.json"])
    assert len(manifest["models"]) == 10
    if code == 3:
        # Only the failure lines: no numpy RuntimeWarning from any process.
        assert all(line.startswith("model ") and " failed: non-finite loss" in line
                   for line in one[2].splitlines())
        assert len(one[2].splitlines()) == 10


def test_workers_never_read_the_data_directory(tmp_path, monkeypatch, capfd,
                                               encoded_fixture_dir):
    # The workers take the dataset the parent read: a data directory that is
    # gone right after that read still gives the one-worker bytes.
    data = tmp_path / "data"
    shutil.copytree(encoded_fixture_dir, data)
    one = _compare(tmp_path, monkeypatch, capfd, 1)
    real_read = harness.read_dataset_dir

    def read_then_remove(path):
        read = real_read(path)
        shutil.rmtree(data)
        return read

    monkeypatch.setattr(harness, "read_dataset_dir", read_then_remove)
    two = _compare(tmp_path, monkeypatch, capfd, 2)
    assert not data.exists()
    assert one[0] == 0
    assert two == one


def test_a_non_numeric_error_in_a_worker_stops_the_run(tmp_path, encoded_fixture_dir,
                                                         monkeypatch):
    # The workers take numpy's error handling from the parent, so under
    # errstate "raise" a diverging model stops the run with a
    # FloatingPointError, not a NumericError. The running jobs finish and
    # nothing of any model is left, as in one process.
    config = harness.config_from_dict(dict(SMALL, learning_rate=1e300,
                                           model_names=["sRNN", "GRU", "LSTM", "BLSTM"]))
    trees = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_worker_count", lambda n_models, w=workers: w)
        out = tmp_path / f"out{workers}"
        with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
            harness.run_experiment(config, encoded_fixture_dir, out)
        assert multiprocessing.active_children() == []
        trees.append(_tree(out))
    assert trees == [{}, {}]


def test_a_job_error_removes_the_failing_and_every_later_model(tmp_path, encoded_fixture_dir,
                                                                monkeypatch, capsys):
    # The collection path with a stub job: the third model raises a
    # DataError after its own files and the fourth's, run ahead as a second
    # worker would, are written (as when a running job finishes after the
    # parent is interrupted). Exit 2; the first two models are whole, and
    # the third and fourth are gone with their directories.
    names = ["sRNN", "GRU", "LSTM", "BLSTM"]
    real_job = harness._model_job

    def job(name, run):
        if name == names[2]:
            real_job(names[2], run)
            real_job(names[3], run)
            raise DataError(f"cannot write {name!r}: injected")
        return real_job(name, run)

    monkeypatch.setattr(harness, "_model_job", job)
    monkeypatch.setattr(harness, "_worker_count", lambda n_models: 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(config), "compare", "--data", str(encoded_fixture_dir),
                 "--out", str(out), "--models", ",".join(names)]) == 2
    assert "data error: cannot write 'LSTM': injected" in capsys.readouterr().err
    assert set(_tree(out)) == {name for model in names[:2] for name in
                               [model, *(f"{model}/{a}" for a in harness.MODEL_ARTIFACTS)]}
    _, fingerprint = harness.read_dataset_dir(encoded_fixture_dir)
    for model in names[:2]:
        spec, _ = load_checkpoint(out / model / harness.CHECKPOINT_FILENAME, fingerprint)
        assert spec.name == model
        json.loads((out / model / harness.METRICS_FILENAME).read_text(encoding="utf-8"))


def test_worker_count_is_one_per_cpu_and_at_most_one_per_model():
    cpus = len(os.sched_getaffinity(0))
    assert harness._worker_count(1) == 1
    assert harness._worker_count(10) == min(cpus, 10)


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def test_module_entry_point_runs_workers_and_leaves_no_process(tmp_path, encoded_fixture_dir):
    # spawn re-imports the main module in each worker; it must skip
    # narrative_seq/__main__.py, which calls the entry point unguarded. On
    # a one-CPU host the run takes the in-process path instead.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "narrative_seq", "--config", str(config), "compare",
         "--data", str(encoded_fixture_dir), "--out", str(out), "--models", "sRNN,GRU,LSTM"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert stdout.endswith(f"3/3 models completed; manifest in {out}\n")
    assert stderr == ""
    with pytest.raises(ProcessLookupError):  # nothing is left in the run's process group
        os.killpg(proc.pid, 0)


def test_importing_the_package_loads_no_pool_module():
    # The pool modules load inside run_experiment's parallel branch only, so
    # they cost nothing to a command that trains no compare.
    code = ("import sys, narrative_seq, narrative_seq.cli; "
            "print(sorted(m for m in sys.modules if m == 'multiprocessing' "
            "or m.startswith(('multiprocessing.', 'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
