"""Each walkthrough in demos/ runs to completion and writes nothing into the
source tree (the demos keep their artifacts in temporary directories)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tree_files() -> set[Path]:
    # Top-level dot directories (.git, tool caches, benchmark output) belong
    # to other tools, which may write there while the suite runs.
    return {path for path in ROOT.rglob("*")
            if not path.relative_to(ROOT).parts[0].startswith(".") and path.is_file()}


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    # TMPDIR keeps the artifacts the demos leave for the reader out of /tmp.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(tmp_path))
    before = _tree_files()
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _tree_files() - before == set()
