"""Every walkthrough under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_walkthrough_runs(tmp_path):
    # demo 06 calls the installed ``llmdetect`` command; a shim on PATH
    # runs this checkout's package in its place
    shim = tmp_path / "bin" / "llmdetect"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m llmdetect "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PATH=os.pathsep.join([str(shim.parent), os.environ["PATH"]]))
    proc = subprocess.run(["bash", str(DEMO_DIR / "06_cli_pipeline.sh")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "== blended (ensemble file 3 : naive Bayes 1) ==" in proc.stdout
