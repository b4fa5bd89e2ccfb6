"""Every demo script runs to completion in a fresh interpreter with every
warning an error, with nothing on stderr, and leaves no scratch directory
behind. ``-X dev`` turns on ResourceWarning and ``-W error`` makes any warning
an error; one raised in a finaliser (an unclosed pipe or file) only prints, so
stderr must be empty too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # the demos' scratch directories land under tmp_path
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not list(tmp_path.glob("eaparse_demo_*"))
