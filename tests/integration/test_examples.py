"""Every script under ``examples/`` runs to completion.

The examples are the documented entry points for the figure reproductions
(``zoomin_session.py`` is FIG3), so an API change that breaks one should
fail the suite rather than the reader.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script: pathlib.Path, cwd: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_zoomin_session_reports_cache_hits(tmp_path):
    proc = _run(ROOT / "examples" / "zoomin_session.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    # The query pre-populates the cache, so both zoom-ins are hits.
    assert "cache stats: 2 hits, 0 misses" in proc.stdout
