"""The demo scripts run to completion against the package in `src/`.

Each demo is a standalone script; these tests run the quick ones in a fresh
interpreter so that an API change they depend on fails here.  The scene
generator must reproduce the bundled preset scene byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(script, tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "script", ["rcs_oracles.py", "trace_single_snapshot.py", "stream_and_metrics.py", "pylon_flyby_cir.py"]
)
def test_demo_exits_0(script, tmp_path):
    assert _run_demo(script, tmp_path).stdout


def test_make_canyon_reproduces_bundled_scene(tmp_path):
    out = tmp_path / "scene.json"
    _run_demo("make_canyon.py", tmp_path, str(out))
    bundled = ROOT / "src" / "railchan" / "presets" / "urban_canyon.scene.json"
    assert out.read_bytes() == bundled.read_bytes()
