"""The benchmark's workloads still produce their stored outputs.

Each workload of ``perfbench/workloads.py`` runs through ``railchan.cli.main``
in this process at CLI seed 0, and ``perfbench/checks.check`` compares its
outputs with the seed-0 record of ``perfbench/reference.json``: exact counts,
then SHA-256 digests, else per-column fingerprints within the benchmark's
tolerance.  The benchmark files are read, never written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from railchan.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


checks = _perfbench_module("checks")
workloads = _perfbench_module("workloads")
CLI_SEED = 0


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(tmp_path, capsys, reference, name):
    out = tmp_path / name
    argv = [*workloads.WORKLOADS[name].argv, "--seed", str(CLI_SEED), "--output-dir", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    want = reference[checks.record_key(name, CLI_SEED)]
    assert checks.check(out, manifest, want, checks.digests(out)) == []
