"""The benchmark's span hooks still fit the package.

bench/spans.py wraps package functions by module and name and reads
attributes of their results, so a rename or a reshaped result breaks a
traced run (`bench/run.py --trace 1`) without failing any other test.
These checks read bench/ and change nothing there.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _spans_module(monkeypatch):
    # no bench/__pycache__: these checks leave bench/ as they found it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = _spans_module(monkeypatch)
    targets = [t[:2] for t in spans.TARGETS] + [t[:2] for t in spans.GENERATOR_TARGETS]
    assert targets
    for mod_name, attr in targets:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def _run_traced(tmp_path, argv, spans_name="spans.json") -> dict:
    """Run one CLI command under bench/launch.py, so that every span's
    after-call hook runs on real arguments and results; return the
    recorded spans by name (the last one of each name)."""
    env = {k: v for k, v in os.environ.items() if k != "QKNESER_OUT_DIR"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = tmp_path / spans_name
    proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), str(out), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {s["name"]: s for s in json.loads(out.read_text())}


@pytest.mark.parametrize("argv, span", [
    (["solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--task", "tw"],
     "twsolve.treewidth_exact"),
    (["decompose", "-q", "2", "-n", "4", "-k", "2", "-t", "1"], "td.validate"),
    (["verify", "separators"], "verify.separators"),
    (["verify", "degrees"], "verify.degrees"),
])
def test_traced_command_exits_zero_and_records_its_span(tmp_path, argv, span):
    assert span in _run_traced(tmp_path, argv)


def test_traced_gr_export_and_mis_solve_read_their_files(tmp_path):
    """build --out writes the .gr that solve --gr --task mis reads: the
    write_gr and read_gr hooks find the path among the call's arguments."""
    gr = tmp_path / "k.gr"
    built = _run_traced(tmp_path, ["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                                   "--out", str(gr)], "build.json")
    assert built["graph.write_gr"]["attrs"]["bytes"] == gr.stat().st_size > 0
    solved = _run_traced(tmp_path, ["solve", "--gr", str(gr), "--task", "mis"], "solve.json")
    assert solved["graph.read_gr"]["attrs"]["bytes"] == gr.stat().st_size
    assert "ekr.mis" in solved


def test_traced_all_t_build_is_not_counted_as_single_builds(tmp_path):
    """build_qkneser_all_t builds its graphs without calling the public
    build_qkneser, so a traced verify degrees counts each build once."""
    spans = _run_traced(tmp_path, ["verify", "degrees"])
    assert "graph.build_all_t" in spans and "graph.build" not in spans
