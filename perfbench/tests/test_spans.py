"""Span arithmetic and recording.  Run: python3 -m pytest perfbench/tests"""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from inputs import write_inputs  # noqa: E402
from spans import Recorder, layer_metrics, self_times, union_length  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name,
            "layer": "test", "attrs": {}}


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0), (3.0, 6.0)]) == pytest.approx(6.0)
    assert union_length([(5.0, 7.0), (0.0, 1.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_union_of_overlapping_children():
    # parent 0..10; two children on different threads overlap on 3..5;
    # the second child has its own child 4..6.
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 5.0),
        span(3, 1, 3.0, 8.0),
        span(4, 3, 4.0, 6.0),
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 7.0)  # union 1..8, not 4 + 5
    assert got[2] == pytest.approx(4.0)
    assert got[3] == pytest.approx(5.0 - 2.0)
    assert got[4] == pytest.approx(2.0)
    assert all(v >= 0.0 for v in got.values())


def test_self_time_clips_children_to_the_parent():
    got = self_times([span(1, None, 0.0, 4.0), span(2, 1, 3.0, 9.0)])
    assert got[1] == pytest.approx(3.0)


def test_worker_spans_take_the_submitting_span_as_parent():
    rec = Recorder()
    inner = rec.wrap(lambda: threading.get_ident(), "inner", "test")

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(rec.carry(inner)) for _ in range(6)]
            return {f.result() for f in futures}

    threads = rec.wrap(outer, "outer", "test")()
    root = next(s for s in rec.spans if s["name"] == "outer")
    workers = [s for s in rec.spans if s["name"] == "inner"]
    assert threading.get_ident() not in threads
    assert len(workers) == 6
    assert all(s["parent"] == root["id"] for s in workers)
    assert all(v >= 0.0 for v in self_times(rec.spans).values())


def run_traced(code, tmp_path):
    """Run ``code`` in a fresh interpreter with src/ and perfbench/ importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), BENCH]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_install_traces_cli_and_reports_missing_targets_as_null(tmp_path):
    golden = write_inputs(0, str(tmp_path))["golden"]
    code = f"""
import io, json, contextlib
import qtop.cli, qtop.operators
del qtop.operators.spectral_flow  # a boundary a later refactor removed
from spans import Recorder, install, layer_metrics
rec = Recorder()
main = install(rec)
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(["factorize", {golden!r}, "--param", "1=1"])
print(json.dumps({{"code": exit_code, "missing": sorted(rec.missing),
                  "metrics": layer_metrics(rec.spans, rec.missing)}}))
"""
    got = run_traced(code, tmp_path)
    assert got["code"] == 0
    assert got["missing"] == ["operators.spectral_flow"]
    metrics = got["metrics"]
    assert metrics["operators.flow_self_s"] is None
    assert metrics["symbols.slice_calls"] == 1
    assert metrics["wiener_hopf.factorize_calls"] == 1
    assert metrics["wiener_hopf.det_evals_per_factorization"] == pytest.approx(2.0)
    assert metrics["trace.coverage"] > 0.5


def test_layer_metrics_on_synthetic_spans():
    fact = "wiener_hopf.canonical_factorize"
    spans = [
        span(1, None, 0.0, 10.0, "cli.main"),
        span(2, 1, 1.0, 9.0, "extension.factor_at"),
        span(3, 2, 2.0, 6.0, fact),
        span(4, 3, 2.0, 3.0, "wiener_hopf.certify_invertible"),
        span(5, 1, 9.0, 9.5, "extension.factor_at"),
    ]
    spans[2]["attrs"] = {"truncation": 32.0, "residual": 1e-15, "condition": 2.0}
    got = layer_metrics(spans, set())
    assert got["wiener_hopf.factorize_calls"] == 1
    assert got["wiener_hopf.factorize_s"] == pytest.approx(3.0)
    assert got["extension.cache_hit_frac"] == pytest.approx(0.5)
    assert got["wiener_hopf.det_calls"] == 1
    assert got["cli.self_s"] == pytest.approx(1.5)
    assert got["trace.coverage"] == pytest.approx(0.85)
    assert got["wiener_hopf.truncation_max"] == 32.0
    assert layer_metrics(spans, {fact})["wiener_hopf.factorize_s"] is None


def test_metric_names_match_benchmark_json():
    from run import END_TO_END_UNITS, per_layer_units

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
