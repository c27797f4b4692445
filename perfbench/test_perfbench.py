"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench

The real-child tests run the 32-node torus spectrum (about 2 s each).
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SMALL = workloads.Step(".n32", "spectrum", "clifford.cfg", 32)
TORUS_ORACLE = {"clusters": [(-4.0, 1)], "index": 5}


def _workload(oracle, steps=(SMALL,)):
    return workloads.Workload("test", "harness self-test", steps, oracle)


def _runner(tmp_path, wl, budget=60.0):
    return run.Runner(wl, 3, tmp_path, time.monotonic() + budget, run.nproc())


def _problems(result, kind):
    return [p for s in result["steps"] for p in s["problems"][kind]]


def test_true_oracle_passes(tmp_path):
    result = _runner(tmp_path, _workload(TORUS_ORACLE)).workload_run()
    assert not result["failed"], result["steps"][0]["problems"]
    assert result["steps"][0]["size"] == {"nodes": [32, 32], "dofs": 1024}


@pytest.mark.parametrize("oracle, miss", [
    ({"clusters": [(-4.0, 1)], "index": 6}, "index 5 != 6"),
    ({"clusters": [(-4.2, 1)], "index": 5}, "misses oracle -4.2"),
])
def test_wrong_oracle_counts_as_failed(tmp_path, oracle, miss):
    result = _runner(tmp_path, _workload(oracle)).workload_run()
    assert result["failed"]
    assert any(miss in p for p in _problems(result, "oracle"))


def test_wrong_oracle_fails_the_traced_run(tmp_path):
    wl = _workload({"clusters": [(-4.0, 1)], "index": 4})
    result = _runner(tmp_path, wl).workload_run(traced=True)
    assert result["failed"]
    assert any("index 5 != 4" in p for p in _problems(result, "oracle"))
    assert result["spans"], "the traced child wrote no spans"


def test_traced_child_writes_the_command_lines_own_output(tmp_path):
    runner = _runner(tmp_path, _workload(TORUS_ORACLE))
    runner.workload_run()
    traced = runner.workload_run(traced=True)
    assert [s["exit_code"] for s in traced["steps"]] == [0]
    plain_dir, traced_dir = tmp_path / "c1", tmp_path / "c2"
    for name in ("clifford.json", "clifford-spectrum.csv", "summary.csv"):
        assert (traced_dir / name).read_text() == (plain_dir / name).read_text()
    names = {s["name"] for s in traced["spans"][0]["spans"]}
    assert {"hypersurface.build", "elements.assemble", "spectral.eigensolve",
            "hypersurface.mesh_dump", "cli.report_write"} <= names
    metrics = run.layer_metrics(traced["spans"])
    assert metrics["spectral.dofs.n32"] == 1024
    assert metrics["elements.nnz.n32"] > 0
    assert metrics["cli.report_write_s"] > 0


def test_traced_child_keeps_the_command_lines_exit_code(tmp_path):
    missing = workloads.Step("", "spectrum", "no-such-config.cfg")
    runner = _runner(tmp_path, _workload(TORUS_ORACLE, (missing,)))
    plain, traced = runner.workload_run(), runner.workload_run(traced=True)
    assert [s["exit_code"] for s in plain["steps"]] == [2]
    assert [s["exit_code"] for s in traced["steps"]] == [2]


def test_crashing_child_counts_as_failed(tmp_path):
    missing = workloads.Step("", "spectrum", "no-such-config.cfg")
    result = _runner(tmp_path, _workload(TORUS_ORACLE, (missing,))).workload_run()
    assert result["failed"]
    assert _problems(result, "crash")
    assert result["steps"][0]["exit_code"] == 2


def test_child_past_its_timeout_counts_as_failed(tmp_path):
    result = _runner(tmp_path, _workload(TORUS_ORACLE), budget=0.3).workload_run()
    step = result["steps"][0]
    assert step["timed_out"] and result["failed"]
    assert step["wall_s"] < 5.0
    assert any("timed out" in p for p in _problems(result, "crash"))


def test_undocumented_exit_code_counts_as_failed(tmp_path):
    wl = workloads.Workload("test", "self-test", (SMALL,), TORUS_ORACLE,
                            expected_exit=1)
    result = _runner(tmp_path, wl).workload_run()
    assert result["failed"] and not _problems(result, "oracle")
    assert any("exit code 0" in p for p in _problems(result, "verdict"))


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == run.per_layer_names()
    assert len(set(declared)) == len(declared)
    end_to_end, per_layer = run.load_benchmark()
    assert set(end_to_end) == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class _FakeRunner:
    """Stands in for Runner: canned children, no processes."""

    deadline = float("inf")

    def __init__(self, dumps):
        self.dumps = dumps

    def setup(self):
        return {"wall_s": 0.5, "problems": {"crash": []}}

    def workload_run(self, traced=False):
        return {"traced": traced, "steps": [], "wall_s": 2.0, "cpu_s": 3.0,
                "peak_rss_mb": 100.0, "failed": False,
                "spans": self.dumps if traced else []}


def _dump(suffix):
    spans = [
        {"name": "cli.main", "suffix": suffix, "start": 0.0, "end": 3.0,
         "parent": None},
        {"name": "spectral.eigensolve", "suffix": suffix, "start": 0.5,
         "end": 1.5, "parent": 0},
        {"name": "ambient.verify", "suffix": suffix, "start": 2.0, "end": 2.5,
         "parent": 0},
    ]
    counts = [{"name": "ambient.samples", "suffix": suffix, "value": 10.0},
              {"name": "spectral.dofs", "suffix": suffix, "value": 100.0}]
    return {"spans": spans, "counts": counts}


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_the_declared_ones(trace):
    end_to_end, per_layer = run.load_benchmark()
    dumps = [_dump(".n32"), _dump(".n64"), _dump("")]
    _, _, metrics = run.measure(_FakeRunner(dumps), 0.0, trace)
    assert set(metrics) == set(per_layer if trace else end_to_end)
    if trace:
        assert metrics["spectral.dofs"] == 300
        assert metrics["spectral.dofs.n32"] == 100
        assert metrics["spectral.eigensolve_s"] == 3.0
        assert metrics["spectral.eigensolve_s.n64"] == 1.0
        assert metrics["cli.self_s"] == 4.5
        assert metrics["ambient.samples_per_s"] == 20.0


def test_self_time_excludes_children():
    spans = [
        {"name": "cli.main", "suffix": "", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "hodge.harmonic", "suffix": "", "start": 1.0, "end": 7.0, "parent": 0},
        {"name": "elements.assemble", "suffix": "", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert self_times(spans) == [4.0, 5.0, 1.0]


def test_span_closes_the_spans_begun_inside_it():
    tr = Tracer(".n32")
    with tr.span("cli.main"):
        tr.begin("cli.report_write")
        with tr.span("hypersurface.mesh_dump"):
            pass
    spans = tr.dump()["spans"]
    assert [s["parent"] for s in spans] == [None, 0, 1]
    assert all(s["end"] is not None and s["suffix"] == ".n32" for s in spans)
    assert spans[1]["end"] == spans[0]["end"]


def test_ambient_verdict_is_the_packages_own():
    report = {"ambient": "sphere",
              "residuals": {"ambient": {"ii_symmetry": 1e-6,
                                        "gauss_fd_closure": 1e-6}}}
    assert workloads.block_verdicts(report) == {"identities.ambient": "fail"}
    report["residuals"]["ambient"]["ii_symmetry"] = 1e-12
    assert workloads.block_verdicts(report) == {"identities.ambient": "pass"}
