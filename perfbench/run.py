#!/usr/bin/env python3
"""Benchmark of the indexbound package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from `src/`.
Every run of a workload starts its children one at a time: the `indexbound`
command line (`python -m indexbound.cli`).  Each child's own wall time, CPU
time and peak RSS come from `os.wait4`.  Its report is checked against
analytic oracles and against the verdicts and exit code its scenario
documents.

With `--trace 0` the invocation prints the end-to-end metrics of
BENCHMARK.json: medians over as many workload runs as fit in `--seconds`
(at least one), and over the set-up children interleaved with them.  With
`--trace 1` it pairs a plain run with a traced run (`children.py trace`) and
prints the per-layer metrics.  The last line of standard output is one JSON
object; everything else is for people.  A results file with provenance goes
to `.perfbench/` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "indexbound"
OUT = ROOT / ".perfbench"
sys.path.insert(1, str(ROOT / "src"))  # the oracles read reports with the package

import workloads  # noqa: E402
from spans import self_times  # noqa: E402

# A set-up child lasts under a second, so the machine's speed at that moment
# decides its time: take the median of many, spread over the window.
SETUP_REPEATS = 15
SETUPS_PER_RUN = 5
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0  # a run must exit within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Spans whose self time is a per-layer metric (name + "_s").
CALL_METRICS = (
    "hodge.harmonic", "spectral.eigensolve", "elements.assemble",
    "ambient.verify", "bounds.scalar3", "hypersurface.build",
    "hypersurface.node_fields", "hypersurface.pointwise_checks",
    "testfns.identity", "bounds.certificate", "bounds.margins",
    "bounds.borderline", "bounds.index_table", "hypersurface.mesh_dump",
    "cli.report_write",
)
COUNT_METRICS = (
    "hodge.forms", "spectral.dofs", "spectral.eigenpairs",
    "spectral.max_residual", "elements.nnz", "cli.report_bytes",
)
LAYERS = ("ambient", "elements", "hypersurface", "spectral", "hodge",
          "testfns", "bounds", "cli")
SWEEP_METRICS = (
    "spectral.eigensolve_s", "spectral.dofs", "spectral.eigenpairs",
    "spectral.max_residual", "elements.assemble_s", "elements.nnz",
    "hypersurface.build_s", "hypersurface.mesh_dump_s", "cli.report_write_s",
    "cli.report_bytes",
)


def per_layer_names():
    names = [c + "_s" for c in CALL_METRICS] + list(COUNT_METRICS)
    names += ["ambient.samples_per_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{m}.n{n}" for n in workloads.SWEEP_NODES for m in SWEEP_METRICS]
    return names


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(threads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# children

def run_child(argv, env, timeout, log_path):
    """Run one child to completion; its own rusage comes from os.wait4."""
    argv = [str(a) for a in argv]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        timed_out = not ready
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": argv[1:],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        "exit_code": proc.returncode,
        "timed_out": timed_out,
    }


def step_argv(step, seed, out_dir, spans_path=None):
    py = sys.executable
    cli_args = [step.command, "--config", workloads.config_path(ROOT, step),
                "--seed", seed, "--resolution-scale", repr(step.resolution_scale)]
    if spans_path is None:
        return [py, "-m", "indexbound.cli"] + cli_args + ["--out", out_dir]
    return [py, HERE / "children.py", "trace", "--suffix", step.label,
            "--spans", spans_path, "--out", out_dir, "--"] + cli_args


def _mesh_dofs(path):
    # header line: "# nodes N dofs D dim k embed d"
    for line in path.read_text().splitlines()[:3]:
        words = line.split()
        if "dofs" in words:
            return int(words[words.index("dofs") + 1])
    return None


def check_step(wl, step, res, out_dir):
    """Attach verdicts, problems and sizes to a finished child's record."""
    problems = {"crash": [], "oracle": [], "verdict": []}
    res["problems"] = problems
    if res["timed_out"]:
        problems["crash"].append(f"timed out after {res['wall_s']:.1f} s")
        return res
    scenario_id, tolerances = workloads.read_config(ROOT, step)
    try:
        report = json.loads((out_dir / f"{scenario_id}.json").read_text())
    except (OSError, ValueError):
        problems["crash"].append(f"no report; exit code {res['exit_code']}")
        return res
    if res["exit_code"] != wl.expected_exit:
        problems["verdict"].append(
            f"exit code {res['exit_code']} != documented {wl.expected_exit}")
    res["verdicts"] = workloads.block_verdicts(report)
    problems["oracle"] += workloads.cli_oracle_misses(report, wl.oracle, tolerances)
    problems["verdict"] += [
        f"{block} verdict {v!r}" for block, v in res["verdicts"].items()
        if not v.startswith(workloads.PASSING)
    ]
    mesh = out_dir / f"{scenario_id}-mesh.txt"
    res["size"] = {"nodes": report.get("resolution"),
                   "dofs": _mesh_dofs(mesh) if mesh.exists() else None}
    return res


class Runner:
    """Runs the children of one benchmark invocation, one at a time."""

    def __init__(self, workload, seed, tmp, deadline, threads):
        self.wl = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env(threads)
        self.n = 0

    def _timeout(self):
        return min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())

    def _fresh_dir(self):
        self.n += 1
        d = self.tmp / f"c{self.n}"
        d.mkdir()
        return d

    def setup(self):
        d = self._fresh_dir()
        argv = [sys.executable, HERE / "children.py", "setup",
                "--workload", self.wl.name, "--seed", self.seed]
        res = run_child(argv, self.env, self._timeout(), d / "log.txt")
        ok = res["exit_code"] == 0 and not res["timed_out"]
        res["problems"] = {"crash": [] if ok else ["set-up child failed"]}
        return res

    def workload_run(self, traced=False):
        steps, dumps = [], []
        for step in self.wl.steps:
            d = self._fresh_dir()
            spans = d / "spans.json" if traced else None
            argv = step_argv(step, self.seed, d, spans)
            res = run_child(argv, self.env, self._timeout(), d / "log.txt")
            res["label"] = step.label
            steps.append(check_step(self.wl, step, res, d))
            if traced and spans.exists():
                dumps.append(json.loads(spans.read_text()))
        return {
            "traced": traced,
            "steps": steps,
            "wall_s": sum(s["wall_s"] for s in steps),
            "cpu_s": sum(s["cpu_s"] for s in steps),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in steps),
            "failed": any(any(s["problems"].values()) for s in steps),
            "spans": dumps,
        }


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(dumps):
    """Per-layer metrics of one traced workload run.

    Every declared name is reported on every workload; a layer that the
    workload never calls spent no time there and reads 0.
    """
    m = defaultdict(float)
    counts = defaultdict(list)
    for dump in dumps:
        for span, own in zip(dump["spans"], self_times(dump["spans"])):
            name = span["name"] + "_s"
            m[name] += own
            if span["suffix"]:
                m[name + span["suffix"]] += own
            m[span["name"].split(".")[0] + ".self_s"] += own
        for c in dump["counts"]:
            counts[c["name"]].append(c["value"])
            if c["suffix"]:
                counts[c["name"] + c["suffix"]].append(c["value"])
    for name, values in counts.items():
        m[name] = max(values) if name.startswith("spectral.max_residual") else sum(values)
    if m["ambient.verify_s"] > 0:
        m["ambient.samples_per_s"] = m["ambient.samples"] / m["ambient.verify_s"]
    return {name: float(m.get(name, 0.0)) for name in per_layer_names()}


def median_metrics(samples):
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def measure(runner, seconds, trace):
    """All children of one invocation; returns (runs, set-ups, metrics).

    Set-up children are interleaved with the workload runs, up to
    SETUPS_PER_RUN before each, and topped up to SETUP_REPEATS at the end,
    so that they sample the same stretch of time as the runs.
    """
    setups, runs, samples = [], [], []
    start = time.monotonic()
    while True:
        while not trace and len(setups) < min(SETUP_REPEATS,
                                              SETUPS_PER_RUN * (len(samples) + 1)):
            setups.append(runner.setup())
        plain = runner.workload_run()
        runs.append(plain)
        if trace:
            traced = runner.workload_run(traced=True)
            runs.append(traced)
            samples.append(layer_metrics(traced["spans"]))
            # Traced minus plain wall time is within the run-to-run noise
            # and can be negative: printed and kept, but not a metric.
            traced["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        else:
            samples.append({k: plain[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        # Start another run only if one more of the mean length still ends
        # within the window, so an invocation lasts about `seconds`.
        now = time.monotonic()
        mean = (now - start) / len(samples)
        if now + mean > min(start + seconds, runner.deadline - mean):
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(runner.setup())
    metrics = median_metrics(samples)
    if setups:
        metrics["setup_s"] = statistics.median(s["wall_s"] for s in setups)
    return runs, setups, metrics


# ---------------------------------------------------------------------------
# provenance and output

def _source_hash():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed, threads, runs):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # git is not installed
        commit = None
    return {
        "git_commit": commit,
        "source_sha256": _source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "threads": {var: str(threads) for var in THREAD_VARS},
        "seed": seed,
        "sizes": [
            {"step": s["label"], **s.get("size", {})} for s in runs[0]["steps"]
        ],
    }


def run_workload(workload, seed, seconds, trace, tmp):
    threads = nproc()
    deadline = time.monotonic() + RUN_BUDGET_S
    (tmp / workload).mkdir()
    runner = Runner(workloads.WORKLOADS[workload], seed, tmp / workload,
                    deadline, threads)
    runs, setups, metrics = measure(runner, seconds, trace)
    problems = [p for r in runs for s in r["steps"] for k in ("crash", "oracle")
                for p in s["problems"][k]]
    problems += [p for s in setups for p in s["problems"]["crash"]]
    result = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, threads, runs),
        "samples": len(runs) // (2 if trace else 1),
        "setup_samples": len(setups),
        "attempted": len(runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": not problems,
        "metrics": metrics,
        "setups": setups,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        traces = [r["spans"] for r in runs if r["traced"]]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(traces) + "\n")
    return result


def describe(result, units):
    print(f"# {result['workload']}: {result['samples']} run(s)"
          + (f", {result['setup_samples']} set-up(s)" if result["setup_samples"] else "")
          + f", fail_ratio {result['failed'] / result['attempted']:.3g}"
          + f" ({result['failed']}/{result['attempted']})")
    for run in result["runs"]:
        if "trace_overhead_s" in run:
            print(f"#   trace overhead (traced minus plain wall): "
                  f"{run['trace_overhead_s']:.3f} s")
        for s in run["steps"]:
            for kind, msgs in s["problems"].items():
                for msg in msgs:
                    print(f"#   {'traced ' if run['traced'] else ''}{s['label'] or 'run'}"
                          f" {kind}: {msg}")
    for name, unit in units.items():
        print(f"{result['workload']:16s} {name:40s} {result['metrics'][name]:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no indexbound sources under {PACKAGE}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_benchmark()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    units = per_layer if args.trace else end_to_end
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), tmp)
                   for n in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for result in results:
        if set(result["metrics"]) != set(units):
            raise RuntimeError("metric names differ from BENCHMARK.json: "
                               f"{sorted(set(result['metrics']) ^ set(units))}")
        describe(result, units)
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    r = results[0]
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": r["metrics"][n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
