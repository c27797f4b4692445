"""Workload table and analytic oracles of the indexbound benchmark.

Each workload is a list of steps.  A step is one child process: the
`indexbound` command line (`python -m indexbound.cli`) on a bundled config.
The oracle checks read the JSON report a step leaves behind and compare it
with analytic values.  The program's own pass/fail policy is not copied
here: a step's verdict is its exit code plus the verdicts its report states.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path("src") / "indexbound" / "configs"

# Nodes per side of the torus sweep.  64 nodes (4,096 DOFs) is the largest
# size below the spectral layer's dense-eigensolver cutoff of 5,000 DOFs, 128
# nodes the only one above it, so both branches are timed.
SWEEP_NODES = (32, 48, 64, 128)
SWEEP_BASE_NODES = 96  # nodes per side in clifford.cfg

# Tolerances of the analytic eigenvalue oracles (acceptance criterion 3):
# relative error for a nonzero eigenvalue, absolute error for a zero one.
EIG_REL_TOL = 0.01
EIG_ZERO_TOL = 0.05

# Verdict prefixes that count as the documented outcome of a report block.
PASSING = ("pass", "borderline", "skipped")


@dataclass(frozen=True)
class Step:
    label: str  # metric-name suffix of this step, "" for none
    command: str  # cli subcommand
    config: str  # bundled config file name
    nodes: int = 0  # nodes per side when the step rescales the config

    @property
    def resolution_scale(self):
        return self.nodes / SWEEP_BASE_NODES if self.nodes else 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple
    oracle: dict
    # Exit code the bundled scenario documents: both clifford.cfg and
    # cp2-borderline.cfg describe passing checks.
    expected_exit: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clifford-all",
            "Clifford torus, every task: the Whitney Hodge solve dominates, "
            "the ambient per-point loops are small",
            (Step("", "all", "clifford.cfg"),),
            {
                "clusters": [(-4.0, 1), (-2.0, 4), (0.0, 4)],
                "index": 5,
                "forms": 2,
                "certificate": (1, 5),  # (required, actual)
                "bounds_consistent": True,
            },
        ),
        Workload(
            "cp2-all",
            "geodesic sphere in CP2, every task: the largest Jacobi pencil and "
            "the Veronese per-point loops; b1 = 0 bypasses the Hodge solve",
            (Step("", "all", "cp2-borderline.cfg"),),
            {"clusters": [(-8.0, 1)], "index": 1, "borderline": 1e-5},
        ),
        Workload(
            "torus-sweep",
            "torus spectrum at 32, 48, 64 and 128 nodes: both sides of the "
            "dense/sparse eigensolver switch, no Hodge solve",
            tuple(
                Step(f".n{n}", "spectrum", "clifford.cfg", n)
                for n in SWEEP_NODES
            ),
            {"clusters": [(-4.0, 1)], "index": 5},
        ),
    )
}


def config_path(root, step):
    return Path(root) / CONFIG_DIR / step.config


def read_config(root, step):
    """(scenario id, [tolerances] section as floats) of a step's config."""
    parser = configparser.ConfigParser()
    parser.read(config_path(root, step))
    tol = parser["tolerances"] if "tolerances" in parser else {}
    scenario = parser["scenario"] if "scenario" in parser else {}
    scenario_id = scenario.get("id", Path(step.config).stem)
    return scenario_id, {k: float(v) for k, v in tol.items()}


# ---------------------------------------------------------------------------
# verdicts of report blocks

def block_verdicts(report):
    """The verdicts a command-line report states, block by block.

    The ambient self-checks carry residuals only; their verdict is the
    package's own `IdentityReport.ok` on them.  Blocks without a verdict
    (the hypersurface checks, identity, borderline, bounds) are judged by
    the exit code and the oracles.
    """
    from indexbound.ambient import IdentityReport

    v = {}
    if "residuals" in report:
        amb = IdentityReport(report["ambient"], 0, report["residuals"]["ambient"])
        v["identities.ambient"] = "pass" if amb.ok else "fail"
    for key in ("identity", "certificate", "certificate_starred", "borderline"):
        if "skipped" in report.get(key, {}):
            v[key] = "skipped"
    for key in ("certificate", "certificate_starred"):
        if "verdict" in report.get(key, {}):
            v[key] = report[key]["verdict"]
    for name, block in report.get("margins", {}).items():
        v[f"margins.{name}"] = block["verdict"]
    return v


# ---------------------------------------------------------------------------
# analytic oracles

def _eigenvalue_misses(eigenvalues, clusters):
    misses = []
    i = 0
    for target, mult in clusters:
        window = eigenvalues[i:i + mult]
        if len(window) < mult:
            misses.append(f"only {len(eigenvalues)} eigenvalues reported")
            break
        for lam in window:
            if target == 0.0:
                ok = abs(lam) < EIG_ZERO_TOL
            else:
                ok = abs(lam - target) / abs(target) < EIG_REL_TOL
            if not ok:
                misses.append(f"eigenvalue {lam:.9g} misses oracle {target:g}")
        i += mult
    return misses


def cli_oracle_misses(report, oracle, tolerances):
    """Oracle values a command-line report misses, as readable strings."""
    misses = []
    spec = report.get("spectrum")
    if spec is None:
        return ["report has no spectrum block"]
    misses += _eigenvalue_misses(spec["eigenvalues"], oracle["clusters"])
    if spec["index"] != oracle["index"]:
        misses.append(f"index {spec['index']} != {oracle['index']}")
    if "forms" in oracle:
        q = report.get("certificate", {}).get("q")
        if q != oracle["forms"]:
            misses.append(f"harmonic forms {q} != {oracle['forms']}")
        tol = tolerances["identity"]
        for mode, rep in report.get("identity", {}).items():
            r = rep["relative_residual"] if isinstance(rep, dict) else None
            if r is None or not r < tol:
                misses.append(f"identity {mode} residual {r} >= {tol}")
    if "certificate" in oracle:
        required, actual = oracle["certificate"]
        for key in ("certificate", "certificate_starred"):
            c = report.get(key, {})
            if (c.get("required"), c.get("actual")) != (required, actual):
                misses.append(
                    f"{key} required/actual {c.get('required')}/"
                    f"{c.get('actual')} != {required}/{actual}"
                )
    if "bounds_consistent" in oracle:
        if report.get("bounds", {}).get("consistent") is not True:
            misses.append("bounds table is not consistent")
    if "borderline" in oracle:
        b = report.get("borderline", {})
        for key in ("div_jn_residual", "decomposition_residual",
                    "traced_gauss_residual"):
            r = b.get(key)
            if r is None or not r < oracle["borderline"]:
                misses.append(f"borderline {key} {r} >= {oracle['borderline']}")
    return misses
