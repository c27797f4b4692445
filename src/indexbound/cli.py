"""Scenario runner: builds a configured hypersurface, runs the requested
checks, and writes JSON reports plus a CSV summary.

Configs are flat INI files (see the bundled files under `configs/`); a bad
value, or a key that no scenario reads, is a usage error (exit 2).  Exit
status is 1 when a block's own verdict, stated with its tolerances by the
module that owns its rule, reads "fail" or a stage raises (`failed_blocks`).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from importlib import resources
from pathlib import Path

# CPython's builtin SHA-256, as random.py takes its SHA-512: hashlib would
# map OpenSSL's libcrypto (3.5 MB) into a run that needs none of it
try:
    from _sha2 import sha256
except ImportError:  # Python 3.10 and 3.11
    from _sha256 import sha256

import numpy as np

from . import __version__
from . import ambient as ambient_mod
from . import bounds as bounds_mod
from . import hodge as hodge_mod
from . import hypersurface as hyp_mod
from . import testfns as testfns_mod
from .spectral import assemble_jacobi


class ConfigError(Exception):
    pass


#: environment variables that set the BLAS thread count, on which a run's
#: CPU time depends and its results do not
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _value(parser, section, key, conv, default=None):
    """`conv` of the config value of `key` in `section`, removed from
    `parser` once read, or `default` where the config has none (a
    ConfigError without a default); a value `conv` refuses is a ConfigError
    naming the section and the key."""
    raw = parser.get(section, key, fallback=None)
    if raw is None and default is None:
        raise ConfigError(f"[{section}] needs {key!r}")
    if raw is None:
        return default
    parser.remove_option(section, key)
    try:
        return conv(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _int_at_least(low):
    """The converter of an integer >= `low`, for a config value or a flag."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value
    return integer


def _finite_positive(text):
    """A finite positive number: a --resolution-scale or a [tolerances]
    identity value."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, not {text!r}")
    return value


def _build_ambient(parser):
    kind = _value(parser, "ambient", "kind", str)
    if kind not in ambient_mod.AMBIENT_KINDS:
        raise ConfigError(f"unknown ambient kind {kind!r}")
    entry = ambient_mod.AMBIENT_KINDS[kind]
    return entry.model(**{name: _value(parser, "ambient", name, conv)
                          for name, conv in entry.params.items()})


def _build_surface(parser, ambient, resolution_scale):
    """The configured surface, built in `ambient` (in a quotient ambient, the
    double cover of the surface)."""
    kind = _value(parser, "hypersurface", "kind", str)
    if kind not in hyp_mod.SURFACE_KINDS:
        raise ConfigError(f"unknown hypersurface kind {kind!r}")
    entry = hyp_mod.SURFACE_KINDS[kind]
    nodes = _value(parser, "hypersurface", "nodes", _int_at_least(4), 24)
    nodes = max(4, int(round(nodes * resolution_scale)))
    incompatible = (f"hypersurface {kind!r} is incompatible with ambient "
                    f"{ambient.kind!r} of dimension {ambient.intrinsic_dim}")
    if ambient.kind not in entry.ambients:
        raise ConfigError(incompatible)
    try:
        return entry.build(ambient, nodes)
    except ambient_mod.AmbientError as exc:
        raise ConfigError(f"{incompatible}: {exc}") from None


class Scenario:
    """Parsed scenario; a config key that it does not read is a ConfigError."""

    def __init__(self, config_path, resolution_scale=1.0, seed=None):
        # no interpolation: a "%" in a value reaches its converter; no
        # default section (no header is empty): [DEFAULT] keys are unread keys
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            read = parser.read(config_path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {config_path}")
        if "scenario" not in parser:
            raise ConfigError("config lacks a [scenario] section")
        self.config_sha256 = sha256(Path(config_path).read_bytes()).hexdigest()
        self.id = _value(parser, "scenario", "id", str, Path(config_path).stem)
        # read even under a --seed override, so a bad seed is still refused
        config_seed = _value(parser, "scenario", "seed", _int_at_least(0), 12345)
        self.seed = config_seed if seed is None else seed
        self.ambient = _build_ambient(parser)
        self.surface = _build_surface(parser, self.ambient, resolution_scale)
        self.identity_tol = _value(parser, "tolerances", "identity",
                                   _finite_positive, 1e-4)
        self.eta = _value(parser, "certificate", "eta", float, 0.0)
        self.how_many = _value(parser, "certificate", "eigenvalues", int, 24)
        if self.how_many < 1 or not np.isfinite(self.eta):
            raise ConfigError("[certificate] needs eigenvalues >= 1 and a "
                              f"finite eta, not {self.how_many} and {self.eta}")
        unread = [f"[{s}] {key}" for s in parser.sections()
                  for key in parser.options(s)]
        if unread:
            raise ConfigError("no scenario reads " + ", ".join(unread))


#: why a task skips a surface without a stability potential, or without forms
_NO_POTENTIAL = "surface carries no potential"
_NO_FORMS = "no harmonic one-forms (b1 = 0)"


class _Run:
    """What the tasks of one run share: the harmonic basis, set by the hodge
    stage, and the spectrum, solved by the first task that needs it (on the
    quotient's pencil in a quotient ambient)."""

    def __init__(self, scenario):
        self.scenario, self.surface = scenario, scenario.surface
        self.basis = self.spectrum = None

    def spectrum_report(self):
        if self.spectrum is None:
            system = assemble_jacobi(self.surface)
            self.spectrum = system.spectrum(how_many=self.scenario.how_many,
                                            eta=self.scenario.eta)
        return self.spectrum


def _identities(run):
    sc = run.scenario
    return {"residuals": ambient_mod.residuals_block(
        ambient_mod.verify_model_identities(sc.ambient, seed=sc.seed),
        run.surface.pointwise_checks(seed=sc.seed))}


def _spectrum(run):
    if run.surface.potential is None:
        return {"spectrum": {"skipped": _NO_POTENTIAL}}
    return {"spectrum": run.spectrum_report().block(run.scenario.eta)}


def _hodge(run):
    run.basis = hodge_mod.harmonic_one_forms(run.surface)
    return {}


def _verify_identity(run):
    if not run.basis:
        return {"identity": {"skipped": _NO_FORMS}}
    sc = run.scenario
    c = ambient_mod.Draws(sc.seed).standard_normal(len(run.basis))
    return {"identity": testfns_mod.q_identity_report(
        run.surface, hodge_mod.combine(run.basis, c), sc.identity_tol)}


def _certify(run):
    if not run.basis:
        return {"certificate": {"skipped": _NO_FORMS}}
    return bounds_mod.certificates(run.surface, run.basis, run.scenario.eta,
                                   spectrum=run.spectrum_report())


def _margins(run):
    return {"margins": bounds_mod.application_margins(
        run.surface, run.basis, seed=run.scenario.seed)}


def _borderline(run):
    return {"borderline": bounds_mod.borderline_cp_report(run.surface)}


def _bounds(run):
    if run.surface.potential is None:
        return {"bounds": {"skipped": _NO_POTENTIAL}}
    return {"bounds": bounds_mod.index_bound_report(
        run.surface, spectrum=run.spectrum_report())}


#: the stages of a run in order, each returning the blocks it adds to the
#: report; "hodge" runs when a task needs the forms
_STAGES = {
    "identities": _identities,
    "spectrum": _spectrum,
    "hodge": _hodge,
    "verify-identity": _verify_identity,
    "certify": _certify,
    "margins": _margins,
    "borderline": _borderline,
    "bounds": _bounds,
}


def failed_blocks(report):
    """The one pass/fail rule of a run, which passes when this names none:
    the blocks of `report` whose verdict reads "fail", by block (`bounds`)
    or part (`margins.convex`), then `error:<stage>` if a stage raised."""
    blocks = {name: b for name, b in report.items() if isinstance(b, dict)}
    parts = blocks | {f"{name}.{key}": part for name, b in blocks.items()
                      for key, part in b.items() if isinstance(part, dict)}
    failed = [n for n, part in parts.items() if part.get("verdict") == "fail"]
    error = [f"error:{report['error']['stage']}"] if "error" in report else []
    return failed + error


def run_tasks(scenario, tasks, artifacts=None):
    """Execute the requested task set; returns (report dict, ok flag), ok
    when `failed_blocks` names nothing.  A stage that raises ends the run,
    and the report names it in an `error`.  When `artifacts` is a dict, the
    spectrum report, which is no JSON, is stored there for the caller.
    """
    surf = scenario.surface
    report = {
        "scenario": scenario.id,
        "ambient": scenario.ambient.kind,
        "hypersurface": surf.name,
        "resolution": [ax.n_nodes for ax in surf.axes],
        "seed": scenario.seed,
        "provenance": {
            "indexbound": __version__,
            "numpy": np.__version__,
            "config_sha256": scenario.config_sha256,
            "seed": scenario.seed,
            "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        },
    }
    tasks = set(tasks)
    if tasks & {"verify-identity", "certify", "margins"}:  # they need the forms
        tasks.add("hodge")
    run = _Run(scenario)
    for stage, task in _STAGES.items():
        if stage not in tasks:
            continue
        try:
            report.update(task(run))
        except Exception as exc:  # solver, assembly or geometry failure
            import traceback  # only here: a run that succeeds never loads it
            traceback.print_exc()
            report["error"] = {"stage": stage, "type": type(exc).__name__,
                               "message": str(exc)}
            print(f"error in {stage}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            break
    if artifacts is not None and run.spectrum is not None:
        artifacts["spectrum"] = run.spectrum
    return report, not failed_blocks(report)


#: each command and the tasks it runs
TASK_NAMES = {name: {name} for name in _STAGES if name != "hodge"}
TASK_NAMES["all"] = set(TASK_NAMES)


def bundled_config(name):
    """Path of a config file shipped with the package."""
    return resources.files("indexbound").joinpath("configs", name)


#: the header of summary.csv, one column per value of `_summary_row`
SUMMARY_FIELDS = ["scenario", "ambient", "hypersurface", "resolution", "index",
                  "required", "actual", "failed", "verdict"]


def _summary_row(report):
    spec = report.get("spectrum", {})
    cert = report.get("certificate", {})
    failed = failed_blocks(report)
    return [report["scenario"], report["ambient"], report["hypersurface"],
            "x".join(map(str, report["resolution"])), spec.get("index", ""),
            cert.get("required", ""), cert.get("actual", ""),
            ";".join(failed), "fail" if failed else "pass"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="indexbound",
        description="Numerical checks of index lower bounds for minimal "
        "hypersurfaces.",
    )
    parser.add_argument("command", choices=sorted(TASK_NAMES))
    parser.add_argument("--config", default=None,
                        help="scenario config file (INI); defaults to the "
                        "bundled clifford.cfg")
    parser.add_argument("--out", default="reports",
                        help="output directory for JSON/CSV reports")
    parser.add_argument("--resolution-scale", type=_finite_positive, default=1.0)
    parser.add_argument("--seed", type=_int_at_least(0), default=None)
    args = parser.parse_args(argv)

    config = args.config or str(bundled_config("clifford.cfg"))

    # a row appended under another header would be read under the wrong keys
    out_dir = Path(args.out)
    summary_path = out_dir / "summary.csv"
    header = None
    if summary_path.exists():
        with open(summary_path, newline="") as fh:
            header = next(csv.reader(fh), None)
    if header not in (None, SUMMARY_FIELDS):
        print(f"error: {summary_path} has the header {','.join(header)}, not "
              f"{','.join(SUMMARY_FIELDS)}", file=sys.stderr)
        return 2

    try:
        scenario = Scenario(config, resolution_scale=args.resolution_scale,
                            seed=args.seed)
    except (ConfigError, ambient_mod.AmbientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    artifacts = {}
    report, ok = run_tasks(scenario, TASK_NAMES[args.command], artifacts)

    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{scenario.id}.json"
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(summary_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if header is None:
            writer.writerow(SUMMARY_FIELDS)
        writer.writerow(_summary_row(report))

    if "spectrum" in artifacts:
        (out_dir / f"{scenario.id}-spectrum.csv").write_text(
            artifacts["spectrum"].to_csv()
        )
    if "error" not in report:  # the mesh dump assembles what may have failed
        with open(out_dir / f"{scenario.id}-mesh.txt", "w") as fh:
            scenario.surface.mesh_dump(fh)

    print(f"{scenario.id}: {'pass' if ok else 'fail'} -> {json_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
