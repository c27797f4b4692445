"""Scenario runner: builds a configured hypersurface, runs the requested
checks, and writes JSON reports plus a CSV summary.

Configs are flat INI files (see the bundled files under `configs/`).  Exit
status is nonzero when any verdict fails, a residual exceeds its tolerance,
or a solver reports an error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import ambient as ambient_mod
from . import bounds as bounds_mod
from . import hodge as hodge_mod
from . import hypersurface as hyp_mod
from . import testfns as testfns_mod
from .spectral import SpectralError, assemble_jacobi


class ConfigError(Exception):
    pass


_AMBIENT_PARAMS = {
    "sphere": [("dim", int)],
    "real_projective": [("dim", int)],
    "complex_projective_veronese": [("m", int)],
    "quaternionic_projective_veronese": [("p", int)],
    "circle_times_sphere": [("n", int)],
    "sphere_times_sphere": [("p", int), ("q", int)],
    "ellipsoid": [("semi_axes", lambda s: [float(x) for x in s.split()])],
}


def _build_ambient(section):
    kind = section.get("kind")
    if kind not in _AMBIENT_PARAMS:
        raise ConfigError(f"unknown ambient kind {kind!r}")
    params = {}
    for name, conv in _AMBIENT_PARAMS[kind]:
        if name not in section:
            raise ConfigError(f"ambient kind {kind!r} needs parameter {name!r}")
        params[name] = conv(section[name])
    return ambient_mod.make_ambient(kind, **params)


def _build_surface(section, ambient, resolution_scale):
    kind = section.get("kind")
    nodes = max(4, int(round(section.getint("nodes", 24) * resolution_scale)))
    lift = None
    if kind == "clifford_torus":
        if ambient.kind == "real_projective":
            surface, lift = hyp_mod.clifford_torus_projective(nodes)
        elif ambient.kind == "sphere" and ambient.intrinsic_dim == 3:
            surface = hyp_mod.clifford_torus(nodes)
        else:
            raise ConfigError("clifford_torus needs a three-sphere ambient")
    elif kind == "equator":
        n = section.getint("n", 2)
        surface = hyp_mod.equator_in_sphere(n, nodes)
    elif kind == "generalized_clifford":
        surface = hyp_mod.generalized_clifford(section.getint("n", 3), nodes)
    elif kind == "circle_times_equator":
        surface = hyp_mod.circle_times_equator(section.getint("n", 3), nodes)
    elif kind == "geodesic_sphere_cp2":
        surface = hyp_mod.geodesic_sphere_cp2(nodes)
    elif kind == "ellipsoid_section":
        if not isinstance(ambient, ambient_mod.EllipsoidModel):
            raise ConfigError("ellipsoid_section needs an ellipsoid ambient")
        surface = hyp_mod.ellipsoid_section(ambient.semi_axes, nodes)
    else:
        raise ConfigError(f"unknown hypersurface kind {kind!r}")
    if surface.ambient.kind != ambient.kind:
        raise ConfigError(
            f"hypersurface {kind!r} is incompatible with ambient {ambient.kind!r}"
        )
    return surface, lift


class Scenario:
    """Parsed scenario: ambient + hypersurface + tasks + tolerances."""

    def __init__(self, config_path, resolution_scale=1.0, seed=None,
                 tol_scale=1.0):
        parser = configparser.ConfigParser()
        try:
            read = parser.read(config_path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {config_path}")
        if "scenario" not in parser:
            raise ConfigError("config lacks a [scenario] section")
        self.id = parser["scenario"].get("id", Path(config_path).stem)
        self.seed = seed if seed is not None else parser["scenario"].getint(
            "seed", 12345
        )
        if "ambient" not in parser or "hypersurface" not in parser:
            raise ConfigError("config needs [ambient] and [hypersurface] sections")
        self.ambient = _build_ambient(parser["ambient"])
        self.surface, self.lift = _build_surface(
            parser["hypersurface"], self.ambient, resolution_scale
        )
        tol = parser["tolerances"] if "tolerances" in parser else {}
        self.tolerances = {
            "identity": tol_scale * float(tol.get("identity", 1e-4)),
            "pointwise": tol_scale * float(tol.get("pointwise", 1e-8)),
            "borderline": tol_scale * float(tol.get("borderline", 1e-5)),
        }
        cert = parser["certificate"] if "certificate" in parser else {}
        self.eta = float(cert.get("eta", 0.0))
        self.how_many = int(cert.get("eigenvalues", 24))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(
        x, (int, float)
    ):
        return f"{x.numerator}/{x.denominator}"
    return x


def _margin_block(m):
    return {"values": m.values, "thresholds": m.thresholds, "verdict": m.verdict}


def _spectrum_block(scenario):
    system = assemble_jacobi(scenario.surface)
    rep = system.spectrum(how_many=scenario.how_many)
    block = {
        "eigenvalues": rep.eigenvalues.tolist(),
        "index": rep.morse_index,
        "inertia_index": rep.inertia_index,
        "count_below": {"0.0": rep.morse_index},
        "max_residual": float(rep.residuals.max()),
        "cluster_ids": rep.cluster_ids.tolist(),
        "shift": rep.shift,
        "dofs": rep.n_dofs,
        "factor_nnz": rep.factor_nnz,
        "ordering": rep.ordering,
    }
    try:
        block["count_below"][f"{scenario.eta}"] = rep.count_below(scenario.eta)
    except SpectralError as exc:
        block["count_below_error"] = str(exc)
    return block, rep, system


#: why a task that needs the stability potential skips a surface without one
_NO_POTENTIAL = "surface carries no potential"


def run_tasks(scenario, tasks, artifacts=None):
    """Execute the requested task set; returns (report dict, ok flag).

    When `artifacts` is a dict, non-JSON side products (the spectrum report)
    are stored there for the caller to serialize separately.
    """
    surf = scenario.surface
    report = {
        "scenario": scenario.id,
        "ambient": scenario.ambient.kind,
        "hypersurface": surf.name,
        "resolution": [ax.n_nodes for ax in surf.axes],
        "seed": scenario.seed,
    }
    ok = True
    spectrum_rep = None
    system = None

    if "identities" in tasks:
        amb_rep = ambient_mod.verify_model_identities(
            scenario.ambient, 200, seed=scenario.seed
        )
        checks = surf.pointwise_checks(seed=scenario.seed)
        tol = scenario.tolerances["pointwise"]
        report["residuals"] = {
            "ambient": amb_rep.residuals,
            "hypersurface": checks,
            "pointwise_tolerance": tol,
        }
        ok &= amb_rep.ok
        ok &= max(checks.values()) < tol

    if "spectrum" in tasks:
        if surf.fem().potential is None:
            report["spectrum"] = {"skipped": _NO_POTENTIAL}
        else:
            block, spectrum_rep, system = _spectrum_block(scenario)
            report["spectrum"] = block

    needs_forms = {"verify-identity", "certify"} & set(tasks)
    basis = None
    if needs_forms:
        try:
            basis = hodge_mod.harmonic_one_forms(surf)
        except hodge_mod.HodgeError as exc:
            report["error"] = str(exc)
            return report, False

    if "verify-identity" in tasks:
        if not basis:
            report["identity"] = {"skipped": "no harmonic one-forms (b1 = 0)"}
        else:
            rng_local = np.random.default_rng(scenario.seed)
            c = rng_local.standard_normal(len(basis))
            form = hodge_mod.combine(basis, c)
            rep32 = testfns_mod.q_identity_report(surf, form, "Prop32")
            report["identity"] = {"Prop32": rep32}
            ok &= rep32["relative_residual"] < scenario.tolerances["identity"]
            if surf.dim == 2:
                rep31 = testfns_mod.q_identity_report(surf, form, "Prop31")
                report["identity"]["Prop31"] = rep31
                ok &= rep31["relative_residual"] < scenario.tolerances["identity"]

    if "certify" in tasks:
        if not basis:
            report["certificate"] = {"skipped": "no harmonic one-forms (b1 = 0)"}
        else:
            if spectrum_rep is None:
                _, spectrum_rep, system = _spectrum_block(scenario)
            cert = bounds_mod.concentration_certificate(
                surf, basis, scenario.eta, "Prop41", spectrum=spectrum_rep
            )
            report["certificate"] = cert.as_dict()
            ok &= cert.verdict == "pass"
            if surf.dim == 2:
                cert43 = bounds_mod.concentration_certificate(
                    surf, basis, scenario.eta, "Prop43", spectrum=spectrum_rep
                )
                report["certificate_starred"] = cert43.as_dict()
                ok &= cert43.verdict == "pass"

    if "margins" in tasks:
        margins = {}
        amb = scenario.ambient
        if isinstance(amb, ambient_mod.SphereModel) and basis:
            m = bounds_mod.margins_sphere(surf, basis[0])
            margins["sphere"] = _margin_block(m)
        if amb.einstein_constant is not None and not isinstance(
            amb, ambient_mod.SphereModel
        ):
            m = bounds_mod.margins_cross(amb)
            margins["cross"] = _margin_block(m)
        if isinstance(amb, ambient_mod.CircleTimesSphereModel):
            m = bounds_mod.margins_product_q(seed=scenario.seed)
            margins["product_q"] = _margin_block(m)
        if isinstance(amb, ambient_mod.EllipsoidModel):
            m = bounds_mod.margins_convex(amb, seed=scenario.seed)
            margins["convex"] = _margin_block(m)
        m = bounds_mod.margins_scalar3(amb, seed=scenario.seed)
        margins["scalar3"] = _margin_block(m)
        report["margins"] = margins
        ok &= all(
            v["verdict"].startswith(("pass", "borderline"))
            for v in margins.values()
        )

    if "borderline" in tasks:
        if not isinstance(
            scenario.ambient, ambient_mod.ComplexProjectiveVeroneseModel
        ):
            report["borderline"] = {"skipped": "ambient is not complex projective"}
        else:
            rep = bounds_mod.borderline_cp_report(surf)
            report["borderline"] = rep
            tol = scenario.tolerances["borderline"]
            ok &= max(
                rep["div_jn_residual"],
                rep["decomposition_residual"],
                rep["traced_gauss_residual"],
            ) < tol

    if "bounds" in tasks:
        needs_spectrum = surf.dim == 2 or surf.name.startswith(
            ("generalized_clifford", "circle_times_equator", "equator")
        )
        if needs_spectrum and surf.fem().potential is None:
            report["bounds"] = {"skipped": _NO_POTENTIAL}
        elif needs_spectrum:
            if spectrum_rep is None and surf.dim == 2:
                _, spectrum_rep, system = _spectrum_block(scenario)
            table = bounds_mod.index_bound_report(surf, spectrum=spectrum_rep)
            report["bounds"] = table
            ok &= bool(table["consistent"]) and bool(table["constant_closure"])
        else:
            C = bounds_mod.theorem_constant(scenario.ambient)
            report["bounds"] = {"constant": C, "constant_closure": True}

    if artifacts is not None and spectrum_rep is not None:
        artifacts["spectrum"] = spectrum_rep
    return report, bool(ok)


TASK_NAMES = {
    "identities": {"identities"},
    "spectrum": {"spectrum"},
    "verify-identity": {"verify-identity"},
    "certify": {"certify"},
    "margins": {"margins"},
    "borderline": {"borderline"},
    "bounds": {"bounds"},
    "all": {
        "identities", "spectrum", "verify-identity", "certify",
        "margins", "borderline", "bounds",
    },
}


def bundled_config(name):
    """Path of a config file shipped with the package."""
    return resources.files("indexbound").joinpath("configs", name)


def _summary_row(report, ok):
    spec = report.get("spectrum", {})
    cert = report.get("certificate", {})
    return {
        "scenario": report["scenario"],
        "ambient": report["ambient"],
        "hypersurface": report["hypersurface"],
        "resolution": "x".join(map(str, report["resolution"])),
        "index": spec.get("index", ""),
        "required": cert.get("required", ""),
        "actual": cert.get("actual", ""),
        "verdict": "pass" if ok else "fail",
    }


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
    parser.add_argument("--resolution-scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol-scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    config = args.config
    if config is None:
        config = str(bundled_config("clifford.cfg"))

    try:
        scenario = Scenario(
            config, resolution_scale=args.resolution_scale,
            seed=args.seed, tol_scale=args.tol_scale,
        )
    except (ConfigError, ambient_mod.AmbientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    artifacts = {}
    try:
        report, ok = run_tasks(scenario, TASK_NAMES[args.command], artifacts)
    except Exception as exc:  # solver or assembly failure
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{scenario.id}.json"
    with open(json_path, "w") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")

    summary_path = out_dir / "summary.csv"
    row = _summary_row(report, ok)
    new_file = not summary_path.exists()
    with open(summary_path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        if new_file:
            writer.writeheader()
        writer.writerow(row)

    if "spectrum" in artifacts:
        (out_dir / f"{scenario.id}-spectrum.csv").write_text(
            artifacts["spectrum"].to_csv()
        )
    (out_dir / f"{scenario.id}-mesh.txt").write_text(
        scenario.surface.mesh_dump()
    )

    print(f"{scenario.id}: {'pass' if ok else 'fail'} -> {json_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
