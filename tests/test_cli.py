import csv
import dataclasses
import hashlib
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import indexbound
from indexbound import cli, hypersurface as hyp
from indexbound.ambient import (
    IDENTITY_TOL,
    CircleTimesSphereModel,
    ComplexProjectiveVeroneseModel,
    IdentityReport,
)
from indexbound.hodge import HodgeError, harmonic_one_forms
from indexbound.spectral import SpectralError, SpectrumReport
from indexbound.testfns import _rhs_integrand


CONFIG = """\
[scenario]
id = torus-small
seed = 7

[ambient]
kind = sphere
dim = 3

[hypersurface]
kind = clifford_torus
nodes = 32

[certificate]
eta = 0.0
eigenvalues = 16

[tolerances]
identity = 1e-3
"""


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "torus.cfg"
    p.write_text(CONFIG)
    return p


@pytest.fixture(scope="module")
def run_all(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    code = cli.main(
        ["all", "--config", str(config_path), "--out", str(out)]
    )
    return code, out


def test_exit_code(run_all):
    assert run_all[0] == 0


def test_json_report_fields(run_all):
    _, out = run_all
    report = json.loads((out / "torus-small.json").read_text())
    for key in ("scenario", "ambient", "hypersurface", "resolution",
                "residuals", "spectrum", "certificate", "margins",
                "bounds"):
        assert key in report, key
    assert report["scenario"] == "torus-small"
    spec = report["spectrum"]
    assert spec["index"] == 5
    # 16 requested, through the end of the 8-fold cluster near 6 they end in
    assert len(spec["eigenvalues"]) == 21
    cert = report["certificate"]
    for key in ("eta", "q", "d", "required", "actual", "margin", "verdict"):
        assert key in cert, key
    assert cert["verdict"] == "pass"


def test_report_provenance(run_all, config_path):
    # what the numbers depend on, and no time: reruns stay byte-identical
    _, out = run_all
    report = json.loads((out / "torus-small.json").read_text())
    assert report["provenance"] == {
        "indexbound": indexbound.__version__,
        "numpy": np.__version__,
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "seed": 7,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _summary_rows(out):
    with open(out / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_summary_csv(run_all):
    _, out = run_all
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "scenario" in header
    assert lines[1].split(",")[header.index("scenario")] == "torus-small"
    # the blocks that failed, none on a pass, just before the verdict
    assert header[-2:] == ["failed", "verdict"]
    assert _summary_rows(out)[0]["failed"] == ""


def test_spectrum_csv(run_all):
    _, out = run_all
    lines = (out / "torus-small-spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue,residual,cluster id"
    assert len(lines) == 22


def test_mesh_dump_written(run_all):
    _, out = run_all
    dump = out / "torus-small-mesh.txt"
    assert dump.exists()
    assert any(
        l.startswith("node ") for l in dump.read_text().splitlines()
    )


def test_deterministic_reruns(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = cli.main(
            ["spectrum", "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
    ja = (a / "torus-small.json").read_bytes()
    jb = (b / "torus-small.json").read_bytes()
    assert ja == jb


def test_resolution_scale(config_path, tmp_path):
    code = cli.main(
        ["spectrum", "--config", str(config_path), "--out", str(tmp_path),
         "--resolution-scale", "0.75"]
    )
    assert code == 0
    report = json.loads((tmp_path / "torus-small.json").read_text())
    assert report["resolution"] == [24, 24]


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_resolution_scale_not_finite_positive_is_usage_error(scale, config_path,
                                                             tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(config_path), "--out",
                  str(tmp_path), "--resolution-scale", scale])
    assert exc.value.code == 2
    assert "finite positive" in capsys.readouterr().err
    assert not (tmp_path / "torus-small.json").exists()


def test_single_subcommands(config_path, tmp_path):
    for task in ("identities", "verify-identity", "margins", "bounds"):
        code = cli.main(
            [task, "--config", str(config_path), "--out", str(tmp_path)]
        )
        assert code == 0, task


def _modules_after_fresh_run(argv):
    """`cli.main(argv)` in a fresh interpreter, as each command-line run is:
    its exit code, and the names of the modules it left imported."""
    script = (
        "import json, sys\n"
        "from indexbound import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_or_numpy_ma(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"
            or m == "numpy.ma" or m.startswith("numpy.ma.")]


def test_cli_all_leaves_scipy_unimported(tmp_path):
    # the package runs on numpy alone: importing scipy.sparse cost every run
    # 0.2 s or more, and numpy.ma, which np.unique without extra arguments
    # imports, 17 ms.
    # At a quarter of the resolution the identity residual exceeds its
    # tolerance, so `all` exits 1 with every block written.
    code, loaded = _modules_after_fresh_run(
        ["all", "--config", str(cli.bundled_config("clifford.cfg")),
         "--out", str(tmp_path), "--resolution-scale", "0.25"])
    assert code == 1
    report = json.loads((tmp_path / "clifford.json").read_text())
    assert "error" not in report
    assert report["identity"]["Prop32"]["relative_residual"] > 1e-4
    assert {"spectrum", "identity", "certificate", "bounds"} <= set(report)
    assert _scipy_or_numpy_ma(loaded) == []


def test_cli_cp2_spectrum_leaves_numpy_ma_unimported(tmp_path):
    # the cell shifts of a three-axis grid pick their orbit representatives
    # without np.unique
    code, loaded = _modules_after_fresh_run(
        ["spectrum", "--config", str(cli.bundled_config("cp2-borderline.cfg")),
         "--out", str(tmp_path), "--resolution-scale", "0.5"])
    assert code == 0
    report = json.loads((tmp_path / "cp2-borderline.json").read_text())
    assert report["spectrum"]["index"] == 1
    assert _scipy_or_numpy_ma(loaded) == []


def test_cli_spectrum_maps_no_openssl_and_no_traceback(tmp_path):
    # the config hash is CPython's builtin SHA-256: hashlib's _hashlib maps
    # OpenSSL's libcrypto (3.5 MB) into the run; traceback, with tokenize,
    # linecache and textwrap, is loaded only when a stage fails
    config = cli.bundled_config("clifford.cfg")
    code, loaded = _modules_after_fresh_run(
        ["spectrum", "--config", str(config), "--out", str(tmp_path),
         "--resolution-scale", "0.5"])
    assert code == 0
    report = json.loads((tmp_path / "clifford.json").read_text())
    assert report["provenance"]["config_sha256"] == hashlib.sha256(
        config.read_bytes()).hexdigest()
    assert {"_hashlib", "traceback"}.isdisjoint(loaded)


def test_cli_all_draws_without_numpy_random(tmp_path):
    # every random sample is a seeded stdlib draw: numpy.random imports
    # secrets, and through hmac _hashlib, which maps OpenSSL's libcrypto
    code, loaded = _modules_after_fresh_run(
        ["all", "--config", str(cli.bundled_config("clifford.cfg")),
         "--out", str(tmp_path), "--resolution-scale", "0.5"])
    assert code == 0
    assert {"numpy.random", "secrets", "_hashlib"}.isdisjoint(loaded)


def _spectrum_at_blas_threads(threads, out, name="clifford", scale="0.5"):
    """`spectrum` on the bundled config `name` at `scale` of its resolution
    in a fresh interpreter with every BLAS thread variable at `threads`: the
    JSON report, and the bytes of the spectrum CSV and the mesh dump."""
    argv = [sys.executable, "-m", "indexbound.cli", "spectrum", "--config",
            str(cli.bundled_config(f"{name}.cfg")), "--out", str(out),
            "--resolution-scale", scale]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: str(threads) for var in cli._THREAD_VARS})
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return (json.loads((out / f"{name}.json").read_text()),
            (out / f"{name}-spectrum.csv").read_bytes(),
            (out / f"{name}-mesh.txt").read_bytes())


def _assert_same_at_one_and_two_threads(tmp_path, *config):
    one, *files_one = _spectrum_at_blas_threads(1, tmp_path / "one", *config)
    two, *files_two = _spectrum_at_blas_threads(2, tmp_path / "two", *config)
    for report, threads in ((one, "1"), (two, "2")):
        assert report["provenance"].pop("blas_threads") == dict.fromkeys(
            cli._THREAD_VARS, threads)
    assert one == two
    assert files_one == files_two


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # no reduction of the package takes a BLAS path whose sum depends on the
    # thread count; a threaded dot once moved parseval_residual
    _assert_same_at_one_and_two_threads(tmp_path)


def test_cp2_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the CP^2 blocks are the largest: their products, one per orbit row,
    # and the window's eigenvectors by inverse iteration
    _assert_same_at_one_and_two_threads(tmp_path, "cp2-borderline", "1")


def test_missing_config_is_usage_error(tmp_path):
    code = cli.main(
        ["all", "--config", str(tmp_path / "missing.cfg"),
         "--out", str(tmp_path)]
    )
    assert code == 2


def test_bad_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nid = x\n[ambient]\nkind = nonsense\n")
    code = cli.main(
        ["identities", "--config", str(bad), "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize("old, new", [
    ("eigenvalues = 16", "eigenvalues = 0"),
    ("eigenvalues = 16", "eigenvalues = -3"),
    ("eta = 0.0", "eta = nan"),
], ids=["no_eigenvalues", "negative_eigenvalues", "nan_eta"])
def test_bad_certificate_keys_are_usage_errors(old, new, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace(old, new))
    with pytest.raises(cli.ConfigError, match="eigenvalues >= 1 and a finite eta"):
        cli.Scenario(cfg)
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "torus-small.json").exists()


#: a config value that is not a number, and the key its error names
NOT_A_NUMBER = [
    ("seed = 7", "seed = seven", "[scenario] seed"),
    ("dim = 3", "dim = three", "[ambient] dim"),
    ("kind = sphere\ndim = 3", "kind = ellipsoid\nsemi_axes = 1 1 x",
     "[ambient] semi_axes"),
    ("nodes = 32", "nodes = x", "[hypersurface] nodes"),
    ("identity = 1e-3", "identity = small", "[tolerances] identity"),
    ("eta = 0.0", "eta = abc", "[certificate] eta"),
    ("eta = 0.0", "eta = 5%", "[certificate] eta"),  # not an interpolation
    ("eigenvalues = 16", "eigenvalues = 2.5", "[certificate] eigenvalues"),
]


@pytest.mark.parametrize("old, new, key", NOT_A_NUMBER,
                         ids=[key[1:].replace("] ", "-") + "-percent" * ("%" in new)
                              for _, new, key in NOT_A_NUMBER])
def test_non_number_config_value_is_usage_error(old, new, key, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace(old, new))
    with pytest.raises(cli.ConfigError, match=re.escape(key)):
        cli.Scenario(cfg)
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "torus-small.json").exists()


@pytest.mark.parametrize("old, new, flags, message", [
    ("seed = 7", "seed = -1", [], "[scenario] seed: must be >= 0"),
    ("nodes = 32", "nodes = 0", [], "[hypersurface] nodes: must be >= 4"),
    ("nodes = 32", "nodes = -3", [], "[hypersurface] nodes: must be >= 4"),
    # an ambient parameter missing, or one its model refuses
    ("dim = 3\n", "", [], "[ambient] needs 'dim'"),
    ("dim = 3", "dim = 1", [], "sphere dimension must be >= 2"),
    # an infinite tolerance once passed every identity residual, and a
    # negative one failed the run at exit 1
    ("identity = 1e-3", "identity = inf", [],
     "[tolerances] identity: must be a finite positive number"),
    ("identity = 1e-3", "identity = -1", [],
     "[tolerances] identity: must be a finite positive number"),
    ("", "", ["--seed", "-1"], "argument --seed: must be >= 0"),
    # the config's seed is read and checked under --seed too
    ("seed = 7", "seed = seven", ["--seed", "5151"], "[scenario] seed"),
    # a key that no scenario reads fails instead of running on defaults:
    # "node = 40" once ran at the default 24 nodes and exited 0; the
    # pointwise and borderline tolerances are retired keys
    ("nodes = 32", "node = 40", [], "no scenario reads [hypersurface] node"),
    ("identity = 1e-3", "identity = 1e-3\npointwise = 1e-9", [],
     "no scenario reads [tolerances] pointwise"),
    ("identity = 1e-3", "identity = 1e-3\nborderline = 1e-5", [],
     "no scenario reads [tolerances] borderline"),
    ("identity = 1e-3", "identity = 1e-3\n[extra]\nnote = 1", [],
     "no scenario reads [extra] note"),
    ("[scenario]", "[DEFAULT]\nnodes = 8\n[scenario]", [],
     "no scenario reads [DEFAULT] nodes"),
    # the other models' parameter checks, an unknown surface kind, a line
    # configparser cannot read and a config without its [scenario]
    ("kind = sphere\ndim = 3", "kind = complex_projective_veronese\nm = 0", [],
     "complex projective dimension must be >= 1"),
    ("kind = sphere\ndim = 3", "kind = circle_times_sphere\nn = 1", [],
     "sphere factor dimension must be >= 2"),
    ("kind = sphere\ndim = 3", "kind = ellipsoid\nsemi_axes = 1 2", [],
     "need at least three semi-axes"),
    ("kind = clifford_torus", "kind = klein_bottle", [],
     "unknown hypersurface kind 'klein_bottle'"),
    ("[tolerances]\n", "[tolerances]\nno equals sign\n", [],
     "config parse error"),
    ("[scenario]\nid = torus-small\nseed = 7\n", "", [],
     "config lacks a [scenario] section"),
], ids=["seed", "zero-nodes", "negative-nodes", "missing-dim", "sphere-dim-1",
        "infinite-identity",
        "negative-identity", "seed-flag", "seed-under-flag",
        "unread-node", "unread-pointwise", "unread-borderline", "unread-extra",
        "unread-default", "cp-m-0", "circle-times-sphere-n-1",
        "two-semi-axes", "unknown-surface", "line-without-equals",
        "no-scenario"])
def test_value_out_of_range_is_usage_error(old, new, flags, message, tmp_path,
                                           capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.replace(old, new))
    try:
        code = cli.main(["spectrum", "--config", str(cfg), "--out",
                         str(tmp_path), *flags])
    except SystemExit as exc:  # argparse refuses a flag by exiting
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_summary_with_another_header_is_refused(config_path, tmp_path,
                                                capsys):
    # a summary.csv written before the `failed` column: a row appended to it
    # would be one field wider than its header, and DictReader would read
    # `verdict` as empty
    summary = tmp_path / "summary.csv"
    old = ("scenario,ambient,hypersurface,resolution,index,required,actual,"
           "verdict\ntorus-small,sphere,clifford_torus,32x32,5,,,pass\n")
    summary.write_text(old)
    assert cli.main(["spectrum", "--config", str(config_path), "--out",
                     str(tmp_path)]) == 2
    assert f"error: {summary} has the header" in capsys.readouterr().err
    assert summary.read_text() == old
    assert list(tmp_path.iterdir()) == [summary]


@pytest.mark.parametrize("name", ["clifford.cfg", "cp2-borderline.cfg"])
def test_bundled_config_runs_under_seed_flag(name, tmp_path):
    # the config's own seed is read, and refused when bad, under --seed too
    assert cli.main(["identities", "--config", str(cli.bundled_config(name)),
                     "--out", str(tmp_path), "--resolution-scale", "0.5",
                     "--seed", "5151"]) == 0
    report = json.loads((tmp_path / name.replace(".cfg", ".json")).read_text())
    assert report["seed"] == report["provenance"]["seed"] == 5151


@pytest.mark.parametrize("name, kind", [
    ("clifford.cfg", "clifford_torus"),
    ("cp2-borderline.cfg", "geodesic_sphere_cp2"),
])
@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_identities_check_the_declared_potential(name, kind, shift, tmp_path,
                                                 monkeypatch):
    # the bounds table trusts the declared potential; `identities` compares
    # it with the finite-difference |A|^2 + Ric(N, N) and fails when moved
    entry = hyp.SURFACE_KINDS[kind]

    def moved(ambient, nodes):
        surface = entry.build(ambient, nodes)
        surface.potential += shift
        return surface

    monkeypatch.setitem(hyp.SURFACE_KINDS, kind,
                        dataclasses.replace(entry, build=moved))
    code = cli.main(["identities", "--config", str(cli.bundled_config(name)),
                     "--out", str(tmp_path), "--resolution-scale", "0.5"])
    checks = json.loads((tmp_path / name.replace(".cfg", ".json")).read_text())[
        "residuals"]["hypersurface"]
    assert code == (1 if shift else 0)
    assert (checks["potential_consistency"] > IDENTITY_TOL) == bool(shift)


def _scaled_metric(ambient, nodes):
    surface = hyp.geodesic_sphere_cp2(ambient, nodes)
    metric = surface._metric_fn
    surface._metric_fn = lambda p: metric(p) * (1.0 + 1e-6)
    return surface


def _turned_normal(ambient, nodes):
    # toward the first tangent frame vector by about 1e-6 rad, still unit
    surface = hyp.clifford_torus(ambient, nodes)
    turned = surface.normals + 1e-6 * surface.node_fields()["frames"][:, 0]
    surface.normals = turned / np.linalg.norm(turned, axis=-1, keepdims=True)
    return surface


def _scaled_normal(ambient, nodes):
    surface = hyp.clifford_torus(ambient, nodes)
    surface.normals *= 1.0 + 1e-6
    return surface


def _leaning_normal(ambient, nodes):
    # a component of 1e-6 along the position, normal to S^3, still unit
    surface = hyp.clifford_torus(ambient, nodes)
    leaning = surface.normals + 1e-6 * surface.positions
    surface.normals = leaning / np.linalg.norm(leaning, axis=-1, keepdims=True)
    return surface


def _parallel_torus(ambient, nodes):
    # S^1(r) x S^1(s) with r^2 = 1/2 + 1e-6, a torus of the sphere whose mean
    # curvature (r^2 - s^2) / (r s) is about 4e-6, declared as the minimal
    # one; its |A|^2 + Ric(N, N) is the declared 4 within 2e-11
    r, s = np.sqrt(0.5 + 1e-6), np.sqrt(0.5 - 1e-6)

    def normal(p):
        circ = np.stack([np.cos(p[..., 0]), np.sin(p[..., 0])], axis=-1)
        return np.concatenate([s * circ, -r * hyp.spherical_chart(p[..., 1:])],
                              axis=-1)

    return hyp._circle_times_sphere("clifford_torus", ambient, nodes, 2, r, s,
                                    (r * r, s * s), normal, 4.0)


def _twisted_normal(ambient, nodes):
    # the Clifford normal turned toward the circle's tangent e_theta by
    # 1e-6 sin(phi) rad: turned by a varying angle, so that its derivative
    # along phi has an e_theta part of 1e-6 cos(phi) that the derivative of
    # the normal along theta does not mirror in e_phi
    r = s = np.sqrt(0.5)

    def normal(p):
        theta, phi = p[..., 0], p[..., 1]
        circ = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        n = np.concatenate([s * circ, -r * hyp.spherical_chart(p[..., 1:])],
                           axis=-1)
        e_theta = np.stack([-np.sin(theta), np.cos(theta),
                            np.zeros_like(theta), np.zeros_like(theta)], axis=-1)
        n += 1e-6 * np.sin(phi)[..., None] * e_theta
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    return hyp._circle_times_sphere("clifford_torus", ambient, nodes, 2, r, s,
                                    (r * r, s * s), normal, 4.0)


@pytest.mark.parametrize("check, name, kind, wrong, also", [
    ("metric_consistency", "cp2-borderline.cfg", "geodesic_sphere_cp2",
     _scaled_metric, ()),
    ("normal_vs_frame", "clifford.cfg", "clifford_torus", _turned_normal, ()),
    # Ric(N, N) = 2 |N|^2 in S^3 moves with the scaled normal too
    ("normal_unit", "clifford.cfg", "clifford_torus", _scaled_normal,
     ("potential_consistency",)),
    ("minimality", "clifford.cfg", "clifford_torus", _parallel_torus, ()),
    ("normal_ambient_tangency", "clifford.cfg", "clifford_torus",
     _leaning_normal, ()),
    # the turned normal is off the frame by up to 1e-6 as well
    ("shape_asymmetry", "clifford.cfg", "clifford_torus", _twisted_normal,
     ("normal_vs_frame",)),
], ids=["metric_consistency", "normal_vs_frame", "normal_unit", "minimality",
        "normal_ambient_tangency", "shape_asymmetry"])
def test_wrong_declared_geometry_fails_its_pointwise_check(
        check, name, kind, wrong, also, tmp_path, monkeypatch):
    # the pencil reads the declared metric and the index form the declared
    # normal and potential; a wrong one fails its own check against
    # IDENTITY_TOL, and no other than `also`, and through it the identities
    # stage
    monkeypatch.setitem(hyp.SURFACE_KINDS, kind, dataclasses.replace(
        hyp.SURFACE_KINDS[kind], build=wrong))
    code = cli.main(["identities", "--config", str(cli.bundled_config(name)),
                     "--out", str(tmp_path), "--resolution-scale", "0.5"])
    checks = json.loads((tmp_path / name.replace(".cfg", ".json")).read_text())[
        "residuals"]["hypersurface"]
    assert code == 1
    for moved in (check, *also):
        assert checks.pop(moved) > IDENTITY_TOL
    assert max(checks.values()) < IDENTITY_TOL


def test_scaled_ricci_fails_the_traced_gauss_residual(tmp_path, monkeypatch):
    # Ric(JN, JN) - Rm(JN, N, JN, N) = 2m - 2 on a minimal hypersurface of
    # CP^m; a Ricci tensor 1 + 1e-4 too large moves Ric(JN, JN) = 6 of CP^2
    # by 6e-4, and the other two borderline residuals not at all
    ricci = ComplexProjectiveVeroneseModel.ricci
    monkeypatch.setattr(ComplexProjectiveVeroneseModel, "ricci",
                        lambda *args: ricci(*args) * (1.0 + 1e-4))
    code = cli.main(["borderline", "--config",
                     str(cli.bundled_config("cp2-borderline.cfg")),
                     "--out", str(tmp_path), "--resolution-scale", "0.5"])
    rep = json.loads((tmp_path / "cp2-borderline.json").read_text())[
        "borderline"]
    assert code == 1
    assert rep["traced_gauss_residual"] > rep["tolerance"]
    assert max(rep["div_jn_residual"],
               rep["decomposition_residual"]) < rep["tolerance"]


def test_turned_complex_structure_fails_the_div_jn_residual(tmp_path,
                                                           monkeypatch):
    # JN of a minimal hypersurface of CP^m is divergence free; J followed by
    # a turn of 1e-4 Re(z_1) rad toward the complex line orthogonal to z
    # and to its argument keeps JN a unit field tangent to the surface, so
    # the decomposition still holds and the traced Gauss residual moves by
    # 3 sin^2 of the angle alone, about 3e-8; the turn's gradient moves the
    # divergence by about 1e-4
    def turned(model, z, X):
        v = model.horizontal_from_ambient(z, X)
        angle = 1e-4 * np.real(z[..., 1:2])
        return model.tangent_from_horizontal(
            z, np.cos(angle) * 1j * v + np.sin(angle) * np.conj(np.cross(z, v)))

    monkeypatch.setattr(ComplexProjectiveVeroneseModel, "complex_structure",
                        turned)
    code = cli.main(["borderline", "--config",
                     str(cli.bundled_config("cp2-borderline.cfg")),
                     "--out", str(tmp_path), "--resolution-scale", "0.5"])
    rep = json.loads((tmp_path / "cp2-borderline.json").read_text())[
        "borderline"]
    assert code == 1
    assert rep["div_jn_residual"] > rep["tolerance"]
    assert max(rep["decomposition_residual"],
               rep["traced_gauss_residual"]) < rep["tolerance"]


def test_scaled_right_hand_side_fails_the_identity(tmp_path, monkeypatch):
    # |rhs| = 2 |omega|^2 on the Clifford torus: a right-hand side integrand
    # 1 + 1e-3 too large moves each mode's relative residual by about 2e-3,
    # past the configured 1e-4, and `verify-identity` exits 1 on it
    rhs = cli.testfns_mod._rhs_integrand
    monkeypatch.setattr(cli.testfns_mod, "_rhs_integrand",
                        lambda *args: rhs(*args) * (1.0 + 1e-3))
    code = cli.main(["verify-identity", "--config",
                     str(cli.bundled_config("clifford.cfg")),
                     "--out", str(tmp_path), "--resolution-scale", "0.5"])
    identity = json.loads((tmp_path / "clifford.json").read_text())["identity"]
    assert code == 1
    assert {mode: rep["verdict"] for mode, rep in identity.items()} == {
        "Prop31": "fail", "Prop32": "fail"}
    assert all(rep["relative_residual"] > 10 * rep["tolerance"]
               for rep in identity.values())


def test_index_below_the_bound_fails_bounds(tmp_path, monkeypatch):
    # the Clifford torus is tight (index 5 = bound 5): a spectrum that
    # reports one unstable direction fewer is below the bound, and `bounds`
    # exits 1 on it
    index = SpectrumReport.morse_index
    monkeypatch.setattr(SpectrumReport, "morse_index",
                        property(lambda rep: index.fget(rep) - 1))
    code = cli.main(["bounds", "--config", str(cli.bundled_config("clifford.cfg")),
                     "--out", str(tmp_path), "--resolution-scale", "0.5"])
    bounds = json.loads((tmp_path / "clifford.json").read_text())["bounds"]
    assert (bounds["index"], bounds["bound"]) == (4, 5)
    assert bounds["consistent"] is False
    assert code == 1


def test_bundled_configs_load():
    for name in ("clifford.cfg", "cp2-borderline.cfg"):
        path = cli.bundled_config(name)
        scenario = cli.Scenario(path)
        assert scenario.id


def test_spectrum_solver_diagnostics(run_all):
    _, out = run_all
    spec = json.loads((out / "torus-small.json").read_text())["spectrum"]
    assert spec["inertia_index"] == spec["index"] == 5
    assert spec["dofs"] == 32 * 32
    assert spec["blocks"] == 16 * 16  # one per character of the cell shifts
    assert spec["invariance_defect"] < 1e-12
    # the count below eta = 0 taken again from the inertia of every block
    assert spec["inertia_count_below"] == spec["count_below"] == {"0.0": 5}
    assert spec["parseval_residual"] < 1e-14
    assert "count_below_error" not in spec
    assert "quotient" not in spec  # S^3 is no quotient


def test_uncovered_threshold_is_recorded(tmp_path):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(CONFIG.replace("eta = 0.0", "eta = 1e6"))
    code = cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    spec = json.loads((tmp_path / "torus-small.json").read_text())["spectrum"]
    # the whole spectrum lies below the threshold
    assert spec["count_below"]["1000000.0"] == spec["dofs"] == 32 * 32
    assert spec["inertia_count_below"] == spec["count_below"]
    assert "count_below_error" not in spec


def test_cp2_borderline_margins_pass(tmp_path):
    config = str(cli.bundled_config("cp2-borderline.cfg"))
    code = cli.main(["margins", "--config", config, "--out", str(tmp_path)])
    assert code == 0
    margins = json.loads((tmp_path / "cp2-borderline.json").read_text())["margins"]
    assert margins["scalar3"]["verdict"].startswith("borderline")
    assert margins["cross"]["verdict"].startswith("borderline")
    assert margins["scalar3"]["thresholds"]["tol"] > 0.0


def test_product_margin_judged_on_the_configured_surface(tmp_path):
    cfg = tmp_path / "product.cfg"
    cfg.write_text(CONFIG.replace("kind = sphere\ndim = 3",
                                  "kind = circle_times_sphere\nn = 4")
                   .replace("kind = clifford_torus\nnodes = 32",
                            "kind = circle_times_equator\nnodes = 8"))
    assert cli.main(["margins", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    values = json.loads((tmp_path / "torus-small.json").read_text())[
        "margins"]["product_q"]["values"]
    integrand_keys = {k for k in values if k.startswith("integrand_max")}
    assert integrand_keys == {"integrand_max_circle_times_equator_s3"}
    surf = hyp.circle_times_equator(CircleTimesSphereModel(4), 8)
    integrand = _rhs_integrand(surf, harmonic_one_forms(surf)[0], "Prop32")
    expected = integrand[surf.node_fields()["interior"]].max()
    assert abs(values["integrand_max_circle_times_equator_s3"] - expected) < 1e-12


def _run_half(name, out):
    return cli.main(["all", "--config", str(cli.bundled_config(name)),
                     "--out", str(out), "--resolution-scale", "0.5"])


@pytest.fixture(scope="module")
def bundled_all(request, tmp_path_factory):
    """`all` on a bundled config at half resolution: (id, exit code, out dir)."""
    out = tmp_path_factory.mktemp("bundled")
    return request.param.replace(".cfg", ""), _run_half(request.param, out), out


@pytest.mark.parametrize("bundled_all", ["clifford.cfg", "cp2-borderline.cfg"],
                         indirect=True)
def test_all_reruns_byte_identical(bundled_all, tmp_path):
    # clifford.cfg assembles a grid without fused nodes, cp2-borderline.cfg
    # one whose poles are fused
    sid, code, first = bundled_all
    assert code == 0
    assert _run_half(f"{sid}.cfg", tmp_path) == 0
    for name in (f"{sid}.json", f"{sid}-spectrum.csv"):
        assert (first / name).read_bytes() == (tmp_path / name).read_bytes(), name


def _residuals_below_stated_tolerances(residuals):
    # each residual against the tolerance the block states for its key: the
    # finite-difference one for `fd_keys`, the pointwise one for the others
    for part in ("ambient", "hypersurface"):
        for key, value in residuals[part].items():
            tol = residuals["fd_tolerance" if key in residuals["fd_keys"]
                            else "pointwise_tolerance"]
            assert value < tol, (part, key, value, tol)


def _pointwise_residuals_ok(report, ambient):
    residuals = report["residuals"]
    assert residuals["verdict"] == "pass"
    _residuals_below_stated_tolerances(residuals)
    assert IdentityReport(ambient, 200, residuals["ambient"]).ok


@pytest.mark.parametrize("bundled_all", ["clifford.cfg"], indirect=True)
def test_clifford_passes_every_block(bundled_all):
    _, code, out = bundled_all
    assert code == 0
    report = json.loads((out / "clifford.json").read_text())
    _pointwise_residuals_ok(report, "sphere")
    spec = report["spectrum"]
    assert spec["index"] == spec["inertia_index"] == 5
    # the 16 requested end in the 8-fold cluster near 6
    assert len(spec["eigenvalues"]) == 21
    assert np.sum(np.abs(np.array(spec["eigenvalues"]) - 6.0) < 0.01) == 8
    for prop in ("Prop31", "Prop32"):
        assert report["identity"][prop]["relative_residual"] < 1e-4
    for block in ("certificate", "certificate_starred"):
        assert report[block]["verdict"] == "pass"
        assert report[block]["actual"] == 5
    assert {k: v["verdict"] for k, v in report["margins"].items()} == {
        "sphere": "pass", "scalar3": "pass"}
    assert report["borderline"] == {"skipped": "ambient is not complex projective"}
    bounds = report["bounds"]
    assert bounds["index"] == bounds["bound"] == 5
    assert bounds["consistent"] and bounds["tight"]
    # ceil(C b1) = ceil(2/6) = 1, plus n + 2 = 4: the torus is not totally
    # geodesic (declared potential 4, einstein_constant 2)
    assert bounds["terms"] == {
        "ceil(constant * betti_one)": 1,
        "n + 2 in a sphere, where potential != einstein_constant": 4}


@pytest.mark.parametrize("bundled_all", ["clifford.cfg"], indirect=True)
def test_margins_alone_match_all(bundled_all, tmp_path):
    # margins alone runs the hodge stage for the sphere margin's form
    _, _, out = bundled_all
    config = str(cli.bundled_config("clifford.cfg"))
    assert cli.main(["margins", "--config", config, "--out", str(tmp_path),
                     "--resolution-scale", "0.5"]) == 0
    alone = json.loads((tmp_path / "clifford.json").read_text())["margins"]
    full = json.loads((out / "clifford.json").read_text())["margins"]
    assert set(alone) == {"sphere", "scalar3"}
    assert ({k: v["verdict"] for k, v in alone.items()}
            == {k: v["verdict"] for k, v in full.items()})


def test_spectrum_index_beyond_the_window(tmp_path):
    # every computed eigenvalue is negative: the index is the inertia count
    cfg = tmp_path / "gc.cfg"
    cfg.write_text(CONFIG.replace("kind = clifford_torus\nnodes = 32",
                                  "kind = generalized_clifford\nnodes = 8")
                   .replace("dim = 3", "dim = 4")
                   .replace("eigenvalues = 16", "eigenvalues = 6"))
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    spec = json.loads((tmp_path / "torus-small.json").read_text())["spectrum"]
    assert spec["dofs"] == 336
    assert spec["index"] == spec["inertia_index"] == spec["count_below"]["0.0"] == 6
    assert "count_below_error" not in spec
    assert len(spec["eigenvalues"]) == 6 and max(spec["eigenvalues"]) < 0


@pytest.mark.parametrize("bundled_all", ["cp2-borderline.cfg"], indirect=True)
def test_cp2_borderline_passes_every_block(bundled_all):
    _, code, out = bundled_all
    assert code == 0
    report = json.loads((out / "cp2-borderline.json").read_text())
    _pointwise_residuals_ok(report, "complex_projective_veronese")
    spec = report["spectrum"]
    assert spec["index"] == spec["inertia_index"] == 1
    assert report["identity"] == {"skipped": "no harmonic one-forms (b1 = 0)"}
    assert report["certificate"] == {"skipped": "no harmonic one-forms (b1 = 0)"}
    margins = report["margins"]
    assert set(margins) == {"cross", "scalar3"}
    assert all(m["verdict"].startswith("borderline") for m in margins.values())
    border = report["borderline"]
    assert border["tolerance"] == 1e-5
    assert max(border["div_jn_residual"], border["decomposition_residual"],
               border["traced_gauss_residual"]) < border["tolerance"]
    # b1 = 0: the bound is 0, below the index 1 of the constant function
    bounds = report["bounds"]
    assert {k: bounds[k] for k in ("surface", "ambient", "constant", "betti_one",
                                   "bound", "index", "consistent", "tight")} == {
        "surface": "geodesic_sphere_cp2", "ambient": "complex_projective_veronese",
        "constant": "1/36", "betti_one": 0, "bound": 0, "index": 1,
        "consistent": True, "tight": False}
    # not a sphere: no n + 2 term
    assert list(bounds["terms"].values()) == [0, 0]


def test_ellipsoid_fails_on_convex_pinching(tmp_path):
    config = str(cli.bundled_config("ellipsoid-elongated.cfg"))
    code = cli.main(["all", "--config", config, "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "ellipsoid-elongated.json").read_text())
    no_potential = {"skipped": "surface carries no potential"}
    assert report["spectrum"] == no_potential
    assert report["bounds"] == no_potential
    assert report["identity"] == {"skipped": "no harmonic one-forms (b1 = 0)"}
    assert report["certificate"] == {"skipped": "no harmonic one-forms (b1 = 0)"}
    assert report["borderline"] == {"skipped": "ambient is not complex projective"}
    margins = report["margins"]
    assert set(margins) == {"convex", "scalar3"}
    assert margins["convex"]["verdict"] == "fail"
    assert margins["scalar3"]["verdict"] == "pass"
    _pointwise_residuals_ok(report, "ellipsoid")
    assert _summary_rows(tmp_path)[-1]["failed"] == "margins.convex"


def test_pointwise_tolerance_gates_identities(config_path, tmp_path,
                                             monkeypatch):
    argv = ["identities", "--config", str(config_path), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "torus-small.json").read_text())
    assert report["residuals"]["pointwise_tolerance"] == IDENTITY_TOL == 1e-8
    worst = max(report["residuals"]["hypersurface"].values())
    assert 0.0 < worst < 1e-8
    monkeypatch.setattr(cli.ambient_mod, "IDENTITY_TOL", worst / 2)
    assert cli.main(argv) == 1


@pytest.fixture(scope="module")
def rp3_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "rp3.cfg"
    p.write_text(CONFIG.replace("id = torus-small", "id = rp3")
                 .replace("kind = sphere", "kind = real_projective"))
    return p


def test_rp3_spectrum_is_the_quotient_pencil(rp3_config, tmp_path):
    # the S^3 cover has 1,024 DOFs and index 5; the two-sided quotient in RP^3
    # keeps the even functions: half the DOFs, and index 1 (the constant).
    # The inertia is the cover's, the cross-check of all characters.  The
    # deck x -> -x is the shift by half the 16 cells of each axis
    code = cli.main(["spectrum", "--config", str(rp3_config), "--out", str(tmp_path)])
    assert code == 0
    spec = json.loads((tmp_path / "rp3.json").read_text())["spectrum"]
    assert spec["dofs"] == 512
    assert (spec["index"], spec["inertia_index"]) == (1, 5)
    assert spec["quotient"] == {"shift_cells": [8, 8], "functions": "even"}


def test_rp3_bounds_are_tight(rp3_config, tmp_path):
    code = cli.main(["bounds", "--config", str(rp3_config), "--out", str(tmp_path)])
    assert code == 0
    bounds = json.loads((tmp_path / "rp3.json").read_text())["bounds"]
    assert bounds["ambient"] == "real_projective"
    assert bounds["index"] == bounds["bound"] == 1
    assert bounds["consistent"] and bounds["tight"]


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("stage, owner, attr, exc", [
    ("spectrum", cli, "assemble_jacobi", SpectralError("no factor")),
    ("hodge", cli.hodge_mod, "harmonic_one_forms", HodgeError("no forms")),
    ("margins", cli.bounds_mod, "margins_scalar3", FloatingPointError("nan")),
])
def test_failed_stage_writes_its_json(stage, owner, attr, exc, config_path,
                                      tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(owner, attr, _raise(exc))
    code = cli.main(["all", "--config", str(config_path), "--out", str(tmp_path),
                     "--resolution-scale", "0.5"])
    assert code == 1
    report = json.loads((tmp_path / "torus-small.json").read_text())
    assert report["error"] == {"stage": stage, "type": type(exc).__name__,
                               "message": str(exc)}
    # the stages before the failing one kept their blocks
    assert "residuals" in report
    assert ("spectrum" in report) == (stage != "spectrum")
    assert f"error in {stage}" in capsys.readouterr().err
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    # the stage error is named last, after any block that failed before it
    assert summary[-1].endswith(f"error:{stage},fail")


#: the numbers that each kind of block (or part of one) is judged by: the
#: key of the number, the relation it must hold and the key of the bound it
#: is judged against, which the same block must state
_JUDGED = {
    "spectrum": [("invariance_defect", operator.le, "invariance_tolerance"),
                 ("parseval_residual", operator.le, "parseval_tolerance")],
    "identity": [("relative_residual", operator.lt, "tolerance"),
                 ("bochner_residual", operator.le, "bochner_tolerance")],
    "certificate": [("actual", operator.ge, "required"),
                    ("normalized_margin", lambda m, tol: m < -tol, "tol")],
    "borderline": [(key, operator.lt, "tolerance") for key in (
        "div_jn_residual", "decomposition_residual", "traced_gauss_residual")],
    "bounds": [("index", operator.ge, "bound")],
}
_JUDGED["certificate_starred"] = _JUDGED["certificate"]


def _verdict_blocks(report):
    """(kind, name, block) of every block of `report` that is judged: a
    block that states a verdict, or each part of one whose parts do (the
    identity modes, the margins); skipped blocks are left out."""
    for name, block in report.items():
        if (not isinstance(block, dict) or name in ("provenance", "error")
                or "skipped" in block):
            continue
        if "verdict" in block:
            yield name, name, block
            continue
        assert block, name
        for key, part in block.items():
            assert isinstance(part, dict) and "verdict" in part, f"{name}.{key}"
            yield name, f"{name}.{key}", part


@pytest.mark.parametrize(
    "bundled_all", ["clifford.cfg", "cp2-borderline.cfg", "ellipsoid-elongated.cfg"],
    indirect=True)
def test_every_block_states_its_verdict_and_bounds(bundled_all):
    sid, code, out = bundled_all
    report = json.loads((out / f"{sid}.json").read_text())
    verdicts = {}
    for kind, name, block in _verdict_blocks(report):
        verdicts[name] = block["verdict"]
        assert block["verdict"] in ("pass", "fail") or block[
            "verdict"].startswith("borderline: "), name
        if kind == "residuals":  # each key against the tolerance stated for it
            _residuals_below_stated_tolerances(block)
        elif kind == "margins":
            assert block["thresholds"], name
        elif block["verdict"] == "pass":
            for key, holds, bound in _JUDGED[kind]:
                assert holds(block[key], block[bound]), (name, key, bound)
    # the blocks every `all` run writes, each judged or skipped
    assert {"residuals", "spectrum", "identity", "certificate", "margins",
            "borderline", "bounds"} <= set(report)
    assert code == (1 if "fail" in verdicts.values() else 0)


def _flipped(real, *path):
    """`real`, with the verdict of its result, or of the part of it at
    `path`, turned to "fail"."""
    def flipped(*args, **kwargs):
        result = block = real(*args, **kwargs)
        for key in path:
            block = block[key]
        block["verdict"] = "fail"
        return result
    return flipped


@pytest.mark.parametrize("command, config, owner, attr, path, failed", [
    ("identities", None, cli.ambient_mod, "residuals_block", (), "residuals"),
    ("verify-identity", None, cli.testfns_mod, "q_identity_report",
     ("Prop32",), "identity.Prop32"),
    ("certify", None, cli.bounds_mod, "concentration_certificate", (),
     "certificate;certificate_starred"),
    ("margins", None, cli.bounds_mod, "margins_scalar3", (), "margins.scalar3"),
    ("borderline", "cp2-borderline.cfg", cli.bounds_mod, "borderline_cp_report",
     (), "borderline"),
    ("bounds", None, cli.bounds_mod, "index_bound_report", (), "bounds"),
], ids=["residuals", "identity", "certificate", "margins", "borderline",
        "bounds"])
def test_one_failed_block_fails_the_run(command, config, owner, attr, path,
                                        failed, config_path, tmp_path,
                                        monkeypatch):
    # the exit code and the summary read the blocks' own verdicts: one block
    # that reads "fail" fails the run, and the summary names it
    argv = [command, "--out", str(tmp_path), "--config",
            str(cli.bundled_config(config) if config else config_path)]
    argv += ["--resolution-scale", "0.5"] if config else []
    assert cli.main(argv) == 0
    monkeypatch.setattr(owner, attr, _flipped(getattr(owner, attr), *path))
    assert cli.main(argv) == 1
    clean, flipped = _summary_rows(tmp_path)
    assert (clean["failed"], clean["verdict"]) == ("", "pass")
    assert (flipped["failed"], flipped["verdict"]) == (failed, "fail")
