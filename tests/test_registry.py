"""Every SURFACE_KINDS entry, in every ambient kind it declares, is built in
the configured ambient model itself and runs each task of `all` through the
scenario runner; an undeclared pairing, or an ambient dimension the kind
cannot be built in, is a config error.  Every SURFACE_KINDS entry gives b1
orthonormal harmonic one-forms.
Every AMBIENT_KINDS entry names its own model, gets the paper's constant for
its kind from `theorem_constant`, and is listed by some SURFACE_KINDS entry.
Parametrized over the registries themselves, so a new entry is covered
without a test edit."""

from fractions import Fraction

import numpy as np
import pytest

from indexbound import bounds, cli, hodge
from indexbound.ambient import AMBIENT_KINDS, IDENTITY_TOL
from indexbound.hypersurface import SURFACE_KINDS
from indexbound.spectral import SpectralError, SpectralSystem
from oracles import deck_permutation, deck_sign_spectrum, dense_spectrum, parity_basis

#: one ambient of each kind the runner parses; a surface kind built in it
#: takes its dimension from it (n = 2 in the sphere, n = 3 in S^1 x S^3)
EXAMPLE_AMBIENTS = {
    "sphere": {"dim": 3},
    "real_projective": {"dim": 3},
    "complex_projective_veronese": {"m": 2},
    "circle_times_sphere": {"n": 3},
    "ellipsoid": {"semi_axes": [1.0, 1.2, 1.5, 2.0]},
}

#: ambients at n = 2 and n = 3 for the kinds whose dimension the ambient sets
TWO_DIMENSIONS = {
    "equator": [{"dim": 3}, {"dim": 4}],
    "generalized_clifford": [{"dim": 3}, {"dim": 4}],
    "circle_times_equator": [{"n": 2}, {"n": 3}],
    "ellipsoid_section": [{"semi_axes": [1.0, 1.2, 1.5, 2.0]},
                          {"semi_axes": [1.0, 1.2, 1.5, 1.7, 2.0]}],
}

#: the documented reasons a task of `all` may skip
SKIPPED = {
    "surface carries no potential",
    "no harmonic one-forms (b1 = 0)",
    "ambient is not complex projective",
}

#: the report block each task of `all` writes
BLOCKS = {
    "identities": "residuals", "spectrum": "spectrum",
    "verify-identity": "identity", "certify": "certificate",
    "margins": "margins", "borderline": "borderline", "bounds": "bounds",
}

PAIRS = [(kind, amb) for kind, entry in SURFACE_KINDS.items()
         for amb in entry.ambients]


def _config(tmp_path, kind, ambient_kind, params, nodes=8):
    lines = [f"{name} = {' '.join(map(str, np.atleast_1d(value)))}"
             for name, value in params.items()]
    path = tmp_path / f"{kind}-{ambient_kind}.cfg"
    path.write_text(
        "[scenario]\nid = registry\n"
        f"[ambient]\nkind = {ambient_kind}\n" + "\n".join(lines) + "\n"
        f"[hypersurface]\nkind = {kind}\nnodes = {nodes}\n"
        "[certificate]\neigenvalues = 12\n"
    )
    return path


def test_examples_cover_every_ambient_kind():
    assert set(EXAMPLE_AMBIENTS) == set(AMBIENT_KINDS)
    assert {amb for _, amb in PAIRS} <= set(AMBIENT_KINDS)


def test_every_ambient_kind_carries_a_surface_kind():
    # an ambient kind no surface kind lists is refused by every config
    assert set(AMBIENT_KINDS) <= {amb for _, amb in PAIRS}


#: the paper's constant for each ambient kind, in its own parameters
PAPER_CONSTANTS = {
    "sphere": lambda a: Fraction(2, (a.intrinsic_dim + 1) * a.intrinsic_dim),
    "real_projective": lambda a: Fraction(
        2, (a.intrinsic_dim + 1) * a.intrinsic_dim),
    "complex_projective_veronese": lambda a: Fraction(
        2, a.m * (a.m + 2) * (a.m + 1) ** 2),
    "circle_times_sphere": lambda a: Fraction(2, (a.n + 3) * (a.n + 2)),
    "ellipsoid": lambda a: Fraction(2, a.embed_dim * (a.embed_dim - 1)),
}


@pytest.mark.parametrize("kind", AMBIENT_KINDS)
def test_ambient_kind_entry(kind):
    entry = AMBIENT_KINDS[kind]
    assert entry.model.kind == kind
    model = entry.model(**EXAMPLE_AMBIENTS[kind])
    assert bounds.theorem_constant(model) == PAPER_CONSTANTS[kind](model)


@pytest.mark.parametrize("kind, ambient_kind", PAIRS)
def test_every_task_runs_or_skips(kind, ambient_kind, tmp_path):
    path = _config(tmp_path, kind, ambient_kind, EXAMPLE_AMBIENTS[ambient_kind])
    scenario = cli.Scenario(path)
    quotient = AMBIENT_KINDS[ambient_kind].model.involution is not None
    report, _ = cli.run_tasks(scenario, cli.TASK_NAMES["all"])
    assert "error" not in report, report["error"]
    for task in cli.TASK_NAMES["all"]:
        skipped = report[BLOCKS[task]].get("skipped")
        assert skipped is None or skipped in SKIPPED, task
    assert ("quotient" in report["spectrum"]) == quotient
    if quotient:
        assert 2 * report["spectrum"]["dofs"] == scenario.surface.fem().n_dofs
    # bounds runs every margin the ambient's entry lists, but the form
    # margins where b1 = 0, and the borderline lemmas in CP^m alone
    expected = set(AMBIENT_KINDS[ambient_kind].margins)
    if scenario.surface.betti_one == 0:
        expected -= {"sphere", "product_q"}
    assert set(report["margins"]) == expected
    assert ("skipped" in report["borderline"]) == (
        ambient_kind != "complex_projective_veronese")


@pytest.mark.parametrize("kind", SURFACE_KINDS)
def test_undeclared_pairing_is_config_error(kind, tmp_path):
    ambient_kind = next(a for a in EXAMPLE_AMBIENTS
                        if a not in SURFACE_KINDS[kind].ambients)
    path = _config(tmp_path, kind, ambient_kind, EXAMPLE_AMBIENTS[ambient_kind])
    with pytest.raises(cli.ConfigError, match="incompatible"):
        cli.Scenario(path)
    assert cli.main(["identities", "--config", str(path),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind, ambient_kind", PAIRS)
def test_surface_is_built_in_the_given_ambient(kind, ambient_kind):
    ambient = AMBIENT_KINDS[ambient_kind].model(**EXAMPLE_AMBIENTS[ambient_kind])
    assert SURFACE_KINDS[kind].build(ambient, 8).ambient is ambient


@pytest.mark.parametrize("kind", ["equator", "generalized_clifford"])
def test_sphere_dimension_sets_the_surface_dimension(kind, tmp_path):
    for params in TWO_DIMENSIONS[kind]:
        path = _config(tmp_path, kind, "sphere", params)
        assert cli.Scenario(path).surface.dim == params["dim"] - 1
        assert cli.main(["identities", "--config", str(path),
                         "--out", str(tmp_path)]) == 0


def test_ambient_of_another_dimension_is_config_error(tmp_path, capsys):
    # the Clifford torus lives in S^3, the geodesic sphere in CP^2, and
    # S^1 x S^(n-1) needs n >= 2; the equator of S^2, a circle, is refused
    # rather than built with no harmonic axis (b1 = 0 where b1 = 1)
    for kind, ambient_kind, params in (
            ("clifford_torus", "sphere", {"dim": 4}),
            ("geodesic_sphere_cp2", "complex_projective_veronese", {"m": 3}),
            ("generalized_clifford", "sphere", {"dim": 2}),
            ("equator", "sphere", {"dim": 2})):
        path = _config(tmp_path, kind, ambient_kind, params)
        assert cli.main(["identities", "--config", str(path),
                         "--out", str(tmp_path)]) == 2
        assert "incompatible" in capsys.readouterr().err


@pytest.mark.parametrize("kind, ambient_kind", PAIRS)
def test_block_spectrum_matches_dense_oracle(kind, ambient_kind):
    # the whole block spectrum of each pencil, and of both parities of a
    # quotient, against one dense solve of the same pencil
    ambient = AMBIENT_KINDS[ambient_kind].model(**EXAMPLE_AMBIENTS[ambient_kind])
    surface = SURFACE_KINDS[kind].build(ambient, 8)
    fem = surface.fem()
    if surface.potential is None:
        with pytest.raises(SpectralError, match="no potential"):
            SpectralSystem(surface)
        return
    system = SpectralSystem(surface)
    spec = system.spectrum()
    kept = spec.quotient and spec.quotient["functions"]
    runs = [(kept, spec.all_eigenvalues, spec.block_sizes, spec.morse_index)]
    if kept:  # the functions of the other sign, from the same blocks
        other = {"even": "odd", "odd": "even"}[kept]
        vals, sizes, _ = deck_sign_spectrum(system, 1 if other == "even" else -1)
        runs.append((other, vals, sizes, np.sum(vals < 0)))
    for parity, vals, sizes, index in runs:
        basis = parity and parity_basis(fem, deck_permutation(surface), parity)
        oracle = dense_spectrum(system, basis)
        assert len(oracle) <= 600
        assert sizes.sum() == len(vals) == len(oracle)
        scale = np.abs(oracle).max()
        assert np.abs(vals - oracle).max() < 1e-9 * scale
        assert index == np.sum(oracle < 0)


@pytest.mark.parametrize("kind, ambient_kind", PAIRS)
def test_potential_is_a_number(kind, ambient_kind):
    # the stability potential of a homogeneous surface is one constant
    surface = SURFACE_KINDS[kind].build(
        AMBIENT_KINDS[ambient_kind].model(**EXAMPLE_AMBIENTS[ambient_kind]), 8)
    potential = surface.potential
    assert potential is None or (type(potential) is float
                                 and np.isfinite(potential))


@pytest.mark.parametrize("kind, ambient_kind", PAIRS)
def test_surface_with_potential_declares_its_metric(kind, ambient_kind,
                                                    tmp_path):
    # a potential in closed form comes with the metric in closed form, and
    # the identities task checks it against the chart
    path = _config(tmp_path, kind, ambient_kind, EXAMPLE_AMBIENTS[ambient_kind])
    scenario = cli.Scenario(path)
    surface = scenario.surface
    if surface.potential is None:
        return
    assert surface._metric_fn is not None
    checks = surface.pointwise_checks(seed=scenario.seed)
    assert checks["metric_consistency"] < IDENTITY_TOL


@pytest.mark.parametrize("kind", SURFACE_KINDS)
def test_harmonic_forms_of_every_kind(kind):
    # b1 orthonormal forms, each harmonic by its Bochner residual, at n = 2
    # and n = 3 where the ambient sets n; on a surface, b1 is also the Euler
    # characteristic's 2 - chi
    entry = SURFACE_KINDS[kind]
    ambient_kind = entry.ambients[0]
    for params in TWO_DIMENSIONS.get(kind, [EXAMPLE_AMBIENTS[ambient_kind]]):
        surface = entry.build(AMBIENT_KINDS[ambient_kind].model(**params), 12)
        forms = hodge.harmonic_one_forms(surface)
        assert len(forms) == surface.betti_one
        gram = np.array([[hodge.l2_inner(surface, a, b) for b in forms]
                         for a in forms])
        assert np.abs(gram - np.eye(len(forms))).max(initial=0.0) < 1e-10
        for w in forms:
            assert hodge.bochner_residual(surface, w) < 1e-8
        if surface.dim == 2:
            assert hodge._euler_betti_one(surface) == surface.betti_one
