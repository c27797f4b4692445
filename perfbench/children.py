"""Child processes of the indexbound benchmark.

    python3 perfbench/children.py setup --workload NAME --seed N
    python3 perfbench/children.py trace --suffix SUF --spans FILE --out DIR -- CLI-ARGS...

`setup` builds what a workload builds before its first task and nothing
else.  `trace` runs `indexbound CLI-ARGS... --out DIR` through `cli.main`
itself, with the package's public functions wrapped in spans first, so that
its report, its files and its exit code are the command line's own.  The
lazy caches `surface.fem()` and `surface.node_fields()` get spans of their
own too: their first call does the work, so assembly does not hide inside
the call that first needs it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import workloads
from spans import Tracer


def setup(args):
    """Interpreter start, imports, and the workload's scenarios."""
    from indexbound import cli

    for step in workloads.WORKLOADS[args.workload].steps:
        cli.Scenario(str(workloads.config_path(".", step)),
                     resolution_scale=step.resolution_scale, seed=args.seed)
    return 0


def _wrap(tr, owner, attr, span, counts=None):
    """Replace owner.attr by a wrapper that times each call as `span`.

    `counts(result, *args, **kwargs)` returns (name, value) pairs to record
    after the call.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tr.span(span):
            result = fn(*args, **kwargs)
        for name, value in counts(result, *args, **kwargs) if counts else ():
            tr.count(name, value)
        return result

    setattr(owner, attr, traced)


def instrument(tr):
    """Wrap the package's public entry points in spans, in place."""
    from indexbound import ambient, bounds, cli, hodge, hypersurface, spectral, testfns

    surface = hypersurface.DiscreteHypersurface
    seen_fem = set()

    def fem_counts(fem, self):
        if id(fem) in seen_fem:  # a cached call
            return ()
        seen_fem.add(id(fem))
        return [("elements.nnz", fem.stiffness.nnz)]

    def spectrum_counts(rep, *args, **kwargs):
        return [("spectral.dofs", rep.n_dofs),
                ("spectral.eigenpairs", len(rep.eigenvalues)),
                ("spectral.max_residual", rep.residuals.max())]

    _wrap(tr, cli.Scenario, "__init__", "hypersurface.build")
    _wrap(tr, surface, "fem", "elements.assemble", fem_counts)
    _wrap(tr, surface, "node_fields", "hypersurface.node_fields")
    _wrap(tr, surface, "pointwise_checks", "hypersurface.pointwise_checks")
    _wrap(tr, surface, "mesh_dump", "hypersurface.mesh_dump")
    _wrap(tr, ambient, "verify_model_identities", "ambient.verify",
          lambda rep, *a, **kw: [("ambient.samples", rep.sample_count)])
    _wrap(tr, cli, "assemble_jacobi", "spectral.assemble")
    _wrap(tr, spectral.SpectralSystem, "spectrum", "spectral.eigensolve",
          spectrum_counts)
    _wrap(tr, hodge, "harmonic_one_forms", "hodge.harmonic",
          lambda basis, *a, **kw: [("hodge.forms", len(basis))])
    _wrap(tr, hodge, "combine", "hodge.combine")
    _wrap(tr, testfns, "q_identity_report", "testfns.identity")
    _wrap(tr, bounds, "concentration_certificate", "bounds.certificate")
    for name in ("margins_sphere", "margins_cross", "margins_product_q",
                 "margins_convex"):
        _wrap(tr, bounds, name, "bounds.margins")
    _wrap(tr, bounds, "margins_scalar3", "bounds.scalar3")
    _wrap(tr, bounds, "borderline_cp_report", "bounds.borderline")
    _wrap(tr, bounds, "index_bound_report", "bounds.index_table")
    _wrap(tr, bounds, "theorem_constant", "bounds.index_table")

    # Everything cli.main does after run_tasks returns is writing the
    # report files: one span from there to the end of cli.main.
    run_tasks = cli.run_tasks

    @functools.wraps(run_tasks)
    def traced_run_tasks(*args, **kwargs):
        with tr.span("cli.run_tasks"):
            result = run_tasks(*args, **kwargs)
        tr.begin("cli.report_write")
        return result

    cli.run_tasks = traced_run_tasks
    return cli


def trace(args, cli_argv):
    """`indexbound CLI-ARGS...` with one span per public call."""
    tr = Tracer(args.suffix)
    try:
        with tr.span("cli.main"):
            with tr.span("cli.import"):
                cli = instrument(tr)
            code = cli.main(cli_argv)
        # cli.report_write, begun when run_tasks returned, ended with cli.main
        out = Path(args.out)
        if out.is_dir():
            tr.count("cli.report_bytes",
                     sum(f.stat().st_size for f in out.iterdir() if f.is_file()))
    finally:
        Path(args.spans).write_text(json.dumps(tr.dump()) + "\n")
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_argv = []
    if "--" in argv:
        cli_argv = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    parser = argparse.ArgumentParser(prog="children.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("trace")
    p.add_argument("--suffix", default="")
    p.add_argument("--spans", required=True)
    p.add_argument("--out", required=True,
                   help="the command line's --out, where it writes its files")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup(args)
    return trace(args, cli_argv + ["--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
