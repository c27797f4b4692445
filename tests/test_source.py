"""Static checks of the package source: every module-level import is used,
no function imports a module of the package, the package imports nothing of
scipy and keeps one eigensolver path (dense solves of symmetry blocks: no
ARPACK, no SuperLU factor, nothing of scipy.sparse.linalg), no public package
function is reached only from the tests (the benchmark counts as a caller),
every defaulted parameter of a public function is passed by some package
call, every strict inequality of `bounds` goes through its one rule,
every package name that the benchmark's traced child wraps exists, the
scenario runner reads the config only through its one reader, and it leaves
the margins and the ambient model checks to the modules that own them."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import indexbound

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(indexbound.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
#: the benchmark's sources, which call the package and count as its callers
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
PYPROJECT = ROOT / "pyproject.toml"


def unused_imports(source):
    """Names bound by the module-level imports of `source` that the module
    never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def function_package_imports(source):
    """Line numbers of the relative imports, those of a package module, made
    inside a function body of `source`."""
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    })


def test_unused_import_is_found():
    source = "import os\nimport sys\nfrom math import pi, tau\n\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_function_package_import_is_found():
    source = (
        "from .ambient import AMBIENT_KINDS\n"
        "def f():\n    from scipy.optimize import brentq\n"
        "def g():\n    def h():\n        from .hodge import combine\n"
    )
    assert function_package_imports(source) == [6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    assert function_package_imports(path.read_text()) == []


def scipy_imports(source):
    """Line numbers of the imports of `source`, at any depth, of scipy or of
    a module of it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "scipy")


def test_scipy_import_is_found():
    source = (
        "import numpy as np\nimport scipy\nimport os, scipy.sparse as sp\n"
        "from scipy.linalg import eigh\nfrom .scipy import x\n"
        "import scipyx\ndef f():\n    from scipy import optimize\n"
    )
    assert scipy_imports(source) == [2, 3, 4, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def sparse_solver_lines(source):
    """Line numbers of `source` that name scipy's ARPACK wrapper eigsh,
    ARPACK, the SuperLU factor splu, or scipy.sparse.linalg."""
    return [i for i, line in enumerate(source.splitlines(), 1)
            if re.search(r"eigsh|arpack|splu|superlu|scipy\.sparse\.linalg",
                         line, re.IGNORECASE)]


def test_iterative_eigensolver_is_found():
    source = "import numpy as np\nfrom scipy.sparse.linalg import eigsh\n"
    assert sparse_solver_lines(source) == [2]
    assert sparse_solver_lines("except spla.ArpackNoConvergence:\n") == [1]
    source = ("import scipy.sparse as sp\nimport scipy.sparse.linalg as spla\n"
              "lu = spla.splu(A)\n# SuperLU's minimum degree order\n")
    assert sparse_solver_lines(source) == [2, 3, 4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_iterative_eigensolver(path):
    assert sparse_solver_lines(path.read_text()) == []


def entry_points(pyproject):
    """Function names of the [project.scripts] entry points of the text of a
    pyproject.toml."""
    section = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r":(\w+)\"", section))


def public_functions(source):
    """Names of the public module-level functions of `source`, and names of
    the public methods and properties of its classes."""
    tree = ast.parse(source).body
    public = lambda nodes: {
        m.name for m in nodes
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not m.name.startswith("_")}
    return (public(tree),
            public(m for node in tree if isinstance(node, ast.ClassDef)
                   for m in node.body))


def read_names(source):
    """The bare names `source` reads, and the attribute names it reads."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)},
            {n.attr for n in nodes if isinstance(n, ast.Attribute)
             and isinstance(n.ctx, ast.Load)})


def reached_only_from_tests(package, tests, allowed, callers=()):
    """Public functions of the `package` sources, outside `allowed`, that no
    package or `callers` source reaches and some of the `tests` sources
    read.  A function is reached by a read of its name, bare or as an
    attribute; a class member only by an attribute read."""
    functions, members = (set().union(*parts)
                          for parts in zip(*map(public_functions, package)))
    bare, attrs = (set().union(*parts) for parts in
                   zip(*map(read_names, [*package, *callers])))
    unreached = (functions - bare - attrs) | (members - attrs)
    in_tests = set().union(*(b | a for b, a in map(read_names, tests)))
    return sorted((unreached - allowed) & in_tests)


def test_test_only_function_is_found():
    package = [
        "def used():\n    pass\ndef tested():\n    pass\n"
        "def main():\n    used()\n",
        "class A:\n    def probe(self):\n        pass\n"
        "    def _private(self):\n        pass\n    def unread(self):\n        pass\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def timed(self):\n        pass\n"
        "size = len([])\nprint(size)\n",
    ]
    tests = ["from pkg import A, main, tested\n"
             "tested()\nA().probe()\nA()._private()\nmain()\n"
             "size = 2\nA().timed()\n"]
    # `size` is read in the package as a bare name only, never as A().size;
    # `timed` is reached from the caller
    callers = ["from pkg import A\nA().timed()\n"]
    assert reached_only_from_tests(package, tests, {"main"}, callers) == [
        "probe", "size", "tested"]
    assert entry_points('[project.scripts]\nx = "pkg.cli:main"\n[tool]\ny = "a:b"\n') == {"main"}


def test_no_function_reached_only_from_tests():
    allowed = entry_points(PYPROJECT.read_text())
    assert allowed == {"main"}
    assert reached_only_from_tests(
        [p.read_text() for p in SOURCES],
        [p.read_text() for p in TESTS], allowed,
        [p.read_text() for p in PERFBENCH]) == []


#: defaulted parameters that no package call passes, each with its reason
UNPASSED_DEFAULTS = {
    "main.argv": "the entry point: the console script calls main() without "
                 "arguments, so that argparse reads sys.argv",
    "geodesic_sphere_cp2.radius": "the minimal-radius oracle that brentq "
                                  "solves for",
}


def _is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _init_false(value):
    """Whether `value` is a dataclass `field(..., init=False)` call."""
    return (isinstance(value, ast.Call)
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords))


def defaulted_parameters(source):
    """(name, callee, position, keyword) of each defaulted parameter of the
    public functions, methods, constructors and dataclass fields of
    `source`.  `name` is owner.parameter; a call named `callee` passes it
    with more than `position` positional arguments (None: keyword only) or
    with the keyword."""
    out = []

    def of_function(fn, callee, owner, method):
        args = fn.args
        positional = (args.posonlyargs + args.args)[1 if method else 0:]
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            out.append((f"{owner}.{a.arg}", callee, i, a.arg))
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                out.append((f"{owner}.{a.arg}", callee, None, a.arg))

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            of_function(node, node.name, node.name, False)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_dataclass(node):
            fields = [m for m in node.body if isinstance(m, ast.AnnAssign)
                      and not _init_false(m.value)]
            out += [(f"{node.name}.{m.target.id}", node.name, i, m.target.id)
                    for i, m in enumerate(fields) if m.value is not None]
        for m in node.body:
            if not isinstance(m, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in m.decorator_list)
            if m.name == "__init__":
                of_function(m, node.name, node.name, True)
            elif not m.name.startswith("_"):
                of_function(m, m.name, f"{node.name}.{m.name}", not static)
    return out


def calls(source):
    """(callee name, positional count, keywords) of each call in `source`;
    a *args call counts as passing every position, a **kwargs call every
    keyword (None in the keywords)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((callee, float("inf") if starred else len(node.args),
                        {k.arg for k in node.keywords}))
    return out


def unpassed_defaults(package):
    """Names (owner.parameter) of the defaulted parameters of the `package`
    sources that no package call passes, by position or by keyword; calls
    are matched to definitions by name."""
    found = [c for src in package for c in calls(src)]
    return sorted(
        name
        for src in package
        for name, callee, position, keyword in defaulted_parameters(src)
        if not any(c == callee and ((position is not None and n > position)
                                    or keyword in kws or None in kws)
                   for c, n, kws in found))


def test_unpassed_default_is_found():
    package = [
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def main(argv=None):\n    f(0, 1, e=5)\n",
        "from dataclasses import dataclass, field\n"
        "@dataclass\nclass R:\n    x: int\n    y: int = 0\n"
        "    z: int = field(init=False)\n    w: list = field(default_factory=list)\n"
        "class A:\n    def __init__(self, p, q=None):\n        pass\n"
        "    def m(self, k=1, j=2):\n        R(1, 2)\n        A(0).m(**{})\n"
        "    @staticmethod\n    def s(u=0):\n        pass\n"
        "    def _private(self, v=0):\n        A.s(1)\n",
    ]
    assert unpassed_defaults(package) == [
        "A.q", "R.w", "f.c", "f.d", "main.argv"]


def test_every_default_is_passed():
    assert unpassed_defaults([p.read_text() for p in SOURCES]) == sorted(
        UNPASSED_DEFAULTS)


def zero_comparisons(source, rule="_strict"):
    """Line numbers of the comparisons of `source`, outside the function
    `rule`, with a literal zero operand (0, 0.0, -0 or -0.0)."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == rule
              for node in ast.walk(fn)}

    def zero(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and type(node.value) in (int, float) and node.value == 0)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in inside
                  and any(map(zero, [node.left, *node.comparators])))


def test_zero_comparison_is_found():
    source = (
        "def _strict(m, s):\n    return m < -0.0 or m > 0\n"
        "def f(x, y):\n    ok = x < 0.0 and 0 <= y\n"
        "    if abs(x) < 1e-8 or y == -0:\n        return x is False\n"
        "    return [y > 0.5, x != 0]\n"
    )
    assert zero_comparisons(source) == [4, 4, 5, 7]


def test_bounds_strict_inequalities_use_the_rule():
    # every sign test of a margin in `bounds` is judged by `_strict`, against
    # a reported tolerance, never by the sign of a bare comparison with zero
    source = (Path(indexbound.__file__).parent / "bounds.py").read_text()
    assert zero_comparisons(source) == []


def test_benchmark_trace_wraps_existing_names():
    # `children.instrument` replaces package attributes by name; one that a
    # rename removed fails here rather than in a `--trace 1` benchmark run
    code = ('import sys; sys.path[:0] = ["perfbench", "src"]; '
            "import children, spans; children.instrument(spans.Tracer())")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def config_reads(source, reader="_value"):
    """Line numbers of the reads of a config value in `source` outside the
    function `reader`: a `get` method (get, getint, getfloat, getboolean) of
    a name `parser` or of a section of it, or a section `parser[...]`."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == reader
              for node in ast.walk(fn)}

    def parser(node):
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "parser"

    return sorted({node.lineno for node in ast.walk(tree)
                   if id(node) not in inside and (
                       isinstance(node, ast.Subscript) and parser(node)
                       or isinstance(node, ast.Attribute)
                       and node.attr.startswith("get") and parser(node.value))})


def test_config_read_is_found():
    source = (
        "def _value(parser, section, key):\n"
        "    return parser.get(section, key)\n"
        "def build(parser):\n    kind = parser['ambient'].get('kind')\n"
        "    n = parser.getint('hypersurface', 'nodes')\n"
        "    if 'scenario' not in parser:\n        return parser.sections()\n"
        "    section = parser['scenario']\n"
        "    return args.parser.get('x'), parser.options('x'), _value(parser, 'a', 'b')\n"
    )
    assert config_reads(source) == [4, 5, 8]


def test_cli_reads_the_config_only_through_value():
    # `_value` removes each key it reads, and the scenario refuses the keys
    # left over, so a read that bypasses it would refuse a key it uses
    source = (Path(indexbound.__file__).parent / "cli.py").read_text()
    assert config_reads(source) == []


def registry_decisions(source):
    """Line numbers of `source` that read a `.margins` or `.dim` attribute
    or pass a class of `ambient_mod` to `isinstance`."""
    def model_class(node):
        return any(isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                   and n.value.id == "ambient_mod" for n in ast.walk(node))

    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("margins", "dim")
                   or isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "isinstance" and len(node.args) == 2
                   and model_class(node.args[1])})


def test_registry_decision_is_found():
    source = (
        "def f(run, amb):\n"
        "    names = ambient_mod.AMBIENT_KINDS[run.kind].margins\n"
        "    if isinstance(run.ambient, ambient_mod.SphereModel):\n"
        "        return isinstance(run, (int, ambient_mod.EllipsoidModel))\n"
        "    report['margins'] = margins = {}\n"
        "    return isinstance(run, dict), margins.values(), amb.margins_x\n"
        "    if run.surface.dim == 2 and amb.intrinsic_dim:\n"
        "        return dim, amb.embed_dim\n"
    )
    assert registry_decisions(source) == [2, 3, 4, 7]


def test_cli_leaves_margins_and_model_checks_to_their_owners():
    # `bounds` runs the margins an ambient's entry lists and decides where
    # the borderline report and the starred certificate apply (the latter by
    # `testfns`' n = 2 rule); a second copy of any of these rules in the
    # runner would have to be kept in step with the first
    source = (Path(indexbound.__file__).parent / "cli.py").read_text()
    assert registry_decisions(source) == []
