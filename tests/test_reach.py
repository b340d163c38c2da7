"""Every ``src/`` module lies on the path of a command, figure, table or
served query.

The paper reports its results as the figures and tables of Secs. VI-VII,
all computed over one split; a module that none of them, no command and
no served query reaches is code nothing runs.  This walks ``src/``
statically with :mod:`ast` (it imports nothing) from the roots below and
follows names the way Python binds them:

* ``import a.b`` and ``from a import b`` reach ``a``, ``a.b`` (when it is
  a module) and every package above them, whose ``__init__`` runs;
* a package ``__init__`` is a re-export hub: its own relative imports
  are followed only for a name somebody takes from it (``from pkg import
  name``, ``pkg.name``, or its own code's use of the name), and
  ``core/__init__``'s lazy ``_EXPORTS`` map is read the same way;
* every other module reaches everything it imports, at any depth.

A module the walk misses is either deleted or named in :data:`ALLOWED`
with the reason it stays.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Every command (``repro.cli`` and the ``python -m repro`` entry), every
#: figure and table, and the two serving stacks.  A trailing ``.*`` is
#: every module under that package.
ROOTS = (
    "repro.cli",
    "repro.__main__",
    "repro.harness.experiments.*",
    "repro.serve",
    "repro.cluster",
)

#: Modules no root reaches, each with the reason it stays.
ALLOWED = {
    "repro.core.oracles": "the tests play the Alg. 6/7 games with it",
    "repro.kernels._cc": "it is loaded by path",
    "repro.ndp.arith_enc": (
        "benchmarks/bench_ablations.py reads it for the ArithEnc amortisation ablation"
    ),
    "repro.workloads.analytics": (
        "the functional form of the paper's workload 2 (Sec. VI-A(2)); the "
        "figures replay its timing as a trace, and a command for it would "
        "reproduce no number the paper reports"
    ),
}


@dataclass
class _Scan:
    """What one module's source binds and reaches."""

    package: bool
    #: Modules reached whenever this module is.
    edges: Set[str] = field(default_factory=set)
    #: ``(module, name)`` pairs this module takes a name from.
    uses: Set[Tuple[str, str]] = field(default_factory=set)
    #: Attribute chains off a name bound to a module: ``(module, attrs)``.
    chains: Set[Tuple[str, Tuple[str, ...]]] = field(default_factory=set)
    #: A package's re-exports: local name -> ``(module, name)``.
    exports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def index(src: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Dotted name -> path of every module under ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _absolute(package: str, level: int, module: str) -> str:
    if not level:
        return module
    base = package.split(".")[: len(package.split(".")) - level + 1]
    return ".".join(base + ([module] if module else []))


def _chain(node: ast.Attribute) -> Tuple[str, Tuple[str, ...]]:
    attrs: List[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id if isinstance(node, ast.Name) else ""), tuple(reversed(attrs))


def scan(name: str, path: pathlib.Path) -> _Scan:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    info = _Scan(package=path.name == "__init__.py")
    package = name if info.package else name.rpartition(".")[0]
    aliases: Dict[str, str] = {}  # local name -> the module it may name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.edges.add(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(package, node.level, node.module or "")
            hub = info.package and node in tree.body and node.level > 0
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}"
                if hub:
                    info.exports[local] = (base, alias.name)
                else:
                    info.edges.add(base)
                    info.uses.add((base, alias.name))
        elif (
            info.package
            and isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values):
                info.exports[key.value] = (f"{name}.{value.value}", key.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base, attrs = _chain(node)
            if base in aliases:
                info.chains.add((aliases[base], attrs))
        elif isinstance(node, ast.Name) and node.id in info.exports:
            info.uses.add(info.exports[node.id])
    return info


def unreached(src: pathlib.Path, roots: Iterable[str]) -> Set[str]:
    """The modules under ``src`` that no root reaches."""
    modules = index(src)
    scans = {name: scan(name, path) for name, path in modules.items()}

    def resolve(module: str, name: str, depth: int = 0) -> List[str]:
        """The modules ``module.name`` reaches: a submodule, or through
        a package's re-export the module that defines the name."""
        if f"{module}.{name}" in modules:
            return [f"{module}.{name}"]
        info = scans.get(module)
        if info is None or name not in info.exports or depth > len(modules):
            return []
        source, source_name = info.exports[name]
        return [source, *resolve(source, source_name, depth + 1)]

    todo: List[str] = []
    for root in roots:
        if root.endswith(".*"):
            todo += [m for m in modules if m.startswith(root[:-1])]
        else:
            todo.append(root)
    seen: Set[str] = set()
    while todo:
        module = todo.pop()
        if module in seen or module not in modules:
            continue
        seen.add(module)
        info = scans[module]
        parts = module.split(".")
        todo += [".".join(parts[:i]) for i in range(1, len(parts))]
        todo += info.edges
        for source, name in info.uses:
            todo += [source, *resolve(source, name)]
        for source, attrs in info.chains:
            for attr in attrs:
                found = resolve(source, attr)
                todo += found
                if f"{source}.{attr}" not in modules:
                    break
                source = f"{source}.{attr}"
    return set(modules) - seen


def test_every_module_is_reached_or_allowed_with_a_reason():
    missed = unreached(SRC, ROOTS)
    assert missed - set(ALLOWED) == set(), "reached by no command, figure, table or server"
    assert set(ALLOWED) - missed == set(), "allowed but reached (or gone): drop the entry"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_walk_names_an_unimported_module(tmp_path):
    files = {
        # A re-export nobody takes does not reach its module.
        "pkg/__init__.py": "from .orphan import unused\nfrom .used import helper\n",
        "pkg/used.py": "def helper():\n    return 1\n",
        "pkg/orphan.py": "unused = 2\n",
        "pkg/sub/__init__.py": "from .deep import run\n",
        "pkg/sub/deep.py": "def run():\n    return 3\n",
        "pkg/lazy/__init__.py": '_EXPORTS = {"Thing": "impl"}\n',
        "pkg/lazy/impl.py": "class Thing:\n    pass\n",
        "pkg/cli.py": (
            "from pkg import helper\n"  # a name through the package
            "from . import sub\n"
            "from .lazy import Thing\n"  # through the lazy map
            "def main():\n"
            "    return sub.run()\n"  # an attribute of a package
        ),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unreached(tmp_path, ["pkg.cli"]) == {"pkg.orphan"}


def _write(root: pathlib.Path, files: Dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


#: One binding rule each: a fixture package, its root, and the one module
#: the rule leaves unreached.
RULES = {
    "a name taken from a package reaches its defining module": (
        {
            "pkg/__init__.py": "",
            "pkg/hub/__init__.py": "from .impl import f\nfrom .other import g\n",
            "pkg/hub/impl.py": "def f():\n    pass\n",
            "pkg/hub/other.py": "def g():\n    pass\n",
            "pkg/cli.py": "from pkg.hub import f\n",
        },
        "pkg.hub.other",
    ),
    "an attribute of a package reaches the module that defines it": (
        {
            "pkg/__init__.py": "",
            "pkg/obs/__init__.py": "from .export import report\nfrom .other import g\n",
            "pkg/obs/export.py": "def report():\n    pass\n",
            "pkg/obs/other.py": "def g():\n    pass\n",
            "pkg/cli.py": "from pkg import obs\nobs.report()\n",
        },
        "pkg.obs.other",
    ),
    "a lazy _EXPORTS entry reaches its module": (
        {
            "pkg/__init__.py": "",
            "pkg/core/__init__.py": '_EXPORTS = {"Thing": "impl", "Other": "other"}\n',
            "pkg/core/impl.py": "class Thing:\n    pass\n",
            "pkg/core/other.py": "class Other:\n    pass\n",
            "pkg/cli.py": "from pkg.core import Thing\n",
        },
        "pkg.core.other",
    ),
    "an import inside a function reaches its module": (
        {
            "pkg/__init__.py": "",
            "pkg/fig.py": "X = 1\n",
            "pkg/orphan.py": "X = 2\n",
            "pkg/cli.py": "def command():\n    from pkg import fig\n    return fig.X\n",
        },
        "pkg.orphan",
    ),
    "a module reaches every package above it": (
        {
            "pkg/__init__.py": "",
            "pkg/a/__init__.py": "",
            "pkg/a/b/__init__.py": "",
            "pkg/a/b/leaf.py": "X = 2\n",
            "pkg/orphan.py": "X = 3\n",
            "pkg/cli.py": "import pkg.a.b.leaf\n",
        },
        "pkg.orphan",
    ),
    "a plain module reaches what it imports and does not use": (
        {
            "pkg/__init__.py": "",
            "pkg/side.py": "X = 1\n",
            "pkg/orphan.py": "X = 2\n",
            "pkg/cli.py": "from . import side  # noqa: F401\n",
        },
        "pkg.orphan",
    ),
    "a package's own use of a re-exported name reaches its source": (
        {
            "pkg/__init__.py": "",
            "pkg/hub/__init__.py": (
                "from .impl import f\nfrom .other import g\n"
                "def run():\n    return f()\n"
            ),
            "pkg/hub/impl.py": "def f():\n    pass\n",
            "pkg/hub/other.py": "def g():\n    pass\n",
            "pkg/cli.py": "from pkg.hub import run\n",
        },
        "pkg.hub.other",
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_binding_rule_reaches_what_it_names_and_no_more(rule, tmp_path):
    files, orphan = RULES[rule]
    _write(tmp_path, files)
    assert unreached(tmp_path, ["pkg.cli"]) == {orphan}
