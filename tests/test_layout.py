"""Every module under ``src/repro`` is reached from something that runs.

The entry points are the CLI, the experiments, and every benchmark and
perfbench script. A static walk of their ``import`` statements (relative
ones included, function-level ones too) must reach every module of the
package; a module nothing reaches is code no pipeline, experiment or
benchmark uses, and is deleted rather than kept.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def package_modules() -> dict[str, Path]:
    """Dotted name -> file for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, module: str | None = None) -> set[str]:
    """Dotted names ``path`` imports; ``a.b.c`` also counts ``a`` and ``a.b``.

    ``module`` is the file's own dotted name, needed to resolve relative
    imports. ``from a import b`` yields ``a.b`` too, in case ``b`` is a
    module rather than a name.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    package = None
    if module is not None:
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                if node.module:
                    base.append(node.module)
                stem = ".".join(base)
            else:
                stem = node.module
            targets = [stem] + [f"{stem}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    return names


def reachable_modules() -> set[str]:
    modules = package_modules()
    roots = {"repro.cli"} | {m for m in modules if m.startswith("repro.experiments")}
    frontier = set(roots)
    for directory in ("benchmarks", "perfbench"):
        for path in sorted((ROOT / directory).glob("*.py")):
            frontier |= imported_names(path) & modules.keys()
    seen = set()
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        frontier |= imported_names(modules[module], module) & modules.keys()
    return seen


def test_relative_imports_resolve(tmp_path):
    source = "from . import x\nfrom ..core import dasc\n\ndef f():\n    import a.b.c\n"
    (tmp_path / "mod.py").write_text(source)
    (tmp_path / "__init__.py").write_text(source)
    assert imported_names(tmp_path / "mod.py", "repro.verify.mod") == {
        "repro", "repro.verify", "repro.verify.x", "repro.core", "repro.core.dasc",
        "a", "a.b", "a.b.c",
    }
    # A package's __init__ resolves relative to the package itself.
    assert imported_names(tmp_path / "__init__.py", "repro.verify.sub") == {
        "repro", "repro.verify", "repro.verify.sub", "repro.verify.sub.x",
        "repro.verify.core", "repro.verify.core.dasc", "a", "a.b", "a.b.c",
    }


def test_every_module_is_reached():
    unreached = sorted(package_modules().keys() - reachable_modules())
    assert unreached == [], f"modules no entry point imports: {unreached}"
