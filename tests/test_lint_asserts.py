"""Library-wide lints over ``src/repro``.

* No bare ``assert`` statements on runtime data: asserts vanish under
  ``python -O`` and produce opaque AssertionErrors with no context; library
  code must raise explicit exceptions instead.
* No bare ``print(...)`` calls: a print without an explicit ``file=``
  argument writes to whatever stdout happens to be, corrupting
  machine-readable output (CSV labels, trace files) and bypassing the
  ``repro.observability`` logging configuration. Diagnostics go through
  ``get_logger``; intentional terminal output states its stream.
* No seedless global numpy randomness: ``np.random.rand()`` & friends draw
  from the hidden global state, so results depend on call order across the
  whole process — fatal for the repo's bit-identity contracts (serial vs
  parallel, crash/resume, autoscaled vs static). Library code must thread
  an explicit ``np.random.default_rng(seed)`` / ``Generator``.
* Every name in a module's ``__all__`` exists: a stale entry breaks
  ``from repro.<package> import *`` long after the name itself is gone.

Tests are free to use all of these — the walks cover only the installed
package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _walk_library_trees():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path, tree


def test_no_assert_statements_in_library_code():
    offenders = []
    for path, tree in _walk_library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not offenders, "bare assert in library code:\n" + "\n".join(offenders)


def test_no_bare_print_in_library_code():
    offenders = []
    for path, tree in _walk_library_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not any(kw.arg == "file" for kw in node.keywords)
            ):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not offenders, (
        "print() without explicit file= in library code (use repro.observability"
        ".get_logger, or pass file=sys.stdout/sys.stderr):\n" + "\n".join(offenders)
    )


# np.random attributes that construct explicit, seedable generators rather
# than drawing from the hidden global state.
_ALLOWED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}


def _np_random_attr(node):
    """The ``X`` of an ``np.random.X`` / ``numpy.random.X`` attribute, or None."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "random"
        and isinstance(base.value, ast.Name)
        and base.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def test_no_seedless_global_numpy_random_in_library_code():
    offenders = []
    for path, tree in _walk_library_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _np_random_attr(node.func)
            if attr is not None and attr not in _ALLOWED_NP_RANDOM:
                # np.random.seed(...) included: it mutates hidden state too.
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno} np.random.{attr}")
            elif attr == "default_rng" and not node.args and not node.keywords:
                # default_rng() with no seed is OS-entropy randomness.
                offenders.append(
                    f"{path.relative_to(SRC.parent)}:{node.lineno} np.random.default_rng()"
                )
    assert not offenders, (
        "seedless global numpy randomness in library code (thread an explicit "
        "np.random.default_rng(seed) / Generator instead):\n" + "\n".join(offenders)
    )


def test_every_export_resolves():
    checked, missing = 0, []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"{info.name}.{name}")
    assert checked, "no __all__ entries found under repro"
    assert not missing, "__all__ names a missing attribute:\n" + "\n".join(missing)
