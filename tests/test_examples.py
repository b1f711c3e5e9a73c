"""Smoke tests: every example script runs to completion via its main().

The heavyweight examples (full EMR elasticity at 8K documents) are
exercised at reduced scale by the integration tests; here the fast ones run
verbatim so documentation and code cannot drift apart.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("quickstart", marks=pytest.mark.slow),
        "nongaussian_shapes",
        "kernel_pca_approx",
        pytest.param("streaming_dasc", marks=pytest.mark.slow),
        pytest.param("wikipedia_clustering", marks=pytest.mark.slow),
    ],
)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 50  # produced its report

def test_all_examples_have_main_and_docstring():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert '"""' in source.split("\n", 1)[0] + source, path
        assert "def main()" in source, path
        assert '__name__ == "__main__"' in source, path
