"""Every example still imports.

Each ``examples/*.py`` is loaded as a module without calling ``main()``
(every example has a ``__main__`` guard), so an example that imports a
name the package no longer exports fails here; a linter does not see
that.  The examples' end-to-end runs are CI's ``examples`` job.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
