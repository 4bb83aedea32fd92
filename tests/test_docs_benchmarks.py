"""``docs/benchmarks.md`` names every bench file, and every bench imports.

The guide is the map of ``benchmarks/``; a bench added without a row, or
a row left behind after its bench is deleted, is drift this test stops.
Nothing in the unit suite runs the benches (they are slow, full-scale
claims), so each is at least imported here: a bench that imports a
helper the package or ``repro_bench`` no longer has fails now, not at
its next full-scale run.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
GUIDE = (ROOT / "docs" / "benchmarks.md").read_text()
FILES = sorted(p.name for p in BENCHMARKS.glob("bench_*.py")) + [
    "probe_kernels.py"
]


def test_every_bench_file_is_named_in_the_guide():
    missing = [name for name in FILES if f"`{name}`" not in GUIDE]
    assert not missing, f"docs/benchmarks.md does not name {missing}"


def test_every_bench_named_in_the_guide_exists():
    named = set(re.findall(r"bench_\w+\.py", GUIDE))
    assert named, "no bench file named in docs/benchmarks.md"
    stale = sorted(n for n in named if not (BENCHMARKS / n).exists())
    assert not stale, f"docs/benchmarks.md names missing files {stale}"


@pytest.mark.parametrize("name", FILES, ids=lambda name: name[:-3])
def test_bench_imports(name, monkeypatch):
    # Benches import ``repro_bench`` and each other from their own
    # directory; ``probe_kernels`` imports ``perfbench`` from the root.
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    importlib.import_module(name[:-3])
