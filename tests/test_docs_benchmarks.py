"""``docs/benchmarks.md`` names every bench file, and only files that exist.

The guide is the map of ``benchmarks/``; a bench added without a row, or
a row left behind after its bench is deleted, is drift this test stops.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUIDE = (ROOT / "docs" / "benchmarks.md").read_text()


def test_every_bench_file_is_named_in_the_guide():
    files = sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))
    files.append("probe_kernels.py")
    missing = [name for name in files if f"`{name}`" not in GUIDE]
    assert not missing, f"docs/benchmarks.md does not name {missing}"


def test_every_bench_named_in_the_guide_exists():
    named = set(re.findall(r"bench_\w+\.py", GUIDE))
    assert named, "no bench file named in docs/benchmarks.md"
    stale = sorted(n for n in named if not (ROOT / "benchmarks" / n).exists())
    assert not stale, f"docs/benchmarks.md names missing files {stale}"
