"""Tests for reprolint v2: whole-program analysis.

Covers the project index (symbol table + call graph), the RL012/RL013/
RL014 rule families with positive and negative fixtures, cross-file
suppression semantics, the content-hash cache (including invalidation
on edit), multi-process/serial parity, the findings baseline with
``--fail-on-new``, and the SARIF exporter.
"""

import json
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[1]
_TOOLS = str(_REPO_ROOT / "tools")
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

from reprolint.analysis import run_analysis  # noqa: E402
from reprolint.baseline import (  # noqa: E402
    baseline_fingerprints,
    filter_new,
    load_baseline,
    write_baseline,
)
from reprolint.cli import main  # noqa: E402
from reprolint.core import (  # noqa: E402
    Violation,
    check_source,
    get_rule,
)
from reprolint.project import (  # noqa: E402
    ProjectIndex,
    module_name,
    summarize_module,
)
from reprolint.sarif import to_sarif  # noqa: E402

SEARCH_PATH = "src/repro/search/searcher.py"


def rule_ids(violations):
    return [v.rule_id for v in violations]


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def analyze(root: Path, select=None, **kwargs):
    rules = None
    if select is not None:
        rules = [get_rule(rule_id) for rule_id in select]
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache_dir", None)
    return run_analysis([root], rules=rules, **kwargs)


# ---------------------------------------------------------------------------
# Project index


class TestProjectIndex:
    def test_module_name(self):
        assert module_name("src/repro/search/engine.py") == (
            "repro.search.engine"
        )
        assert module_name("src/repro/obs/__init__.py") == "repro.obs"
        assert module_name("tools/reprolint/core.py") == "reprolint.core"

    def test_lock_attr_discovery_and_guards(self):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def put(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
            "    def bad(self, x):\n"
            "        self._items.append(x)\n"
        )
        summary = summarize_module("src/repro/obs/box.py", source)
        cls = summary.classes["Box"]
        assert cls.lock_attrs == ("_lock",)
        put = summary.functions["repro.obs.box.Box.put"]
        assert put.mutations[0].guards == ("self._lock",)
        bad = summary.functions["repro.obs.box.Box.bad"]
        assert bad.mutations[0].guards == ()

    def test_thread_targets_include_getattr_constant(self):
        source = (
            "def run(pool, table):\n"
            "    layout_fn = getattr(table, 'dense_layout', None)\n"
            "    pool.submit(worker, 1)\n"
            "def worker(x):\n"
            "    return x\n"
        )
        summary = summarize_module("src/repro/search/par.py", source)
        names = {ref.name for ref in summary.thread_targets}
        assert "worker" in names
        run_info = summary.functions["repro.search.par.run"]
        assert any(
            ref.name == "dense_layout" and ref.kind == "attr"
            for ref in run_info.calls
        )

    def test_reachability_chain(self):
        files = {
            "src/repro/search/a.py": (
                "def root():\n"
                "    middle()\n"
                "def middle():\n"
                "    leaf()\n"
                "def leaf():\n"
                "    pass\n"
            ),
        }
        summary = summarize_module(
            "src/repro/search/a.py", files["src/repro/search/a.py"]
        )
        project = ProjectIndex({summary.path: summary})
        root = project.functions["repro.search.a.root"]
        parents = project.reachable_from([root])
        assert "repro.search.a.leaf" in parents
        chain = project.chain(parents, "repro.search.a.leaf")
        assert chain == [
            "repro.search.a.root",
            "repro.search.a.middle",
            "repro.search.a.leaf",
        ]


# ---------------------------------------------------------------------------
# RL012 concurrency discipline


_POOL_MODULE = (
    "class Executor:\n"
    "    def run(self, pool, state):\n"
    "        pool.submit(state.work, 1)\n"
)


class TestConcurrencyRL012:
    def test_thread_reachable_unguarded_mutation_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/pool.py": _POOL_MODULE,
                "src/repro/obs/state.py": (
                    "class State:\n"
                    "    def work(self, x):\n"
                    "        self._count += 1\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert rule_ids(report.violations) == ["RL012"]
        message = report.violations[0].message
        assert "self._count" in message
        assert "Executor.run" not in message  # chain starts at the root
        assert "State.work" in message

    def test_guarded_mutation_is_quiet(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/pool.py": _POOL_MODULE,
                "src/repro/obs/state.py": (
                    "import threading\n"
                    "class State:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._count = 0\n"
                    "    def work(self, x):\n"
                    "        with self._lock:\n"
                    "            self._count += 1\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert report.violations == []

    def test_lock_owning_class_unguarded_mutation_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/index/table.py": (
                    "import threading\n"
                    "class Table:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._rows = {}\n"
                    "    def put(self, k, v):\n"
                    "        self._rows[k] = v\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert rule_ids(report.violations) == ["RL012"]
        assert "owns self._lock" in report.violations[0].message

    def test_distributed_mutations_not_in_scope(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/distributed/sim.py": (
                    "import threading\n"
                    "class Sim:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._t = 0\n"
                    "    def tick(self):\n"
                    "        self._t += 1\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert report.violations == []

    def test_misuse_patterns_fire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/misuse.py": (
                    "import threading\n"
                    "import time\n"
                    "class Worker:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def bare(self):\n"
                    "        self._lock.acquire()\n"
                    "    def per_call(self):\n"
                    "        guard = threading.Lock()\n"
                    "        return guard\n"
                    "    def nap(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(0.1)\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        messages = sorted(v.message for v in report.violations)
        assert len(messages) == 3
        assert any("without `with`" in m for m in messages)
        assert any("constructed per call" in m for m in messages)
        assert any("time.sleep while holding" in m for m in messages)

    def test_misuse_outside_repro_is_quiet(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_x.py": (
                    "import threading\n"
                    "def test_thing():\n"
                    "    lock = threading.Lock()\n"
                    "    lock.acquire()\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert report.violations == []

    def test_suppression_at_mutation_site(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/pool.py": _POOL_MODULE,
                "src/repro/obs/state.py": (
                    "class State:\n"
                    "    def work(self, x):\n"
                    "        self._count += 1"
                    "  # reprolint: disable=RL012 -- single-writer\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert report.violations == []


# ---------------------------------------------------------------------------
# RL013 determinism


class TestDeterminismRL013:
    def check(self, source, path=SEARCH_PATH):
        return check_source(source, path, [get_rule("RL013")])

    def test_unseeded_numpy_rng_fires(self):
        found = self.check("import numpy as np\nx = np.random.rand(3)\n")
        assert rule_ids(found) == ["RL013"]

    def test_default_rng_is_quiet(self):
        found = self.check(
            "import numpy as np\nrng = np.random.default_rng(7)\n"
        )
        assert found == []

    def test_bare_random_fires(self):
        found = self.check("import random\nrandom.shuffle(items)\n")
        assert rule_ids(found) == ["RL013"]

    def test_random_instance_is_quiet(self):
        found = self.check(
            "import random\nrng = random.Random(3)\nrng.shuffle(items)\n"
        )
        assert found == []

    def test_set_iteration_fires(self):
        found = self.check(
            "def f(ids):\n"
            "    out = []\n"
            "    for i in set(ids):\n"
            "        out.append(i)\n"
            "    return out\n"
        )
        assert rule_ids(found) == ["RL013"]

    def test_set_name_tracking_fires(self):
        found = self.check(
            "def f(ids):\n"
            "    seen = set(ids)\n"
            "    return list(seen)\n"
        )
        assert rule_ids(found) == ["RL013"]

    def test_sorted_set_is_quiet(self):
        found = self.check(
            "def f(ids):\n"
            "    return sorted(set(ids))\n"
        )
        assert found == []

    def test_sum_over_array_fires(self):
        found = self.check("def f(xs):\n    return sum(xs)\n")
        assert rule_ids(found) == ["RL013"]

    def test_sum_over_generator_is_quiet(self):
        found = self.check(
            "def f(xs):\n    return sum(x * x for x in xs)\n"
        )
        assert found == []

    def test_out_of_scope_path_is_quiet(self):
        found = check_source(
            "import numpy as np\nx = np.random.rand(3)\n",
            "src/repro/eval/plotting.py",
            [get_rule("RL013")],
        )
        assert found == []

    def test_probing_in_scope(self):
        source = "import random\nrandom.random()\n"
        path = "src/repro/probing/hamming_ball.py"
        found = check_source(source, path, [get_rule("RL013")])
        assert rule_ids(found) == ["RL013"], path


# ---------------------------------------------------------------------------
# RL014 engine integrity


_ENGINE_MODULE = (
    "def execute(q):\n"
    "    return _probe_prefix(q)\n"
    "def _probe_prefix(q):\n"
    "    return q\n"
    "def drain_stream(stream):\n"
    "    return list(stream)\n"
)


class TestEngineIntegrityRL014:
    def test_direct_internal_call_from_eval_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/engine.py": _ENGINE_MODULE,
                "src/repro/eval/helper.py": (
                    "def shortcut(q):\n"
                    "    return _probe_prefix(q)\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL014"])
        assert rule_ids(report.violations) == ["RL014"]
        violation = report.violations[0]
        assert violation.path.endswith("src/repro/eval/helper.py")
        assert "_probe_prefix" in violation.message

    def test_transitive_internal_reach_fires_with_chain(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/engine.py": _ENGINE_MODULE,
                "src/repro/eval/inner.py": (
                    "def hop(q):\n"
                    "    return drain_stream(q)\n"
                ),
                "src/repro/eval/outer.py": (
                    "def report(q):\n"
                    "    return hop(q)\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL014"])
        by_path = {
            Path(v.path).name: v.message for v in report.violations
        }
        assert set(by_path) == {"inner.py", "outer.py"}
        assert "inner.hop -> engine.drain_stream" in by_path["outer.py"]

    def test_public_api_entry_is_quiet(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/engine.py": _ENGINE_MODULE,
                "src/repro/eval/helper.py": (
                    "def harness(q):\n"
                    "    return execute(q)\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL014"])
        assert report.violations == []

    def test_pairwise_via_out_of_path_helper_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/io/mathutil.py": (
                    "def exact_scores(q, x):\n"
                    "    return pairwise_distances(q, x, 'euclidean')\n"
                ),
                "src/repro/search/searcher.py": (
                    "def score(q, x):\n"
                    "    return exact_scores(q, x)\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL014"])
        assert rule_ids(report.violations) == ["RL014"]
        violation = report.violations[0]
        assert violation.path.endswith("src/repro/search/searcher.py")
        assert "pairwise_distances" in violation.message

    def test_direct_pairwise_is_rl001_business_not_rl014(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/searcher.py": (
                    "def score(q, x):\n"
                    "    return pairwise_distances(q, x, 'euclidean')\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL014"])
        assert report.violations == []


# ---------------------------------------------------------------------------
# Cross-file suppression semantics


class TestCrossFileSuppression:
    FILES = {
        "src/repro/search/engine.py": _ENGINE_MODULE,
        "src/repro/eval/helper.py": (
            "def shortcut(q):\n"
            "    return _probe_prefix(q)\n"
        ),
    }

    def test_suppression_at_definition_site_silences(self, tmp_path):
        files = dict(self.FILES)
        files["src/repro/eval/helper.py"] = (
            "def shortcut(q):"
            "  # reprolint: disable=RL014 -- sanctioned debug helper\n"
            "    return _probe_prefix(q)\n"
        )
        write_tree(tmp_path, files)
        report = analyze(tmp_path, select=["RL014"])
        assert report.violations == []

    def test_suppression_at_callee_site_does_not_silence(self, tmp_path):
        # Cross-file findings anchor at the *caller's* definition;
        # suppressing at the internal function's definition (the
        # "call-site end" of the edge) must not hide the caller.
        files = dict(self.FILES)
        files["src/repro/search/engine.py"] = _ENGINE_MODULE.replace(
            "def _probe_prefix(q):",
            "def _probe_prefix(q):"
            "  # reprolint: disable=RL014 -- not the reported site",
        )
        write_tree(tmp_path, files)
        report = analyze(tmp_path, select=["RL014"])
        assert rule_ids(report.violations) == ["RL014"]

    def test_rl012_suppression_is_per_mutation_site(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/search/pool.py": _POOL_MODULE,
                "src/repro/obs/state.py": (
                    "class State:\n"
                    "    def work(self, x):\n"
                    "        self._a += 1"
                    "  # reprolint: disable=RL012 -- covered\n"
                    "        self._b += 1\n"
                ),
            },
        )
        report = analyze(tmp_path, select=["RL012"])
        assert len(report.violations) == 1
        assert "self._b" in report.violations[0].message


# ---------------------------------------------------------------------------
# Cache and parallel execution


class TestAnalysisCache:
    def test_cache_hit_and_invalidation_on_edit(self, tmp_path):
        root = write_tree(
            tmp_path / "proj",
            {
                "src/repro/search/mod.py": (
                    "import random\nrandom.random()\n"
                ),
            },
        )
        cache = tmp_path / "cache"
        first = run_analysis(
            [root], rules=[get_rule("RL013")], jobs=1, cache_dir=cache
        )
        assert rule_ids(first.violations) == ["RL013"]
        assert first.stats["cache_hits"] == 0

        second = run_analysis(
            [root], rules=[get_rule("RL013")], jobs=1, cache_dir=cache
        )
        assert rule_ids(second.violations) == ["RL013"]
        assert second.stats["cache_hits"] == 1

        # Editing the file invalidates its entry and changes the result.
        (root / "src/repro/search/mod.py").write_text(
            "import random\nrng = random.Random(0)\nrng.random()\n",
            encoding="utf-8",
        )
        third = run_analysis(
            [root], rules=[get_rule("RL013")], jobs=1, cache_dir=cache
        )
        assert third.violations == []
        assert third.stats["cache_hits"] == 0

    def test_cached_project_summaries_feed_project_rules(self, tmp_path):
        root = write_tree(
            tmp_path / "proj",
            {
                "src/repro/search/engine.py": _ENGINE_MODULE,
                "src/repro/eval/helper.py": (
                    "def shortcut(q):\n"
                    "    return _probe_prefix(q)\n"
                ),
            },
        )
        cache = tmp_path / "cache"
        rules = [get_rule("RL014")]
        first = run_analysis([root], rules=rules, jobs=1, cache_dir=cache)
        second = run_analysis([root], rules=rules, jobs=1, cache_dir=cache)
        assert rule_ids(first.violations) == ["RL014"]
        assert rule_ids(second.violations) == ["RL014"]
        assert second.stats["cache_hits"] == second.stats["files"]

    def test_parallel_serial_parity(self, tmp_path):
        root = write_tree(
            tmp_path / "proj",
            {
                "src/repro/search/engine.py": _ENGINE_MODULE,
                "src/repro/eval/helper.py": (
                    "def shortcut(q):\n"
                    "    return _probe_prefix(q)\n"
                ),
                "src/repro/search/rng.py": (
                    "import random\nrandom.random()\n"
                ),
                "src/repro/obs/state.py": (
                    "import threading\n"
                    "class S:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._n = 0\n"
                    "    def bump(self):\n"
                    "        self._n += 1\n"
                ),
            },
        )
        serial = run_analysis([root], jobs=1, cache_dir=None)
        parallel = run_analysis([root], jobs=2, cache_dir=None)
        assert [v.as_dict() for v in serial.violations] == [
            v.as_dict() for v in parallel.violations
        ]
        assert serial.violations  # fixture actually produces findings


# ---------------------------------------------------------------------------
# Baseline / --fail-on-new


class TestBaseline:
    def _violation(self, path, line, rule="RL013"):
        return Violation(
            rule_id=rule, message="m", path=str(path), line=line, column=1
        )

    def test_fingerprints_survive_line_drift(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import random\nrandom.random()\n")
        old = baseline_fingerprints([self._violation(target, 2)])
        # Insert a line above: same content, new line number.
        target.write_text(
            "import os\nimport random\nrandom.random()\n"
        )
        new = baseline_fingerprints([self._violation(target, 3)])
        assert old == new

    def test_fingerprints_change_when_line_edited(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("random.random()\n")
        old = baseline_fingerprints([self._violation(target, 1)])
        target.write_text("random.random()  # changed\n")
        new = baseline_fingerprints([self._violation(target, 1)])
        assert old != new

    def test_duplicate_lines_get_distinct_fingerprints(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("random.random()\nrandom.random()\n")
        prints = baseline_fingerprints(
            [self._violation(target, 1), self._violation(target, 2)]
        )
        assert len(set(prints)) == 2

    def test_write_load_filter_roundtrip(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("a()\nb()\n")
        known = self._violation(target, 1)
        fresh = self._violation(target, 2)
        baseline_file = tmp_path / "baseline.json"
        assert write_baseline(baseline_file, [known]) == 1
        accepted = load_baseline(baseline_file)
        assert filter_new([known, fresh], accepted) == [fresh]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else", "entries": []}')
        with pytest.raises(ValueError):
            load_baseline(bad)


# ---------------------------------------------------------------------------
# Regions, SARIF and JSON output


class TestRegions:
    def test_violation_dict_has_end_positions(self):
        found = check_source(
            "import random\nrandom.random()\n",
            SEARCH_PATH,
            [get_rule("RL013")],
        )
        record = found[0].as_dict()
        assert record["line"] == 2
        assert record["column"] == 1
        assert record["end_line"] == 2
        # Exclusive end past "random.random" (the attribute node).
        assert record["end_col"] > record["column"]

    def test_columns_are_one_based(self):
        found = check_source(
            "def f():\n    return sum(xs)\n",
            SEARCH_PATH,
            [get_rule("RL013")],
        )
        assert found[0].column == 12  # "sum" starts at column 12, 1-based

    def test_region_normalises_unknown_ends(self):
        violation = Violation(
            rule_id="RL001", message="m", path="x.py", line=3, column=5
        )
        assert violation.region == (3, 5, 3, 5)


class TestSarif:
    def test_sarif_structure(self):
        found = check_source(
            "import random\nrandom.random()\n",
            SEARCH_PATH,
            [get_rule("RL013")],
        )
        log = to_sarif(found)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_meta = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rule_meta] == ["RL013"]
        result = run["results"][0]
        assert result["ruleId"] == "RL013"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] == 1
        assert region["endColumn"] > 1

    def test_empty_sarif_is_valid(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# CLI


class TestCliV2:
    def _tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {
                "src/repro/search/mod.py": (
                    "import random\nrandom.random()\n"
                ),
            },
        )

    def test_sarif_format_to_output_file(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        out = tmp_path / "report.sarif"
        code = main(
            [
                str(root / "src"),
                "--format",
                "sarif",
                "--output",
                str(out),
                "--no-cache",
            ]
        )
        assert code == 1
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "RL013"

    def test_write_baseline_then_fail_on_new(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = [str(root / "src"), "--baseline", str(baseline), "--no-cache"]
        assert main([*args, "--write-baseline"]) == 0
        # Accepted debt: clean under --fail-on-new.
        assert main([*args, "--fail-on-new"]) == 0
        # A new finding still fails.
        (root / "src/repro/search/extra.py").write_text(
            "import random\nrandom.shuffle(x)\n"
        )
        assert main([*args, "--fail-on-new"]) == 1
        output = capsys.readouterr().out
        assert "extra.py" in output
        assert "mod.py" not in output  # baselined finding not re-shown

    def test_fail_on_new_with_empty_baseline_reports_all(
        self, tmp_path, capsys
    ):
        root = self._tree(tmp_path)
        baseline = tmp_path / "missing.json"
        code = main(
            [
                str(root / "src"),
                "--baseline",
                str(baseline),
                "--fail-on-new",
                "--no-cache",
            ]
        )
        assert code == 1

    def test_stats_flag_writes_stderr(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        main([str(root / "src"), "--no-cache", "--stats"])
        err = capsys.readouterr().err
        assert "files" in err and "cached" in err

    def test_jobs_flag_parallel_run(self, tmp_path):
        root = self._tree(tmp_path)
        (root / "src/repro/search/other.py").write_text("x = 1\n")
        code = main([str(root / "src"), "--no-cache", "--jobs", "2"])
        assert code == 1
