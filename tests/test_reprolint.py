"""Tests for the reprolint static-analysis toolchain.

Each rule gets fixture sources proving it fires where it should and
stays quiet where it should not; the suite ends with a self-check that
the shipped source tree is clean under every rule.
"""

import json
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[1]
_TOOLS = str(_REPO_ROOT / "tools")
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

from reprolint.cli import main  # noqa: E402
from reprolint.core import (  # noqa: E402
    PARSE_ERROR,
    all_rules,
    check_source,
    get_rule,
    suppressed_lines,
)

SEARCH_PATH = "src/repro/search/searcher.py"
HOT_PATH = "src/repro/index/dynamic.py"


def rule_ids(violations):
    return [v.rule_id for v in violations]


class TestRegistry:
    def test_all_fourteen_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        expected = {f"RL00{n}" for n in range(1, 10)} | {
            "RL011",
            "RL012",
            "RL013",
            "RL014",
            "RL015",
        }
        assert expected <= set(ids)

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.name, rule.rule_id
            assert rule.description, rule.rule_id

    def test_get_rule(self):
        assert get_rule("RL001").rule_id == "RL001"


class TestEngineBypassRL001:
    def test_call_in_search_path_fires(self):
        src = "d = pairwise_distances(q, x, 'euclidean')\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL001")])
        assert rule_ids(found) == ["RL001"]

    def test_import_in_search_path_fires(self):
        src = "from repro.index.distance import pairwise_distances\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL001")])
        assert rule_ids(found) == ["RL001"]

    def test_engine_module_is_exempt(self):
        src = "d = pairwise_distances(q, x, 'euclidean')\n"
        found = check_source(
            src, "src/repro/search/engine.py", [get_rule("RL001")]
        )
        assert found == []

    def test_outside_search_path_is_exempt(self):
        src = "d = pairwise_distances(q, x, 'euclidean')\n"
        found = check_source(
            src, "src/repro/eval/harness.py", [get_rule("RL001")]
        )
        assert found == []


class TestImplicitDtypeRL002:
    def test_asarray_without_dtype_fires(self):
        src = "import numpy as np\na = np.asarray(x)\n"
        found = check_source(src, HOT_PATH, [get_rule("RL002")])
        assert rule_ids(found) == ["RL002"]

    def test_explicit_dtype_is_clean(self):
        src = "import numpy as np\na = np.asarray(x, dtype=np.int64)\n"
        found = check_source(src, HOT_PATH, [get_rule("RL002")])
        assert found == []

    def test_positional_dtype_is_clean(self):
        src = "import numpy as np\na = np.zeros(4, np.int64)\n"
        found = check_source(src, HOT_PATH, [get_rule("RL002")])
        assert found == []

    def test_cold_path_is_exempt(self):
        src = "import numpy as np\na = np.empty(3)\n"
        found = check_source(
            src, "src/repro/eval/metrics.py", [get_rule("RL002")]
        )
        assert found == []


class TestBucketEncapsulationRL003:
    def test_foreign_access_fires(self):
        src = "n = len(table._buckets)\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL003")])
        assert rule_ids(found) == ["RL003"]

    def test_self_access_is_clean(self):
        src = (
            "class DynamicHashTable:\n"
            "    def prune(self):\n"
            "        self._buckets.clear()\n"
        )
        found = check_source(src, HOT_PATH, [get_rule("RL003")])
        assert found == []

    def test_owning_module_is_exempt(self):
        src = "n = len(table._buckets)\n"
        found = check_source(
            src, "src/repro/index/hash_table.py", [get_rule("RL003")]
        )
        assert found == []


class TestWallClockTimingRL004:
    def test_time_time_fires(self):
        src = "import time\nstart = time.time()\n"
        found = check_source(src, "benchmarks/bench_x.py", [get_rule("RL004")])
        assert rule_ids(found) == ["RL004"]

    def test_from_time_import_time_fires(self):
        src = "from time import time\n"
        found = check_source(src, "src/repro/eval/latency.py", [get_rule("RL004")])
        assert rule_ids(found) == ["RL004"]

    def test_perf_counter_is_clean(self):
        src = "import time\nstart = time.perf_counter()\n"
        found = check_source(src, "src/repro/eval/latency.py", [get_rule("RL004")])
        assert found == []


class TestBroadExceptRL005:
    def test_bare_except_fires(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL005")])
        assert rule_ids(found) == ["RL005"]

    def test_broad_except_without_reraise_fires(self):
        src = "try:\n    work()\nexcept Exception:\n    log()\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL005")])
        assert rule_ids(found) == ["RL005"]

    def test_broad_except_with_reraise_is_clean(self):
        src = "try:\n    work()\nexcept Exception:\n    log()\n    raise\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL005")])
        assert found == []

    def test_specific_except_is_clean(self):
        src = "try:\n    work()\nexcept ValueError:\n    pass\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL005")])
        assert found == []


class TestAnnotationCompletenessRL006:
    def test_unannotated_public_function_fires(self):
        src = "def search(query, k=10):\n    return None\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL006")])
        assert rule_ids(found) == ["RL006"]
        assert "query" in found[0].message
        assert "return type" in found[0].message

    def test_unannotated_public_method_fires(self):
        src = (
            "class Index:\n"
            "    def search(self, query):\n"
            "        return None\n"
        )
        found = check_source(src, SEARCH_PATH, [get_rule("RL006")])
        assert rule_ids(found) == ["RL006"]

    def test_annotated_function_is_clean(self):
        src = "def search(query: str, k: int = 10) -> None:\n    return None\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL006")])
        assert found == []

    def test_private_function_is_exempt(self):
        src = "def _helper(query):\n    return None\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL006")])
        assert found == []

    def test_outside_src_repro_is_exempt(self):
        src = "def search(query):\n    return None\n"
        found = check_source(src, "tests/test_x.py", [get_rule("RL006")])
        assert found == []


class TestMutableDefaultRL007:
    def test_list_default_fires(self):
        src = "def run(batch=[]):\n    return batch\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL007")])
        assert rule_ids(found) == ["RL007"]

    def test_dict_call_default_fires(self):
        src = "def run(*, options=dict()):\n    return options\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL007")])
        assert rule_ids(found) == ["RL007"]

    def test_lambda_default_fires(self):
        src = "f = lambda acc=[]: acc\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL007")])
        assert rule_ids(found) == ["RL007"]

    def test_none_default_is_clean(self):
        src = "def run(batch=None):\n    return batch or []\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL007")])
        assert found == []

    def test_immutable_defaults_are_clean(self):
        src = "def run(k=10, name='x', dims=(1, 2)):\n    return k\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL007")])
        assert found == []


class TestDunderAllConsistencyRL008:
    def test_phantom_entry_fires(self):
        src = '__all__ = ["missing"]\n'
        found = check_source(src, SEARCH_PATH, [get_rule("RL008")])
        assert rule_ids(found) == ["RL008"]

    def test_duplicate_entry_fires(self):
        src = '__all__ = ["f", "f"]\n\n\ndef f():\n    pass\n'
        found = check_source(src, SEARCH_PATH, [get_rule("RL008")])
        assert rule_ids(found) == ["RL008"]
        assert "duplicate" in found[0].message

    def test_unlisted_public_def_fires(self):
        src = '__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\ndef g():\n    pass\n'
        found = check_source(src, SEARCH_PATH, [get_rule("RL008")])
        assert rule_ids(found) == ["RL008"]
        assert "'g'" in found[0].message

    def test_consistent_module_is_clean(self):
        src = (
            'import os\n\n__all__ = ["f", "os"]\n\n\ndef f():\n    pass\n'
        )
        found = check_source(src, SEARCH_PATH, [get_rule("RL008")])
        assert found == []

    def test_module_without_all_is_skipped(self):
        src = "def f():\n    pass\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL008")])
        assert found == []


class TestSpanTimingRL009:
    def test_time_perf_counter_in_search_fires(self):
        src = "import time\nstart = time.perf_counter()\n"
        found = check_source(src, SEARCH_PATH, [get_rule("RL009")])
        assert rule_ids(found) == ["RL009"]

    def test_bare_perf_counter_call_fires(self):
        src = "start = perf_counter()\n"
        found = check_source(src, HOT_PATH, [get_rule("RL009")])
        assert rule_ids(found) == ["RL009"]

    def test_from_time_import_fires(self):
        src = "from time import perf_counter\n"
        found = check_source(
            src, "src/repro/index/hash_table.py", [get_rule("RL009")]
        )
        assert rule_ids(found) == ["RL009"]

    def test_obs_package_is_exempt(self):
        src = "from time import perf_counter\nstart = perf_counter()\n"
        found = check_source(
            src, "src/repro/obs/spans.py", [get_rule("RL009")]
        )
        assert found == []

    def test_eval_harness_is_exempt(self):
        src = "import time\nstart = time.perf_counter()\n"
        found = check_source(
            src, "src/repro/eval/latency.py", [get_rule("RL009")]
        )
        assert found == []

    def test_obs_span_usage_is_clean(self):
        src = (
            "from repro import obs\n"
            "with obs.span('retrieve') as retrieve:\n"
            "    work()\n"
            "deadline = obs.now() + 0.5\n"
        )
        found = check_source(src, SEARCH_PATH, [get_rule("RL009")])
        assert found == []

    def test_suppression_silences_rl009(self):
        src = (
            "import time\n"
            "start = time.perf_counter()  # reprolint: disable=RL009\n"
        )
        found = check_source(src, SEARCH_PATH, [get_rule("RL009")])
        assert found == []


class TestStagePipelineEncapsulationRL011:
    OUTSIDE = "src/repro/distributed/cluster.py"

    def test_stage_class_import_fires(self):
        src = "from repro.search.stages import RerankStage\n"
        found = check_source(src, self.OUTSIDE, [get_rule("RL011")])
        assert rule_ids(found) == ["RL011"]

    def test_assembly_helper_import_fires(self):
        src = "from repro.search.stages import drain_stream\n"
        found = check_source(src, self.OUTSIDE, [get_rule("RL011")])
        assert rule_ids(found) == ["RL011"]

    def test_wholesale_module_import_fires(self):
        src = "import repro.search.stages\n"
        found = check_source(src, self.OUTSIDE, [get_rule("RL011")])
        assert rule_ids(found) == ["RL011"]

    def test_stage_construction_fires(self):
        src = "stage = TruncateStage(10)\n"
        found = check_source(src, self.OUTSIDE, [get_rule("RL011")])
        assert rule_ids(found) == ["RL011"]

    def test_drain_stream_call_fires(self):
        src = "ids = drain_stream(stream, plan, ctx)\n"
        found = check_source(src, self.OUTSIDE, [get_rule("RL011")])
        assert rule_ids(found) == ["RL011"]

    def test_spec_vocabulary_is_allowed(self):
        src = (
            "from repro.search import QueryPlan\n"
            "plan = QueryPlan(k=10, n_candidates=50)\n"
        )
        found = check_source(src, self.OUTSIDE, [get_rule("RL011")])
        assert found == []

    def test_inside_search_is_exempt(self):
        src = (
            "from repro.search.stages import drain_stream\n"
            "stage = TruncateStage(10)\n"
        )
        found = check_source(src, SEARCH_PATH, [get_rule("RL011")])
        assert found == []


class TestInternalNameListsAreCurrent:
    """RL011 and RL014 name engine internals by string; a name whose
    symbol was deleted or renamed silently stops guarding anything."""

    def test_every_listed_name_resolves_in_repro_search(self):
        import importlib
        import pkgutil

        import repro.search
        from reprolint.rules.architecture import (
            StagePipelineEncapsulationRule,
        )
        from reprolint.rules.wholeprogram import _NAMED_INTERNALS

        modules = [repro.search] + [
            importlib.import_module(f"repro.search.{info.name}")
            for info in pkgutil.iter_modules(repro.search.__path__)
        ]
        listed = (
            StagePipelineEncapsulationRule._INTERNAL_NAMES | _NAMED_INTERNALS
        )
        missing = sorted(
            name for name in listed
            if not any(hasattr(module, name) for module in modules)
        )
        assert missing == []


SERVING_PATH = "src/repro/serving/frontdoor.py"


class TestAsyncBlockingRL015:
    def test_time_sleep_in_coroutine_fires(self):
        src = (
            "import time\n"
            "async def drain():\n"
            "    time.sleep(0.1)\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert rule_ids(found) == ["RL015"]

    def test_bare_sleep_in_coroutine_fires(self):
        src = (
            "from time import sleep\n"
            "async def drain():\n"
            "    sleep(0.1)\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert rule_ids(found) == ["RL015"]

    def test_direct_engine_execute_fires(self):
        src = (
            "async def run(engine, query, plan, stream):\n"
            "    return engine.execute(query, plan, stream)\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert rule_ids(found) == ["RL015"]

    def test_direct_search_batch_fires(self):
        src = (
            "async def run(index, queries):\n"
            "    return index.search_batch(queries, 10, 400)\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert rule_ids(found) == ["RL015"]

    def test_asyncio_sleep_is_clean(self):
        src = (
            "import asyncio\n"
            "async def drain():\n"
            "    await asyncio.sleep(0.1)\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert found == []

    def test_run_in_executor_is_clean(self):
        src = (
            "async def run(loop, pool, index, batch):\n"
            "    return await loop.run_in_executor(\n"
            "        pool, execute_batch, index, batch\n"
            "    )\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert found == []

    def test_sync_function_is_exempt(self):
        src = (
            "import time\n"
            "def execute(index, batch):\n"
            "    time.sleep(0.1)\n"
            "    return index.search_batch(batch, 10, 400)\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert found == []

    def test_nested_sync_def_body_is_skipped(self):
        src = (
            "async def run(index, batch):\n"
            "    def blocking():\n"
            "        return index.search_batch(batch, 10, 400)\n"
            "    return blocking\n"
        )
        found = check_source(src, SERVING_PATH, [get_rule("RL015")])
        assert found == []

    def test_outside_serving_is_exempt(self):
        src = (
            "import time\n"
            "async def drain():\n"
            "    time.sleep(0.1)\n"
        )
        found = check_source(src, SEARCH_PATH, [get_rule("RL015")])
        assert found == []


class TestSuppression:
    def test_trailing_directive_silences_own_line(self):
        src = "import numpy as np\na = np.asarray(x)  # reprolint: disable=RL002\n"
        found = check_source(src, HOT_PATH, [get_rule("RL002")])
        assert found == []

    def test_standalone_directive_silences_next_line(self):
        src = (
            "import numpy as np\n"
            "# Deliberately polymorphic.\n"
            "# reprolint: disable=RL002 -- input dtype is range-checked\n"
            "a = np.asarray(x)\n"
        )
        found = check_source(src, HOT_PATH, [get_rule("RL002")])
        assert found == []

    def test_directive_only_silences_named_rule(self):
        src = (
            "import time\n"
            "start = time.time()  # reprolint: disable=RL002\n"
        )
        found = check_source(src, HOT_PATH, [get_rule("RL004")])
        assert rule_ids(found) == ["RL004"]

    def test_multiple_rule_ids_parse(self):
        silenced = suppressed_lines(
            "x = 1  # reprolint: disable=RL002, RL004\n"
        )
        assert silenced == {1: {"RL002", "RL004"}}

    def test_suppression_does_not_leak_to_later_lines(self):
        src = (
            "import numpy as np\n"
            "a = np.asarray(x)  # reprolint: disable=RL002\n"
            "b = np.asarray(y)\n"
        )
        found = check_source(src, HOT_PATH, [get_rule("RL002")])
        assert [v.line for v in found] == [3]


class TestParseErrors:
    def test_syntax_error_reports_rl000(self):
        found = check_source("def broken(:\n", SEARCH_PATH)
        assert rule_ids(found) == [PARSE_ERROR]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path)]) == 1
        assert "RL004" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main(["--format", "json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violation_count"] == 1
        assert report["counts_by_rule"] == {"RL004": 1}

    def test_select_limits_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main(["--select", "RL005", str(tmp_path)]) == 0

    def test_unknown_rule_id_exits_two(self, tmp_path):
        assert main(["--select", "RL999", str(tmp_path)]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 10):
            assert f"RL00{n}" in out


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks", "tools"])
def test_shipped_tree_is_clean(tree, monkeypatch):
    """Self-check: the repository passes its own linter."""
    monkeypatch.chdir(_REPO_ROOT)
    assert main([tree]) == 0
