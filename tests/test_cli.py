"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "CIFAR60K"
        assert args.hasher == "itq"
        assert args.k == 20

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "NOPE"])


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("CIFAR60K", "GIST1M", "TINY5M", "SIFT10M", "GLOVE1.2M"):
            assert name in out

    def test_compare_runs_small(self, capsys):
        code = main([
            "compare", "--dataset", "CIFAR60K", "--scale", "0.05",
            "--budget", "50", "--k", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for prober in ("HR", "GHR", "QR", "GQR"):
            assert prober in out

    def test_compare_with_sh(self, capsys):
        code = main([
            "compare", "--dataset", "CIFAR60K", "--scale", "0.05",
            "--hasher", "sh", "--budget", "50", "--k", "5",
        ])
        assert code == 0
        assert "recall@5" in capsys.readouterr().out


class TestObsCommand:
    def test_table_output(self, capsys):
        assert main(["obs", "--queries", "40"]) == 0
        out = capsys.readouterr().out
        assert "repro_query_stage_seconds" in out
        assert "index=hash" in out
        assert "sampled traces:" in out

    def test_json_output(self, capsys):
        import json

        assert main(["obs", "--queries", "20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.metrics/v1"
        names = {m["name"] for m in payload["metrics"]}
        assert "repro_queries_total" in names

    def test_prometheus_output(self, capsys):
        from repro.obs import parse_prometheus_text

        code = main(["obs", "--queries", "20", "--format", "prometheus"])
        assert code == 0
        parsed = parse_prometheus_text(capsys.readouterr().out)
        key = ("repro_queries_total", (("index", "hash"),))
        assert parsed[key] >= 20

    def test_batch_half_fresh_is_executed(self, capsys):
        # The demo batch repeats 16 cached queries and adds 16 fresh
        # ones: the hits skip execution, the fresh rows must run.
        from repro.obs import parse_prometheus_text

        code = main(["obs", "--queries", "20", "--format", "prometheus"])
        assert code == 0
        parsed = parse_prometheus_text(capsys.readouterr().out)
        key = ("repro_queries_total", (("index", "hash"),))
        assert parsed[key] >= 20 + 16

    def test_telemetry_disabled_after_run(self):
        from repro import obs

        assert main(["obs", "--queries", "10"]) == 0
        assert not obs.telemetry_enabled()

    def test_cache_counters_visible(self, capsys):
        # The demo workload re-issues a slice of its queries, so the
        # cache series must show both misses and hits.
        assert main(["obs", "--queries", "40"]) == 0
        out = capsys.readouterr().out
        assert "repro_cache_hits_total" in out
        assert "repro_cache_misses_total" in out
        assert "cache=hash" in out


class TestExitCodes:
    """Regression: internal failures must exit nonzero, not 0.

    The dispatcher used to let handler exceptions propagate as a bare
    traceback (or, for handled ones, print and return 0); scripting
    around ``python -m repro`` needs a clean ``1`` plus a one-line
    diagnostic on stderr.
    """

    def test_obs_failure_returns_one(self, capsys):
        assert main(["obs", "--queries", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert "positive" in captured.err

    def test_failure_diagnostic_stays_off_stdout(self, capsys):
        assert main(["obs", "--queries", "0"]) == 1
        assert capsys.readouterr().out == ""

    def test_success_paths_unaffected(self, capsys):
        assert main(["datasets"]) == 0
        assert capsys.readouterr().err == ""


class TestReproduceCommand:
    def test_list(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "table2" in out

    def test_runs_small_experiment(self, capsys):
        code = main([
            "reproduce", "--experiment", "table1", "--scale", "0.05",
            "--k", "5",
        ])
        assert code == 0
        assert "linear search" in capsys.readouterr().out

    def test_missing_experiment_flag(self, capsys):
        assert main(["reproduce"]) == 2
