"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.harness.runner import run_workload_query


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "Q1A"])
        assert args.strategy == "all"
        assert args.scale == 0.01
        assert not args.delayed


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Q1A" in out
        assert "Q5B" in out
        assert "remote:partsupp" in out

    def test_tables(self, capsys):
        assert main(["tables", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out
        assert "total" in out

    def test_run_single_strategy(self, capsys):
        assert main([
            "run", "Q3A", "--strategy", "feedforward", "--scale", "0.002",
        ]) == 0
        out = capsys.readouterr().out
        assert "feedforward" in out
        assert "Q3A" in out

    def test_run_all_strategies(self, capsys):
        assert main(["run", "Q3A", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "magic", "feedforward", "costbased"):
            assert name in out

    def test_run_partitioned(self, capsys):
        assert main([
            "run", "Q2A", "--strategy", "costbased", "--scale", "0.002",
            "--partitions", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 partitions" in out
        # Same answer as the local run, from the partitioned placement.
        local = run_workload_query("Q2A", "costbased", scale_factor=0.002)
        row_line = next(
            ln for ln in out.splitlines() if ln.startswith("costbased")
        )
        assert int(row_line.split()[1]) == len(local.result.rows)

    def test_run_join_query_skips_magic(self, capsys):
        assert main(["run", "Q4A", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "magic" not in out

    def test_run_unknown_query(self, capsys):
        assert main(["run", "Q9Z", "--scale", "0.002"]) == 2

    def test_explain(self, capsys):
        assert main(["explain", "Q1A", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "GroupBy" in out
        assert "total estimated cost" in out

    def test_explain_magic(self, capsys):
        assert main(["explain", "Q1A", "--scale", "0.002", "--magic"]) == 0
        out = capsys.readouterr().out
        assert "SemiJoin" in out


class TestObservabilityFlags:
    def _load(self, path):
        import json

        with open(path) as fh:
            return json.load(fh)

    def test_run_trace_out(self, capsys, tmp_path):
        from repro.obs.trace import validate_chrome_trace

        trace = tmp_path / "trace.json"
        assert main([
            "run", "Q2A", "--strategy", "costbased", "--scale", "0.002",
            "--trace-out", str(trace),
        ]) == 0
        assert "events written" in capsys.readouterr().out
        assert validate_chrome_trace(self._load(trace)) == []

    def test_run_trace_out_needs_one_strategy(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main([
            "run", "Q2A", "--scale", "0.002", "--trace-out", str(trace),
        ]) == 2
        assert "single --strategy" in capsys.readouterr().err
        assert not trace.exists()

    def test_explain_analyze(self, capsys):
        assert main([
            "explain", "Q2A", "--analyze", "--strategy", "costbased",
            "--scale", "0.002",
        ]) == 0
        out = capsys.readouterr().out
        assert "est. rows" in out
        assert "actual" in out
        assert "strategy costbased" in out

    def test_explain_analyze_magic_strategy_uses_magic_plan(self, capsys):
        assert main([
            "explain", "Q1A", "--analyze", "--strategy", "magic",
            "--scale", "0.002",
        ]) == 0
        assert "(shared)" in capsys.readouterr().out

    def test_explain_analyze_magic_unavailable(self, capsys):
        assert main([
            "explain", "Q4A", "--analyze", "--strategy", "magic",
            "--scale", "0.002",
        ]) == 2
        assert "Q4A has no magic-sets variant" in capsys.readouterr().err

    def test_explain_analyze_trace_out(self, capsys, tmp_path):
        from repro.obs.trace import validate_chrome_trace

        trace = tmp_path / "trace.json"
        assert main([
            "explain", "Q1A", "--analyze", "--scale", "0.002",
            "--trace-out", str(trace),
        ]) == 0
        assert validate_chrome_trace(self._load(trace)) == []

    def test_workload_trace_and_metrics_out(self, capsys, tmp_path):
        from repro.obs.trace import validate_chrome_trace

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "workload", "Q2A*2,Q1A", "--scale", "0.002",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "3 query profiles written" in out
        assert validate_chrome_trace(self._load(trace)) == []
        payload = self._load(metrics)
        # Q2A*2: the repeat waits for its twin and is then a cache
        # hit, which executes nothing.
        assert [(p["label"], p["status"], bool(p["operators"]))
                for p in payload["profiles"]] == [
            ("Q2A", "ok", True), ("Q1A", "ok", True),
            ("Q2A", "cached", False),
        ]
        assert "queries.completed" in payload["registry"]
        assert "latency_p99" in payload["summary"]

    def test_workload_summary_surfaces_engine_lines(self, capsys):
        assert main(["workload", "Q2A*2,Q1A", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "latency p50" in out
        assert "tuples pruned" in out
        assert "AIP sets built" in out

    def test_workload_governed_summary_surfaces_spill(self, capsys):
        assert main([
            "workload", "Q2A", "--scale", "0.002",
            "--memory-budget", "64k", "--no-result-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "governor: peak resident" in out
        assert "spill bytes" in out


class TestWorkloadCommand:
    def test_inline_stream(self, capsys):
        assert main([
            "workload", "Q2A*2,Q1A", "--scale", "0.002",
        ]) == 0
        out = capsys.readouterr().out
        assert "wait (vs)" in out
        assert "latency" in out
        assert "peak aggregate state" in out
        assert "result cache" in out
        assert "cached" in out  # the repeated Q2A hits the result cache

    def test_script_file(self, capsys, tmp_path):
        script = tmp_path / "stream.txt"
        script.write_text(
            "# demo stream\nQ1A\n@0.01 Q3A\n"
            "select count(*) as n from part\n"
        )
        assert main([
            "workload", str(script), "--scale", "0.002",
            "--scheduler", "sjf", "--no-result-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 queries (3 completed, 0 shed)" in out

    def test_budget_sheds(self, capsys):
        assert main([
            "workload", "Q2A", "--scale", "0.002", "--budget-mb", "0.000001",
        ]) == 0
        out = capsys.readouterr().out
        assert "shed" in out
        assert "1 shed" in out

    def test_skewed_stream_uses_skewed_catalog(self, capsys):
        # Q1B rows must match `repro run Q1B`, which builds Zipf data.
        assert main(["workload", "Q1B", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        from repro.data.tpch import cached_tpch
        from repro.exec.context import ExecutionContext
        from repro.exec.engine import execute_plan
        from repro.workloads.registry import get_query
        catalog = cached_tpch(scale_factor=0.002, skew=0.5)
        plan = get_query("Q1B").build_baseline(catalog)
        solo = execute_plan(plan, ExecutionContext(catalog))
        row_line = next(ln for ln in out.splitlines() if "Q1B" in ln)
        assert int(row_line.split()[3]) == len(solo.rows)

    def test_mixed_skew_stream_rejected(self, capsys):
        assert main(["workload", "Q1A,Q1B", "--scale", "0.002"]) == 2
        assert "mixes data skews" in capsys.readouterr().err

    def test_repeat_shifts_arrivals_by_span(self, capsys, tmp_path):
        script = tmp_path / "stream.txt"
        script.write_text("Q1A\n@0.05 Q1A\n")
        assert main([
            "workload", str(script), "--scale", "0.002", "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 queries (4 completed" in out

    def test_missing_script_path_reported(self, capsys):
        assert main(["workload", "no/such/stream.txt"]) == 2
        assert "no such workload script" in capsys.readouterr().err

    def test_magic_without_a_variant_is_a_usage_error(self, capsys):
        assert main([
            "workload", "Q4A", "--strategy", "magic", "--scale", "0.002",
        ]) == 2
        assert "Q4A has no magic-sets variant" in capsys.readouterr().err

    def test_unknown_qid_reported_not_sql_error(self, capsys):
        assert main(["workload", "Q9Z"]) == 2
        err = capsys.readouterr().err
        assert "no such workload script or query id: Q9Z" in err

    def test_zero_repeat_is_an_empty_stream(self, capsys):
        assert main(["workload", "Q2A*0", "--scale", "0.002"]) == 2
        assert "error: empty workload stream" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--slo", "--budget-mb"])
    def test_negative_budget_is_a_usage_error(self, flag, capsys):
        assert main(["workload", "Q1A", flag, "-1", "--scale", "0.002"]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_sql_with_division_is_not_mistaken_for_path(self, capsys):
        assert main([
            "workload",
            "select count(*) as n from part where p_size = 8/2",
            "--scale", "0.002",
        ]) == 0
        assert "1 queries (1 completed" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["workload", "Q1A"])
        assert args.strategy == "feedforward"
        assert args.scheduler == "fifo"
        assert args.max_concurrent == 4
        assert not args.no_aip_cache


class TestSqlCommand:
    def test_sql_run(self, capsys):
        assert main([
            "sql",
            "select count(*) as n from part",
            "--scale", "0.002",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 rows" in out

    def test_sql_with_strategy(self, capsys):
        assert main([
            "sql",
            "select p_partkey from part, partsupp "
            "where p_partkey = ps_partkey and p_size = 1",
            "--scale", "0.002", "--strategy", "feedforward",
        ]) == 0
        out = capsys.readouterr().out
        assert "rows;" in out

    def test_sql_explain(self, capsys):
        assert main([
            "sql", "select p_partkey from part", "--scale", "0.002",
            "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "total estimated cost" in out

    @pytest.mark.parametrize("query,message", [
        ("", "expected KEYWORD 'select'"),
        ("select from", "unexpected token"),
        ("select nope from part", "cannot resolve column"),
    ])
    def test_bad_sql_is_an_error_not_a_traceback(self, query, message,
                                                  capsys):
        assert main(["sql", query, "--scale", "0.002"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestNumericArguments:
    """Out-of-range numbers are usage errors (exit 2, ``error:``), not
    tracebacks from deep in the data generator or the planner, and not
    a silent slice: ``--limit -1`` used to print every row but one."""

    @pytest.mark.parametrize("argv", [
        ["run", "Q2A", "--scale", "0"],
        ["run", "Q2A", "--scale", "-0.5"],
        ["explain", "Q1A", "--scale", "0"],
        ["sql", "select p_partkey from part", "--scale", "-1"],
        ["tables", "--scale", "0"],
        ["tables", "--scale", "nan"],
        ["run", "Q2A", "--partitions", "-1"],
        ["sql", "select p_partkey from part", "--scale", "0.002",
         "--limit", "-1"],
    ])
    def test_rejected_with_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--prom-out", "metrics.prom", "--prom-interval", "0"],
        ["serve", "--prom-interval", "-5"],
        ["serve", "--prom-interval", "nan"],
        ["top", "--interval", "-1"],
        ["top", "--interval", "0"],
        ["top", "--interval", "inf"],
    ])
    def test_interval_must_be_finite_and_positive(self, argv, capsys):
        """A zero ``--prom-interval`` rewrote the snapshot in a busy
        loop, and a negative ``top --interval`` died in ``time.sleep``;
        both are rejected before anything starts."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "seconds > 0" in capsys.readouterr().err


class TestAdminCommands:
    """``repro stats`` / ``repro top`` against a live server."""

    @pytest.fixture()
    def server(self):
        from repro.data.tpch import cached_tpch
        from repro.net.server import ReproServer
        from repro.service import QueryService, ServiceConfig

        catalog = cached_tpch(scale_factor=0.002)
        service = QueryService(catalog, ServiceConfig())
        with ReproServer(service).start() as server:
            from repro.client import connect
            with connect(port=server.port, tenant="cli") as client:
                client.query("Q1A")
            yield server

    def test_parser_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.port == 7734 and not args.prom
        args = build_parser().parse_args(["top", "--iterations", "3"])
        assert args.interval == 2.0 and args.iterations == 3

    def test_stats_json(self, server, capsys):
        assert main(["stats", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        import json
        stats = json.loads(out)
        assert stats["server"]["served_queries"] == 1
        assert "queries.completed" in stats["registry"]

    def test_stats_prom(self, server, capsys):
        assert main(["stats", "--port", str(server.port), "--prom"]) == 0
        out = capsys.readouterr().out
        from repro.obs.export import validate_prometheus
        assert validate_prometheus(out) == []

    def test_top_bounded_iterations(self, server, capsys):
        assert main([
            "top", "--port", str(server.port),
            "--iterations", "2", "--interval", "0.05", "--plain",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top —") == 2
        assert "queries: 1 served" in out

    def test_unreachable_server_is_a_clean_error(self, capsys):
        assert main(["stats", "--port", "1"]) == 2
        assert main(["top", "--port", "1", "--iterations", "1"]) == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err
