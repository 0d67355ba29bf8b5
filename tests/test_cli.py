"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


SF = "0.001"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_flags(self):
        args = build_parser().parse_args(
            ["--sf", "0.02", "query", "--no-cse", "select 1 from region"]
        )
        assert args.sf == 0.02
        assert args.no_cse is True

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "bogus"])


class TestQueryCommand:
    def test_simple_query(self):
        code, output = run_cli(
            "--sf", SF, "query", "select r_name from region"
        )
        assert code == 0
        assert "AFRICA" in output
        assert "estimated cost" in output

    def test_batch_with_sharing(self):
        sql = (
            "select c_nationkey, sum(l_extendedprice) as v "
            "from customer, orders, lineitem "
            "where c_custkey = o_custkey and o_orderkey = l_orderkey "
            "group by c_nationkey;"
            "select c_mktsegment, sum(l_quantity) as v "
            "from customer, orders, lineitem "
            "where c_custkey = o_custkey and o_orderkey = l_orderkey "
            "group by c_mktsegment"
        )
        code, output = run_cli("--sf", SF, "query", sql)
        assert code == 0
        assert "CSEs used: ['E" in output
        assert "spool(s)" in output

    def test_row_limit(self):
        code, output = run_cli(
            "--sf", SF, "query", "--rows", "2", "select n_name from nation"
        )
        assert code == 0
        assert "... 23 more" in output

    def test_no_cse_flag(self):
        code, output = run_cli(
            "--sf", SF, "query", "--no-cse", "select r_name from region"
        )
        assert code == 0
        assert "CSEs used: none" in output

    def test_compare(self):
        code, output = run_cli(
            "--sf", SF, "query", "--compare",
            "select c_nationkey, sum(c_acctbal) as v from customer "
            "group by c_nationkey",
        )
        assert code == 0
        assert "No CSE" in output and "Using CSEs" in output

    def test_bad_sql_reports_error(self, capsys):
        code, _ = run_cli("--sf", SF, "query", "selecct nonsense")
        assert code == 1


class TestExplainCommand:
    def test_explain(self):
        code, output = run_cli(
            "--sf", SF, "explain",
            "select c_nationkey, sum(c_acctbal) as v from customer "
            "group by c_nationkey",
        )
        assert code == 0
        assert "HashAgg" in output and "Scan customer" in output


class TestBenchCommand:
    def test_table1(self):
        code, output = run_cli("--sf", SF, "bench", "table1")
        assert code == 0
        assert "Table 1" in output and "# of CSEs" in output

    def test_fig8(self):
        code, output = run_cli("--sf", SF, "bench", "fig8")
        assert code == 0
        assert output.count("\n") >= 5


class TestBenchAll:
    def test_report(self):
        code, output = run_cli("--sf", SF, "bench", "all")
        assert code == 0
        assert "# Experiment report" in output
        assert "Table 1" in output and "Figure 8" in output
        assert "View maintenance" in output

    def test_maintenance_matches_report_section(self):
        code, line = run_cli("--sf", SF, "bench", "maintenance")
        assert code == 0
        _, report = run_cli("--sf", SF, "bench", "all")
        section = report.split("## View maintenance")[1].splitlines()
        assert line.strip() in section


class TestTraceCommand:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "--sf", SF, "query", "--trace", str(path),
            "select r_name from region",
        )
        assert code == 0
        return path

    def test_export_chrome(self, trace_file, tmp_path):
        out = tmp_path / "trace.json"
        code, output = run_cli(
            "trace", str(trace_file), "--export", "chrome", "--out", str(out)
        )
        assert code == 0
        assert "wrote chrome trace" in output
        assert json.loads(out.read_text())["traceEvents"]

    def test_export_subcommand_spelling_is_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            run_cli("trace", "export", str(trace_file), "--format", "chrome")


class TestParallelFlag:
    def test_parallel_query_matches_serial(self):
        from repro.workloads import example1_batch

        sql = example1_batch()
        code_serial, serial = run_cli("--sf", SF, "query", sql)
        code_parallel, parallel = run_cli(
            "--sf", SF, "query", "--parallel", "4", sql
        )
        assert code_serial == code_parallel == 0
        assert parallel == serial  # byte-identical report

    def test_parallel_metrics_counters(self):
        code, output = run_cli(
            "--sf", SF, "query", "--parallel", "2", "--metrics",
            "select r_name from region",
        )
        assert code == 0
        assert "executor.parallel_batches = 1" in output
