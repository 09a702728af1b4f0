"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.core import COMPLETE_STRATEGIES, Strategy


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestStats:
    def test_books_stats(self, capsys):
        code, out = run_cli(capsys, "stats", "--dataset", "books")
        assert code == 0
        assert "triples" in out
        assert "property" in out

    def test_lubm_stats(self, capsys):
        code, out = run_cli(
            capsys, "stats", "--dataset", "lubm", "--universities", "1",
            "--seed", "3",
        )
        assert code == 0
        assert "takesCourse" in out


class TestAnswer:
    def test_single_strategy(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Q1",
            "--strategy", "ref-scq", "--seed", "3",
        )
        assert code == 0
        assert "ref-scq" in out

    def test_all_strategies_books(self, capsys):
        code, out = run_cli(capsys, "answer", "--dataset", "books")
        assert code == 0
        assert "sat" in out
        assert "ref-gcov" in out
        assert "datalog" in out

    def test_inline_sparql(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--seed", "3",
            "--strategy", "sat", "--show-answers",
            "--sparql",
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
            "SELECT ?x WHERE { ?x rdf:type ub:Student }",
        )
        assert code == 0
        assert "sat" in out

    def test_ucq_failure_reported_not_raised(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Ex1",
            "--strategy", "ref-ucq", "--seed", "3",
        )
        assert code == 0
        assert "FAIL" in out

    @pytest.mark.parametrize("dataset,query", [("geo", "G1"), ("bib", "B2")])
    def test_catalog_query_strategies_agree(self, capsys, dataset, query):
        """The INSEE-like and DBLP-like catalogs answer from the CLI, and
        every complete strategy finds the same number of answers."""
        code, out = run_cli(capsys, "answer", "--dataset", dataset,
                            "--query", query)
        assert code == 0
        complete = {strategy.value for strategy in COMPLETE_STRATEGIES
                    if strategy is not Strategy.REF_JUCQ}
        counts = {}
        for line in out.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if cells[0] in complete:
                counts[cells[0]] = cells[-1]
        assert set(counts) == complete
        assert len(set(counts.values())) == 1, counts

    def test_unknown_query_errors(self, capsys):
        code, _ = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Q99"
        )
        assert code == 2

    def test_books_rejects_unknown_query_name(self, capsys):
        # The books dataset has one query, B1 (also its default); any
        # other name is an error, not a silent fallback to B1.
        code = main(["answer", "--dataset", "books", "--query", "NOPE"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "repro: error: unknown query 'NOPE' for dataset 'books'\n"
        )


class TestExplain:
    def test_explain_plan(self, capsys):
        code, out = run_cli(
            capsys, "explain", "--dataset", "lubm", "--query", "Q1",
            "--strategy", "ref-scq", "--seed", "3",
        )
        assert code == 0
        assert "Scan(" in out
        assert "actual=" in out

    def test_explain_interval_encoding(self, capsys):
        code, out = run_cli(
            capsys, "explain", "--dataset", "books", "--query", "B1",
            "--strategy", "ref-gcov", "--interval-encoding",
        )
        assert code == 0
        assert "interval atoms:" in out
        assert "collapsed" in out
        # The plan shows the range scan with its interval annotation.
        assert "[#" in out
        assert "collapses" in out

    @pytest.mark.parametrize("strategy", ["ref-ucq", "ref-virtuoso"])
    def test_too_large_query_is_one_line_not_a_traceback(self, capsys, strategy):
        code, out = run_cli(
            capsys, "explain", "--dataset", "lubm", "--query", "Ex1",
            "--strategy", strategy,
        )
        assert code == 1
        (line,) = out.splitlines()
        assert "cannot parse a query" in line


class TestIntervalAnswer:
    def test_answer_interval_metrics(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "books", "--query", "B1",
            "--strategy", "ref-scq", "--engine", "columnar",
            "--interval-encoding", "--show-metrics",
        )
        assert code == 0
        assert "interval atoms:" in out
        assert "union branch" in out

    def test_answer_interval_matches_classic(self, capsys):
        code, classic = run_cli(
            capsys, "answer", "--dataset", "books", "--query", "B1",
            "--strategy", "ref-ucq", "--show-answers",
        )
        assert code == 0
        code, encoded = run_cli(
            capsys, "answer", "--dataset", "books", "--query", "B1",
            "--strategy", "ref-ucq", "--show-answers",
            "--interval-encoding",
        )
        assert code == 0
        assert "J. L. Borges" in encoded
        # Identical answer rows, interval encoding or not.
        def extract(out):
            return [line for line in out.splitlines() if line.startswith("    (")]

        assert extract(encoded) == extract(classic)

    def test_sqlite_compound_select_limit_is_a_fail_row(self, capsys):
        """ref-virtuoso's interval-encoded Ex1 UCQ passes the planner's
        atom limit but not SQLite's 500-term compound SELECT: that
        strategy's row reads FAIL, and the others still answer."""
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Ex1",
            "--interval-encoding", "--engine", "sqlite",
        )
        assert code == 0
        rows = {line.split("|")[0].strip(): line for line in out.splitlines()
                if "|" in line}
        assert "FAIL" in rows["ref-virtuoso"]
        assert "too many terms in compound SELECT" in rows["ref-virtuoso"]
        assert "FAIL" not in rows["ref-gcov"]


class TestCovers:
    def test_cover_exploration(self, capsys):
        code, out = run_cli(
            capsys, "covers", "--dataset", "lubm", "--query", "Q1",
            "--seed", "3",
        )
        assert code == 0
        assert "GCov chose" in out
        assert "estimated cost" in out


class TestCacheStats:
    def test_prints_the_retired_lookups_beside_the_epochs(self, capsys):
        code, out = run_cli(capsys, "cache-stats", "--dataset", "books")
        assert code == 0
        assert "epochs: data 0 (invalidations 0)" in out
        assert "retired answers found by lookups: 0" in out


class TestMinimised:
    """Schema minimisation on the CLI: what was dropped is printed, and
    ``--show-metrics`` reads the one search ``answer`` ran."""

    @pytest.fixture
    def gcov_calls(self, monkeypatch):
        import repro.core.answerer as answerer_module

        calls = []
        real = answerer_module.gcov

        def counting(query, *args, **kwargs):
            calls.append(query)
            return real(query, *args, **kwargs)

        monkeypatch.setattr(answerer_module, "gcov", counting)
        return calls

    def test_show_metrics_searches_once(self, capsys, gcov_calls):
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Q9",
            "--strategy", "ref-gcov", "--show-metrics", "--seed", "3",
        )
        assert code == 0
        assert len(gcov_calls) == 1
        # Q9's three type atoms follow from advisor/teacherOf/takesCourse.
        assert len(gcov_calls[0].atoms) == 3
        assert "minimised: dropped t1, t2, t3 (implied under the schema)\n" in out
        assert "after exploring 7 covers" in out

    def test_covers_shows_the_search_answer_runs(self, capsys):
        argv = ("--dataset", "lubm", "--query", "Q9", "--seed", "3")
        code, answered = run_cli(
            capsys, "answer", "--strategy", "ref-gcov", "--show-metrics", *argv
        )
        assert code == 0
        code, covered = run_cli(capsys, "covers", *argv)
        assert code == 0
        chose = [line for line in answered.splitlines() if "GCov chose" in line]
        assert len(chose) == 1 and chose[0] in covered.splitlines()
        assert "minimised: dropped t1, t2, t3 (implied under the schema)" in covered

    def test_cached_answer_keeps_minimised(self, capsys, gcov_calls):
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Q7",
            "--strategy", "ref-gcov", "--show-metrics", "--seed", "3",
            "--cache", "--repeat", "2",
        )
        assert code == 0
        assert len(gcov_calls) == 1  # the second answer is a hit
        assert "minimised: dropped t1, t2 (implied under the schema)" in out
        assert "GCov chose" in out

    def test_explain_prints_dropped(self, capsys):
        code, out = run_cli(
            capsys, "explain", "--dataset", "lubm", "--query", "Q7",
            "--seed", "3",
        )
        assert code == 0
        assert out.startswith(
            "minimised: dropped t1, t2 (implied under the schema)\n"
        )
        assert "Filter(non-literal: ?y)" in out

    def test_nothing_dropped_prints_nothing(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "lubm", "--query", "Q1",
            "--strategy", "ref-gcov", "--show-metrics", "--seed", "3",
        )
        assert code == 0
        assert "minimised:" not in out
        assert "GCov chose" in out


class TestFileDataset:
    def test_ntriples_file(self, capsys, tmp_path):
        from repro.datasets import books_graph
        from repro.rdf import save_file

        path = str(tmp_path / "books.nt")
        save_file(books_graph(), path)
        code, out = run_cli(
            capsys, "stats", "--dataset", "file", "--file", path
        )
        assert code == 0
        assert "triples" in out

    def test_missing_file_argument(self, capsys):
        code, _ = run_cli(capsys, "stats", "--dataset", "file")
        assert code == 2


class TestResilienceFlags:
    """The --timeout/--max-retries/--row-budget knobs and the federate
    subcommand (resilience layer satellites)."""

    def test_budgeted_answer_fails_cleanly(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "books",
            "--strategy", "ref-scq", "--row-budget", "2",
            "--max-retries", "1",
        )
        assert code == 0
        assert "FAIL" in out
        assert "budget" in out

    def test_roomy_budget_answers(self, capsys):
        code, out = run_cli(
            capsys, "answer", "--dataset", "books",
            "--strategy", "ref-gcov", "--row-budget", "100000",
            "--timeout", "60",
        )
        assert code == 0
        assert "ref-gcov" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("flag,value", [
        ("--row-budget", "0"),
        ("--row-budget", "-5"),
        ("--timeout", "0"),
        ("--timeout", "-1.5"),
        ("--max-retries", "0"),
        ("--max-retries", "-2"),
    ])
    def test_non_positive_values_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "answer", "--dataset", "books", flag, value
            )
        err = capsys.readouterr().err
        assert "must be a positive" in err

    def test_federate_complete(self, capsys):
        code, out = run_cli(
            capsys, "federate", "--dataset", "books", "--endpoints", "3",
        )
        assert code == 0
        assert "COMPLETE" in out
        assert "shard-0" in out

    def test_federate_outage_partial_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "federate", "--dataset", "books", "--outage", "1",
            "--breaker-threshold", "2",
        )
        assert code == 3  # partial answers are visible in the exit code
        assert "PARTIAL" in out
        assert "degraded" in out

    def test_federate_transient_chaos_recovers(self, capsys):
        code, out = run_cli(
            capsys, "federate", "--dataset", "books",
            "--transient-rate", "0.3", "--chaos-seed", "7",
            "--max-retries", "3",
        )
        assert code == 0
        assert "COMPLETE" in out

    def test_federate_rate_validation(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, "federate", "--dataset", "books",
                "--transient-rate", "1.5",
            )
        assert "probability" in capsys.readouterr().err

    def test_federate_outage_index_validation(self, capsys):
        code = main(["federate", "--dataset", "books", "--outage", "9"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["repro: error: --outage must name an endpoint index "
                       "in [0, 3)"]


class TestDurabilityCommands:
    """The load / checkpoint / recover subcommands and their exit
    codes (0 ok, 4 recovered-truncated, 5 nothing-to-recover)."""

    def test_load_then_recover_verified(self, capsys, tmp_path):
        directory = str(tmp_path / "wal")
        code, out = run_cli(
            capsys, "load", "--dataset", "books", "--wal", directory,
            "--sync", "never",
        )
        assert code == 0
        assert "loaded" in out and "record(s)" in out
        code, out = run_cli(capsys, "recover", "--wal", directory, "--verify")
        assert code == 0
        assert "verified" in out

    def test_load_with_checkpoint_then_json_recover(self, capsys, tmp_path):
        import json

        directory = str(tmp_path / "wal")
        code, out = run_cli(
            capsys, "load", "--dataset", "books", "--wal", directory,
            "--sync", "never", "--checkpoint",
        )
        assert code == 0 and "checkpoint" in out
        code, out = run_cli(capsys, "recover", "--wal", directory, "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["checkpoint_sequence"] == 1
        assert summary["records_replayed"] == 0
        assert not summary["truncated"]

    def test_checkpoint_command(self, capsys, tmp_path):
        directory = str(tmp_path / "wal")
        run_cli(
            capsys, "load", "--dataset", "books", "--wal", directory,
            "--sync", "never",
        )
        code, out = run_cli(capsys, "checkpoint", "--wal", directory)
        assert code == 0
        assert "WAL rotated" in out

    def test_checkpoint_empty_directory_exit_5(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "checkpoint", "--wal", str(tmp_path / "nothing")
        )
        assert code == 5
        assert "nothing to checkpoint" in out

    def test_recover_empty_directory_exit_5(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "recover", "--wal", str(tmp_path / "nothing")
        )
        assert code == 5

    def test_recover_truncated_tail_exit_4_then_0(self, capsys, tmp_path):
        from repro.durability import FileSystem, recover, wal_path

        directory = str(tmp_path / "wal")
        run_cli(
            capsys, "load", "--dataset", "books", "--wal", directory,
            "--sync", "never",
        )
        probe = recover(directory)
        io = FileSystem()
        io.append(wal_path(directory, probe.wal_segment), b"\xff\xfegarbage")
        io.close_all()
        code, out = run_cli(capsys, "recover", "--wal", directory)
        assert code == 4
        assert "True" in out  # truncated flag in the report
        # The truncation is persisted: a second recovery is clean.
        code, _ = run_cli(capsys, "recover", "--wal", directory, "--verify")
        assert code == 0

    def test_read_only_recover_leaves_tail(self, capsys, tmp_path):
        from repro.durability import FileSystem, recover, wal_path

        directory = str(tmp_path / "wal")
        run_cli(
            capsys, "load", "--dataset", "books", "--wal", directory,
            "--sync", "never",
        )
        probe = recover(directory, truncate=False)
        io = FileSystem()
        io.append(wal_path(directory, probe.wal_segment), b"\xff\xfegarbage")
        io.close_all()
        code, _ = run_cli(
            capsys, "recover", "--wal", directory, "--read-only"
        )
        assert code == 4
        # Tail untouched: recovering again still sees the garbage.
        code, _ = run_cli(
            capsys, "recover", "--wal", directory, "--read-only"
        )
        assert code == 4

    def test_lenient_file_load(self, capsys, tmp_path):
        from repro.datasets import books_dataset
        from repro.rdf import save_file

        graph, _, _ = books_dataset()
        path = str(tmp_path / "messy.nt")
        save_file(graph, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("this line is junk !\n")
        directory = str(tmp_path / "wal")
        code, out = run_cli(
            capsys, "load", "--dataset", "file", "--file", path,
            "--lenient", "--wal", directory, "--sync", "never",
        )
        assert code == 0
        assert "loaded" in out


class TestServe:
    def test_serve_completes_synthetic_workload(self, capsys):
        code, out = run_cli(
            capsys, "serve", "--dataset", "books",
            "--tenants", "alpha:3", "beta:1", "--requests", "6",
            "--queue-depth", "4",
        )
        assert code == 0
        assert "6 submitted, 6 completed" in out
        assert "alpha" in out and "beta" in out

    def test_serve_sheds_past_saturation(self, capsys):
        code, out = run_cli(
            capsys, "serve", "--dataset", "books", "--requests", "9",
            "--queue-depth", "1", "--capacity", "1",
        )
        assert code == 3
        assert "queue-full" in out
        assert "retry after" in out
        # The exit-3 table carries the back-off hint per tenant.
        assert "backoff s" in out

    def test_serve_json_rejections_carry_retry_after(self, capsys):
        import json

        code, out = run_cli(
            capsys, "serve", "--dataset", "books", "--requests", "9",
            "--queue-depth", "1", "--capacity", "1", "--json",
        )
        assert code == 3
        summary = json.loads(out)
        assert summary["rejections"]
        assert all("retry_after" in r for r in summary["rejections"])
        assert all(r["retry_after"] >= 0 for r in summary["rejections"])

    def test_serve_script_with_snapshot_pin(self, capsys, tmp_path):
        script = tmp_path / "session.txt"
        script.write_text(
            "pin s1\n"
            "submit alpha default\n"
            "drain\n"
            "insert <http://example.org/x> rdf:type <http://example.org/T>\n"
            "submit beta default snapshot=s1  # pinned read\n"
            "drain\n"
            "release s1\n"
        )
        code, out = run_cli(
            capsys, "serve", "--dataset", "books",
            "--script", str(script), "--json",
        )
        assert code == 0
        import json

        summary = json.loads(out)
        assert summary["completed"] == 2
        assert summary["snapshots"]["active_pins"] == 0

    def test_serve_script_schema_insert_is_usage_error(self, capsys, tmp_path):
        """A constraint cannot be written as a triple through the
        service: the script line is refused with one line, exit 2."""
        script = tmp_path / "session.txt"
        script.write_text(
            "insert <http://example.org/A> rdfs:subClassOf "
            "<http://example.org/B>\n"
        )
        code = main(["serve", "--dataset", "books", "--script", str(script)])
        assert code == 2
        err = capsys.readouterr().err
        assert "add_constraint" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_serve_is_deterministic(self, capsys):
        argv = [
            "serve", "--dataset", "books", "--requests", "7",
            "--queue-depth", "2", "--capacity", "1", "--json",
        ]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_serve_bad_tenant_spec_is_usage_error(self, capsys):
        for spec in ("a:1:2:3:4", "a:2:4:3"):
            code, _ = run_cli(
                capsys, "serve", "--dataset", "books",
                "--tenants", spec,
            )
            assert code == 2, spec


    def test_serve_json_includes_health_section(self, capsys):
        import json

        code, out = run_cli(
            capsys, "serve", "--dataset", "books", "--requests", "4",
            "--brownout", "--watchdog", "2.5", "--json",
        )
        assert code == 0
        health = json.loads(out)["health"]
        assert health["brownout"]["level_name"] == "normal"
        assert health["watchdog_seconds"] == 2.5
        assert health["monitor"]["stale_serves"] == 0
        for breaker in health["breakers"].values():
            assert breaker["state"] == "closed"
            assert breaker["cooldown_remaining"] == 0.0

    def test_serve_json_surfaces_rejections(self, capsys):
        import json

        code, out = run_cli(
            capsys, "serve", "--dataset", "books", "--requests", "9",
            "--queue-depth", "1", "--capacity", "1", "--json",
        )
        assert code == 3
        rejections = json.loads(out)["rejections"]
        assert rejections
        for rejection in rejections:
            assert rejection["reason"] == "queue-full"
            assert rejection["retry_after"] is not None
            assert rejection["tenant"]
            assert rejection["query"]

    def test_serve_stale_script_exits_degraded(self, capsys, tmp_path):
        script = tmp_path / "brownout.txt"
        script.write_text(
            "submit alpha default\n"
            "drain\n"
            "insert <http://example.org/noise> "
            "<http://example.org/books/hasName> \"Noise\"\n"
            "chaos arm\n"
            "degrade stale-serving\n"
            "submit alpha default\n"
            "drain\n"
            "chaos disarm\n"
        )
        code, out = run_cli(
            capsys, "serve", "--dataset", "books", "--script", str(script),
            "--brownout", "--chaos-transient", "1.0",
        )
        assert code == 6  # every request answered, one of them stale
        assert "health: level" in out
        assert "1 stale serve(s)" in out

    def test_serve_lubm_without_queries_names_the_flag(self, capsys):
        """Only books has a default query: serving LUBM without
        --queries is refused, not answered with the Books query."""
        code = main(["serve", "--dataset", "lubm", "--requests", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error: ") and "--queries" in err

    def test_serve_books_unknown_query_is_refused(self, capsys):
        code = main(["serve", "--dataset", "books", "--queries", "Q9"])
        assert code == 2
        assert capsys.readouterr().err == (
            "repro: error: unknown query 'Q9' for dataset 'books'\n"
        )

    def test_serve_lubm_with_queries(self, capsys):
        code, out = run_cli(
            capsys, "serve", "--dataset", "lubm", "--queries", "Q1,Q6,Ex1",
            "--requests", "3",
        )
        assert code == 0
        assert "3 submitted, 3 completed" in out

    def test_serve_degrade_verb_requires_brownout(self, capsys, tmp_path):
        script = tmp_path / "degrade.txt"
        script.write_text("degrade stale-serving\n")
        code, _ = run_cli(
            capsys, "serve", "--dataset", "books", "--script", str(script),
        )
        assert code == 2

    def test_serve_script_deadline_expiry_all_expired(self, capsys, tmp_path):
        script = tmp_path / "expire.txt"
        script.write_text(
            "submit alpha default deadline=0.01\n"
            "advance 5\n"
            "drain\n"
        )
        code, out = run_cli(
            capsys, "serve", "--dataset", "books", "--script", str(script),
        )
        assert code == 1  # nothing completed at all
        assert "0 completed" in out


class TestReplicate:
    def test_default_workload_converges(self, capsys):
        code, out = run_cli(capsys, "replicate", "--writes", "6")
        assert code == 0
        assert "replication session" in out
        assert "n1" in out and "n3" in out

    def test_faulty_links_still_converge(self, capsys):
        code, out = run_cli(
            capsys, "replicate", "--writes", "10", "--drop-rate", "0.3",
            "--tear-rate", "0.2", "--duplicate-rate", "0.1",
            "--seed", "11",
        )
        assert code == 0
        assert "dropped" in out

    def test_script_failover_and_replstatus(self, capsys, tmp_path):
        import json

        script = tmp_path / "chaos.txt"
        script.write_text(
            "write 6\n"
            "kill-primary\n"
            "pump 5  # lease expires, a follower takes over\n"
            "write 3\n"
            "heal\n"
            "converge\n"
        )
        directory = str(tmp_path / "cluster")
        code, out = run_cli(
            capsys, "replicate", "--script", str(script),
            "--dir", directory, "--json",
        )
        assert code == 0
        status = json.loads(out)
        assert status["coordinator"]["epoch"] == 2
        assert status["consistency_problems"] == []
        code, out = run_cli(capsys, "replstatus", "--dir", directory)
        assert code == 0
        saved = json.loads(out)
        assert set(saved["nodes"]) == {"n1", "n2", "n3"}
        assert saved["links"]["n2"]["shipped"] >= 0

    def test_unconverged_cluster_exits_7(self, capsys, tmp_path):
        script = tmp_path / "bad.txt"
        script.write_text("write 4\npartition n3\nwrite 2\n")
        code, out = run_cli(
            capsys, "replicate", "--script", str(script),
            "--max-rounds", "5",
        )
        assert code == 7

    def test_replstatus_without_state_fails(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "replstatus",
                          "--dir", str(tmp_path / "void"))
        assert code == 1

    def test_replicate_run_is_deterministic(self, capsys):
        argv = ["replicate", "--writes", "8", "--drop-rate", "0.2",
                "--seed", "3", "--json"]
        import json

        first = json.loads(run_cli(capsys, *argv)[1])
        second = json.loads(run_cli(capsys, *argv)[1])
        assert first["nodes"] == second["nodes"]
        assert first["links"] == second["links"]


class TestHashSeedDeterminism:
    """Under a fixed PYTHONHASHSEED every run prints the same bytes: tied
    rows in ``stats`` and the dictionary ``#id``s in ``explain`` follow
    set order over terms, which only a seed-stable term hash fixes."""

    @staticmethod
    def _run(*argv):
        import os
        import subprocess
        import sys

        source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=source)
        out = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        return re.sub(r"\d+\.\d+", "#.#", out)  # timings vary run to run

    @pytest.mark.parametrize("argv", [
        ("stats", "--dataset", "books"),
        ("explain", "--dataset", "books", "--query", "B1"),
    ], ids=["stats", "explain"])
    def test_runs_print_the_same(self, argv):
        assert len({self._run(*argv) for _ in range(3)}) == 1


class TestExitCodeTable:
    """The README's exit-code contract, one row per code per command
    family — the single place that pins all six codes at once."""

    @staticmethod
    def _stage_wal(capsys, tmp_path, torn=False):
        from repro.durability import FileSystem, recover, wal_path

        directory = str(tmp_path / "wal")
        code, _ = run_cli(
            capsys, "load", "--dataset", "books", "--wal", directory,
            "--sync", "never",
        )
        assert code == 0
        if torn:
            probe = recover(directory, truncate=False)
            io = FileSystem()
            io.append(wal_path(directory, probe.wal_segment), b"\xff\xfebad")
            io.close_all()
        return directory

    @staticmethod
    def _write_expiring_script(tmp_path):
        script = tmp_path / "all-expire.txt"
        script.write_text("submit alpha default deadline=0.01\nadvance 9\n")
        return str(script)

    @staticmethod
    def _write_script(tmp_path, line):
        script = tmp_path / "one-line.txt"
        script.write_text(line + "\n")
        return str(script)

    @staticmethod
    def _write_malformed_script(tmp_path):
        script = tmp_path / "malformed.txt"
        script.write_text("step\nstep many\n")
        return str(script)

    @pytest.mark.parametrize(
        "expected,command,argv_builder",
        [
            # -- 0: success ------------------------------------------------
            (0, "answer", lambda c, t: [
                "answer", "--dataset", "books", "--strategy", "ref-gcov"]),
            (0, "federate", lambda c, t: [
                "federate", "--dataset", "books", "--endpoints", "2"]),
            (0, "recover", lambda c, t: [
                "recover", "--wal", TestExitCodeTable._stage_wal(c, t)]),
            (0, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--requests", "4",
                "--queue-depth", "4"]),
            # -- 1: failure ------------------------------------------------
            (1, "why", lambda c, t: [
                "why", "--dataset", "books", "--triple",
                "<http://nowhere/x> rdf:type <http://nowhere/Y>"]),
            (1, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--script",
                TestExitCodeTable._write_expiring_script(t)]),
            # -- 2: usage --------------------------------------------------
            (2, "answer", lambda c, t: [
                "answer", "--dataset", "books", "--strategy", "ref-jucq"]),
            (2, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--tenants", "a:b:c:d"]),
            (2, "answer", lambda c, t: [
                "answer", "--dataset", "books", "--sparql", "garbage"]),
            (2, "explain", lambda c, t: [
                "explain", "--dataset", "books", "--sparql", "garbage"]),
            (2, "covers", lambda c, t: [
                "covers", "--dataset", "books",
                "--sparql", "SELECT ?x WHERE { ?x <a> }"]),
            (2, "cache-stats", lambda c, t: [
                "cache-stats", "--dataset", "books", "--sparql", "garbage"]),
            (2, "federate", lambda c, t: [
                "federate", "--dataset", "books", "--sparql", "garbage"]),
            (2, "answer", lambda c, t: [
                "answer", "--dataset", "books", "--strategy", "ref-gcov",
                "--engine", "sqlite", "--row-budget", "5"]),
            (2, "explain", lambda c, t: [
                "explain", "--dataset", "books", "--strategy", "ref-jucq"]),
            (2, "answer", lambda c, t: [
                "answer", "--dataset", "file"]),
            (2, "answer", lambda c, t: [
                "answer", "--dataset", "lubm"]),
            pytest.param(2, "federate", lambda c, t: [
                "federate", "--dataset", "books", "--outage", "9"],
                id="2-federate-outage-index"),
            pytest.param(2, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--script",
                TestExitCodeTable._write_malformed_script(t)],
                id="2-serve-malformed-script"),
            pytest.param(2, "answer", lambda c, t: [
                "answer", "--dataset", "books", "--engine", "materialized"],
                id="2-answer-retired-engine"),
            # -- 3: partial ------------------------------------------------
            (3, "federate", lambda c, t: [
                "federate", "--dataset", "books", "--endpoints", "2",
                "--outage", "0", "--max-retries", "1"]),
            (3, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--requests", "9",
                "--queue-depth", "1", "--capacity", "1"]),
            # -- 4: recovered after truncation ------------------------------
            (4, "recover", lambda c, t: [
                "recover", "--wal",
                TestExitCodeTable._stage_wal(c, t, torn=True)]),
            # -- 5: nothing to recover --------------------------------------
            (5, "recover", lambda c, t: [
                "recover", "--wal", str(t / "empty")]),
            (5, "checkpoint", lambda c, t: [
                "checkpoint", "--wal", str(t / "empty")]),
            # -- 2: inputs that used to end in a traceback or be misread --
            pytest.param(2, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--chaos-transient", "1.5"],
                id="2-serve-chaos-transient-rate"),
            pytest.param(2, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--chaos-latency-rate", "2"],
                id="2-serve-chaos-latency-rate"),
            *[
                pytest.param(2, "replicate", lambda c, t, flag=flag: [
                    "replicate", flag, "1.5"],
                    id="2-replicate%s" % flag)
                for flag in ("--drop-rate", "--duplicate-rate",
                             "--delay-rate", "--tear-rate")
            ],
            pytest.param(2, "answer", lambda c, t: [
                "answer", "--dataset", "file", "--file", str(t / "absent.nt")],
                id="2-answer-unreadable-file"),
            pytest.param(2, "load", lambda c, t: [
                "load", "--dataset", "file", "--file", str(t / "absent.nt"),
                "--wal", str(t / "wal")],
                id="2-load-unreadable-file"),
            pytest.param(2, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--script", str(t / "absent")],
                id="2-serve-unreadable-script"),
            pytest.param(2, "replicate", lambda c, t: [
                "replicate", "--script", str(t / "absent")],
                id="2-replicate-unreadable-script"),
            pytest.param(2, "stats", lambda c, t: [
                "stats", "--universities", "0"],
                id="2-stats-zero-universities"),
            pytest.param(2, "stats", lambda c, t: [
                "stats", "--universities", "-2"],
                id="2-stats-negative-universities"),
            pytest.param(2, "answer", lambda c, t: [
                "answer", "--dataset", "books", "--show-answers",
                "--limit", "-1"],
                id="2-answer-negative-limit"),
            pytest.param(2, "stats", lambda c, t: [
                "stats", "--dataset", "books", "--top", "-1"],
                id="2-stats-negative-top"),
            pytest.param(2, "covers", lambda c, t: [
                "covers", "--dataset", "books", "--top", "-1"],
                id="2-covers-negative-top"),
            pytest.param(2, "serve", lambda c, t: [
                "serve", "--dataset", "lubm", "--requests", "2"],
                id="2-serve-no-default-query"),
            pytest.param(2, "serve", lambda c, t: [
                "serve", "--dataset", "books", "--queries", "Q9"],
                id="2-serve-unknown-query"),
            *[
                pytest.param(2, "serve", lambda c, t, line=line: [
                    "serve", "--dataset", "books", "--script",
                    TestExitCodeTable._write_script(t, line)],
                    id="2-serve-submit-%s" % line.split()[-1])
                for line in ("submit alpha default priority=high",
                             "submit alpha default deadline=0",
                             "submit alpha default strategy=ref-jucq",
                             "submit alpha default prio=1")
            ],
            *[
                pytest.param(2, "answer", lambda c, t, count=count: [
                    "answer", "--dataset", "books", "--repeat", count],
                    id="2-answer-repeat%s" % count)
                for count in ("0", "-3")
            ],
            pytest.param(2, "cache-stats", lambda c, t: [
                "cache-stats", "--dataset", "books", "--repeat", "1"],
                id="2-cache-stats-single-run"),
            pytest.param(0, "cache-stats", lambda c, t: [
                "cache-stats", "--dataset", "books", "--repeat", "2"],
                id="0-cache-stats-cold-and-warm"),
            pytest.param(1, "explain", lambda c, t: [
                "explain", "--dataset", "lubm", "--query", "Ex1",
                "--strategy", "ref-ucq"],
                id="1-explain-query-too-large"),
        ],
    )
    def test_exit_code(self, capsys, tmp_path, expected, command, argv_builder):
        self._check_exit(capsys, argv_builder(capsys, tmp_path), expected)

    @pytest.mark.parametrize(
        "expected,argv",
        [
            # Only the commands that seed faults read the variable.
            pytest.param(0, ["stats", "--dataset", "books"],
                         id="0-stats"),
            pytest.param(0, ["answer", "--dataset", "books",
                             "--strategy", "ref-gcov"],
                         id="0-answer"),
            pytest.param(0, ["serve", "--dataset", "books", "--requests",
                             "4", "--queue-depth", "4"],
                         id="0-serve-without-chaos"),
            pytest.param(0, ["replicate", "--writes", "2", "--seed", "5"],
                         id="0-replicate-explicit-seed"),
            pytest.param(2, ["serve", "--dataset", "books", "--requests",
                             "2", "--chaos-transient", "0.5"],
                         id="2-serve-chaos"),
            pytest.param(2, ["replicate", "--writes", "2"],
                         id="2-replicate"),
        ],
    )
    def test_exit_code_under_malformed_chaos_seed(
            self, capsys, monkeypatch, expected, argv):
        monkeypatch.setenv("REPRO_CHAOS_SEED", "abc")
        self._check_exit(capsys, argv, expected)

    @staticmethod
    def _check_exit(capsys, argv, expected):
        capsys.readouterr()  # drop what staging printed
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse refused a flag
            code = exit_.code
        assert code == expected
        if expected == 2:
            # Usage errors are one ``repro: error:`` line on stderr,
            # never a traceback.
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert len(err.splitlines()) == 1
            assert err.startswith("repro: error: ")

    def test_internal_value_error_keeps_its_traceback(self, monkeypatch):
        """Only the typed usage errors become exit 2; a ValueError from
        inside answering is a bug and must not be relabelled."""
        def broken(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr("repro.core.answerer.reformulate", broken)
        with pytest.raises(ValueError, match="boom"):
            main(["answer", "--dataset", "books", "--strategy", "ref-ucq"])
