"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


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
        extract = lambda out: [
            line for line in out.splitlines() if line.startswith("    (")
        ]
        assert extract(encoded) == extract(classic)


class TestCovers:
    def test_cover_exploration(self, capsys):
        code, out = run_cli(
            capsys, "covers", "--dataset", "lubm", "--query", "Q1",
            "--seed", "3",
        )
        assert code == 0
        assert "GCov chose" in out
        assert "estimated cost" in out


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

    def test_serve_is_deterministic(self, capsys):
        argv = [
            "serve", "--dataset", "books", "--requests", "7",
            "--queue-depth", "2", "--capacity", "1", "--json",
        ]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_serve_bad_tenant_spec_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "serve", "--dataset", "books",
            "--tenants", "a:1:2:3:4",
        )
        assert code == 2

    def test_serve_four_part_tenant_spec_sets_replica_bound(self, capsys):
        code, _ = run_cli(
            capsys, "serve", "--dataset", "books", "--requests", "2",
            "--tenants", "a:2:4:3",
        )
        assert code == 0


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
            "insert <http://example.org/noise> rdf:type "
            "<http://example.org/Noise>\n"
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
        ],
    )
    def test_exit_code(self, capsys, tmp_path, expected, command, argv_builder):
        argv = argv_builder(capsys, tmp_path)
        capsys.readouterr()  # drop what staging printed
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse refused a flag
            code = exit_.code
        assert code == expected
        if expected == 2:
            # Usage errors are one line on stderr, never a traceback.
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert len(err.splitlines()) == 1

    def test_internal_value_error_keeps_its_traceback(self, monkeypatch):
        """Only the typed usage errors become exit 2; a ValueError from
        inside answering is a bug and must not be relabelled."""
        def broken(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr("repro.core.answerer.reformulate", broken)
        with pytest.raises(ValueError, match="boom"):
            main(["answer", "--dataset", "books", "--strategy", "ref-ucq"])
