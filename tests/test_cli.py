"""The command-line interface."""

import json
import os

import pytest

from repro.analysis.legality import ExecTarget
from repro.cli import _feed, main
from repro.deploy import deploy
from repro.streams.persistence import load_trace, read_header
from repro.streams.schema import TCP_SCHEMA


@pytest.fixture
def trace_file(tmp_path):
    path = str(tmp_path / "trace.bin")
    rc = main([
        "generate", "--feed", "research", "--seconds", "10",
        "--rate-scale", "0.005", "--seed", "7", "--out", path,
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_trace(self, trace_file, capsys):
        records = load_trace(trace_file)
        assert records
        assert records[0].schema.name == "TCP"

    def test_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            path = str(tmp_path / f"t{i}.bin")
            main(["generate", "--seconds", "5", "--seed", "3", "--out", path])
            paths.append(path)
        assert load_trace(paths[0]) == load_trace(paths[1])

    def test_ddos_feed_available(self, tmp_path):
        path = str(tmp_path / "ddos.bin")
        assert main(["generate", "--feed", "ddos", "--seconds", "5",
                     "--out", path]) == 0


class TestQuery:
    def test_plain_aggregation(self, trace_file, capsys):
        rc = main([
            "query", "--trace", trace_file,
            "--sql", "SELECT tb, sum(len) FROM TCP GROUP BY time/5 as tb",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "tb\tsum(len)" or "tb" in out.splitlines()[0]
        assert len(out.splitlines()) >= 3

    def test_sampling_query_with_packs(self, trace_file, capsys):
        rc = main([
            "query", "--trace", trace_file, "--relax-factor", "10",
            "--sql",
            "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())"
            " FROM TCP WHERE ssample(len, 10) = TRUE"
            " GROUP BY time/5 as tb, srcIP, destIP, uts"
            " HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE"
            " CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE"
            " CLEANING BY ssclean_with(sum(len)) = TRUE",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_limit_truncates(self, trace_file, capsys):
        rc = main([
            "query", "--trace", trace_file, "--limit", "2",
            "--sql", "SELECT len FROM TCP",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_empty_trace_fails(self, tmp_path, capsys):
        # An unreadable path surfaces as an error, not a traceback.
        with pytest.raises(Exception):
            main(["query", "--trace", str(tmp_path / "missing.bin"),
                  "--sql", "SELECT len FROM TCP"])

    def test_a_trace_with_no_records_exits_one(self, trace_file, capsys):
        with open(trace_file, "rb") as fh:
            _, body = read_header(fh)
        os.truncate(trace_file, body)
        assert main(["query", "--trace", trace_file, "--sql", "SELECT len FROM TCP"]) == 1
        assert capsys.readouterr().err.splitlines() == ["trace is empty"]

    def test_the_trace_streams_from_its_file(self, trace_file):
        # The schema comes from the header; the records are read as the
        # run pulls them, never held as a list.
        schema, records = _feed(trace_file)
        assert schema == TCP_SCHEMA and not isinstance(records, list)
        assert list(records) == load_trace(trace_file)

    def test_sharded_matches_serial(self, trace_file, capsys):
        sql = "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP"

        def rows(extra):
            rc = main([
                "query", "--trace", trace_file, "--limit", "100000",
                "--sql", sql, *extra,
            ])
            assert rc == 0
            return sorted(capsys.readouterr().out.splitlines()[1:])

        serial = rows([])
        assert rows(["--shards", "2"]) == serial
        assert rows(["--shards", "2", "--supervise"]) == serial

    def test_removed_worker_flag_points_at_supervise(self, trace_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--trace", trace_file, "--shards", "2",
                  "--shard-processes", "--sql", "SELECT len FROM TCP"])
        assert exit_info.value.code == 2
        assert "--supervise" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("extra", [[], ["--supervise"]], ids=["inline", "supervised"])
    def test_journal_composes_with_either_shard_pool(
        self, trace_file, tmp_path, capsys, extra
    ):
        sql = "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP"

        def rows(args):
            rc = main([
                "query", "--trace", trace_file, "--limit", "100000",
                "--sql", sql, *args,
            ])
            assert rc == 0
            return sorted(capsys.readouterr().out.splitlines()[1:])

        serial = rows([])
        journal = str(tmp_path / "run.journal")
        sharded = ["--shards", "2", "--journal", journal, *extra]
        assert rows(sharded) == serial
        # The journal ends in a final entry: resume restores, reads nothing.
        assert rows([*sharded, "--resume"]) == serial

    def test_supervised_matches_serial_and_reports(self, trace_file, capsys):
        sql = "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP"

        def run(extra):
            rc = main([
                "query", "--trace", trace_file, "--limit", "100000",
                "--sql", sql, *extra,
            ])
            assert rc == 0
            captured = capsys.readouterr()
            return sorted(captured.out.splitlines()[1:]), captured.err

        serial, _ = run([])
        rows, err = run(["--shards", "2", "--supervise", "--report"])
        assert rows == serial
        assert "supervision: restarts=0" in err
        assert "stream TCP:" in err

    def test_shed_threshold_reported(self, trace_file, capsys):
        rc = main([
            "query", "--trace", trace_file, "--limit", "0",
            "--shed-threshold", "50",
            "--sql", "SELECT tb, srcIP, sum(len) FROM TCP"
            " GROUP BY time/5 as tb, srcIP",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "shed=" in err

    def test_a_shed_threshold_below_one_is_refused(self, trace_file, capsys):
        # it used to print no rows, shed=<every record> and exit 0
        line = refused(capsys, [
            "query", "--trace", trace_file, "--shed-threshold", "-3",
            "--sql", "SELECT time FROM TCP",
        ])
        assert "shed threshold must be >= 1 (got -3)" in line

    def test_unshardeable_query_errors_clearly(self, trace_file, capsys):
        rc = main([
            "query", "--trace", trace_file, "--shards", "2",
            "--sql",
            "SELECT tb, b, count(*) FROM TCP"
            " GROUP BY time/5 as tb, srcIP/2 as b",
        ])
        # The deployment lints the query against itself: a lint error
        # like any other, before a record is fed or a query registered.
        assert rc == 1
        captured = capsys.readouterr()
        assert "SA302" in captured.err and "cannot shard" in captured.err
        assert captured.out == ""


class TestTheDeploymentKnowsWhatItIs:
    """``query`` builds one target from its flags, its instance from that
    target, and lints against it — so what a deployment refuses is a
    caret diagnostic before any record is fed, and every mode takes
    ``--vectorize`` and ``--profile``."""

    UNSHARDABLE = os.path.join(
        os.path.dirname(__file__), "..", "examples", "queries", "unsound_unshardable.gsql"
    )
    GROUPED = "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP"

    def test_an_unshardable_example_is_a_lint_error_under_shards(
        self, trace_file, capsys
    ):
        assert main(["query", self.UNSHARDABLE, "--trace", trace_file]) == 0
        capsys.readouterr()
        rc = main(["query", self.UNSHARDABLE, "--trace", trace_file, "--shards", "2"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "SA301 error" in captured.err and "SA302 error" in captured.err
        assert "^^^" in captured.err and "lint --target" not in captured.err

    def test_no_lint_leaves_the_refusal_to_the_runtime(self, trace_file, capsys):
        rc = main([
            "query", self.UNSHARDABLE, "--trace", trace_file, "--shards", "2",
            "--no-lint",
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert "cannot run this query under --shards" in line
        assert "checkpoint" not in line and "MERGE" in line

    def test_a_shedding_journal_resumes_to_the_serial_rows(
        self, trace_file, tmp_path, capsys
    ):
        # Shedding is a rule of stream time: a journal takes it (SA303,
        # which refused the pair, is retired), a resume repeats it, and
        # a SPLIT after it sheds what the serial run sheds.
        journal = tmp_path / "run.journal"
        base = [
            "query", "--trace", trace_file, "--sql", self.GROUPED,
            "--shed-threshold", "5", "--limit", "100000",
        ]
        assert main(base) == 0
        serial = sorted(capsys.readouterr().out.splitlines())
        args = [*base, "--shards", "2", "--journal", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        assert capsys.readouterr().out == first
        assert sorted(first.splitlines()) == serial

    @pytest.mark.parametrize("flag", ["--supervise"])
    def test_workers_and_migration_need_shards(self, trace_file, capsys, flag):
        # --supervise alone used to run serial without a word.
        rc = main(["query", "--trace", trace_file, "--sql", self.GROUPED, flag])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"target '{flag[2:]}' needs shards=N" in captured.err
        assert main(["lint", "--target", flag[2:], "--sql", self.GROUPED]) == 2
        assert f"target '{flag[2:]}' needs shards=N" in capsys.readouterr().err

    def test_rebalancing_is_an_unknown_deployment(self, trace_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--trace", trace_file, "--shards", "2", "--rebalance",
                  "--sql", self.GROUPED])
        assert exit_info.value.code == 2 and capsys.readouterr().out == ""
        assert main(["lint", "--target", "shards=2,rebalance", "--sql", self.GROUPED]) == 2
        err = capsys.readouterr().err
        assert "unknown target item 'rebalance'" in err
        assert "expected shards=N, supervise, durable, serve, or shed=N" in err

    @pytest.mark.parametrize("extra", [[], ["--supervise"]], ids=["inline", "supervised"])
    def test_vectorize_reaches_the_shards(self, trace_file, capsys, extra):
        def run(sql, args):
            rc = main([
                "query", "--trace", trace_file, "--limit", "100000", "--sql", sql, *args,
            ])
            assert rc == 0
            captured = capsys.readouterr()
            return sorted(captured.out.splitlines()[1:]), captured.err

        serial, _ = run(self.GROUPED, [])
        rows, err = run(self.GROUPED, ["--shards", "2", "--vectorize", *extra])
        assert rows == serial and "vectorize fallback" not in err
        # A plan the columnar engine cannot run says so through the one
        # report line, whichever deployment ran it.
        sampled = self.GROUPED.replace("FROM TCP", "FROM TCP WHERE ssample(len, 10) = TRUE")
        for args in ([], ["--shards", "2", *extra]):
            _, err = run(sampled + " SUPERGROUP tb, srcIP", ["--vectorize", *args])
            assert "-- vectorize fallback cli: " in err

    @pytest.mark.parametrize("extra", [[], ["--supervise"]], ids=["inline", "supervised"])
    def test_profile_reaches_the_shards(self, trace_file, tmp_path, capsys, extra):
        out = tmp_path / "m.json"
        rc = main([
            "query", "--trace", trace_file, "--sql", self.GROUPED, "--shards", "2",
            "--profile", "--metrics-out", str(out), *extra,
        ])
        assert rc == 0 and "serial-only" not in capsys.readouterr().err
        series = [
            s for s in json.loads(out.read_text())["metrics"]
            if s["name"] == "operator_seconds"
        ]
        assert {s["labels"]["shard"] for s in series} == {"0", "1"}
        assert all(s["count"] > 0 for s in series)


class TestLint:
    CLEAN_SQL = "SELECT tb, sum(len) FROM TCP GROUP BY time/5 as tb"
    WARN_SQL = "SELECT srcIP FROM TCP GROUP BY srcIP"
    ERROR_SQL = "SELECT foo(len) FROM TCP"

    def test_sql_clean(self, capsys):
        assert main(["lint", "--sql", self.CLEAN_SQL]) == 0
        assert "ok" in capsys.readouterr().out

    def test_sql_warning_exits_zero(self, capsys):
        assert main(["lint", "--sql", self.WARN_SQL]) == 0
        captured = capsys.readouterr()
        assert "SA001" in captured.out
        assert "warning(s)" in captured.err

    def test_sql_error_exits_one(self, capsys):
        assert main(["lint", "--sql", self.ERROR_SQL]) == 1
        assert "SA021" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, capsys):
        assert main(["lint", "--strict", "--sql", self.WARN_SQL]) == 1

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "q.gsql"
        path.write_text(self.WARN_SQL + "\n")
        assert main(["lint", str(path)]) == 0
        assert str(path) in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["lint", "/nonexistent/q.gsql"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_no_input_exits_two(self, capsys):
        assert main(["lint"]) == 2

    def test_both_inputs_exits_two(self, tmp_path, capsys):
        path = tmp_path / "q.gsql"
        path.write_text(self.CLEAN_SQL)
        assert main(["lint", str(path), "--sql", self.CLEAN_SQL]) == 2

    def test_caret_rendering(self, capsys):
        main(["lint", "--sql", "SELECT len/0 FROM TCP"])
        out = capsys.readouterr().out
        assert "SA007" in out
        assert "^" in out

    def test_example_queries_are_clean(self, capsys):
        import glob
        import os

        files = sorted(glob.glob("examples/queries/*.gsql"))
        assert files, "example queries missing"
        for path in files:
            # Exit 0 for the whole corpus: the unsound_* counterexamples
            # only *warn* under the default (serial) target.
            assert main(["lint", path]) == 0, path
            out = capsys.readouterr().out
            if os.path.basename(path) == "unsound_biased_avg.gsql":
                # SA2xx counterexample: warns under the default target.
                assert "warning" in out, path
            else:
                # unsound_unshardable only errs under --target; it is
                # clean as a serial query, like every sound example.
                assert "ok" in out, path


class TestQueryLintIntegration:
    WARN_SQL = "SELECT srcIP, sum(len) FROM TCP GROUP BY srcIP"

    def test_warning_on_stderr_query_still_runs(self, trace_file, capsys):
        rc = main(["query", "--trace", trace_file, "--sql", self.WARN_SQL])
        assert rc == 0
        captured = capsys.readouterr()
        assert "SA001" in captured.err
        assert "rows" in captured.err  # the query actually ran

    def test_no_lint_suppresses(self, trace_file, capsys):
        rc = main(["query", "--no-lint", "--trace", trace_file,
                   "--sql", self.WARN_SQL])
        assert rc == 0
        assert "SA001" not in capsys.readouterr().err

    def test_strict_refuses_to_run(self, trace_file, capsys):
        rc = main(["query", "--strict", "--trace", trace_file,
                   "--sql", self.WARN_SQL])
        assert rc == 1
        captured = capsys.readouterr()
        assert "SA001" in captured.err
        assert "rows" not in captured.err  # never executed

    def test_pragma_satisfies_strict(self, trace_file, capsys):
        rc = main(["query", "--strict", "--trace", trace_file,
                   "--sql", "-- lint: disable=SA001\n" + self.WARN_SQL])
        assert rc == 0


class TestExplain:
    def test_explain_sampling_query(self, capsys):
        rc = main([
            "explain", "--sql",
            "SELECT tb, srcIP FROM TCP WHERE rsample(5) = TRUE"
            " GROUP BY time/5 as tb, srcIP, uts"
            " HAVING rsfinal_clean() = TRUE"
            " CLEANING WHEN rsdo_clean(count_distinct$()) = TRUE"
            " CLEANING BY rsclean_with() = TRUE",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Query kind : sampling" in out
        assert "reservoir_sampling_state" in out

    def test_explain_selection(self, capsys):
        rc = main(["explain", "--sql", "SELECT len FROM TCP WHERE len > 9"])
        assert rc == 0
        assert "selection" in capsys.readouterr().out


class TestInvalidQueries:
    """A text the front end refuses is a diagnostic and a non-zero exit
    from every command that takes one — never a traceback."""

    TOO_DEEP = (
        "SELECT time FROM TCP WHERE " + "(" * 150 + "len + 1" + ")" * 150 + " > 3"
    )
    TEXTS = {
        "lexer": "SELECT time FROM TCP WHERE len ? 3",
        "parser": "SELEC x",
        "analyzer": "SELECT nope FROM TCP",
        "too deep": TOO_DEEP,
    }

    @pytest.mark.parametrize("stage", sorted(TEXTS))
    @pytest.mark.parametrize("command", ["explain", "query", "query --no-lint"])
    def test_one_line_and_exit_one(self, command, stage, trace_file, capsys):
        argv = command.split() + ["--sql", self.TEXTS[stage]]
        if argv[0] == "query":
            argv += ["--trace", str(trace_file)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if command == "query":  # the linter reports it, with its caret
            assert " error: " in captured.err
        else:
            (line,) = captured.err.splitlines()
            assert line.startswith("invalid query: ")
        if stage == "too deep":
            assert "nests deeper than 64 levels" in captured.err

    def test_lint_reports_the_depth_as_a_diagnostic(self, capsys):
        assert main(["lint", "--sql", self.TOO_DEEP]) == 1
        assert "nests deeper than 64 levels" in capsys.readouterr().out


AGG_SQL = "SELECT tb, srcIP, sum(len) FROM TCP GROUP BY time/5 as tb, srcIP"
GSQL = "examples/queries/big_flows.gsql"


def refused(capsys, argv):
    """``argv`` exits 2 with one line on stderr; returns that line."""
    capsys.readouterr()
    assert main(argv) == 2
    lines = [
        line
        for line in capsys.readouterr().err.splitlines()
        if not line.startswith("--")  # progress notes
    ]
    assert len(lines) == 1, lines
    return lines[0]


class _Killed(Exception):
    pass


def die_at_commit(n):
    seen = []

    def hook(consumed, kind):
        seen.append(kind)
        if len(seen) == n:
            raise _Killed

    return hook


@pytest.fixture
def killed_query_journal(trace_file, tmp_path):
    """A `repro query --journal` run killed after its second commit."""
    from repro.dsms.durability import DurableRunner

    path = str(tmp_path / "query.journal")
    gs = deploy()
    gs.add_query(AGG_SQL, name="cli")
    runner = DurableRunner(gs, path, batch_size=64, on_commit=die_at_commit(2))
    with pytest.raises(_Killed):
        runner.run(iter(load_trace(trace_file)))
    return path


@pytest.fixture
def killed_serve_journal(trace_file, tmp_path):
    """A `repro serve --journal` run killed after its second commit."""
    from repro.dsms.durability import ResultJournal
    from repro.serving.server import drive

    path = str(tmp_path / "serve.journal")
    engine = deploy(
        ExecTarget(serve=True, durable=True),
        journal=ResultJournal(path, fresh=True),
        on_commit=die_at_commit(2),
    )
    with open(GSQL, encoding="utf-8") as fh:
        engine.register(fh.read(), name="big_flows")
    with pytest.raises(_Killed):
        drive(engine, load_trace(trace_file), batch_size=64)
    return path


def resume_argv(command, trace, journal):
    if command == "query":
        return ["query", "--trace", trace, "--sql", AGG_SQL,
                "--journal", journal, "--resume"]
    return ["serve", "--trace", trace, "--journal", journal, "--resume"]


class TestCadenceFlags:
    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_serve_refuses_a_batch_size_below_one(self, trace_file, capsys, size):
        # 0 used to read nothing and exit 0; -5 was a ValueError traceback.
        line = refused(
            capsys, ["serve", GSQL, "--trace", trace_file, "--batch-size", size]
        )
        assert "batch size must be >= 1" in line

    def test_serve_refuses_a_commit_interval_below_one(self, trace_file, capsys):
        line = refused(
            capsys, ["serve", GSQL, "--trace", trace_file, "--commit-interval", "0"]
        )
        assert "commit_interval must be >= 1" in line


def test_serve_charges_the_tenant_quota(trace_file, tmp_path, capsys):
    """`serve` built its instances with no cost model: nothing was ever
    spent, so --tenant-quota never shed."""
    out = tmp_path / "m.json"
    argv = ["serve", GSQL, "--trace", trace_file, "--tenant-quota", "default=0.001"]
    assert main([*argv, "--report", "--metrics-out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tenants"]["default"]["spent_cycles"] > 0
    metrics = json.loads(out.read_text())["metrics"]
    assert [s["value"] > 0 for s in metrics if s["name"] == "serving_quota_shed_total"] == [True]


def test_serve_resumes_a_killed_journal(trace_file, killed_serve_journal, capsys):
    """`serve --journal J --resume` resumes into the engine it built and
    prints the rows and the report of an uninterrupted serve."""
    flags = ["--trace", trace_file, "--batch-size", "64", "--limit", "100000", "--report"]
    assert main(["serve", GSQL, *flags]) == 0
    uninterrupted = capsys.readouterr()
    assert main(["serve", *flags, "--journal", killed_serve_journal, "--resume"]) == 0
    resumed = capsys.readouterr()
    assert resumed.out == uninterrupted.out
    report = json.loads(resumed.out[resumed.out.index("\n{") + 1 :])
    assert report["consumed"] == len(load_trace(trace_file))
    assert report["queries"][0]["rows"] > 0
    assert f"-- resumed 1 standing quer(y/ies) from {killed_serve_journal}" in resumed.err


@pytest.mark.parametrize("command", ["query", "serve"])
class TestResumeRefusals:
    """Every way --resume can be refused is one line and exit 2, the same
    from both commands (each was a traceback from at least one)."""

    def test_missing_journal(self, command, trace_file, tmp_path, capsys):
        journal = str(tmp_path / "never-written.journal")
        line = refused(capsys, resume_argv(command, trace_file, journal))
        assert "does not exist" in line

    def test_not_a_journal(self, command, trace_file, tmp_path, capsys):
        journal = tmp_path / "garbage.journal"
        journal.write_bytes(b"NOTAJRNL" + b"\x00" * 16)
        line = refused(capsys, resume_argv(command, trace_file, str(journal)))
        assert "bad magic" in line

    def test_the_other_commands_journal(
        self, command, trace_file, capsys, killed_query_journal, killed_serve_journal
    ):
        journal = killed_serve_journal if command == "query" else killed_query_journal
        line = refused(capsys, resume_argv(command, trace_file, journal))
        assert "'serial'" in line and "'serving'" in line

    def test_unsupported_entry_version(self, command, trace_file, tmp_path, capsys):
        from repro.dsms.durability import ResultJournal

        journal = str(tmp_path / "future.journal")
        mode = "serial" if command == "query" else "serving"
        with ResultJournal(journal, fresh=True) as writer:
            writer.append(
                {"journal_version": 99, "kind": "commit", "mode": mode, "consumed": 0}
            )
        line = refused(capsys, resume_argv(command, trace_file, journal))
        assert "version 99" in line

    def test_unsupported_checkpoint_version(
        self, command, trace_file, capsys, killed_query_journal, killed_serve_journal
    ):
        # The stamp every commit carries used to be written and never read.
        from repro.dsms.durability import ResultJournal

        journal = killed_query_journal if command == "query" else killed_serve_journal
        entries = ResultJournal.read(journal)
        assert any("checkpoint_version" in entry for entry in entries)
        with ResultJournal(journal, fresh=True) as writer:
            for entry in entries:
                if "checkpoint_version" in entry:
                    entry["checkpoint_version"] = 99
                writer.append(entry)
        line = refused(capsys, resume_argv(command, trace_file, journal))
        assert "checkpoint version 99" in line

    def test_input_shorter_than_the_committed_prefix(
        self, command, tmp_path, capsys, killed_query_journal, killed_serve_journal
    ):
        short = str(tmp_path / "short.bin")
        assert main(["generate", "--seconds", "2", "--rate-scale", "0.0005",
                     "--seed", "7", "--out", short]) == 0
        journal = killed_query_journal if command == "query" else killed_serve_journal
        line = refused(capsys, resume_argv(command, short, journal))
        assert "shorter than the committed prefix" in line

    def test_a_different_registered_query_set(
        self, command, trace_file, capsys, killed_query_journal, killed_serve_journal
    ):
        if command == "query":
            # The journalled aggregate has a low-level feeder node; a
            # selection does not.
            argv = resume_argv(command, trace_file, killed_query_journal)
            argv[argv.index(AGG_SQL)] = "SELECT len FROM TCP"
        else:
            # A commit naming a query no registry event introduced.
            from repro.dsms.durability import ResultJournal

            entries = ResultJournal.read(killed_serve_journal)
            with ResultJournal(killed_serve_journal, fresh=True) as writer:
                for entry in entries:
                    if entry["kind"] != "register":
                        writer.append(entry)
            argv = resume_argv(command, trace_file, killed_serve_journal)
        line = refused(capsys, argv)
        assert "does not match" in line
