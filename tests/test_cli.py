"""CLI tests: every subcommand end to end (benchmark at tiny scale)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def watdiv_file(tmp_path):
    path = tmp_path / "data.nt"
    assert main(["generate", "--scale", "30", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_parseable_ntriples(self, watdiv_file):
        from repro.rdf import Graph

        graph = Graph.from_file(watdiv_file)
        assert len(graph) > 500

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.nt"
        b = tmp_path / "b.nt"
        main(["generate", "--scale", "30", "--seed", "3", "--out", str(a)])
        main(["generate", "--scale", "30", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestQuery:
    def test_query_prints_rows(self, watdiv_file, capsys):
        code = main(
            [
                "query",
                "--data", str(watdiv_file),
                "--query",
                "SELECT ?s ?o WHERE { ?s wsdbm:likes ?o } LIMIT 3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("?s\t?o")
        assert "wsdbm/User" in out

    def test_query_from_file(self, watdiv_file, tmp_path, capsys):
        query_file = tmp_path / "q.rq"
        query_file.write_text("SELECT ?s WHERE { ?s wsdbm:likes ?o } LIMIT 1")
        assert main(
            ["query", "--data", str(watdiv_file), "--query-file", str(query_file)]
        ) == 0
        assert "?s" in capsys.readouterr().out

    def test_explain_mode(self, watdiv_file, capsys):
        main(
            [
                "query", "--data", str(watdiv_file), "--explain",
                "--query",
                "SELECT ?s WHERE { ?s wsdbm:likes ?o . ?s wsdbm:follows ?f }",
            ]
        )
        out = capsys.readouterr().out
        assert "Join Tree" in out and "Engine Plan" in out

    def test_vp_strategy_flag(self, watdiv_file, capsys):
        main(
            [
                "query", "--data", str(watdiv_file), "--strategy", "vp", "--explain",
                "--query", "SELECT ?s WHERE { ?s wsdbm:likes ?o . ?s wsdbm:follows ?f }",
            ]
        )
        assert "PT" not in capsys.readouterr().out.split("Engine Plan")[0]

    def test_missing_query_is_an_error(self, watdiv_file):
        assert main(["query", "--data", str(watdiv_file)]) == 2


class TestErrors:
    """A typed ``ReproError`` ends in one ``error:`` line and exit 1, never
    a traceback."""

    QUERY = "SELECT ?s WHERE { ?s ?p ?o }"

    def _fails_cleanly(self, argv, capsys, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if line.startswith("error: ")]
        assert message in line
        assert "Traceback" not in err

    def test_malformed_data_file(self, tmp_path, capsys):
        data = tmp_path / "bad.nt"
        data.write_text("_:a <p> _:b.\n")
        self._fails_cleanly(
            ["query", "--data", str(data), "--query", self.QUERY],
            capsys,
            "line 1",
        )

    def test_malformed_query(self, watdiv_file, capsys):
        self._fails_cleanly(
            ["query", "--data", str(watdiv_file), "--query", "SELEC"],
            capsys,
            "SELEC",
        )

    def test_invalid_worker_count(self, watdiv_file, capsys):
        self._fails_cleanly(
            ["query", "--data", str(watdiv_file), "--workers", "0",
             "--query", self.QUERY],
            capsys,
            "num_workers",
        )


class TestQueries:
    def test_prints_all_twenty(self, capsys):
        main(["queries", "--scale", "30"])
        out = capsys.readouterr().out
        for name in ("C1", "F5", "L3", "S7"):
            assert f"-- {name} " in out

    def test_name_filter(self, capsys):
        main(["queries", "--scale", "30", "--name", "L4"])
        out = capsys.readouterr().out
        assert "-- L4 " in out
        assert "-- C1 " not in out


class TestBenchmark:
    def test_single_experiment(self, capsys):
        assert main(["benchmark", "--scale", "30", "--experiment", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Table 1" not in out

    def test_table1_experiment(self, capsys):
        assert main(["benchmark", "--scale", "30", "--experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out


    def test_chart_flag_renders_bars(self, capsys):
        assert main(["benchmark", "--scale", "30", "--experiment", "figure3", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "log-scale bars" in out and "█" in out


class TestFuzz:
    def test_clean_seeds_exit_zero(self, capsys):
        assert main(["fuzz", "--seed", "0", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 20 cases over 2 seed(s) [0..1]: OK" in out

    def test_system_filter_and_verbose(self, capsys):
        code = main(
            [
                "fuzz", "--seed", "3", "--iterations", "1", "--verbose",
                "--system", "prost-mixed", "--system", "rya",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "# seed 3: ok" in captured.err
        assert "OK" in captured.out

    def test_zero_iterations_reports_empty_run(self, capsys):
        assert main(["fuzz", "--iterations", "0"]) == 0
        assert "0 cases over 0 seed(s): OK" in capsys.readouterr().out

    def test_unknown_system_rejected(self, capsys):
        assert main(["fuzz", "--iterations", "1", "--system", "virtuoso"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_chaos_flag_injects_and_reports_recovery(self, capsys):
        assert main(["fuzz", "--seed", "0", "--iterations", "2", "--chaos"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "chaos: task_retries=" in out

    def test_chaos_seed_implies_chaos(self, capsys):
        assert (
            main(["fuzz", "--seed", "0", "--iterations", "1", "--chaos-seed", "5"])
            == 0
        )
        assert "chaos:" in capsys.readouterr().out

    def test_chaos_runs_are_seed_deterministic(self, capsys):
        assert main(["fuzz", "--seed", "2", "--iterations", "1", "--chaos-seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "2", "--iterations", "1", "--chaos-seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_no_chaos_means_no_chaos_line(self, capsys):
        assert main(["fuzz", "--seed", "0", "--iterations", "1"]) == 0
        assert "chaos:" not in capsys.readouterr().out


class TestExplain:
    QUERY = "SELECT ?s ?f WHERE { ?s wsdbm:likes ?o . ?s wsdbm:follows ?f }"

    def test_explain_renders_join_tree_and_engine_plan(self, watdiv_file, capsys):
        code = main(
            ["explain", "--data", str(watdiv_file), "--query", self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Join Tree" in out and "Engine Plan" in out
        assert "est=" in out
        assert "act=" not in out  # estimates only without --analyze

    def test_analyze_annotates_actuals(self, watdiv_file, capsys):
        code = main(
            ["explain", "--data", str(watdiv_file), "--analyze",
             "--query", self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "act=" in out
        assert "rows=" in out.split("Engine Plan")[1]

    def test_analyze_trace_out_writes_json(self, watdiv_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(
            ["explain", "--data", str(watdiv_file), "--analyze",
             "--trace-out", str(trace_path), "--query", self.QUERY]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["spans"][0]["name"] == "query"

    def test_trace_out_requires_analyze(self, watdiv_file, tmp_path, capsys):
        code = main(
            ["explain", "--data", str(watdiv_file),
             "--trace-out", str(tmp_path / "t.json"), "--query", self.QUERY]
        )
        assert code == 2
        assert "requires --analyze" in capsys.readouterr().err

    def test_baseline_systems_have_plan_shapes(self, watdiv_file, capsys):
        expectations = {
            "s2rdf": "Table Choices",
            "sparqlgx": "Engine Plan",
            "rya": "Index Plan",
        }
        for system, marker in expectations.items():
            assert main(
                ["explain", "--data", str(watdiv_file), "--system", system,
                 "--query", self.QUERY]
            ) == 0
            assert marker in capsys.readouterr().out

    def test_missing_query_is_an_error(self, watdiv_file, capsys):
        assert main(["explain", "--data", str(watdiv_file)]) == 2
        assert "provide --query" in capsys.readouterr().err


class TestMetrics:
    def test_plain_listing_groups_by_layer(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for layer in ("[engine]", "[faults]", "[serve]", "[cost]"):
            assert layer in out
        assert "engine.bytes_scanned" in out

    def test_markdown_matches_registry(self, capsys):
        from repro.obs import REGISTRY

        assert main(["metrics", "--markdown"]) == 0
        assert capsys.readouterr().out == REGISTRY.markdown()


class TestConfig:
    def test_plain_listing_covers_knobs_and_flags(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "[ClusterConfig]" in out
        assert "num_workers" in out
        assert "flag --memory-budget" in out

    def test_markdown_matches_generator(self, capsys):
        from repro.obs import configdoc

        assert main(["config", "--markdown"]) == 0
        assert capsys.readouterr().out == configdoc.markdown()


class TestServe:
    def test_scripted_session(self, watdiv_file, tmp_path, capsys):
        script = tmp_path / "session.txt"
        script.write_text(
            "SELECT ?s WHERE { ?s wsdbm:likes ?o } LIMIT 2\n"
            "SELECT ?s WHERE { ?s wsdbm:likes ?o } LIMIT 2\n"
            ".stats\n"
            ".tenants\n"
            ".quit\n"
        )
        code = main(
            ["serve", "--data", str(watdiv_file), "--script", str(script)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "?s" in out
        stats = {
            parts[0]: parts[1]
            for parts in (line.split() for line in out.splitlines())
            if len(parts) >= 2 and parts[0].startswith("serve.")
        }
        assert stats["serve.queries_served"] == "2"
        assert stats["serve.result_cache_hits"] == "1"
        assert "default" in out  # tenant snapshot line

    def test_explain_command_annotates_cached_plan(self, watdiv_file, tmp_path, capsys):
        query = "SELECT ?s WHERE { ?s wsdbm:likes ?o }"
        script = tmp_path / "session.txt"
        script.write_text(f"{query}\n.explain {query}\n.quit\n")
        assert main(
            ["serve", "--data", str(watdiv_file), "--script", str(script)]
        ) == 0
        assert "[cached plan]" in capsys.readouterr().out

    def test_bad_query_reports_error_and_continues(self, watdiv_file, tmp_path, capsys):
        script = tmp_path / "session.txt"
        script.write_text(
            "THIS IS NOT SPARQL\n"
            "SELECT ?s WHERE { ?s wsdbm:likes ?o } LIMIT 1\n"
        )
        assert main(
            ["serve", "--data", str(watdiv_file), "--script", str(script)]
        ) == 0
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "?s" in captured.out  # the session survived the bad query


class TestQueryTraceOut:
    def test_query_trace_out_writes_span_tree(self, watdiv_file, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(
            ["query", "--data", str(watdiv_file),
             "--trace-out", str(trace_path),
             "--query", "SELECT ?s WHERE { ?s wsdbm:likes ?o } LIMIT 2"]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        names = [s["name"] for s in payload["spans"]]
        assert "query" in names


class TestFuzzTraceOut:
    def test_clean_run_writes_no_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "divergences.json"
        code = main(
            ["fuzz", "--seed", "0", "--iterations", "1",
             "--system", "prost-mixed", "--trace-out", str(trace_path)]
        )
        assert code == 0
        assert not trace_path.exists()
        assert "no divergences" in capsys.readouterr().err


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCheck:
    """`prost-repro check`: the static plan verifier at the CLI surface."""

    STAR = "SELECT ?s WHERE { ?s wsdbm:likes ?o . ?s wsdbm:follows ?f }"

    @pytest.mark.parametrize(
        "flags",
        [[], ["--strategy", "vp"], ["--system", "s2rdf"]],
        ids=["prost-mixed", "prost-vp", "s2rdf"],
    )
    def test_watdiv_sweep_verifies_clean(self, flags, capsys):
        assert main(["check", "--watdiv-sweep", "--scale", "40", *flags]) == 0
        captured = capsys.readouterr()
        assert "# 20 queries verified clean" in captured.err
        assert captured.out.count(": ok ==") == 20
        assert "REJECTED" not in captured.out

    def test_single_query_on_a_data_file(self, watdiv_file, capsys):
        code = main(
            ["check", "--data", str(watdiv_file), "--query", self.STAR, "--verbose"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "== query: ok ==" in captured.out
        assert "# 1 query verified clean" in captured.err

    def test_usage_errors(self, watdiv_file, capsys):
        assert main(["check", "--data", str(watdiv_file)]) == 2
        assert "--query" in capsys.readouterr().err
        assert main(["check", "--query", self.STAR]) == 2
        assert "--data" in capsys.readouterr().err

    def test_rejected_plan_exits_one_with_diagnostics(
        self, watdiv_file, capsys, monkeypatch
    ):
        from repro.core.translator import JoinTreeTranslator

        translate = JoinTreeTranslator.translate_bgp

        def tampered(self, patterns):
            tree = translate(self, patterns)
            tree.nodes[-1].priority += 12345.0  # stale/tampered priority
            return tree

        monkeypatch.setattr(JoinTreeTranslator, "translate_bgp", tampered)
        code = main(
            [
                "check", "--data", str(watdiv_file), "--strategy", "vp",
                "--query", self.STAR,
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "== query: REJECTED ==" in captured.out
        assert "PV105" in captured.out
        assert "!!" in captured.out  # the offending node is marked in the tree
        assert "# 1/1 query rejected" in captured.err


class TestLint:
    def test_shipped_tree_is_clean_text(self, capsys):
        assert main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_json_output_on_clean_tree_is_empty_array(self, capsys):
        import json

        assert main(["lint", "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == []
        assert out.endswith("\n")

    @pytest.fixture
    def broken_root(self, tmp_path):
        """A minimal package with exactly one (concurrency) violation."""
        package = tmp_path / "repro"
        (package / "serve").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "errors.py").write_text("class ReproError(Exception):\n    pass\n")
        (package / "serve" / "__init__.py").write_text("")
        (package / "serve" / "bad.py").write_text(
            "import threading\n"
            "\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0  # guarded-by: _lock\n"
            "\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        return package

    def test_json_output_is_machine_readable(self, broken_root, capsys):
        import json

        assert main(["lint", "--json", "--root", str(broken_root)]) == 1
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload
        assert finding["path"] == "serve/bad.py"
        assert finding["line"] == 9
        assert finding["rule"] == "concurrency"
        assert finding["code"] == "CC101"
        assert "Counter.bump" in finding["message"]

    def test_text_report_carries_the_code(self, broken_root, capsys):
        assert main(["lint", "--root", str(broken_root)]) == 1
        out = capsys.readouterr().out
        assert "CC101" in out
        assert "lint: 1 violation(s)" in out
