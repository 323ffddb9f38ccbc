"""CLI tests (argument handling, commands, errors)."""

from __future__ import annotations

import pytest

from repro.cli import main

DOC = "<site><person id='p0'><name>Ada</name></person></site>"


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC, encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_generate_by_factor(self, tmp_path, capsys):
        out = tmp_path / "auction.xml"
        assert main(["generate", "--factor", "0.001", "-o", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_by_megabytes(self, tmp_path):
        out = tmp_path / "auction.xml"
        assert main(["generate", "--megabytes", "0.1", "-o", str(out)]) == 0
        assert "<site>" in out.read_text()

    def test_generate_deterministic(self, tmp_path):
        first = tmp_path / "a.xml"
        second = tmp_path / "b.xml"
        main(["generate", "--factor", "0.001", "--seed", "7", "-o", str(first)])
        main(["generate", "--factor", "0.001", "--seed", "7", "-o", str(second)])
        assert first.read_text() == second.read_text()


class TestIndexAndStats:
    def test_index_round_trip(self, xml_file, tmp_path, capsys):
        store_path = tmp_path / "doc.mass"
        assert main(["index", xml_file, "-o", str(store_path)]) == 0
        assert store_path.exists()
        assert main(["stats", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "nodes" in output and "index heights" in output

    def test_stats_on_raw_xml(self, xml_file, capsys):
        assert main(["stats", xml_file]) == 0
        assert "elements" in capsys.readouterr().out


class TestQuery:
    def test_query_xml_file(self, xml_file, capsys):
        assert main(["query", xml_file, "//person/name"]) == 0
        assert "<name>" in capsys.readouterr().out

    def test_query_saved_store(self, xml_file, tmp_path, capsys):
        store_path = tmp_path / "doc.mass"
        main(["index", xml_file, "-o", str(store_path)])
        assert main(["query", str(store_path), "//name"]) == 0
        assert "<name>" in capsys.readouterr().out

    def test_query_xml_output(self, xml_file, capsys):
        assert main(["query", xml_file, "//person", "--xml"]) == 0
        assert "<person id=\"p0\"><name>Ada</name></person>" in capsys.readouterr().out

    def test_query_explain(self, xml_file, capsys):
        assert main(["query", xml_file, "//person/name", "--explain"]) == 0
        output = capsys.readouterr().out
        assert "R_1" in output and "COUNT=" in output

    def test_query_no_optimize(self, xml_file, capsys):
        assert main(["query", xml_file, "//person/name", "--no-optimize"]) == 0

    def test_query_limit(self, xml_file, capsys):
        assert main(["query", xml_file, "//*", "--limit", "1"]) == 0
        assert "more)" in capsys.readouterr().out

    def test_query_limit_fetches_only_what_it_prints(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        xml_file = tmp_path / "wide.xml"
        rows = "".join(f"<row><cell>c{index}</cell></row>" for index in range(400))
        xml_file.write_text(f"<table>{rows}</table>", encoding="utf-8")
        stores = []
        load_any = cli._load_any

        def capturing(path):
            stores.append(load_any(path))
            return stores[-1]

        monkeypatch.setattr(cli, "_load_any", capturing)
        assert main(["query", str(xml_file), "//node()//text()", "--limit", "5"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 6 and printed[-1].startswith("... (")
        # //node()//text() is one fused scan: it fetches the context record,
        # and the only other fetches are the five printed labels.
        assert stores[0].metrics.record_fetches <= 1 + 5

    def test_bad_xpath_fails_cleanly(self, xml_file, capsys):
        assert main(["query", xml_file, "//person["]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["query", "/nonexistent.xml", "//a"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_store_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.mass"
        bad.write_bytes(b"MASSgarbage-corrupt-file-....")
        assert main(["query", str(bad), "//a"]) == 1


class TestCheck:
    def test_check_satisfiable_query(self, capsys):
        assert main(["check", "//person/address"]) == 0
        output = capsys.readouterr().out
        assert "invariants: ok" in output
        assert "satisfiable" in output

    def test_check_unsatisfiable_query_exits_three(self, capsys):
        assert main(["check", "//nosuchtag"]) == 3
        output = capsys.readouterr().out
        assert "invariants: ok" in output
        assert "statically empty" in output

    def test_check_prints_operator_properties(self, capsys):
        assert main(["check", "//person/address"]) == 0
        output = capsys.readouterr().out
        assert "order=" in output and "distinct" in output

    def test_check_against_document_uses_its_schema(self, tmp_path, capsys):
        # A non-XMark vocabulary forces the names-only fallback: known
        # names pass in any structure, unknown names are still pruned.
        path = tmp_path / "library.xml"
        path.write_text("<library><book><title>SICP</title></book></library>",
                        encoding="utf-8")
        assert main(["check", "/library/book", "--input", str(path)]) == 0
        assert main(["check", "//nosuchtag", "--input", str(path)]) == 3

    def test_check_bad_xpath_fails_cleanly(self, capsys):
        assert main(["check", "//person["]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestVerifyRulesCommand:
    def _fake_report(self, ok):
        from repro.analysis.tv.runner import ObligationFailure, VerifyReport

        report = VerifyReport(mode="quick", documents=3, obligations=2, checked=6)
        if not ok:
            report.failures.append(
                ObligationFailure(
                    rule="broken-pushdown",
                    expression="//people/person[1]",
                    site="step",
                    document="<site/>",
                    discrepancies=("pre vs post: 1 vs 0 keys",),
                )
            )
        return report

    def test_clean_run_exits_zero(self, capsys, monkeypatch):
        import repro.analysis.tv.runner as runner

        monkeypatch.setattr(
            runner, "verify_rules", lambda **kwargs: self._fake_report(True)
        )
        assert main(["verify-rules", "--quick"]) == 0
        assert "2 obligations" in capsys.readouterr().out

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        import repro.analysis.tv.runner as runner

        monkeypatch.setattr(
            runner, "verify_rules", lambda **kwargs: self._fake_report(False)
        )
        assert main(["verify-rules"]) == 1
        assert "FAIL broken-pushdown" in capsys.readouterr().out

    def test_quick_and_exhaustive_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-rules", "--quick", "--exhaustive"])

    def test_flags_reach_the_runner(self, monkeypatch):
        import repro.analysis.tv.runner as runner

        seen = {}

        def spy(**kwargs):
            seen.update(kwargs)
            return self._fake_report(True)

        monkeypatch.setattr(runner, "verify_rules", spy)
        assert main(["verify-rules", "--exhaustive", "--seed", "3",
                     "--no-shrink"]) == 0
        assert seen == {"quick": False, "seed": 3, "shrink": False}


class TestModelCheckCommand:
    def test_quick_without_conformance_exits_zero(self, capsys):
        # Exploration + mutation kills run for real; only the chaos
        # harvest (real worker processes) is skipped for speed.
        assert main(["model-check", "--quick", "--no-conformance"]) == 0
        out = capsys.readouterr().out
        assert "model-check (quick):" in out
        assert "shard/faultless" in out
        assert "drop-credit-refill: killed" in out
        assert "OK" in out

    def test_json_report_written(self, tmp_path, capsys):
        import json

        sink = tmp_path / "report.json"
        assert main(["model-check", "--quick", "--no-conformance",
                     "-o", str(sink)]) == 0
        report = json.loads(sink.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert report["mode"] == "quick"
        assert len(report["mutation_kills"]) == 3

    def test_violations_exit_nonzero(self, capsys, monkeypatch):
        import repro.analysis.statespace.runner as runner

        monkeypatch.setattr(
            runner,
            "run_model_check",
            lambda **kwargs: {
                "mode": "quick",
                "explorations": [],
                "mutation_kills": [],
                "ok": False,
                "elapsed_s": 0.0,
            },
        )
        assert main(["model-check", "--quick", "--no-conformance"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_quick_and_exhaustive_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["model-check", "--quick", "--exhaustive"])
