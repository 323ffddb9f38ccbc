"""The repo-invariant linter: clean on the shipped tree, sharp on fixtures."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths, main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def _lint_source(tmp_path: Path, source: str, name: str = "module.py"):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(str(target))


def _rules(violations) -> list[str]:
    return [violation.rule for violation in violations]


class TestShippedTreeIsClean:
    def test_src_repro_has_no_violations(self):
        violations = lint_paths([str(SRC_REPRO)])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_module_entry_point_exits_zero(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(SRC_REPRO)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "RuntimeWarning" not in completed.stderr


class TestGuardCheckpoint:
    def test_next_block_missing_checkpoint_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ScanOperator:
                def next_block(self, max_n):
                    return self.source[:max_n]
            """,
        )
        assert _rules(violations) == ["VAM001"]
        assert "next_block" in violations[0].message
        assert "never calls" in violations[0].message

    def test_next_block_emit_before_checkpoint_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ScanOperator:
                def next_block(self, max_n):
                    if self.buffered:
                        return self.buffered[:max_n]
                    self.guard.checkpoint()
                    return self.advance(max_n)
            """,
        )
        assert _rules(violations) == ["VAM001"]
        assert "next_block" in violations[0].message
        assert "before its first guard.checkpoint()" in violations[0].message

    def test_next_block_checkpoint_first_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ScanOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return self.advance(max_n)
            """,
        )
        assert violations == []

    def test_next_block_raise_only_base_is_exempt(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class PlanOperator:
                def next_block(self, max_n):
                    raise NotImplementedError
            """,
        )
        assert violations == []


class TestScanCadence:
    """VAM001 (cont.): yield-ing *scan methods inside operator classes."""

    def test_scan_generator_without_checkpoint_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class FusedOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return list(self._scan())

                def _scan(self):
                    for record in self.records:
                        yield record.key
            """,
        )
        assert _rules(violations) == ["VAM001"]
        assert "never calls guard.checkpoint()" in violations[0].message

    def test_unbounded_cadence_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class FusedOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return list(self._scan())

                def _scan(self):
                    self.guard.checkpoint()
                    for record in self.records:
                        yield record.key
            """,
        )
        assert _rules(violations) == ["VAM001"]
        assert "bounded checkpoint cadence" in violations[0].message

    def test_literal_cadence_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class FusedOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return list(self._scan())

                def _scan(self):
                    since = 0
                    for record in self.records:
                        since += 1
                        if since >= 64:
                            self.guard.checkpoint()
                            since = 0
                        yield record.key
            """,
        )
        assert violations == []

    def test_module_constant_cadence_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            _CHECKPOINT_EVERY = 64

            class FusedOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return list(self._scan())

                def _scan(self):
                    since = 0
                    for record in self.records:
                        since += 1
                        if since >= _CHECKPOINT_EVERY:
                            self.guard.checkpoint()
                            since = 0
                        yield record.key
            """,
        )
        assert violations == []

    def test_cadence_above_limit_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class FusedOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return list(self._scan())

                def _scan(self):
                    since = 0
                    for record in self.records:
                        since += 1
                        if since >= 4096:
                            self.guard.checkpoint()
                            since = 0
                        yield record.key
            """,
        )
        assert _rules(violations) == ["VAM001"]
        assert "bounded checkpoint cadence" in violations[0].message

    def test_non_generator_scan_methods_are_ignored(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class FusedOperator:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    return self.scan_count()

                def scan_count(self):
                    return len(self.records)
            """,
        )
        assert violations == []

    def test_scan_generators_outside_operators_are_ignored(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class Corpus:
                def scan_documents(self):
                    for doc in self.docs:
                        yield doc
            """,
        )
        assert violations == []


class TestExceptionSwallowing:
    def test_blind_except_exception_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def sandbox(rule):
                try:
                    rule.apply()
                except Exception:
                    pass
            """,
        )
        assert _rules(violations) == ["VAM002"]
        assert "swallows query-guard errors" in violations[0].message

    def test_preceding_guard_reraise_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def sandbox(rule):
                try:
                    rule.apply()
                except (KeyboardInterrupt, QueryTimeoutError,
                        BudgetExceededError, QueryCancelledError):
                    raise
                except Exception:
                    pass
            """,
        )
        assert violations == []

    def test_base_class_reraise_counts_as_coverage(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def sandbox(rule):
                try:
                    rule.apply()
                except ExecutionError:
                    raise
                except Exception:
                    pass
            """,
        )
        assert violations == []

    def test_partial_guard_reraise_is_still_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def sandbox(rule):
                try:
                    rule.apply()
                except QueryTimeoutError:
                    raise
                except Exception:
                    pass
            """,
        )
        assert _rules(violations) == ["VAM002"]

    def test_bare_except_must_also_spare_keyboard_interrupt(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def sandbox(rule):
                try:
                    rule.apply()
                except (QueryTimeoutError, BudgetExceededError,
                        QueryCancelledError):
                    raise
                except:
                    pass
            """,
        )
        assert _rules(violations) == ["VAM002"]
        assert "KeyboardInterrupt" in violations[0].message

    def test_bare_raise_inside_handler_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def sandbox(rule):
                try:
                    rule.apply()
                except Exception:
                    log()
                    raise
            """,
        )
        assert violations == []

    def test_narrow_handlers_are_ignored(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def parse(text):
                try:
                    return int(text)
                except ValueError:
                    return None
            """,
        )
        assert violations == []


class TestPersistenceDecode:
    # VAM003 keys on the path suffix, so fixtures live at mass/persistence.py.
    PATH = "mass/persistence.py"

    def test_uncovered_unpack_in_public_function_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import struct

            def open_store(raw):
                (count,) = struct.unpack_from("<I", raw, 0)
                return count
            """,
            self.PATH,
        )
        assert _rules(violations) == ["VAM003"]
        assert "struct.error" in violations[0].message

    def test_converted_unpack_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import struct

            class StorageError(Exception):
                pass

            def open_store(raw):
                try:
                    (count,) = struct.unpack_from("<I", raw, 0)
                except struct.error as error:
                    raise StorageError(str(error)) from error
                return count
            """,
            self.PATH,
        )
        assert violations == []

    def test_module_error_tuple_counts_as_coverage(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import struct

            _DECODE_ERRORS = (struct.error, ValueError)

            def open_store(raw):
                try:
                    (count,) = struct.unpack_from("<I", raw, 0)
                except _DECODE_ERRORS as error:
                    raise RuntimeError(str(error)) from error
                return count
            """,
            self.PATH,
        )
        assert violations == []

    def test_leak_through_private_helper_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import struct

            def _read_header(raw):
                return struct.unpack_from("<I", raw, 0)

            def open_store(raw):
                return _read_header(raw)
            """,
            self.PATH,
        )
        assert _rules(violations) == ["VAM003"]
        assert "via a helper" in violations[0].message

    def test_helper_leak_converted_at_call_site_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import struct

            def _read_header(raw):
                return struct.unpack_from("<I", raw, 0)

            def open_store(raw):
                try:
                    return _read_header(raw)
                except struct.error as error:
                    raise RuntimeError(str(error)) from error
            """,
            self.PATH,
        )
        assert violations == []

    def test_rule_only_applies_to_persistence_module(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import struct

            def open_store(raw):
                return struct.unpack_from("<I", raw, 0)
            """,
            "mass/other.py",
        )
        assert violations == []


class TestWallClock:
    def test_clock_call_in_operator_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import time

            class ScanOperator:
                def advance(self):
                    self.started = time.monotonic()
            """,
        )
        assert _rules(violations) == ["VAM004"]
        assert "time.monotonic" in violations[0].message

    def test_clock_call_in_block_operator_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import time

            class BatchedScan:
                def next_block(self, max_n):
                    self.guard.checkpoint()
                    self.started = time.perf_counter()
                    return []
            """,
        )
        assert _rules(violations) == ["VAM004"]
        assert "time.perf_counter" in violations[0].message

    def test_clock_as_default_argument_is_fine(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import time

            class ScanOperator:
                def __init__(self, clock=time.monotonic):
                    self.clock = clock
            """,
        )
        assert violations == []

    def test_non_operator_classes_may_use_clocks(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            import time

            class Stopwatch:
                def start(self):
                    self.at = time.perf_counter()
            """,
        )
        assert violations == []


class TestDriver:
    def test_main_returns_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 0

    def test_main_returns_one_and_prints_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class ScanOperator:\n"
            "    def next_block(self, max_n):\n"
            "        return [1]\n",
            encoding="utf-8",
        )
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "VAM001" in out.out

    def test_main_returns_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_syntax_errors_become_vam000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n", encoding="utf-8")
        violations = lint_file(str(broken))
        assert _rules(violations) == ["VAM000"]

    def test_module_entry_point_flags_seeded_violation(self, tmp_path):
        bad = tmp_path / "mass"
        bad.mkdir()
        (bad / "persistence.py").write_text(
            "import struct\n\n"
            "def open_store(raw):\n"
            "    return struct.unpack_from('<I', raw, 0)\n",
            encoding="utf-8",
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 1
        assert "VAM003" in completed.stdout


class TestRuleHygiene:
    """VAM005: paper_ref on rule classes, gated apply() call sites."""

    def test_rule_without_paper_ref_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ShinyNewRule(RewriteRule):
                name = "shiny-new"

                def matches(self, plan, node):
                    return True
            """,
            name="optimizer/rules/shiny.py",
        )
        assert _rules(violations) == ["VAM005"]
        assert "paper_ref" in violations[0].message

    def test_empty_paper_ref_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ShinyNewRule(RewriteRule):
                paper_ref = "   "
            """,
            name="optimizer/rules/shiny.py",
        )
        assert _rules(violations) == ["VAM005"]

    def test_declared_paper_ref_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ShinyNewRule(RewriteRule):
                paper_ref = "Figure 11"
            """,
            name="optimizer/rules/shiny.py",
        )
        assert violations == []

    def test_abstract_base_is_exempt(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class RewriteRule:
                name = "rule"
            """,
            name="optimizer/rules/base.py",
        )
        assert violations == []

    def test_non_rule_classes_are_ignored(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class Helper:
                pass
            """,
            name="optimizer/rules/helpers.py",
        )
        assert violations == []

    def test_ungated_apply_outside_rules_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def improve(plan, rule, node):
                candidate = plan.clone()
                rule.apply(candidate, node)
                return candidate
            """,
            name="optimizer/optimizer.py",
        )
        assert _rules(violations) == ["VAM005"]
        assert "check_rewrite" in violations[0].message

    def test_gated_apply_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def improve(plan, rule, node, verifier):
                candidate = plan.clone()
                rule.apply(candidate, node)
                verifier.check_rewrite(plan, candidate, rule.name)
                return candidate
            """,
            name="optimizer/optimizer.py",
        )
        assert violations == []

    def test_apply_inside_rules_package_is_not_gated(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            class ComposedRule(RewriteRule):
                paper_ref = "Section VI"

                def apply(self, plan, node):
                    self.inner_rule.apply(plan, node)
            """,
            name="optimizer/rules/composed.py",
        )
        assert violations == []

    def test_unrelated_apply_receivers_are_ignored(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def fold(plan, patch):
                patch.apply(plan)
            """,
            name="optimizer/optimizer.py",
        )
        assert violations == []


class TestSnapshotRelease:
    """VAM006: every snapshot acquire in the serving package is released."""

    NAME = "serving/handlers.py"

    def test_with_statement_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager):
                with manager.acquire() as snapshot:
                    return snapshot.epoch
            """,
            name=self.NAME,
        )
        assert violations == []

    def test_try_finally_release_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager):
                snapshot = manager.acquire()
                try:
                    return snapshot.epoch
                finally:
                    snapshot.release()
            """,
            name=self.NAME,
        )
        assert violations == []

    def test_returning_the_pin_transfers_ownership(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def pin(manager):
                return manager.acquire()
            """,
            name=self.NAME,
        )
        assert violations == []

    def test_bare_acquire_call_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def leak(manager):
                manager.acquire()
            """,
            name=self.NAME,
        )
        assert _rules(violations) == ["VAM006"]
        assert "released on all exits" in violations[0].message

    def test_assignment_without_finally_release_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def leak(manager):
                snapshot = manager.acquire()
                value = snapshot.epoch
                snapshot.release()  # skipped if .epoch raises
                return value
            """,
            name=self.NAME,
        )
        assert _rules(violations) == ["VAM006"]

    def test_release_in_nested_function_does_not_count(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def leak(manager):
                snapshot = manager.acquire()

                def cleanup():
                    try:
                        pass
                    finally:
                        snapshot.release()

                return cleanup
            """,
            name=self.NAME,
        )
        assert _rules(violations) == ["VAM006"]

    def test_outside_serving_package_is_vam011_not_vam006(self, tmp_path):
        # VAM006 owns the serving package; the same leak outside it is
        # the repo-wide refcount-pairing rule's to report.
        violations = _lint_source(
            tmp_path,
            """
            def leak(manager):
                manager.acquire()
            """,
            name="engine/handlers.py",
        )
        assert _rules(violations) == ["VAM011"]

    def test_shipped_serving_package_is_clean(self):
        violations = lint_paths([str(SRC_REPRO / "serving")])
        assert _rules(violations) == []


class TestSnapshotReleaseLeakWindow:
    """VAM006 strengthening: the acquire must sit inside the releasing
    try's body, or the try must be the statement immediately after it —
    anything in between is a window where an exception leaks the pin."""

    NAME = "serving/handlers.py"

    def test_acquire_inside_the_releasing_try_body_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager):
                snapshot = None
                try:
                    snapshot = manager.acquire()
                    return snapshot.epoch
                finally:
                    if snapshot is not None:
                        snapshot.release()
            """,
            name=self.NAME,
        )
        assert violations == []

    def test_conditional_with_statement_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager, fast):
                if fast:
                    with manager.acquire() as snapshot:
                        return snapshot.epoch
                return None
            """,
            name=self.NAME,
        )
        assert violations == []

    def test_acquire_in_comprehension_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def pins(manager):
                snaps = [manager.acquire() for _ in range(3)]
                try:
                    return len(snaps)
                finally:
                    for s in snaps:
                        s.release()
            """,
            name=self.NAME,
        )
        assert _rules(violations) == ["VAM006"]
        assert "released on all exits" in violations[0].message

    def test_early_return_between_acquire_and_try_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager, skip):
                snapshot = manager.acquire()
                if skip:
                    return None
                try:
                    return snapshot.epoch
                finally:
                    snapshot.release()
            """,
            name=self.NAME,
        )
        assert _rules(violations) == ["VAM006"]
        assert "leak before its releasing try" in violations[0].message

    def test_any_statement_between_acquire_and_try_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager, log):
                snapshot = manager.acquire()
                log.note("acquired")
                try:
                    return snapshot.epoch
                finally:
                    snapshot.release()
            """,
            name=self.NAME,
        )
        assert _rules(violations) == ["VAM006"]

    def test_try_as_immediate_next_statement_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def serve(manager):
                snapshot = manager.acquire()
                try:
                    return snapshot.epoch
                finally:
                    snapshot.release()
            """,
            name=self.NAME,
        )
        assert violations == []


def _lint_tree_sources(tmp_path, sources: dict[str, str]):
    """Write several modules and lint them together (repo-level rules)."""
    for name, source in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([str(tmp_path)])


class TestFrameDispatch:
    """VAM010: every emitted frame op reaches a dispatch branch somewhere."""

    RECEIVER = """
        from repro.sharding.protocol import recv_frame, send_json

        def pump(conn):
            kind, payload = recv_frame(conn)
            op = payload.get("op")
            if op == "done":
                return payload
            if op in ("doc", "doc_error"):
                return None
    """

    def test_undispatched_op_is_flagged(self, tmp_path):
        violations = _lint_tree_sources(
            tmp_path,
            {
                "emitter.py": """
                    from repro.sharding.protocol import send_json

                    def finish(conn, rid):
                        send_json(conn, {"op": "farewell", "id": rid})
                """,
                "receiver.py": self.RECEIVER,
            },
        )
        assert _rules(violations) == ["VAM010"]
        assert "'farewell'" in violations[0].message
        assert "silently dropped" in violations[0].message

    def test_dispatched_op_is_clean(self, tmp_path):
        violations = _lint_tree_sources(
            tmp_path,
            {
                "emitter.py": """
                    from repro.sharding.protocol import send_json

                    def finish(conn, rid):
                        send_json(conn, {"op": "done", "id": rid})
                """,
                "receiver.py": self.RECEIVER,
            },
        )
        assert violations == []

    def test_name_assigned_payload_is_tracked(self, tmp_path):
        violations = _lint_tree_sources(
            tmp_path,
            {
                "emitter.py": """
                    from repro.sharding.protocol import send_json

                    def finish(conn, rid):
                        message = {"op": "mystery", "id": rid}
                        send_json(conn, message)
                """,
                "receiver.py": self.RECEIVER,
            },
        )
        assert _rules(violations) == ["VAM010"]
        assert "'mystery'" in violations[0].message

    def test_membership_dispatch_counts(self, tmp_path):
        violations = _lint_tree_sources(
            tmp_path,
            {
                "emitter.py": """
                    from repro.sharding.protocol import send_json

                    def report(conn, rid):
                        send_json(conn, {"op": "doc_error", "id": rid})
                """,
                "receiver.py": self.RECEIVER,
            },
        )
        assert violations == []

    def test_op_strings_outside_receive_loops_do_not_count(self, tmp_path):
        # A module without recv_frame/decode_frame cannot dispatch: a
        # string match there (docs, test data) must not mask the miss.
        violations = _lint_tree_sources(
            tmp_path,
            {
                "emitter.py": """
                    from repro.sharding.protocol import send_json

                    def finish(conn, rid):
                        send_json(conn, {"op": "farewell", "id": rid})
                """,
                "not_a_receiver.py": """
                    def classify(op):
                        if op == "farewell":
                            return "goodbye"
                """,
            },
        )
        assert _rules(violations) == ["VAM010"]


class TestSnapshotPairingRepoWide:
    """VAM011: refcount pairing outside serving, double releases anywhere."""

    def test_double_release_in_sequence_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def oops(manager):
                snapshot = manager.acquire()
                snapshot.release()
                snapshot.release()
            """,
            name="engine/pins.py",
        )
        assert "VAM011" in _rules(violations)
        assert any(
            "released twice" in violation.message for violation in violations
        )

    def test_try_release_with_finally_release_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def oops(manager):
                snapshot = manager.acquire()
                try:
                    snapshot.release()
                finally:
                    snapshot.release()
            """,
            name="engine/pins.py",
        )
        assert any(
            violation.rule == "VAM011" and "released twice" in violation.message
            for violation in violations
        )

    def test_rebinding_between_releases_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def fine(manager, use):
                snapshot = manager.acquire()
                try:
                    use(snapshot)
                finally:
                    snapshot.release()
                snapshot = manager.acquire()
                try:
                    use(snapshot)
                finally:
                    snapshot.release()
            """,
            name="engine/pins.py",
        )
        assert violations == []

    def test_with_statement_outside_serving_is_clean(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def fine(manager):
                with manager.acquire() as snapshot:
                    return snapshot.epoch
            """,
            name="engine/pins.py",
        )
        assert violations == []


class TestRawPipeIO:
    """VAM012: raw Connection I/O stays inside sharding/protocol.py."""

    def test_send_bytes_outside_protocol_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def shove(conn, frame):
                conn.send_bytes(frame)
            """,
            name="sharding/shortcut.py",
        )
        assert _rules(violations) == ["VAM012"]
        assert "send_bytes" in violations[0].message

    def test_recv_bytes_outside_sharding_is_also_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def peek(conn):
                return conn.recv_bytes()
            """,
            name="serving/bridge.py",
        )
        assert _rules(violations) == ["VAM012"]

    def test_protocol_module_itself_is_exempt(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def send_json(conn, payload):
                conn.send_bytes(encode_json(payload))
            """,
            name="sharding/protocol.py",
        )
        assert violations == []

    def test_pickle_send_on_conn_inside_sharding_is_flagged(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def shove(conn, payload):
                conn.send(payload)
            """,
            name="sharding/shortcut.py",
        )
        assert _rules(violations) == ["VAM012"]
        assert "pickle framing" in violations[0].message

    def test_pickle_send_outside_sharding_is_ignored(self, tmp_path):
        # Outside the sharding package .send()/.recv() are someone
        # else's sockets; only the byte-frame helpers are repo-wide.
        violations = _lint_source(
            tmp_path,
            """
            def shove(conn, payload):
                conn.send(payload)
            """,
            name="serving/frontend.py",
        )
        assert violations == []

    def test_non_conn_receivers_inside_sharding_are_ignored(self, tmp_path):
        violations = _lint_source(
            tmp_path,
            """
            def notify(queue, payload):
                queue.send(payload)
            """,
            name="sharding/events.py",
        )
        assert violations == []


class TestRequireFlag:
    def test_requiring_registered_rules_passes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert (
            main(["--require", "VAM010,VAM011,VAM012", str(tmp_path)]) == 0
        )

    def test_requiring_unknown_rule_exits_two(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["--require", "VAM099", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err
