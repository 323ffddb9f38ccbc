"""The public package surface: everything __all__ promises exists."""

from __future__ import annotations

import inspect

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_end_to_end_through_public_api_only():
    store = repro.load_xml("<site><person><name>Ada</name></person></site>")
    engine = repro.VamanaEngine(store)
    result = engine.evaluate("//person/name")
    assert result.string_values() == ["Ada"]
    plan = repro.build_default_plan("//person")
    optimized, trace = repro.optimize_plan(plan, store)
    assert list(repro.execute_plan(optimized, store))


def test_constructors_expose_no_execution_mode_switches():
    """One execution path: the engine and the store take no pipeline or
    key-encoding knobs, so every caller runs the same configuration."""
    assert list(inspect.signature(repro.VamanaEngine.__init__).parameters) == [
        "self", "store", "rules", "plan_cache_size", "verify_rewrites",
        "static_check", "validate_rewrites",
    ]
    assert list(inspect.signature(repro.MassStore.__init__).parameters) == [
        "self", "name", "page_size", "buffer_capacity",
    ]


def test_exception_hierarchy():
    for name in (
        "XmlError",
        "XPathSyntaxError",
        "StorageError",
        "PlanError",
        "ExecutionError",
        "UnsupportedFeatureError",
        "DocumentTooLargeError",
    ):
        assert issubclass(getattr(repro, name), repro.ReproError)


def test_generator_exported():
    text = repro.generate_document(0.001, seed=1)
    assert text.startswith("<?xml")
    profile = repro.paper_profile()
    assert profile.persons(0.1) == 2550


def test_model_exports():
    assert repro.Axis.CHILD.value == "child"
    assert repro.NodeTest.name_test("a").name == "a"
    assert repro.NodeKind.ELEMENT.value == "element"
    assert repro.FlexKey.document().is_document()
