"""Expected answers from the DOM baseline, and the pinned inputs.

Every distinct query a workload issues has one expected digest: the
ordered ``sort_bytes`` sequence the naive DOM traversal engine returns,
mapped onto FLEX keys by ``dom_key_map``.  Digests for the committed
seeds are cached in ``golden/digests.json``; any other seed computes
them live.  The cache is only ever regenerated from the baseline
(``run.py --regen-golden``), never from Vamana's own answers.

``golden/inputs.json`` pins the sha256, byte length and node count of
every generated document for the committed seeds, so a change to
``repro.xmark`` cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

from repro.analysis.tv.oracle import dom_key_map
from repro.baselines.dom_engine import DomTraversalEngine
from repro.baselines.profiles import EngineProfile
from repro.model import Axis
from repro.xmlkit.dom import build_dom

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS_PATH = os.path.join(GOLDEN_DIR, "digests.json")
INPUTS_PATH = os.path.join(GOLDEN_DIR, "inputs.json")

#: Seeds whose digests and input pins are committed.
GOLDEN_SEEDS = (42, 7)

_ALL_AXES = EngineProfile(name="oracle", supported_axes=frozenset(Axis))


def is_value_query(expression: str) -> bool:
    return expression.startswith("count(")


def digest_rows(rows: Iterable[tuple[str, bytes]]) -> str:
    """``count:hash`` of ``(document, sort_bytes)`` rows in answer order."""
    hasher = hashlib.sha256()
    count = 0
    current = None
    for document, blob in rows:
        if document != current:
            current = document
            hasher.update(b"\x00" + document.encode("utf-8") + b"\x00")
        hasher.update(len(blob).to_bytes(2, "little"))
        hasher.update(blob)
        count += 1
    return f"{count}:{hasher.hexdigest()[:16]}"


def digest_value(value) -> str:
    return f"v:{float(value)!r}"


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def collection_id(documents: list[tuple[str, str]], names: Iterable[str]) -> str:
    """Cache key of the documents one check reads."""
    texts = dict(documents)
    joined = "".join(f"{name}={text_sha256(texts[name])};" for name in sorted(names))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


class DomOracle:
    """DOM-baseline answers over a set of named documents."""

    def __init__(self, documents: list[tuple[str, str]]):
        self._texts = dict(documents)
        self._loaded: dict[str, tuple[DomTraversalEngine, dict]] = {}

    def _engine(self, name: str) -> tuple[DomTraversalEngine, dict]:
        loaded = self._loaded.get(name)
        if loaded is None:
            dom = build_dom(self._texts[name])
            engine = DomTraversalEngine(_ALL_AXES)
            engine.load_dom(dom)
            loaded = self._loaded[name] = (engine, dom_key_map(dom))
        return loaded

    def digest(self, names: Iterable[str], expression: str) -> str:
        if is_value_query(expression):
            return digest_value(
                sum(self._engine(name)[0].evaluate_value(expression) for name in names)
            )

        def rows():
            for name in sorted(names):
                engine, key_map = self._engine(name)
                for node in engine.evaluate(expression):
                    yield name, key_map[id(node)].sort_bytes

        return digest_rows(rows())


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def _save_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(data, out, indent=0, sort_keys=True)
        out.write("\n")


def expected_digests(
    documents: list[tuple[str, str]],
    checks: list[tuple[str, tuple[str, ...], str]],
    regen: bool = False,
) -> dict[str, str]:
    """``{check key: digest}`` — from the golden cache, else the baseline.

    ``checks`` are ``(key, document names, expression)``.  With ``regen``
    every digest is recomputed from the baseline and the cache rewritten.
    """
    golden = _load_json(DIGESTS_PATH)
    oracle = DomOracle(documents)
    expected: dict[str, str] = {}
    dirty = False
    for key, names, expression in checks:
        bucket = golden.setdefault(collection_id(documents, names), {})
        digest = None if regen else bucket.get(expression)
        if digest is None:
            digest = oracle.digest(names, expression)
            if regen:
                bucket[expression] = digest
                dirty = True
        expected[key] = digest
    if dirty:
        _save_json(DIGESTS_PATH, {k: v for k, v in golden.items() if v})
    return expected


def describe_inputs(documents: list[tuple[str, str]]) -> list[dict]:
    return [
        {
            "name": name,
            "sha256": text_sha256(text),
            "bytes": len(text.encode("utf-8")),
        }
        for name, text in documents
    ]


def check_input_pins(pin_key: str, inputs: list[dict], regen: bool = False) -> None:
    """Abort if a pinned workload's generated documents have drifted.

    ``inputs`` carry ``nodes`` as well once the workload has loaded them.
    """
    pins = _load_json(INPUTS_PATH)
    if regen:
        pins[pin_key] = inputs
        _save_json(INPUTS_PATH, pins)
        return
    pinned = pins.get(pin_key)
    if pinned is None:
        return
    if len(pinned) != len(inputs):
        raise SystemExit(
            f"input drift in {pin_key}: {len(inputs)} documents, pinned {len(pinned)}"
        )
    for want, got in zip(pinned, inputs):
        for field in ("name", "sha256", "bytes", "nodes"):
            if field in got and want[field] != got[field]:
                raise SystemExit(
                    f"input drift in {pin_key}: document {want['name']!r} {field} "
                    f"is {got[field]!r}, pinned {want[field]!r} — repro.xmark "
                    "changed; rerun with --regen-golden only if that is intended"
                )
