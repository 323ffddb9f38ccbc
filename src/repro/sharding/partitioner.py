"""Partitioning documents into a shard directory with a JSON manifest.

Two partitioning families:

* **Collection partitioning** (``hash`` / ``round_robin``): a collection
  of named documents is spread over ``N`` shards — hash keeps placement
  stable as documents come and go, round-robin balances counts exactly.
  A document lives entirely on one shard, so per-shard evaluation is
  exactly per-document evaluation and the cross-shard merge never
  interleaves keys of the same document.

* **Subtree partitioning** (``subtree``): one huge document is split by
  FLEX-key ranges at the document element's child boundaries, balanced
  by exact subtree node counts from the counted node index.  Every shard
  stores the spine (document node + document element) so structural
  context is intact, and additionally *owns* a half-open key range
  ``[lo, hi)``; workers filter their results to the owned range, which
  keeps shard results disjoint — the merge stays a byte comparison and
  per-shard counts sum exactly.

The shard directory layout::

    <dir>/manifest.json
    <dir>/shard-000/<doc>.mass
    <dir>/shard-001/<doc>.mass
    ...

Each ``.mass`` file is a normal crash-safe store file —
:func:`fsck_shards` runs the per-file checker over the whole fleet and
``repro fsck <dir>`` reports one summary.

The manifest records, per shard, the name vocabulary (elements /
attributes / roots) and per-name entry counts straight from the name
index.  The coordinator feeds the vocabulary to the satisfiability
analyzer to prune shards that provably cannot contribute to a query, and
the counts to the fan-out cost model that picks scatter vs. single-shard
routing.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ShardingError, StorageError
from repro.mass.flexkey import FlexKey
from repro.mass.persistence import FsckReport, fsck_store, save_store
from repro.mass.records import NodeKind, NodeRecord
from repro.mass.store import MassStore

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

SCHEMES = ("hash", "round_robin", "subtree")


def _stable_hash(name: str) -> int:
    """Process-independent document hash (PYTHONHASHSEED-proof)."""
    return zlib.crc32(name.encode("utf-8"))


def partition_names(
    names: Sequence[str], shards: int, scheme: str = "hash"
) -> dict[str, int]:
    """Assign each document name to a shard id."""
    if shards < 1:
        raise ShardingError(f"shard count must be >= 1, got {shards}")
    if scheme == "hash":
        return {name: _stable_hash(name) % shards for name in names}
    if scheme == "round_robin":
        return {name: index % shards for index, name in enumerate(sorted(names))}
    raise ShardingError(f"unknown collection partitioning scheme {scheme!r}")


_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _safe_filename(name: str, taken: set[str]) -> str:
    base = _SAFE_CHARS.sub("_", name) or "document"
    candidate = base
    while candidate in taken:
        candidate = f"{base}-{_stable_hash(candidate):08x}"
    taken.add(candidate)
    return candidate


# -- manifest model ------------------------------------------------------------


@dataclass
class ShardSpec:
    """One shard's entry in the manifest."""

    shard_id: int
    documents: list[dict] = field(default_factory=list)
    elements: list[str] = field(default_factory=list)
    attributes: list[str] = field(default_factory=list)
    roots: list[str] = field(default_factory=list)
    #: Name-index entry counts keyed by *index name* (``person``,
    #: ``@id``, ``#text``, ``?target``), summed over the shard's
    #: documents — the fan-out cost model's per-shard statistics.
    name_counts: dict[str, int] = field(default_factory=dict)
    total_nodes: int = 0
    #: Owned key range (subtree scheme only), as hex ``sort_bytes``.
    range_lo: str | None = None
    range_hi: str | None = None

    @property
    def files(self) -> list[str]:
        return [doc["file"] for doc in self.documents]

    def owned_range(self) -> tuple[bytes | None, bytes | None]:
        lo = bytes.fromhex(self.range_lo) if self.range_lo else None
        hi = bytes.fromhex(self.range_hi) if self.range_hi else None
        return lo, hi

    def to_json(self) -> dict:
        return {
            "id": self.shard_id,
            "documents": self.documents,
            "elements": sorted(self.elements),
            "attributes": sorted(self.attributes),
            "roots": sorted(self.roots),
            "name_counts": self.name_counts,
            "total_nodes": self.total_nodes,
            "range_lo": self.range_lo,
            "range_hi": self.range_hi,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShardSpec":
        return cls(
            shard_id=data["id"],
            documents=list(data.get("documents", ())),
            elements=list(data.get("elements", ())),
            attributes=list(data.get("attributes", ())),
            roots=list(data.get("roots", ())),
            name_counts=dict(data.get("name_counts", {})),
            total_nodes=data.get("total_nodes", 0),
            range_lo=data.get("range_lo"),
            range_hi=data.get("range_hi"),
        )


@dataclass
class ShardManifest:
    """The shard directory's self-description (``manifest.json``)."""

    directory: str
    scheme: str
    shards: list[ShardSpec]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def is_range_partitioned(self) -> bool:
        return self.scheme == "subtree"

    @property
    def total_nodes(self) -> int:
        return sum(spec.total_nodes for spec in self.shards)

    def document_names(self) -> list[str]:
        names = []
        for spec in self.shards:
            names.extend(doc["name"] for doc in spec.documents)
        # Range-partitioned shards share one document name.
        return sorted(set(names))

    def to_json(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "scheme": self.scheme,
            "shards": [spec.to_json() for spec in self.shards],
        }

    def save(self) -> str:
        path = os.path.join(self.directory, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as out:
            json.dump(self.to_json(), out, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return path


def load_manifest(directory: str) -> ShardManifest:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ShardingError(f"{directory}: not a shard directory: {error}") from error
    except json.JSONDecodeError as error:
        raise ShardingError(f"{path}: corrupt manifest: {error}") from error
    if data.get("format") != MANIFEST_FORMAT:
        raise ShardingError(
            f"{path}: unsupported manifest format {data.get('format')!r}"
        )
    shards = [ShardSpec.from_json(entry) for entry in data["shards"]]
    # Shard ids are the routing addresses; a duplicated id would make a
    # query's target ambiguous.  Order and contiguity are NOT required —
    # the coordinator looks workers up by id, never by list position.
    seen: set[int] = set()
    for spec in shards:
        if spec.shard_id in seen:
            raise ShardingError(f"{path}: duplicate shard id {spec.shard_id}")
        seen.add(spec.shard_id)
    return ShardManifest(
        directory=directory,
        scheme=data["scheme"],
        shards=shards,
    )


# -- vocabulary / statistics ---------------------------------------------------


def _harvest_vocabulary(spec: ShardSpec, store: MassStore) -> None:
    """Fold one store's name universe and counts into the shard spec."""
    elements = set(spec.elements)
    attributes = set(spec.attributes)
    for index_name in store.name_index.distinct_names():
        count = store.name_index.count(index_name)
        spec.name_counts[index_name] = spec.name_counts.get(index_name, 0) + count
        if index_name.startswith("@"):
            attributes.add(index_name[1:])
        elif not index_name.startswith(("#", "?")):
            elements.add(index_name)
    spec.elements = sorted(elements)
    spec.attributes = sorted(attributes)
    roots = set(spec.roots)
    try:
        roots.add(store.root_element().name)
    except StorageError:
        pass  # an empty slice still describes its (empty) vocabulary
    spec.roots = sorted(roots)
    spec.total_nodes += len(store.node_index)


# -- collection partitioning ---------------------------------------------------


def build_shards(
    stores: Iterable[tuple[str, MassStore]],
    directory: str,
    shards: int,
    scheme: str = "hash",
) -> ShardManifest:
    """Partition named document stores into ``directory``.

    Documents are placed by :func:`partition_names`; each lands as one
    crash-safe ``.mass`` file under its shard's subdirectory.  Empty
    shards are legal (hash skew, more shards than documents) and stay
    addressable — the coordinator simply always prunes them.
    """
    pairs = list(stores)
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ShardingError("duplicate document names in the collection")
    placement = partition_names(names, shards, scheme)
    os.makedirs(directory, exist_ok=True)
    specs = [ShardSpec(shard_id=index) for index in range(shards)]
    taken: dict[int, set[str]] = {index: set() for index in range(shards)}
    for name, store in pairs:
        shard_id = placement[name]
        spec = specs[shard_id]
        subdir = f"shard-{shard_id:03d}"
        os.makedirs(os.path.join(directory, subdir), exist_ok=True)
        filename = _safe_filename(name, taken[shard_id]) + ".mass"
        relative = os.path.join(subdir, filename)
        save_store(store, os.path.join(directory, relative))
        spec.documents.append(
            {"name": name, "file": relative, "nodes": len(store.node_index)}
        )
        _harvest_vocabulary(spec, store)
    for spec in specs:
        spec.documents.sort(key=lambda doc: doc["name"])
    manifest = ShardManifest(directory=directory, scheme=scheme, shards=specs)
    manifest.save()
    return manifest


# -- subtree (range) partitioning ----------------------------------------------


def _split_points(store: MassStore, shards: int) -> list[FlexKey]:
    """Pick ``shards - 1`` split keys at document-element child boundaries.

    Children (attributes included — each is a unit subtree) are walked in
    document order, accumulating exact subtree node counts from the
    counted node index; a split lands whenever the running shard reaches
    its proportional share of the remaining nodes.
    """
    root_key = None
    for record in store.node_index.scan(None, None):
        if record.kind is NodeKind.ELEMENT and record.key.depth == 1:
            root_key = record.key
            break
    if root_key is None:
        raise ShardingError(f"document {store.name!r} has no document element")
    children: list[tuple[FlexKey, int]] = []
    lo = root_key
    hi = root_key.subtree_upper_bound()
    for record in store.node_index.scan(lo, hi, inclusive_lo=False):
        if record.key.depth == 2:
            size = store.node_index.count_range(
                record.key, record.key.subtree_upper_bound()
            )
            children.append((record.key, size))
    if len(children) < shards:
        raise ShardingError(
            f"document {store.name!r} has {len(children)} top-level subtrees; "
            f"cannot range-partition into {shards} shards"
        )
    splits: list[FlexKey] = []
    remaining_nodes = sum(size for _, size in children)
    remaining_shards = shards
    acc = 0
    for key, size in children:
        target = remaining_nodes / remaining_shards
        if acc >= target and len(splits) < shards - 1:
            splits.append(key)
            remaining_nodes -= acc
            remaining_shards -= 1
            acc = 0
        acc += size
    if len(splits) < shards - 1:
        # Degenerate balance (one giant subtree swallowed several
        # shares): fill with unused child boundaries so every shard
        # still gets a non-empty range.
        used = set(splits)
        for key, _ in reversed(children[1:]):
            if len(splits) >= shards - 1:
                break
            if key not in used:
                splits.append(key)
                used.add(key)
    splits.sort()
    return splits


def build_subtree_shards(
    store: MassStore, directory: str, shards: int
) -> ShardManifest:
    """Split one document by FLEX-key subtree ranges into ``directory``.

    Every shard's store holds the spine (document node + document
    element) plus the records of its owned range, so per-shard engines
    see a well-formed document.  The manifest records each shard's owned
    ``[lo, hi)`` byte range; workers filter results to it, keeping shard
    results disjoint.
    """
    if shards < 1:
        raise ShardingError(f"shard count must be >= 1, got {shards}")
    os.makedirs(directory, exist_ok=True)
    records = list(store.node_index.scan(None, None))
    if not records:
        raise ShardingError("cannot range-partition an empty store")
    spine: list[NodeRecord] = [
        record
        for record in records
        if record.key.depth == 0
        or (record.key.depth == 1 and record.kind is NodeKind.ELEMENT)
    ]
    splits = _split_points(store, shards) if shards > 1 else []
    bounds: list[tuple[bytes | None, bytes | None]] = []
    edges: list[bytes | None] = (
        [None] + [key.sort_bytes for key in splits] + [None]
    )
    for index in range(shards):
        bounds.append((edges[index], edges[index + 1]))
    specs: list[ShardSpec] = []
    taken: set[str] = set()
    filename = _safe_filename(store.name, taken) + ".mass"
    spine_keys = {record.key for record in spine}
    for shard_id, (lo, hi) in enumerate(bounds):
        slice_records = [
            record
            for record in records
            if record.key in spine_keys
            or (
                (lo is None or record.key.sort_bytes >= lo)
                and (hi is None or record.key.sort_bytes < hi)
            )
        ]
        shard_store = MassStore(
            name=store.name,
            page_size=store.pages.page_size,
            buffer_capacity=store.buffer.capacity,
        )
        shard_store.bulk_load(slice_records)
        subdir = f"shard-{shard_id:03d}"
        os.makedirs(os.path.join(directory, subdir), exist_ok=True)
        relative = os.path.join(subdir, filename)
        save_store(shard_store, os.path.join(directory, relative))
        spec = ShardSpec(
            shard_id=shard_id,
            documents=[
                {
                    "name": store.name,
                    "file": relative,
                    "nodes": len(shard_store.node_index),
                }
            ],
            range_lo=lo.hex() if lo is not None else None,
            range_hi=hi.hex() if hi is not None else None,
        )
        _harvest_vocabulary(spec, shard_store)
        specs.append(spec)
    manifest = ShardManifest(directory=directory, scheme="subtree", shards=specs)
    manifest.save()
    return manifest


# -- fleet fsck ----------------------------------------------------------------


@dataclass
class ShardFsckReport:
    """Per-file verification results for a whole shard directory."""

    directory: str
    reports: list[tuple[int, str, FsckReport]] = field(default_factory=list)
    missing: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing and all(
            report.ok for _, _, report in self.reports
        )

    @property
    def damaged(self) -> list[tuple[int, str, FsckReport]]:
        return [entry for entry in self.reports if not entry[2].ok]

    def describe(self) -> str:
        lines = [
            f"{self.directory}: {len(self.reports)} store file(s) across "
            f"{len({shard for shard, _, _ in self.reports} | {shard for shard, _ in self.missing})} shard(s)"
        ]
        for shard_id, path, report in self.reports:
            status = "clean" if report.ok else "CORRUPT"
            lines.append(
                f"  shard {shard_id}: {path}: {status} "
                f"({report.readable_records}/{report.declared_records} records"
                + (
                    f", {report.dropped_records} dropped"
                    if report.dropped_records
                    else ""
                )
                + ")"
            )
            for error in report.errors:
                lines.append(f"    error: {error}")
        for shard_id, path in self.missing:
            lines.append(f"  shard {shard_id}: {path}: MISSING")
        lines.append("summary: " + ("all shards clean" if self.ok else "DAMAGED"))
        return "\n".join(lines)


def fsck_shards(directory: str) -> ShardFsckReport:
    """Verify every per-shard ``.mass`` file named by the manifest."""
    manifest = load_manifest(directory)
    report = ShardFsckReport(directory=directory)
    for spec in manifest.shards:
        for doc in spec.documents:
            path = os.path.join(directory, doc["file"])
            if not os.path.exists(path):
                report.missing.append((spec.shard_id, doc["file"]))
                continue
            report.reports.append(
                (spec.shard_id, doc["file"], fsck_store(path))
            )
    return report
