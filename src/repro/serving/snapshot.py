"""Epoch-snapshot isolation: immutable store versions, refcounted pins.

This module formalizes the ``MassStore.epoch`` counter into a real
isolation mechanism.  A :class:`SnapshotManager` owns a chain of
**frozen** store versions:

* Readers call :meth:`SnapshotManager.acquire` and get a
  :class:`StoreSnapshot` — a refcounted pin on the version that was
  current at admission.  The pinned store is frozen (every index rejects
  mutation), so the reader can never observe a half-applied update; its
  epoch is fixed for the snapshot's whole lifetime, which also keeps the
  version's plan cache, schema cache and pinned-leaf B+-tree cursors
  valid without any locking on the read path.
* The writer calls :meth:`SnapshotManager.publish` with a mutation
  function.  The mutation runs against a private **copy-on-write clone**
  (:meth:`~repro.mass.store.MassStore.clone` — node records are immutable
  and shared; only index structure is rebuilt), the clone is frozen, and
  the current-version pointer is swapped under the manager lock.  Readers
  admitted before the swap keep their old pins; readers admitted after
  see the new epoch.  Epochs are strictly monotone across publishes.
* A replaced version is *retired*; when its refcount drains to zero it is
  reclaimed (dropped from the manager, leaving the garbage collector free
  to take the pages).  ``stats()`` exposes the accounting the chaos suite
  asserts on: live versions, pinned snapshots, publishes, reclaims.

Fault sites (see :mod:`repro.resilience.faults`): ``snapshot.acquire``
fires *before* a pin is taken (a failed acquire never leaks a refcount),
``snapshot.release`` fires *after* the refcount is dropped (an injected
release failure surfaces as a typed error while the bookkeeping stays
exact), and ``writer.publish`` fires *between* building the new version
and the pointer swap (a simulated writer crash mid-publish leaves the old
epoch published and the half-built clone unreachable).
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.engine.engine import VamanaEngine
from repro.errors import SnapshotError, StorageError
from repro.mass.store import MassStore
from repro.resilience.faults import FaultInjector


class StoreVersion:
    """One immutable published version: a frozen store and its engine."""

    __slots__ = ("store", "engine", "refcount", "retired")

    def __init__(self, store: MassStore, engine: VamanaEngine):
        self.store = store
        self.engine = engine
        self.refcount = 0
        self.retired = False

    @property
    def epoch(self) -> int:
        return self.store.epoch

    def __repr__(self) -> str:
        state = "retired" if self.retired else "current"
        return f"<StoreVersion epoch={self.epoch} pins={self.refcount} {state}>"


class StoreSnapshot:
    """A reader's pin on one store version (context manager).

    Use as ``with manager.acquire() as snapshot:`` or pair every
    ``acquire()`` with a ``try/finally: snapshot.release()`` — the VAM006
    lint rule enforces exactly this over the serving package.  Releasing
    twice (or using ``store``/``engine`` after release) raises
    :class:`~repro.errors.SnapshotError`.
    """

    __slots__ = ("_manager", "_version", "_released")

    def __init__(self, manager: "SnapshotManager", version: StoreVersion):
        self._manager = manager
        self._version = version
        self._released = False

    @property
    def epoch(self) -> int:
        return self._version.epoch

    @property
    def released(self) -> bool:
        return self._released

    @property
    def store(self) -> MassStore:
        self._ensure_held()
        return self._version.store

    @property
    def engine(self) -> VamanaEngine:
        self._ensure_held()
        return self._version.engine

    def _ensure_held(self) -> None:
        if self._released:
            raise SnapshotError(
                f"snapshot at epoch {self._version.epoch} already released"
            )

    def release(self) -> None:
        """Drop the pin.  Exactly once; a second call raises."""
        self._ensure_held()
        self._released = True
        self._manager._release(self._version)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._released:
            self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"<StoreSnapshot epoch={self._version.epoch} {state}>"


class SnapshotManager:
    """Publishes immutable store versions and refcounts reader pins."""

    def __init__(
        self,
        store: MassStore,
        fault_injector: FaultInjector | None = None,
        tracer: Callable[[dict], None] | None = None,
    ):
        self.fault_injector = fault_injector
        #: Optional lifecycle probe: called with one dict per event
        #: (acquire/release/publish/...), always while ``_lock`` is held,
        #: so the event order IS the linearization order the conformance
        #: checker replays against the snapshot model.
        self.tracer = tracer
        store.freeze()
        self._current = StoreVersion(store, VamanaEngine(store))
        #: Guards the version pointer, refcounts and counters.
        self._lock = threading.Lock()
        #: Serializes writers: one clone+mutate+swap at a time.
        self._write_lock = threading.Lock()
        #: Versions replaced by a publish but still pinned by readers.
        self._retired: list[StoreVersion] = []
        self.acquires = 0
        self.releases = 0
        self.publishes = 0
        self.noop_publishes = 0
        self.failed_publishes = 0
        self.reclaimed = 0

    # -- reader side ---------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        with self._lock:
            return self._current.epoch

    def acquire(self) -> StoreSnapshot:
        """Pin the currently published version.

        The fault site fires before any bookkeeping, so an injected
        acquire failure rejects the request without leaking a pin.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_access("snapshot.acquire")
        with self._lock:
            version = self._current
            version.refcount += 1
            self.acquires += 1
            if self.tracer is not None:
                self.tracer({"ev": "acquire", "epoch": version.epoch})
        return StoreSnapshot(self, version)

    def _release(self, version: StoreVersion) -> None:
        with self._lock:
            version.refcount -= 1
            self.releases += 1
            reclaimed = version.retired and version.refcount == 0
            if reclaimed:
                self._retired.remove(version)
                self.reclaimed += 1
            if self.tracer is not None:
                self.tracer(
                    {
                        "ev": "release",
                        "epoch": version.epoch,
                        "refcount": version.refcount,
                        "reclaimed": reclaimed,
                    }
                )
        # After the bookkeeping: an injected release fault surfaces as a
        # typed error to the caller, but refcounts have already drained.
        if self.fault_injector is not None:
            self.fault_injector.on_access("snapshot.release")

    # -- writer side ---------------------------------------------------------

    def publish(self, mutate: Callable[[MassStore], None]) -> int:
        """Apply ``mutate`` to a private clone and swap it in atomically.

        Returns the published epoch.  If ``mutate`` raises, or the
        ``writer.publish`` fault fires, the half-built clone is discarded
        and readers keep the old version — a publish is all-or-nothing.
        A mutation that leaves the epoch unchanged (no-op) publishes
        nothing.
        """
        epoch, _snapshot = self._publish(mutate, pin=False)
        return epoch

    def publish_pinned(
        self, mutate: Callable[[MassStore], None]
    ) -> tuple[int, StoreSnapshot | None]:
        """:meth:`publish`, atomically pinning the new version.

        The returned snapshot (None for a no-op publish) lets a test
        harness keep every historical epoch addressable for differential
        verification; the caller owns the pin and must release it.
        """
        return self._publish(mutate, pin=True)

    def _publish(
        self, mutate: Callable[[MassStore], None], pin: bool
    ) -> tuple[int, StoreSnapshot | None]:
        with self._write_lock:
            # The version pointer is _lock territory even here: a reader
            # acquiring mid-publish must never see a torn read of it.
            with self._lock:
                base = self._current
            try:
                clone = base.store.clone()
                mutate(clone)
                if clone.epoch <= base.epoch:
                    with self._lock:
                        self.noop_publishes += 1
                        if self.tracer is not None:
                            self.tracer(
                                {"ev": "noop_publish", "epoch": base.epoch}
                            )
                    return base.epoch, None
                if self.fault_injector is not None:
                    self.fault_injector.on_access("writer.publish")
            except StorageError:
                with self._lock:
                    self.failed_publishes += 1
                    if self.tracer is not None:
                        self.tracer(
                            {"ev": "failed_publish", "epoch": base.epoch}
                        )
                raise
            clone.freeze()
            version = StoreVersion(clone, VamanaEngine(clone))
            with self._lock:
                old = self._current
                self._current = version
                old.retired = True
                old_reclaimed = old.refcount == 0
                if old_reclaimed:
                    self.reclaimed += 1
                else:
                    self._retired.append(old)
                self.publishes += 1
                if self.tracer is not None:
                    self.tracer(
                        {
                            "ev": "publish",
                            "old": old.epoch,
                            "new": version.epoch,
                            "old_reclaimed": old_reclaimed,
                        }
                    )
                snapshot = None
                if pin:
                    version.refcount += 1
                    self.acquires += 1
                    if self.tracer is not None:
                        self.tracer(
                            {"ev": "acquire", "epoch": version.epoch}
                        )
                    snapshot = StoreSnapshot(self, version)
            return version.epoch, snapshot

    # -- accounting ----------------------------------------------------------

    def live_versions(self) -> int:
        """Versions still reachable: the current one plus pinned retirees."""
        with self._lock:
            return 1 + len(self._retired)

    def pinned(self) -> int:
        """Total outstanding reader pins across all versions."""
        with self._lock:
            return self._current.refcount + sum(
                version.refcount for version in self._retired
            )

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "epoch": self._current.epoch,
                "live_versions": 1 + len(self._retired),
                "pinned": self._current.refcount
                + sum(version.refcount for version in self._retired),
                "acquires": self.acquires,
                "releases": self.releases,
                "publishes": self.publishes,
                "noop_publishes": self.noop_publishes,
                "failed_publishes": self.failed_publishes,
                "reclaimed": self.reclaimed,
            }

    def __repr__(self) -> str:
        return (
            f"<SnapshotManager epoch={self.current_epoch} "
            f"versions={self.live_versions()} pinned={self.pinned()}>"
        )
