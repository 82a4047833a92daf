"""gc against a lock-free put, made deterministic through gc's race seam.

``ResultStore.gc`` ranks artifacts by mtime, then retires each victim
by parking it under a tombstone and deleting the tombstone only if it
is still the file it ranked.  ``_gc_race_window(path, stage)`` marks
the two points where a concurrent ``put`` or ``get`` can land
(``"ranked"``: before the park, ``"parked"``: while parked); these
tests inject a second store's ``put``/``get`` exactly there.
"""

import os
import threading
import time
from types import SimpleNamespace

from repro.runner import store as store_module
from repro.runner.store import ResultStore

OLD = "aa" + "0" * 62
NEW = "bb" + "1" * 62


def make_store(tmp_path, inject):
    """A store whose gc calls ``inject(path, stage)`` at its race points."""
    store = ResultStore(tmp_path / "store")
    store._gc_race_window = inject
    return store


def seed(writer, sidecar=None):
    """OLD is the oldest artifact, NEW the newest: gc(keep=1) ranks OLD."""
    kind = "cell" if sidecar is None else "l1_filter"
    writer.put(OLD, {"v": 1}, kind=kind, sidecar=sidecar)
    writer.put(NEW, {"v": 2})
    os.utime(writer.path_for(OLD), (1, 1))
    return kind


def on(path_of, stage, action):
    """An injector that runs ``action`` once, at ``stage`` for ``path_of``."""
    fired = []

    def inject(path, at):
        if at == stage and path == path_of and not fired:
            fired.append(at)
            action()
    inject.fired = fired
    return inject


class TestPutRacingGc:
    def test_put_before_the_park_is_restored(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        seed(writer)
        inject = on(writer.path_for(OLD), "ranked",
                    lambda: writer.put(OLD, {"v": 3}))
        store = make_store(tmp_path, inject)
        assert store.gc(keep=1) == 0
        assert inject.fired
        assert writer.get(OLD) == {"v": 3}
        assert writer.get(NEW) == {"v": 2}
        assert store.stats().n_quarantined == 0
        assert not list((tmp_path / "store").rglob("*.gc"))

    def test_put_while_parked_survives(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        seed(writer)
        inject = on(writer.path_for(OLD), "parked",
                    lambda: writer.put(OLD, {"v": 3}))
        store = make_store(tmp_path, inject)
        # The ranked file is deleted; the put that landed meanwhile is
        # a different file and stays.
        assert store.gc(keep=1) == 1
        assert inject.fired
        assert writer.get(OLD) == {"v": 3}
        assert not list((tmp_path / "store").rglob("*.gc"))

    def test_unraced_victim_is_deleted(self, tmp_path):
        store = make_store(tmp_path, lambda path, stage: None)
        seed(store)
        assert store.gc(keep=1) == 1
        assert store.get(OLD) is None
        assert store.get(NEW) == {"v": 2}


class TestSidecarRacingGc:
    def test_put_before_the_park_keeps_its_sidecar(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        kind = seed(writer, sidecar=b"old bytes")
        inject = on(writer.path_for(OLD), "ranked",
                    lambda: writer.put(OLD, {"v": 3}, kind=kind,
                                       sidecar=b"new bytes"))
        store = make_store(tmp_path, inject)
        assert store.gc(keep=1) == 0
        got = writer.get(OLD, kind=kind)
        assert got["v"] == 3
        with open(got["sidecar_path"], "rb") as fh:
            assert fh.read() == b"new bytes"
        assert store.stats().n_quarantined == 0

    def test_put_between_envelope_and_sidecar_keeps_both(self, tmp_path):
        # The envelope is retired; a put lands before gc parks the
        # sidecar, so the sidecar gc parks is the new one: restored.
        writer = ResultStore(tmp_path / "store")
        kind = seed(writer, sidecar=b"old bytes")
        inject = on(writer.sidecar_path_for(OLD), "ranked",
                    lambda: writer.put(OLD, {"v": 3}, kind=kind,
                                       sidecar=b"new bytes"))
        store = make_store(tmp_path, inject)
        assert store.gc(keep=1) == 1
        assert inject.fired
        got = writer.get(OLD, kind=kind)
        assert got is not None and got["v"] == 3
        with open(got["sidecar_path"], "rb") as fh:
            assert fh.read() == b"new bytes"
        assert store.stats().n_quarantined == 0

    def test_sidecar_of_a_newer_put_in_flight_is_kept(self, tmp_path):
        # A put has installed its sidecar but not yet its envelope when
        # gc ranks the old envelope: the sidecar is not the old one's.
        writer = ResultStore(tmp_path / "store")
        kind = seed(writer, sidecar=b"old bytes")
        side = writer.sidecar_path_for(OLD)
        tmp = side.with_name(".in-flight.tmp")
        tmp.write_bytes(b"new bytes")
        os.replace(tmp, side)
        store = make_store(tmp_path, lambda path, stage: None)
        assert store.gc(keep=1) == 1
        assert side.read_bytes() == b"new bytes"
        # The put completes: its envelope finds its sidecar.
        writer.put(OLD, {"v": 3}, kind=kind, sidecar=b"new bytes")
        assert writer.get(OLD, kind=kind)["v"] == 3

    def test_sidecar_with_the_envelopes_ctime_is_kept(self, tmp_path,
                                                      monkeypatch):
        # A coarse ctime clock can stamp an in-flight put's sidecar with
        # the ranked envelope's ctime; the tie must not retire it.
        writer = ResultStore(tmp_path / "store")
        kind = seed(writer, sidecar=b"old bytes")
        side = writer.sidecar_path_for(OLD)
        tmp = side.with_name(".in-flight.tmp")
        tmp.write_bytes(b"new bytes")
        os.replace(tmp, side)
        envelope_ctime = writer.path_for(OLD).stat().st_ctime_ns
        real_stat = store_module._stat

        def tied_stat(path):
            st = real_stat(path)
            if st is None or path != side:
                return st
            fields = {name: getattr(st, name) for name in dir(st)
                      if name.startswith("st_")}
            fields["st_ctime_ns"] = envelope_ctime
            return SimpleNamespace(**fields)
        monkeypatch.setattr(store_module, "_stat", tied_stat)
        store = make_store(tmp_path, lambda path, stage: None)
        assert store.gc(keep=1) == 1
        assert side.read_bytes() == b"new bytes"
        writer.put(OLD, {"v": 3}, kind=kind, sidecar=b"new bytes")
        assert writer.get(OLD, kind=kind)["v"] == 3


class TestGetRacingGc:
    def test_get_waits_out_a_parked_artifact(self, tmp_path):
        writer = ResultStore(tmp_path / "store")
        seed(writer)
        reader = ResultStore(tmp_path / "store")
        waiting = threading.Event()
        await_gc = reader._await_gc

        def observed_await(path):
            waiting.set()
            await_gc(path)
        reader._await_gc = observed_await
        results = []
        thread = threading.Thread(target=lambda: results.append(reader.get(OLD)))

        def inject(path, stage):
            if path != writer.path_for(OLD):
                return
            if stage == "ranked":
                writer.put(OLD, {"v": 3})  # gc will park, then restore
            elif stage == "parked":
                # The reader finds the key gone but its tombstone there.
                thread.start()
                assert waiting.wait(10)
        store = make_store(tmp_path, inject)
        assert store.gc(keep=1) == 0
        thread.join(10)
        assert results == [{"v": 3}]

    def test_stale_tombstone_is_swept(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        seed(store)
        tomb = store.path_for(OLD).with_name(f".{OLD}.json.gc")
        tomb.write_text("{}")
        store.gc(keep=10)
        assert not tomb.exists()
        assert store.get(OLD) == {"v": 1}

    def test_leftover_tombstone_does_not_stall_a_miss(self, tmp_path,
                                                       monkeypatch):
        # A gc that died mid-retirement leaves its tombstone (and maybe a
        # lockfile naming a dead pid) behind; with no live gc holding
        # the lock, a get of that key misses at once.
        monkeypatch.setattr(store_module, "_GC_SETTLE_S", 60.0)
        store = ResultStore(tmp_path / "store")
        seed(store)
        path = store.path_for(OLD)
        os.replace(path, path.with_name(f".{OLD}.json.gc"))
        for holder in (None, "999999999"):
            if holder is not None:
                store.lock().path.write_text(holder)
            start = time.monotonic()
            assert store.get(OLD) is None
            assert time.monotonic() - start < 10.0
