"""The spill backend: one file of extents per backend."""

import builtins
import errno
import os

import pytest

from repro.storage.disk import SPILL_FILE, DiskBackend


@pytest.fixture
def backend(tmp_path):
    disk = DiskBackend(str(tmp_path / "spill"))
    yield disk
    disk.close()


def _file_size(disk):
    return os.path.getsize(os.path.join(disk.path, SPILL_FILE))


class TestExtents:
    def test_ids_round_trip(self, backend):
        payloads = [[(i, "row%d" % i)] * (i + 1) for i in range(10)]
        ids = [backend.write(p) for p in payloads]
        assert len(set(ids)) == len(ids)
        for page_id, payload in reversed(list(zip(ids, payloads))):
            assert backend.read(page_id) == payload
        assert backend.pages_written == backend.pages_read == 10
        assert backend.bytes_written == backend.bytes_read > 0
        assert os.listdir(backend.path) == [SPILL_FILE]

    def test_freed_extent_is_reused(self, backend):
        first = backend.write(list(range(100)))
        backend.write(list(range(100)))
        size = _file_size(backend)
        offset = backend._extents[first][0]
        backend.delete(first)
        third = backend.write(list(range(50)))  # fits the freed extent
        assert _file_size(backend) == size
        assert backend._extents[third][0] == offset
        assert backend.read(third) == list(range(50))

    def test_file_stays_bounded_under_churn(self, backend):
        live = []
        biggest = 0
        for cycle in range(1000):
            payload = list(range(cycle % 37 * 5))
            live.append((backend.write(payload), payload))
            biggest = max(biggest, len(backend._extents))
            if len(live) == 8 or cycle % 3 == 0:
                page_id, expected = live.pop(cycle % len(live))
                assert backend.read(page_id) == expected
                backend.delete(page_id)
        assert biggest <= 8
        largest_page = max(length for _o, length in backend._extents.values())
        assert _file_size(backend) <= 16 * largest_page
        for page_id, expected in live:
            assert backend.read(page_id) == expected

    def test_file_removed_with_its_last_page(self, backend):
        ids = [backend.write("page %d" % i) for i in range(3)]
        for page_id in ids[:-1]:
            backend.delete(page_id)
            assert os.listdir(backend.path) == [SPILL_FILE]
        backend.delete(ids[-1])
        assert os.listdir(backend.path) == []
        backend.delete(ids[-1])  # already gone: ignored
        again = backend.write("after")
        assert backend.read(again) == "after"
        assert os.listdir(backend.path) == [SPILL_FILE]

    def test_write_after_close_raises(self, backend):
        backend.write("x")
        path = backend.path
        backend.close()
        assert not os.path.exists(path)
        with pytest.raises(RuntimeError):
            backend.write("y")

    def test_read_of_unknown_page_raises(self, backend):
        with pytest.raises(KeyError):
            backend.read(0)
        backend.write("x")
        with pytest.raises(KeyError):
            backend.read(99)


class TestDiskFull:
    @staticmethod
    def _enospc(monkeypatch):
        def full(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "pwrite", full)

    def test_first_write_fails_clean(self, backend, monkeypatch):
        self._enospc(monkeypatch)
        with pytest.raises(OSError) as raised:
            backend.write("page")
        assert raised.value.errno == errno.ENOSPC
        assert backend._extents == {}
        assert backend.pages_written == 0
        assert os.listdir(backend.path) == []
        monkeypatch.undo()
        path = backend.path
        backend.close()
        assert not os.path.exists(path)

    def test_failed_write_beside_live_pages(self, backend, monkeypatch):
        kept = backend.write("kept")
        doomed = backend.write("doomed")
        backend.delete(doomed)
        extents = dict(backend._extents)
        free = list(backend._free)
        self._enospc(monkeypatch)
        with pytest.raises(OSError):
            backend.write("more")
        assert backend._extents == extents
        assert backend._free == free
        monkeypatch.undo()
        assert backend.read(kept) == "kept"
        backend.delete(kept)
        assert os.listdir(backend.path) == []
        path = backend.path
        backend.close()
        assert not os.path.exists(path)


class TestSpillFileCount:
    def test_governed_run_reuses_one_file(self, monkeypatch):
        """A governed Q5A run writes its 43 spool pages (table pages
        are dropped, never written; its other spill events are reads)
        into a handful of files at most — the spill file is recreated
        only after every page was deleted — not one file per page."""
        import repro.storage.governor as governor_module
        from repro.harness.runner import run_workload_query

        created, governors = [], []

        def in_spill_dir(path):
            parent = os.path.basename(os.path.dirname(os.fspath(path)))
            return parent.startswith("repro-spill-")

        real_os_open = os.open
        real_open = builtins.open

        def tracking_os_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT and in_spill_dir(path):
                created.append(path)
            return real_os_open(path, flags, *args, **kwargs)

        def tracking_open(path, mode="r", *args, **kwargs):
            if isinstance(path, (str, bytes, os.PathLike)) and (
                set(mode) & set("wax") and in_spill_dir(path)
            ):
                created.append(path)
            return real_open(path, mode, *args, **kwargs)

        class Tracking(governor_module.MemoryGovernor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                governors.append(self)

        monkeypatch.setattr(os, "open", tracking_os_open)
        monkeypatch.setattr(builtins, "open", tracking_open)
        monkeypatch.setattr(governor_module, "MemoryGovernor", Tracking)
        run_workload_query(
            "Q5A", "baseline", scale_factor=0.002, memory_budget=256 * 1024,
        )
        monkeypatch.undo()
        (governor,) = governors
        assert governor.backend.pages_written >= 40
        assert 1 <= len(created) <= 5
