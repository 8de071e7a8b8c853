"""The spill backend: pickled pages as extents of one file.

One :class:`DiskBackend` serves a whole governed run (or a whole
:class:`~repro.service.service.QueryService` lifetime).  Its private
directory is created lazily on the first write and holds one spill
file while any page is live: a page is an ``(offset, length)`` extent
of it, written with ``pwrite`` and read back with ``pread``, so a
page move costs one system call rather than a file create, write and
unlink.  A deleted page's extent is freed for reuse (first fit,
adjacent free extents coalesce); deleting the last live page closes
and removes the file, so the directory is empty exactly when no page
is on disk.  :meth:`DiskBackend.close` removes the directory — callers
invoke it from ``finally`` blocks so an engine error never strands
spill files.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: The spill file's name inside the backend's directory.
SPILL_FILE = "spill.bin"


class DiskBackend:
    """Writes, reads and deletes pickled page payloads by id."""

    def __init__(self, spill_dir: Optional[str] = None):
        #: Explicit directory override (created if missing); by default
        #: a private ``repro-spill-*`` temp directory is made lazily.
        self._root = spill_dir
        self._dir: Optional[str] = None
        #: Descriptor of the open spill file; None while no page is live.
        self._fd: Optional[int] = None
        #: page id -> ``(offset, length)`` of every live page.
        self._extents: Dict[int, Tuple[int, int]] = {}
        #: Freed ``(offset, length)`` extents, ascending by offset,
        #: none adjacent to another or to the end of the file.
        self._free: List[Tuple[int, int]] = []
        #: End of the last extent in use: appends go here.
        self._end = 0
        self._next_id = 0
        self.pages_written = 0
        self.pages_read = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.closed = False

    @property
    def path(self) -> Optional[str]:
        """The spill directory, or None while nothing has been written."""
        return self._dir

    def _ensure_dir(self) -> str:
        if self.closed:
            raise RuntimeError("spill backend already closed")
        if self._dir is None:
            if self._root is not None:
                os.makedirs(self._root, exist_ok=True)
                self._dir = self._root
            else:
                self._dir = tempfile.mkdtemp(prefix="repro-spill-")
        return self._dir

    def _open_file(self) -> int:
        if self._fd is None:
            path = os.path.join(self._ensure_dir(), SPILL_FILE)
            self._fd = os.open(
                path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600
            )
        return self._fd

    def _drop_file(self) -> None:
        """Close and remove the spill file (no page is live)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            try:
                os.remove(os.path.join(self._dir, SPILL_FILE))
            except FileNotFoundError:
                pass
        self._free = []
        self._end = 0

    def _place(self, length: int) -> Tuple[int, Optional[int]]:
        """Where a page of ``length`` bytes goes: the offset, and the
        index of the free extent it takes (None to append)."""
        for index, (offset, free_length) in enumerate(self._free):
            if free_length >= length:
                return offset, index
        return self._end, None

    def write(self, payload) -> int:
        """Pickle ``payload`` into a free extent (or at the end of the
        file); returns its page id.  A failed write records nothing."""
        self._ensure_dir()
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        fd = self._open_file()
        length = len(data)
        offset, index = self._place(length)
        try:
            view, at = memoryview(data), offset
            while view:
                written = os.pwrite(fd, view, at)
                view, at = view[written:], at + written
        except BaseException:
            if not self._extents:
                self._drop_file()
            raise
        if index is None:
            self._end = offset + length
        else:
            free_length = self._free[index][1]
            if free_length > length:
                self._free[index] = (offset + length, free_length - length)
            else:
                del self._free[index]
        page_id = self._next_id
        self._next_id += 1
        self._extents[page_id] = (offset, length)
        self.pages_written += 1
        self.bytes_written += length
        return page_id

    def read(self, page_id: int):
        """Unpickle one page payload back."""
        if self._dir is None:
            raise KeyError("no page %d: nothing spilled yet" % page_id)
        offset, length = self._extents[page_id]
        data = os.pread(self._fd, length, offset)
        while len(data) < length:
            more = os.pread(self._fd, length - len(data), offset + len(data))
            if not more:
                raise EOFError("spill page %d is truncated" % page_id)
            data += more
        self.pages_read += 1
        self.bytes_read += length
        return pickle.loads(data)

    def delete(self, page_id: int) -> None:
        """Free one page's extent; the last live page takes the file
        with it.  Unknown ids are ignored: a page may be deleted after
        a close already swept everything."""
        extent = self._extents.pop(page_id, None)
        if extent is None:
            return
        if not self._extents:
            self._drop_file()
            return
        offset, length = extent
        free = self._free
        index = bisect_left(free, extent)
        if index < len(free) and offset + length == free[index][0]:
            length += free.pop(index)[1]
        if index and free[index - 1][0] + free[index - 1][1] == offset:
            index -= 1
            offset, previous = free.pop(index)
            length += previous
        if offset + length == self._end:
            self._end = offset
        else:
            free.insert(index, (offset, length))

    def remove_dir_if_empty(self) -> None:
        """Remove the spill directory while no page is live; the next
        write creates it again."""
        if self._dir is not None and not self._extents:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def close(self) -> None:
        """Remove the spill directory and everything in it."""
        self.closed = True
        self._extents = {}
        self._drop_file()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
