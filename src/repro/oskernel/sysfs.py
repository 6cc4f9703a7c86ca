"""A sysfs-like configuration surface.

The paper programs NCAP's ReqMonitor template registers "through the
operating system's sysfs interface" during NIC driver initialization
(Section 4.1).  This module provides that administrative surface: a
hierarchical attribute tree with read/write handlers, so examples and tests
can configure the NIC the way an operator would.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

#: A directory attribute: ``read(owner) -> str`` and
#: ``write(owner, value)``, or None for a read-only attribute.
DirAttribute = Tuple[Callable[[object], str], Optional[Callable[[object, str], None]]]


class SysfsError(KeyError):
    """Raised for reads/writes of unknown attributes, and for writes of
    read-only ones."""


class SysFS:
    """A registry of attribute paths with optional read/write handlers.

    An attribute with a reader and no writer is read-only.  A directory
    (:meth:`register_dir`) resolves its attributes by name through a
    table, so many directories can share one.
    """

    def __init__(self) -> None:
        self._readers: Dict[str, Callable[[], str]] = {}
        self._writers: Dict[str, Callable[[str], None]] = {}
        self._values: Dict[str, str] = {}
        self._dirs: Dict[str, Tuple[object, Mapping[str, DirAttribute]]] = {}

    @staticmethod
    def _normalize(path: str) -> str:
        return "/" + path.strip("/")

    def register(
        self,
        path: str,
        read: Optional[Callable[[], str]] = None,
        write: Optional[Callable[[str], None]] = None,
        initial: Optional[str] = None,
    ) -> None:
        """Expose an attribute at ``path``.

        With no handlers the attribute is a plain stored value.
        """
        path = self._normalize(path)
        if read is not None:
            self._readers[path] = read
        if write is not None:
            self._writers[path] = write
        if initial is not None:
            self._values[path] = initial
        elif read is None and write is None and path not in self._values:
            self._values[path] = ""

    def register_dir(
        self, prefix: str, owner: object, table: Mapping[str, DirAttribute]
    ) -> None:
        """Expose every attribute of ``table`` under ``prefix``, each read
        from (and written to) ``owner`` by its table entry."""
        self._dirs[self._normalize(prefix)] = (owner, table)

    def _dir_attribute(self, path: str) -> Optional[Tuple[object, DirAttribute]]:
        head, _, name = path.rpartition("/")
        entry = self._dirs.get(head)
        if entry is None or name not in entry[1]:
            return None
        owner, table = entry
        return owner, table[name]

    def read(self, path: str) -> str:
        path = self._normalize(path)
        if path in self._readers:
            return self._readers[path]()
        if path in self._values:
            return self._values[path]
        found = self._dir_attribute(path)
        if found is not None:
            owner, (read, _) = found
            return read(owner)
        raise SysfsError(path)

    def write(self, path: str, value: str) -> None:
        path = self._normalize(path)
        if path in self._writers:
            self._writers[path](value)
            self._values[path] = value
            return
        if path in self._readers:
            raise SysfsError(f"{path} is read-only")
        if path in self._values:
            self._values[path] = value
            return
        found = self._dir_attribute(path)
        if found is None:
            raise SysfsError(path)
        owner, (_, write) = found
        if write is None:
            raise SysfsError(f"{path} is read-only")
        write(owner, value)

    def exists(self, path: str) -> bool:
        path = self._normalize(path)
        return (
            path in self._readers
            or path in self._values
            or self._dir_attribute(path) is not None
        )

    def ls(self, prefix: str = "/") -> list:
        """All attribute paths under ``prefix``."""
        prefix = self._normalize(prefix)
        names = set(self._readers) | set(self._values) | set(self._writers)
        for head, (_, table) in self._dirs.items():
            names.update(f"{head}/{name}" for name in table)
        if prefix == "/":
            return sorted(names)
        return sorted(n for n in names if n.startswith(prefix + "/") or n == prefix)
