"""A simulated per-site filesystem.

Deployments are "installed" into this filesystem: archives are
transferred in by GridFTP, expanded by deploy-file steps, and the GLARE
service identifies deployments "by exploring bin sub directory of the
deployed activity home for executables" (paper §2.2/§3.4) — which is
exactly what :meth:`Filesystem.find_executables` supports.

Paths are POSIX-style strings; directories are implicit (created by
``mkdir_p`` or on file creation with ``parents=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple


class FilesystemError(Exception):
    """Missing paths, collisions, or malformed operations."""


def normalize(path: str) -> str:
    """Collapse a POSIX path to a canonical absolute form."""
    if not path or not path.startswith("/"):
        raise FilesystemError(f"path must be absolute: {path!r}")
    parts: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def join(base: str, *rest: str) -> str:
    """Join path fragments under an absolute base."""
    out = base
    for fragment in rest:
        if fragment.startswith("/"):
            out = fragment
        else:
            out = out.rstrip("/") + "/" + fragment
    return normalize(out)


@dataclass
class FileEntry:
    """A regular file: size, executability, provenance."""

    path: str
    size: int
    executable: bool = False
    md5sum: str = ""
    source_url: str = ""
    created_at: float = 0.0
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


class Filesystem:
    """Directory tree + file table for one Grid site."""

    def __init__(self) -> None:
        self._dirs = {"/"}
        self._files: Dict[str, FileEntry] = {}

    # -- directories ------------------------------------------------------

    def mkdir_p(self, path: str) -> str:
        """Create a directory and all ancestors; returns the normalized path."""
        path = normalize(path)
        if path in self._files:
            raise FilesystemError(f"cannot mkdir over a file: {path}")
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            self._dirs.add(current)
        return path

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self._dirs

    def exists(self, path: str) -> bool:
        path = normalize(path)
        return path in self._dirs or path in self._files

    def rmtree(self, path: str) -> int:
        """Delete a directory subtree; returns the number of files removed."""
        path = normalize(path)
        if path not in self._dirs:
            raise FilesystemError(f"no such directory: {path}")
        prefix = path.rstrip("/") + "/"
        removed = 0
        for file_path in [p for p in self._files if p.startswith(prefix) or p == path]:
            del self._files[file_path]
            removed += 1
        self._dirs = {d for d in self._dirs if not (d == path or d.startswith(prefix))}
        return removed

    # -- files -------------------------------------------------------------

    def put_file(
        self,
        path: str,
        size: int,
        executable: bool = False,
        md5sum: str = "",
        source_url: str = "",
        created_at: float = 0.0,
        parents: bool = True,
    ) -> FileEntry:
        """Create (or replace) a file."""
        path = normalize(path)
        if size < 0:
            raise FilesystemError("file size must be non-negative")
        if path in self._dirs:
            raise FilesystemError(f"cannot create file over a directory: {path}")
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self._dirs:
            if not parents:
                raise FilesystemError(f"parent directory missing: {parent}")
            self.mkdir_p(parent)
        entry = FileEntry(
            path=path,
            size=size,
            executable=executable,
            md5sum=md5sum,
            source_url=source_url,
            created_at=created_at,
        )
        self._files[path] = entry
        return entry

    def get_file(self, path: str) -> FileEntry:
        """Look up a file, raising on absence."""
        path = normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise FilesystemError(f"no such file: {path}")

    def is_executable(self, path: str) -> bool:
        """Whether ``path`` is an executable file."""
        try:
            return self.get_file(path).executable
        except FilesystemError:
            return False

    def remove_file(self, path: str) -> None:
        path = normalize(path)
        if path not in self._files:
            raise FilesystemError(f"no such file: {path}")
        del self._files[path]

    def listdir(self, path: str) -> List[str]:
        """Immediate children (names, sorted) of a directory."""
        path = normalize(path)
        if path not in self._dirs:
            raise FilesystemError(f"no such directory: {path}")
        prefix = path.rstrip("/") + "/" if path != "/" else "/"
        names = set()
        for d in self._dirs:
            if d != path and d.startswith(prefix):
                names.add(d[len(prefix):].split("/", 1)[0])
        for f in self._files:
            if f.startswith(prefix):
                names.add(f[len(prefix):].split("/", 1)[0])
        return sorted(names)

    def walk_files(self, path: str = "/") -> Iterator[FileEntry]:
        """Iterate over all files under ``path``."""
        path = normalize(path)
        prefix = path.rstrip("/") + "/" if path != "/" else "/"
        for file_path in sorted(self._files):
            if file_path == path or file_path.startswith(prefix):
                yield self._files[file_path]

    def find_executables(self, home: str) -> List[FileEntry]:
        """Executables in ``home``'s ``bin`` subdirectories.

        This is the automatic deployment-identification heuristic from
        the paper: "GLARE service can automatically find, for instance
        by exploring bin sub directory of the deployed activity home".
        """
        home = normalize(home)
        found = []
        for entry in self.walk_files(home):
            parent = entry.path.rsplit("/", 1)[0]
            if entry.executable and parent.rsplit("/", 1)[-1] == "bin":
                found.append(entry)
        return found

    def disk_usage(self) -> Tuple[int, int]:
        """``(file_count, total_bytes)`` across the whole filesystem."""
        return len(self._files), sum(f.size for f in self._files.values())

    def expand_archive(
        self, archive_path: str, dest_dir: str, contents: List[Tuple[str, int, bool]],
        created_at: float = 0.0,
    ) -> List[FileEntry]:
        """Unpack an archive: create ``contents`` under ``dest_dir``.

        ``contents`` is a list of ``(relative_path, size, executable)``.
        The archive itself must exist (it was GridFTP'd in first).
        """
        self.get_file(archive_path)  # raises if the archive is missing
        dest_dir = self.mkdir_p(dest_dir)
        created = []
        for rel_path, size, executable in contents:
            full = join(dest_dir, rel_path)
            created.append(
                self.put_file(full, size, executable=executable, created_at=created_at)
            )
        return created
