"""Write-to-temp-then-rename file helpers."""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Replace `path` with `data` through a temporary file and a rename.

    A new file gets the mode open() would give it (0o666 less the umask);
    a replaced file keeps its mode.
    """
    path = Path(path)
    try:
        mode = path.stat().st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def make_backup(path: str | Path) -> Path:
    """Copy `path` and its mode to `path.bak`, replacing any previous backup.

    The old backup is removed first: it may carry a read-only mode copied
    from a read-only original.
    """
    path = Path(path)
    backup = path.with_name(path.name + ".bak")
    backup.unlink(missing_ok=True)
    shutil.copy(path, backup)
    return backup
