"""The CLI's file access: two readers and write-to-temp-then-rename helpers."""

from __future__ import annotations

import os


class TextDecodeError(ValueError):
    """A text input is not UTF-8; the message names the file and the byte offset."""
    exit_code = 1


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def read_text(path: str) -> str:
    """The file at `path` decoded as strict UTF-8, its line endings kept as they are."""
    data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TextDecodeError(f"{path}: not UTF-8: byte 0x{data[exc.start]:02X} "
                              f"at byte offset {exc.start}") from None


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Replace `path` with `data` through a temporary file and a rename.

    A new file gets the mode open() would give it (0o666 less the umask);
    a replaced file keeps its mode.
    """
    import tempfile  # here, so that a command that writes nothing does not load it

    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    folder, name = os.path.split(path)
    fd, tmp_name = tempfile.mkstemp(dir=folder or ".", prefix=name + ".")
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


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def make_backup(path: str) -> None:
    """Copy `path` and its mode to `path.bak`, replacing any previous backup.

    The old backup is removed first: it may carry a read-only mode copied
    from a read-only original.
    """
    import shutil  # here, like `tempfile` above

    backup = f"{path}.bak"
    if os.path.lexists(backup):
        os.unlink(backup)
    shutil.copy(path, backup)
