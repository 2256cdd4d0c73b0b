from __future__ import annotations

import os
import stat

import pytest

from labelforge.fileio import atomic_write_bytes


def test_atomic_write_keeps_the_target_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.eps"
    target.write_bytes(b"old bytes")
    target.chmod(0o640)

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_bytes(target, b"new bytes")
    assert target.read_bytes() == b"old bytes"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out.eps"]  # no out.eps.* temp file left
