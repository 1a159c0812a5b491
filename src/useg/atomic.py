"""Whole-or-nothing file writes, shared by the dataset and model writers."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file in the same directory
    and `os.replace`: `path` holds either what it held before or all of
    `data`, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
