"""Artifact writes that never leave a partial file behind."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ContractError


@contextmanager
def replacing(path, mode: str = "w", **open_kwargs):
    """Write through a temporary file beside ``path``, then move it onto
    ``path`` with ``os.replace``: a reader sees the old file or the whole new
    one, never part of it. On an error the temporary file is removed and
    ``path`` is left as it was. A missing directory of ``path`` is created."""
    if not Path(path).name:  # "", "." or "/" names no file
        raise ContractError(f"not a file path: {str(path)!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
