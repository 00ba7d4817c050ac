"""Atomic file output: writers go through a same-directory temporary file and
``os.replace``, so a partial output never lands under the final name, even when a
streamed text fails partway."""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of strings consumed one at a time, to
    ``path`` through a temporary file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(path: str, obj) -> None:
    """Deterministic JSON dump: sorted keys, two-space indent, newline at end."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
