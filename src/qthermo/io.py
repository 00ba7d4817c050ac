"""Matrix JSON decoding and atomic file output.

Matrices arrive as {"dim": n, "re": [[...]], "im": [[...]]} with the
imaginary block optional.  Writers go through a same-directory
temporary file and ``os.replace`` so partially written outputs never land
under the final name, even when a streamed text fails partway.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable

import numpy as np

from .errors import ScenarioError


def _as_int(value, where: str) -> int:
    """A JSON integer (a bool or a float is not one) as an int; else ScenarioError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """Decode a matrix object; raises ScenarioError with context on misuse."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what}: expected an object, got {type(obj).__name__}")
    if "dim" not in obj or "re" not in obj:
        raise ScenarioError(f'{what}: needs "dim" and "re" fields')
    dim = _as_int(obj["dim"], f"{what}.dim")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: malformed numeric data: {exc}") from None
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ScenarioError(
            f"{what}: blocks must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    a = re + 1j * im
    if not np.isfinite(re).all() or not np.isfinite(im).all():
        raise ScenarioError(f"{what}: entries must be finite")
    return a


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
