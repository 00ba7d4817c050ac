"""Tests for the package's public surface."""

import qthermo


def test_public_names_resolve_once():
    # A stale __all__ breaks ``from qthermo import *``.
    assert len(qthermo.__all__) == len(set(qthermo.__all__))
    missing = [name for name in qthermo.__all__ if not hasattr(qthermo, name)]
    assert missing == []
