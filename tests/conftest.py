"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _shapes_passed(monkeypatch, name):
    """The shapes of the matrices passed to ``np.linalg.<name>`` while the test runs."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    return _shapes_passed(monkeypatch, "svd")


@pytest.fixture
def qr_calls(monkeypatch):
    return _shapes_passed(monkeypatch, "qr")
