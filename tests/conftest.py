"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

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


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's seeded configuration generator, ``benchmarks/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
