"""Suite-wide settings and fixtures.

Hypothesis draws the same examples on every run.  ``engine_calls`` spies on
the SDP engine, and ``eigh_calls`` on NumPy's Hermitian eigensolvers.
"""

import numpy as np
import pytest
from hypothesis import settings

from qot import sdp

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def engine_calls(monkeypatch):
    """A list that receives the (args, kwargs) of every call to
    ``sdp.solve_blocks`` made through the module for the rest of the test;
    the engine itself still runs."""
    calls = []
    engine = sdp.solve_blocks

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return engine(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve_blocks", spy)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that receives the name and input shape of every call to
    ``np.linalg.eigh`` or ``np.linalg.eigvalsh`` for the rest of the test;
    the decompositions themselves still run."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def spy(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls
