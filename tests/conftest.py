import numpy as np
import hypothesis.strategies as st
import pytest

from kschannel import geometry, sphere_from_zphi


def unit_vectors():
    """Hypothesis strategy: points on the unit sphere via (z, azimuth)."""
    return st.builds(
        lambda z, phi: sphere_from_zphi(z, phi),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True, allow_nan=False),
    )


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the thread pool behind ``geometry.parallel_map`` for a serial stand-in.

    Returns the list of thread counts the pools were asked for, one entry per
    pool created; no thread is started, however many are asked for.
    """
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(geometry, "ThreadPoolExecutor", SerialPool)
    return asked
