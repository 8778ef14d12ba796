import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(f) -> (f(), the most bytes f's allocations held at once, as tracemalloc counts them).

    numpy reports its array buffers to tracemalloc, so arrays made before the
    call (the caller's inputs) do not count, and arrays f returns do.
    """
    def peak(f):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = f()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak
