"""The benchmark's trace hooks must all resolve against the library.

bench/tracing.py patches library names by string; a rename or a removed
import in colsfm silently turns its metrics into "absent".  This test
imports the tracing module the way bench/run.py does and checks that every
hook still finds its target.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_hook_resolves():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pass
    assert tracer.missing == set()
