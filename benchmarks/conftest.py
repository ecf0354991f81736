"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper: it runs the
figure's scenario once, asserts the paper's qualitative claims on the
payload and prints the rendered figure to stdout.  The heavy accelerator
sweeps are executed exactly once per benchmark (``rounds=1``) because the
quantity of interest is the *result*, not the harness runtime.  Paper-scale
workloads are used wherever they finish in a few tens of seconds; the two
largest sweeps are run at half scale, which preserves every qualitative
trend (the sparsity profiles are unchanged).

Wall-clock performance is measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

from repro.api import Session


def run_once(benchmark, name, **params):
    """Run scenario ``name`` exactly once under pytest-benchmark; return its payload."""
    result = benchmark.pedantic(
        Session().run, args=(name,), kwargs=params, rounds=1, iterations=1
    )
    return result.payload
