"""The repository benchmark: closed-loop workloads over ``repro.api.Session``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh, BLAS-pinned process and prints
its metrics; ``BENCHMARK.json`` at the repository root names the workloads
and metrics.  The modules here import nothing from ``repro`` at module level,
so the tests and the orchestrator load without numpy.
"""
