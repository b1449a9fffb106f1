"""Repository benchmark: four workloads that drive the public entry
points of :mod:`repro` (``simulate(scenario)``, ``ServeApp``, the CLI)
and a traced variant of each that attributes host time to layers.

Run one workload with::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric map.
"""
