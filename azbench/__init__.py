"""The repository benchmark: four Table I workloads, end-to-end and per-layer metrics.

See ``azbench/README.md`` for the workloads, the metrics and how to run it.
"""
