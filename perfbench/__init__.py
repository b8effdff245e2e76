"""The repository benchmark: cold fits and served requests.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints one JSON result
line; ``perfbench/NOTES.md`` records why each workload exists and which
per-layer metric should move which end-to-end metric.
"""
