"""Serving benchmark: a real ``repro`` server driven over HTTP.

``python3 trafficbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against a server (or cluster) in its own process and
prints one JSON result line.  See ``trafficbench/README.md``.
"""
