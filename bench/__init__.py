"""The performance benchmark: five workloads, end-to-end and per-layer metrics.

Everything here measures ``src/repro`` from outside, through its public
functions only; see ``bench/README.md``. ``benchmarks/`` (the pytest
figure/S-series) regenerates the paper's figures and is not this.
"""
