"""The benchmark harness: four modes, one report shape, one baseline.

* :mod:`repro.bench.benchmark` — the modes: the figure gate (a fast subset
  of the experiments' own sweeps), TPC-H-style power and throughput runs
  over the numbered query streams of :mod:`repro.bench.query_stream`, and
  throughput with a deterministic mid-run fault
  (:mod:`repro.bench.faults`: a
  :class:`~repro.core.multiquery.MultiQuerySession` plus a
  :class:`~repro.bench.faults.FaultSchedule`, replanning victims through
  ``session.replace``).  Each returns a
  :class:`~repro.bench.benchmark.BenchReport`.
* :mod:`repro.bench.baseline` — the BENCH v2 document and the comparison
  against the committed ``BENCH_baseline.json``.
* :mod:`repro.bench.cli` — ``python -m repro bench``.
"""
