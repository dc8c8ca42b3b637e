"""The pattern-generation kernels every fast catalog build runs.

:mod:`repro.exec.process`
    The seed-partitioned build: plan the weight-balanced seed partitions,
    classify them into sparse rows and merge the rows in ascending-seed
    order.  :func:`~repro.exec.process.classify_partitioned` is the whole
    in-process build (``classify_antichains``, ``PatternSelector``); the
    service and the shard fleet run the same three steps around their
    partial caches.
:mod:`repro.exec.bitset`
    The vectorized classify kernel over numpy (with an optional compiled
    expansion extension; the scalar in-DFS classifier when numpy is
    unavailable).  :func:`~repro.exec.bitset.bitset_availability` says
    which of those this process runs.

The sequential references — ``_classify_reference`` in
:mod:`repro.patterns.enumeration`, ``PatternSelector._run_reference`` and
``MultiPatternScheduler._schedule_reference`` — are the oracle the
equivalence suites pin these fast paths against, bit for bit.
"""
