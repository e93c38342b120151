"""Figure 24 (extension): simulator scaling study.

Sweeps 8 -> 128 workers across hop, ring all-reduce and the async
parameter server, asserting the at-scale claims: hop's simulated
iteration time is flat in cluster size while the PS hotspot degrades
linearly, decentralized wins at the largest scale, and the real cost
of simulating hop stays near-linear in workers (the engine-regression
tripwire).  The repo benchmark's ``svm-scale`` workload (``bench/``)
times the 64-, 256- and 1024-worker hop cells.
"""

from repro.harness import fig24_scaling


def test_fig24_scaling(benchmark, record_figure):
    result = benchmark.pedantic(
        lambda: fig24_scaling(preset="bench", workload_name="svm"),
        rounds=1,
        iterations=1,
    )
    record_figure(result)
