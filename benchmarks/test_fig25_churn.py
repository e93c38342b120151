"""Figure 25 (extension): membership churn study.

Sweeps Poisson join/leave rates across the elastic protocols
(hop/backup, adpsgd, partial-allreduce), asserting the membership
plane's claims: every never-leaving worker finishes, repaired
topologies keep a positive spectral gap, rate 0 stays bit-static, and
rewire control cost grows with churn.
"""

from repro.harness import fig25_churn


def test_fig25_churn(benchmark, record_figure):
    result = benchmark.pedantic(
        lambda: fig25_churn(preset="bench", workload_name="svm"),
        rounds=1,
        iterations=1,
    )
    record_figure(result)
