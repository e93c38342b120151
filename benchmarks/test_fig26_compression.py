"""Figure 26 (extension): update compression ablation.

Sweeps the compression plane (top-k with error feedback, int8
quantization) across hop, allreduce and ps-async on
bandwidth-constrained links, asserting the payload-accurate pricing
claims: compressed bytes track the schemes' arithmetic, message
patterns are unchanged, and aggressive top-k measurably buys back the
bandwidth-bound allreduce ring's wall-clock.
"""

from repro.harness import fig26_compression


def test_fig26_compression(benchmark, record_figure):
    result = benchmark.pedantic(
        lambda: fig26_compression(preset="bench", workload_name="svm"),
        rounds=1,
        iterations=1,
    )
    record_figure(result)
