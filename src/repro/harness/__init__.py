"""Experiment harness: workloads, specs, figure reproduction, reports.

Public API (each name is imported from its defining module, so a run
never loads the figure registry)::

    from repro.harness.figures import ALL_FIGURES

    result = ALL_FIGURES["fig16"]("smoke")
    print(result.render())
    assert result.passed()
"""
