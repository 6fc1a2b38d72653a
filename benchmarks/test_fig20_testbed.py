"""Figure 20: accuracy of the Tofino testbed deployment vs SRAM size.

Paper result: on the IP trace the switch needs more than 368 KB of SRAM to
guarantee zero outliers (AAE within 4 Kbps); on the Hadoop trace 92 KB is
enough (AAE within 10 Kbps).  Both the outlier count and the AAE decrease
monotonically as SRAM grows.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import deployment
from repro.metrics.memory import BYTES_PER_KB


@pytest.mark.parametrize("trace_name", ["ip", "hadoop"])
def test_fig20_testbed_accuracy(benchmark, trace_name):
    curve = run_once(
        benchmark,
        deployment.testbed_accuracy,
        trace_name=trace_name,
        scale=0.002,
        seed=1,
    )
    print(f"\nFigure 20 ({trace_name}) — data-plane accuracy vs SRAM")
    for result in curve.results:
        print(
            f"  SRAM={result.sram_bytes / BYTES_PER_KB:6.1f}KB  outliers={result.outliers:>4}  "
            f"AAE={result.aae_kbps:8.1f}Kbps  recirculations={result.recirculations}"
        )

    outliers = [result.outliers for result in curve.results]
    aae = [result.aae_kbps for result in curve.results]
    # Accuracy improves with SRAM: strictly fewer outliers and lower AAE at
    # the top of the sweep than at the bottom.
    assert outliers[-1] < outliers[0]
    assert aae[-1] < aae[0]
    # The largest swept SRAM is close to eliminating outliers (the paper's
    # zero-outlier point lies within the sweep).
    assert outliers[-1] <= max(1, outliers[0] // 10)
    # Recirculation (the lock mechanism) is actually exercised.
    assert all(result.recirculations > 0 for result in curve.results)
