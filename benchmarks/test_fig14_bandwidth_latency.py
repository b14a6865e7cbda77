"""Figure 14 — memory bandwidth usage and average memory latency.

Paper: Attaché's gains come from ~16 % higher achieved line bandwidth,
which translates into ~14 % lower average memory read latency.  Reuses
the Fig. 12 simulation sweep.

Note on the bandwidth metric: Fig. 14(a) plots *useful* line bandwidth.
With compression the bytes moved per line shrink, so the table reports
demand lines served per kilocycle (line throughput) and mean read
latency, each relative to the baseline.
"""

from conftest import figure_rows


def test_fig14_bandwidth_and_latency(benchmark, result_cache, report_dir):
    rows = benchmark.pedantic(
        figure_rows, args=("fig14_bandwidth_latency", result_cache,
                           report_dir),
        rounds=1, iterations=1,
    )
    __, bandwidth_mean, latency_mean = rows[-1]

    # Shape (paper: +16 % bandwidth, -14 % latency).
    assert bandwidth_mean > 1.02, "Attaché must raise line bandwidth"
    assert latency_mean < 0.99, "Attaché must lower mean read latency"
