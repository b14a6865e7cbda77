"""Figure 12 — speedup over the no-compression baseline.

The paper's headline result: on average, Attaché achieves 15.3 % speedup
(close to the ideal 17 %), while a 1 MB metadata-cache system reaches
only 8 % and *slows down* metadata-hostile workloads (RAND: -17 %,
bc.kron negative).  This bench runs every benchmark and mix through all
four systems on the cycle-level simulator and reports the speedups; the
shape to check is the ordering (ideal >= Attaché > metadata-cache on
average) and the metadata-cache pathologies.
"""

from conftest import figure_rows


def test_fig12_speedup_over_baseline(benchmark, result_cache, report_dir):
    rows = benchmark.pedantic(
        figure_rows, args=("fig12_speedup", result_cache, report_dir),
        rounds=1, iterations=1,
    )
    *per_workload, (__, md_mean, attache_mean, ideal_mean) = rows

    # Shape assertions (paper: md ~1.08, attache ~1.153, ideal ~1.17).
    assert attache_mean > md_mean, "Attaché must beat metadata caching"
    assert ideal_mean >= attache_mean - 0.01, "ideal upper-bounds Attaché"
    assert attache_mean > 1.02, "Attaché must show a clear speedup"
    assert ideal_mean > 1.05
    # Metadata caching hurts its pathological workloads.
    by_name = {r[0]: r for r in per_workload}
    assert by_name["RAND"][1] < 1.0, "metadata cache must slow RAND down"
    assert by_name["RAND"][2] > by_name["RAND"][1] + 0.05
    # Attaché tracks ideal within a few percent on average.
    assert ideal_mean - attache_mean < 0.08
