"""Figure 13 — memory-system energy relative to the baseline.

Paper: Attaché saves 22 % (ideal 23 %), metadata caching only 10 % and
*increases* energy 40 % on RAND.  Savings come from sub-ranked bursts
energising half the chips, fewer total requests, and shorter runtime
(background energy).  Reuses the Fig. 12 simulation sweep.
"""

from conftest import figure_rows


def test_fig13_energy_vs_baseline(benchmark, result_cache, report_dir):
    rows = benchmark.pedantic(
        figure_rows, args=("fig13_energy", result_cache, report_dir),
        rounds=1, iterations=1,
    )
    *per_workload, (__, md_mean, attache_mean, ideal_mean) = rows

    # Shape (paper: md 0.90, attache 0.78, ideal 0.77).
    assert attache_mean < md_mean, "Attaché must save more than md-cache"
    assert attache_mean < 0.97, "Attaché must show clear energy savings"
    assert ideal_mean <= attache_mean + 0.02
    # Metadata caching costs energy on its pathological workload.
    by_name = {r[0]: r for r in per_workload}
    assert by_name["RAND"][1] > 1.0, "metadata cache must burn energy on RAND"
    assert by_name["RAND"][2] < by_name["RAND"][1] - 0.05
