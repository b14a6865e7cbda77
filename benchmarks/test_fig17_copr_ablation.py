"""Figure 17 — speedup with different COPR component mixes.

Paper: PaPR alone reaches 11.5 % average speedup, adding the Global
Indicator lifts it to the full 15.3 %, and LiPR matters mainly for the
mixed workloads.  This bench re-runs Attaché with three predictor
configurations on a representative subset plus both mixes.
"""

from conftest import bench_scale, publish

from repro.analysis import format_table, geometric_mean
from repro.analysis.figures import figure_point, simulate

#: Representative subset: streaming, irregular, incompressible, mixes.
WORKLOADS = ("mcf", "lbm", "omnetpp", "bc.kron", "pr.kron", "STREAM",
             "RAND", "mix1", "mix2")

ABLATIONS = (
    ("PaPR only", dict(use_global_indicator=False, use_line_predictor=False)),
    ("PaPR+GI", dict(use_line_predictor=False)),
    ("PaPR+GI+LiPR", dict()),
)


def test_fig17_copr_component_ablation(benchmark, result_cache, report_dir):
    scale = bench_scale()
    # Per workload: its baseline (a Fig. 12 point), then one Attaché
    # point per ablation.
    points = {
        name: [figure_point(name, "baseline", scale)] + [
            figure_point(name, "attache", scale,
                         copr_config=scale.copr_config(**overrides))
            for __, overrides in ABLATIONS
        ]
        for name in WORKLOADS
    }

    def collect():
        results = simulate(
            [point for row in points.values() for point in row],
            result_cache,
        )
        rows = []
        for name, (base, *ablations) in points.items():
            cycles = results[base.key()].runtime_core_cycles
            rows.append([name] + [
                cycles / results[point.key()].runtime_core_cycles
                for point in ablations
            ])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    means = [
        geometric_mean([r[i + 1] for r in rows]) for i in range(len(ABLATIONS))
    ]
    # Shape: adding components never hurts much, full COPR is best or
    # statistically tied; the full configuration must show real speedup.
    assert means[2] >= means[0] - 0.02
    assert means[2] > 1.02
    # LiPR helps the mixes specifically (paper's stated motivation).
    mixes = [r for r in rows if r[0].startswith("mix")]
    mix_papr_gi = geometric_mean([r[2] for r in mixes])
    mix_full = geometric_mean([r[3] for r in mixes])
    assert mix_full >= mix_papr_gi - 0.03

    rows.append(["GEOMEAN"] + means)
    table = format_table(
        ["benchmark"] + [label for label, __ in ABLATIONS],
        rows,
        title="Figure 17: Speedup with different COPR components",
    )
    publish(report_dir, "fig17_copr_ablation", table)
