"""Ablation — valid/dirty-bit granularity (paper Section 3.3).

``suites/granularity.yaml`` declares the traffic-kind sweep (each
cell walks the functional trace through the traffic model at one
granule size); this file asserts the paper's shape over the run-table
rows: coarser granules must not reduce quad-word traffic.
"""


def test_granularity_ablation(
    benchmark, emit, functional_window, sweep_suite
):
    result = benchmark.pedantic(
        lambda: sweep_suite("granularity", functional_window),
        rounds=1, iterations=1,
    )
    emit("ablation_granularity", result.render_summary())
    assert result.ok, [row.error for row in result.rows if not row.ok]
    assert result.kind == "traffic"

    totals = {8: 0, 16: 0, 32: 0}
    for row in result.rows:
        totals[row.level("svf_granularity")] += row.metric("qw_total")
    assert totals[8] <= totals[16] <= totals[32], (
        "coarser granularity must not reduce traffic"
    )
    assert totals[32] > totals[8], (
        "32-byte granules should cost measurably more traffic"
    )
