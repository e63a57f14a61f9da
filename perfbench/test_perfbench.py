"""Self-tests of the benchmark: its checks, its self-time arithmetic and
its failure counting.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spans
from workloads import (STOKES_TABLE, WORKLOADS, CheckFailed, Outcome, judge,
                       ladder_h)

SRC = Path(__file__).resolve().parent.parent / "src"


def ladder_spec(refinements):
    return SimpleNamespace(h0=0.5, refinements=refinements)


def report_with_slopes(spec, **slopes):
    h = ladder_h(spec)
    return SimpleNamespace(columns={name: 0.3 * h ** s for name, s in slopes.items()})


def test_poisson_check_accepts_orders_and_rejects_a_slope_off_by_0_3():
    w, spec = WORKLOADS["poisson-p1-r7"], ladder_spec(7)
    assert judge(w, spec, report_with_slopes(spec, L2=2.0, H1=1.0), {})[0] is False
    with pytest.raises(CheckFailed):
        judge(w, spec, report_with_slopes(spec, L2=2.3, H1=1.0), {})
    with pytest.raises(CheckFailed):
        judge(w, spec, report_with_slopes(spec, L2=2.0, H1=0.7), {})


def test_heat_check_rejects_a_slope_off_by_more_than_0_3():
    w, spec = WORKLOADS["heat-p2-r3"], ladder_spec(3)
    assert judge(w, spec, report_with_slopes(spec, L2=3.0), {})[0] is False
    with pytest.raises(CheckFailed):
        judge(w, spec, report_with_slopes(spec, L2=3.35), {})
    with pytest.raises(CheckFailed):
        judge(w, spec, report_with_slopes(spec, L2=2.65), {})


def test_stokes_check_rejects_a_column_scaled_by_1_06():
    w, spec = WORKLOADS["stokes-th-r5"], ladder_spec(5)
    exact = SimpleNamespace(columns={k: list(v) for k, v in STOKES_TABLE.items()})
    assert judge(w, spec, exact, {})[0] is False
    for name in STOKES_TABLE:
        cols = {k: list(v) for k, v in STOKES_TABLE.items()}
        cols[name] = [1.06 * v for v in cols[name]]
        with pytest.raises(CheckFailed, match="worst relative deviation"):
            judge(w, spec, SimpleNamespace(columns=cols), {})


def newton_result(converged, norms=(32.5, 8.25, 1.5e-4, 5.7e-7, 1.5e-7)):
    return SimpleNamespace(converged=converged, increment_norms=list(norms),
                           iterations=len(norms))


def newton_context(ratio):
    return {"coarse_error": ratio, "velocity_error": lambda spec, result: 1.0}


def test_newton_check_rejects_a_small_error_ratio_and_slow_increments():
    w, spec = WORKLOADS["ns-newton-r3"], ladder_spec(3)
    assert judge(w, spec, newton_result(True), newton_context(8.25))[0] is False
    with pytest.raises(CheckFailed, match="error fell"):
        judge(w, spec, newton_result(True), newton_context(5.0))
    # 1e-2 -> 5e-3 is linear, not superlinear
    with pytest.raises(CheckFailed, match="superlinearly"):
        judge(w, spec, newton_result(True, (32.5, 1e-2, 5e-3, 1e-7)),
              newton_context(8.25))


def test_unconverged_newton_counts_as_one_failed_solve_and_stays_correct():
    w, spec = WORKLOADS["ns-newton-r3"], ladder_spec(3)
    outcome = Outcome()
    outcome.record(w, spec, newton_result(False), newton_context(8.25))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, True)
    outcome.record(w, spec, newton_result(True), newton_context(8.25))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (2, 1, True)


def test_a_raising_solve_counts_as_failed():
    w, spec = WORKLOADS["stokes-th-r5"], ladder_spec(5)
    outcome = Outcome()
    outcome.record(w, spec, None, {}, error=RuntimeError("sparse solve failed"))
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "sparse solve failed" in outcome.notes[0]


def test_a_failed_check_counts_as_failed_and_incorrect():
    w, spec = WORKLOADS["heat-p2-r3"], ladder_spec(3)
    outcome = Outcome()
    outcome.record(w, spec, report_with_slopes(spec, L2=2.0), {})
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, False)


def synthetic_tracer():
    """driver [0, 10] > assemble [1, 6] > (coef [2, 3], tabulate [3.5, 5]);
    driver > factor [6, 9] > trace.fill [8, 8.5] (bookkeeping)."""
    t = spans.Tracer()
    rows = [("problems.driver", 0.0, 10.0, -1),
            ("assembly.assemble", 1.0, 6.0, 0),
            ("vform.coef", 2.0, 3.0, 1),
            ("fespace.tabulate", 3.5, 5.0, 1),
            ("system.factor", 6.0, 9.0, 0),
            ("trace.fill", 8.0, 8.5, 4)]
    for name, s, e, p in rows:
        t.names.append(name)
        t.start.append(s)
        t.end.append(e)
        t.parent.append(p)
    return t


def test_self_time_of_a_nested_span_tree():
    t = synthetic_tracer()
    selfs = spans.self_times(t.names, t.start, t.end, t.parent)
    assert selfs == pytest.approx({"problems.driver": 2.0,
                                   "assembly.assemble": 2.5,
                                   "vform.coef": 1.0, "fespace.tabulate": 1.5,
                                   "system.factor": 2.5, "trace.fill": 0.5})


def test_layer_self_times_add_up_to_the_traced_time_without_bookkeeping():
    metrics, total, bookkeeping = spans.sample_metrics(synthetic_tracer())
    assert bookkeeping == pytest.approx(0.5)
    assert total == pytest.approx(9.5)
    assert sum(metrics[f"{n}_s"] for n in spans.LAYERS) == pytest.approx(total)
    assert metrics["assembly.calls"] == 1
    assert metrics["vform.entries"] == 1
    assert metrics["system.factorizations"] == 1


def test_tracing_a_real_solve_restores_every_patched_name():
    sys.path.insert(0, str(SRC))
    import trifem.problems as problems
    before = problems.assemble_system
    spec = problems.default_spec("poisson", refinements=2)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.span("problems.driver", problems.run_problem, spec)
    finally:
        uninstall()
    assert problems.assemble_system is before
    metrics, total, _ = spans.sample_metrics(tracer)
    assert sum(metrics[f"{n}_s"] for n in spans.LAYERS) == pytest.approx(total)
    # two levels: stiffness, load, Robin matrix and Robin load per level
    assert metrics["assembly.calls"] == 8
    assert metrics["system.factorizations"] == 2
    assert metrics["system.lu_fill"] > 0
    assert 0 < metrics["assembly.nnz_per_triple"] < 1
    assert np.isfinite(total)


def test_sample_loop_budgets_only_the_timed_seconds_and_takes_at_least_three():
    from run import sample_loop

    def taking(length):
        return lambda: length

    assert sample_loop(22, taking(9.4)) == 3     # 2 x 9.4 + 9.4 > 22
    assert sample_loop(22, taking(3.0)) == 7     # 7 x 3.0 + 3.0 > 22
    assert sample_loop(22, taking(2.0)) == 11    # 11 x 2.0 + 2.0 > 22
