"""Self time, cross-thread parents and patching of the benchmark's tracer."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def _busy(seconds: float) -> None:
    time.sleep(seconds)


def test_covered_is_the_union_length():
    assert tracing._covered([]) == 0.0
    assert tracing._covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == pytest.approx(3.0)


def test_nested_span_is_subtracted_from_its_parent():
    tr = tracing.Tracer()
    inner = tr.wrap("pwfun.l1_distance", lambda: _busy(0.03))

    def outer_body():
        _busy(0.02)
        inner()
        inner()

    tr.wrap("metrics.check_tmain", outer_body)()
    funcs = tr.functions()
    outer, leaf = funcs["metrics.check_tmain"], funcs["pwfun.l1_distance"]
    assert leaf["calls"] == 2
    assert outer["total_s"] >= 0.08
    assert outer["self_s"] == pytest.approx(outer["total_s"] - leaf["total_s"],
                                            abs=1e-3)
    assert 0.015 <= outer["self_s"] < 0.05
    edges = {(e["function"], e["parent"]) for e in tr.edge_list()}
    assert ("pwfun.l1_distance", "metrics.check_tmain") in edges


def test_worker_thread_spans_are_children_of_the_waiting_caller():
    tr = tracing.Tracer()
    inner = tr.wrap("linear_hd.hat_d_lin", lambda: _busy(0.05))

    def pool_body():
        workers = [threading.Thread(target=inner) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)

    tr.wrap("metrics.stability_suite", pool_body)()
    suite = tr.functions()["metrics.stability_suite"]
    # the two children overlap; only their union leaves the caller's self time
    assert 0.0 <= suite["self_s"] < 0.03
    assert tr.functions()["linear_hd.hat_d_lin"]["calls"] == 2


def test_install_wraps_imported_names_and_uninstall_restores():
    from fluxstab import cli, fluxes, metrics, riemann

    orig = riemann.hat_d_estimate
    orig_inv = fluxes.ScalarFlux.inverse_deriv
    tr = tracing.Tracer()
    tr.install()
    try:
        assert riemann.hat_d_estimate.__wrapped__ is orig
        assert metrics.hat_d_estimate is riemann.hat_d_estimate
        assert cli.ft_evolve.__wrapped__ is not None
        pair = metrics.bundled_pairs()[0]
        metrics.check_pgeneral(pair["f"], pair["g"],
                               riemann.RiemannSampler(n_grid=3, n_near=2))
    finally:
        tr.uninstall()
    assert riemann.hat_d_estimate is orig and metrics.hat_d_estimate is orig
    assert fluxes.ScalarFlux.inverse_deriv is orig_inv
    funcs = tr.functions()
    assert funcs["riemann.riemann_l1_diff"]["calls"] == 3 * 2 + 2
    assert funcs["riemann.hat_d_estimate"]["calls"] == 1
    assert funcs["fluxes.ScalarFlux.inverse_deriv"]["points"] > 0
    edges = {(e["function"], e["parent"]) for e in tr.edge_list()}
    assert ("riemann.hat_d_estimate", "metrics.check_pgeneral") in edges


def test_layer_metrics_per_unit_of_work():
    funcs = {
        "front_tracking.ft_evolve": {"calls": 2, "total_s": 3.0, "self_s": 1.0,
                                     "collisions": 500},
        "front_tracking.evolution_window": {"calls": 4, "total_s": 0.5,
                                            "self_s": 0.5},
        "euler.fv_evolve": {"calls": 1, "total_s": 2.0, "self_s": 2.0,
                            "cell_steps": 10 ** 6},
    }
    m = tracing.layer_metrics(funcs)
    assert m["front_tracking.collisions"] == (500, "count")
    assert m["front_tracking.us_per_collision"][0] == pytest.approx(3000.0)
    assert m["euler.ns_per_cell_step"][0] == pytest.approx(2000.0)
    # a layer the round never called reads zero work and zero time
    assert m["lax_oleinik.points"] == (0, "count")
    assert m["lax_oleinik.self_us_per_point"][0] == 0.0
