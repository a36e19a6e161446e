"""Spans around the public functions of each fluxstab layer, from outside.

``Tracer.install()`` replaces each listed function by a wrapper in every
loaded fluxstab module that holds it, so a name imported elsewhere
(``metrics`` imports ``hat_d_estimate``, ``cli`` imports ``ft_evolve``) is
wrapped there too; ``uninstall()`` puts the originals back.  A wrapper
records its span's duration and subtracts the part of that interval its
child spans cover, which gives self time.  A span opened in a worker
thread with no open span of its own is a child of the main thread's
innermost open span, the call that started the pool.

Spans are aggregated per (function, parent) edge in memory rather than
kept one by one: one round makes up to ~10^5 of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# layer -> public entry points; "Class.method" wraps a method in place.
# phi_factor and recover_velocity are left out: they are kernels called
# inside the Euler flux closures, so fv_evolve's self time covers them.
LAYERS = {
    "riemann": ["solve_riemann", "eval_fan", "riemann_l1_diff",
                "hat_d_estimate", "validate_fan"],
    "fluxes": ["burgers", "scaled_burgers", "tilted_burgers", "linear_flux",
               "convex_poly", "pl_sample", "make_flux",
               "ScalarFlux.inverse_deriv", "ScalarFlux.legendre"],
    "lax_oleinik": ["sawtooth_datum", "lax_oleinik_eval_many",
                    "lax_oleinik_eval", "rexp_counterexample",
                    "modified_datum", "oleinik_tv_bound_check",
                    "linfty_bound_check", "one_sided_lipschitz_check"],
    "front_tracking": ["ft_evolve", "semigroup_l1_diff", "evolution_window"],
    "pwfun": ["l1_distance", "total_variation"],
    "euler": ["classical_euler", "relativistic_euler", "jacobian_gap",
              "fv_evolve", "riemann_grid", "l1_state_distance",
              "classical_limit_experiment"],
    "linear_hd": ["decompose", "step_solution", "hat_d_lin",
                  "operator_norm"],
    "metrics": ["deriv_gap_sup", "check_tmain", "check_pgeneral",
                "sup_location", "lerrest_diagnostic", "bundled_pairs",
                "stability_suite"],
    "cli": ["main"],
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# work counters: function -> (counter, f(args, kwargs, result))
WORK = {
    "fluxes.ScalarFlux.inverse_deriv":
        ("points", lambda a, k, r: int(np.size(_arg(a, k, 1, "s")))),
    "lax_oleinik.lax_oleinik_eval_many":
        ("points", lambda a, k, r: int(np.size(_arg(a, k, 2, "xs")))),
    "front_tracking.ft_evolve": ("collisions", lambda a, k, r: r.n_events),
    "euler.fv_evolve":
        ("cell_steps", lambda a, k, r: int(r.U.shape[0]) * r.n_steps),
}


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack: list = []
        self._restore: list = []
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        # (function, parent) -> [calls, total_s, self_s]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])
        self.work = defaultdict(int)

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn):
        counter = WORK.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if (main and stack is not main) else None
            frame = [label, [], time.perf_counter()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                start = frame[2]
                self_s = end - start - _covered(frame[1])
                if parent is not None:
                    parent[1].append((start, end))
                with self._lock:
                    edge = self.edges[(label, parent[0] if parent else "")]
                    edge[0] += 1
                    edge[1] += end - start
                    edge[2] += self_s
            if counter is not None:
                with self._lock:
                    self.work[(label, counter[0])] += counter[1](
                        args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "fluxstab"
                                      or name.startswith("fluxstab."))]
        for layer, names in LAYERS.items():
            owner = importlib.import_module(f"fluxstab.{layer}")
            for name in names:
                label = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(label, orig))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(owner, name)
                wrapped = self.wrap(label, orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore = []

    # -- summaries ------------------------------------------------------------

    def functions(self) -> dict:
        """function -> {"calls", "total_s", "self_s", counters...}."""
        out: dict = {}
        for (label, _parent), (calls, total, self_s) in self.edges.items():
            rec = out.setdefault(label, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += total
            rec["self_s"] += self_s
        for (label, counter), n in self.work.items():
            out.setdefault(label, {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0})[counter] = n
        return out

    def edge_list(self) -> list:
        return [{"function": label, "parent": parent, "calls": c,
                 "total_s": t, "self_s": s}
                for (label, parent), (c, t, s) in sorted(self.edges.items())]


def layer_metrics(funcs: dict) -> dict:
    """Per-layer metrics of one traced round, as ``name -> (value, unit)``."""
    def get(label: str, key: str = "calls"):
        return funcs.get(label, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum((r["self_s"] for label, r in funcs.items()
                    if label.startswith(layer + ".")), 0.0)

    def per(seconds: float, n: int, scale: float) -> float:
        return seconds * scale / n if n else 0.0

    l1 = "riemann.riemann_l1_diff"
    solve = "riemann.solve_riemann"
    inv = "fluxes.ScalarFlux.inverse_deriv"
    lo = "lax_oleinik.lax_oleinik_eval_many"
    ft = "front_tracking.ft_evolve"
    pw = "pwfun.l1_distance"
    fv = "euler.fv_evolve"
    jg = "euler.jacobian_gap"
    hd = "linear_hd.hat_d_lin"
    return {
        "riemann.l1_diff_calls": (get(l1), "count"),
        "riemann.l1_diff_self_us":
            (per(get(l1, "self_s"), get(l1), 1e6), "us/call"),
        "riemann.solve_calls": (get(solve), "count"),
        "riemann.solve_us":
            (per(get(solve, "self_s"), get(solve), 1e6), "us/call"),
        "fluxes.inverse_deriv_calls": (get(inv), "count"),
        "fluxes.inverse_deriv_points": (get(inv, "points"), "count"),
        "fluxes.inverse_deriv_us":
            (per(get(inv, "self_s"), get(inv), 1e6), "us/call"),
        "lax_oleinik.points": (get(lo, "points"), "count"),
        "lax_oleinik.self_us_per_point":
            (per(layer_self("lax_oleinik"), get(lo, "points"), 1e6),
             "us/point"),
        "front_tracking.collisions": (get(ft, "collisions"), "count"),
        "front_tracking.us_per_collision":
            (per(layer_self("front_tracking"), get(ft, "collisions"), 1e6),
             "us/collision"),
        "pwfun.l1_distance_calls": (get(pw), "count"),
        "pwfun.l1_distance_us":
            (per(get(pw, "self_s"), get(pw), 1e6), "us/call"),
        "euler.cell_steps": (get(fv, "cell_steps"), "count"),
        "euler.ns_per_cell_step":
            (per(get(fv, "self_s"), get(fv, "cell_steps"), 1e9),
             "ns/cell-step"),
        "euler.jacobian_gap_ms":
            (per(get(jg, "total_s"), get(jg), 1e3), "ms/call"),
        "linear_hd.distances": (get(hd), "count"),
        "linear_hd.ms_per_distance":
            (per(layer_self("linear_hd"), get(hd), 1e3), "ms/distance"),
        "metrics.self_s": (layer_self("metrics"), "s/round"),
        "cli.self_s": (layer_self("cli"), "s/round"),
    }
