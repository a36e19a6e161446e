"""The four workloads: seeded inputs built once, then whole rounds.

Each workload's constructor does the set-up (config parsing and input
generation from the seed); ``round(ledger)`` runs one closed loop of
fluxstab calls and records a verdict for every output.  Rounds of one
workload repeat the same operations, so the share of failed operations
is the same in every run.  fluxstab functions are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np

import checks
from fluxstab import (cli, config, euler, fluxes, front_tracking, lax_oleinik,
                      linear_hd, metrics, riemann)
from fluxstab.pwfun import PiecewiseConstantFn

NUM = r"([-+0-9.eEnaif]+)"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def grab(pattern: str, text: str) -> list[tuple[float, ...]]:
    """Every match of ``pattern`` in ``text``, groups parsed as floats."""
    out = []
    for m in re.finditer(pattern, text):
        out.append(tuple(float(g) for g in m.groups()))
    return out


def _tilt(spec: str) -> float:
    name, eps = spec.split()
    if name != "tilted_burgers":
        raise ValueError(f"expected a tilted_burgers flux, got {spec!r}")
    return float(eps)


class JumpSampling:
    """Sampled flux distance on the bundled pairs, smooth and sampled.

    The smooth pairs run through adaptive Simpson; the convex_poly ones
    also through scalar ``inverse_deriv`` calls.  Their piecewise-linear
    samples take the exact-sum path.  The seed sets the near-diagonal gap
    of the sampler and the spot Riemann data.
    """

    name = "jump-sampling"
    SEGMENTS = 128
    SPOTS = 48

    def __init__(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        gap = float(rng.uniform(8e-4, 1.25e-3))
        self.smooth_sampler = riemann.RiemannSampler(n_grid=8, n_near=16,
                                                     near_gap=gap)
        self.pl_sampler = riemann.RiemannSampler(n_grid=16, n_near=16,
                                                 near_gap=gap)
        polys = checks.BUNDLED_POLYS
        self.smooth, self.sampled = [], []
        for e in metrics.bundled_pairs():
            if e["name"] == "linear-pair":
                self.linear = (e["f"], e["g"], checks.deriv_gap_sup(*polys[e["name"]]))
            else:
                self.smooth.append((e["name"], e["f"], e["g"],
                                    checks.deriv_gap_sup(*polys[e["name"]])))
            if e["name"] == "tilt-quarter":
                self.tilted = (e["f"], e["g"], 0.25)
        for e in metrics.bundled_pairs(segments=self.SEGMENTS):
            if e["name"] != "linear-pair":
                self.sampled.append((e["name"], e["f"], e["g"],
                                     checks.chord_slope_sup(*polys[e["name"]],
                                                            self.SEGMENTS)))
        self.cli_args = ["pgeneral", "flux_f=linear 0.3", "flux_g=linear -0.2",
                         "n_grid=8", "n_near=16", f"near_gap={gap!r}"]
        spots = rng.uniform(-1.0, 1.0, size=(self.SPOTS, 2))
        spots[spots[:, 0] == spots[:, 1], 1] = 0.5  # a jump, never a constant
        self.spots = [(float(a), float(b)) for a, b in spots]

    def round(self, ledger: checks.Ledger) -> None:
        for name, f, g, sup in self.smooth:
            rep = metrics.check_pgeneral(f, g, self.smooth_sampler)
            ledger.record(f"pgeneral {name}: {rep.estimate!r} vs sup {sup!r}",
                          checks.attains_sup(rep.estimate, sup))
        for name, f, g, sup in self.sampled:
            rep = metrics.check_pgeneral(f, g, self.pl_sampler)
            ledger.record(f"pgeneral pl[{name}]: {rep.estimate!r} vs {sup!r}",
                          checks.attains_sup(rep.estimate, sup))
        f, g, sup = self.linear
        est = riemann.hat_d_estimate(f, g, self.smooth_sampler).estimate
        ledger.record(f"hat_d linear-pair: {est!r}", checks.close(est, sup, 1e-9))
        rc, text = run_cli(self.cli_args)
        got = grab(rf"sampled hat_d={NUM} vs", text)
        ledger.record("cli pgeneral linear-pair", rc == 0 and len(got) == 1
                      and checks.close(got[0][0], sup, 1e-9))
        f, g, eps = self.tilted
        for uL, uR in self.spots:
            want = eps * abs(uR - uL)
            v = riemann.riemann_l1_diff(f, g, uL, uR)
            ledger.record(f"riemann_l1_diff tilt ({uL!r}, {uR!r}): {v!r}",
                          checks.close(v, want, 1e-9 * want))


class Variational:
    """The Lax-Oleinik evaluator behind the bounded-data checks.

    Runs the shipped window-bound and counterexample configs, the
    variation-decay and one-sided-slope checks on two criterion 5/6 rows
    (one of them convex_poly), seeded closed-form pulse probes, and the
    on-shock probes of a known fault.
    """

    name = "variational"
    # (row, flux spec, datum spec, t, a, b, lambda_hat, kappa)
    CASES = [
        ("scale-down/g", "scaled_burgers 0.75", "sawtooth 3", 0.125, 0.0, 1.0,
         0.75, 0.75),
        ("quartic/f", "convex_poly 0.5 0 0.25", "sawtooth 1", 0.4, 0.0, 2.0,
         2.0, 1.0),
    ]
    OSL_PAIRS = 1000
    PROBES = 1024

    def __init__(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cfg_dir = root / "configs"
        self.linfty_cfg = str(cfg_dir / "linfty_saturating.cfg")
        lin = config.load_config(self.linfty_cfg)
        if lin["flux_f"] != "burgers":
            raise ValueError("linfty_saturating.cfg: expected flux_f = burgers")
        eps = _tilt(lin["flux_g"])
        # max |f'| on K is 1 for burgers and 1 + |eps| for its tilt
        self.linfty_rhs = checks.window_bound(
            lam=1.0 + abs(eps), kappa=1.0, deriv_gap=abs(eps),
            t=float(lin["t"]), a=float(lin["a"]), b=float(lin["b"]))
        self.rexp_cfg = str(cfg_dir / "rexp_sweep.cfg")
        rex = config.load_config(self.rexp_cfg)
        self.rexp_n = int(rex["n_max"]) - int(rex["n_min"]) + 1
        self.rexp_tol = float(rex["tol"])
        self.cases = []
        for row, flux, datum, t, a, b, lam, kappa in self.CASES:
            common = [f"flux={flux}", f"datum={datum}", f"t={t!r}", f"a={a!r}",
                      f"b={b!r}"]
            self.cases.append((row, ["oleinik-tv"] + common,
                               ["osl"] + common + [f"n_pairs={self.OSL_PAIRS}",
                                                   "--seed", str(seed)],
                               checks.tv_decay_bound(lam, kappa, t, a, b)))
        # pulse h on [0, w) under Burgers at t < 2 w / h, probed off the shock
        h = float(rng.uniform(0.5, 1.0))
        w = float(rng.uniform(0.5, 1.5))
        t = float(rng.uniform(0.3, 0.9 * min(1.5, 2.0 * w / h)))
        shock = w + 0.5 * h * t
        xs = rng.uniform(-0.5, shock + 0.5, self.PROBES)
        xs[np.abs(xs - shock) < 1e-4] -= 1e-3
        pulse = PiecewiseConstantFn.from_steps(0.0, [(0.0, h), (w, 0.0)])
        self.pulse = (lax_oleinik.LaxOleinikProblem(fluxes.burgers(), pulse), t,
                      xs, checks.pulse_solution(h, w, t, xs))
        unit = PiecewiseConstantFn.from_steps(0.0, [(0.0, 1.0), (1.0, 0.0)])
        self.pulse_shock = lax_oleinik.LaxOleinikProblem(fluxes.burgers(), unit)
        self.on_shock = lax_oleinik.LaxOleinikProblem(
            fluxes.tilted_burgers(0.1), lax_oleinik.sawtooth_datum(2))

    def round(self, ledger: checks.Ledger) -> None:
        rc, text = run_cli(["linfty", "--config", self.linfty_cfg])
        got = grab(rf"linfty: lhs={NUM} <= rhs={NUM} ", text)
        ledger.record("cli linfty", rc == 0 and len(got) == 1
                      and got[0][0] <= got[0][1]
                      and checks.close(got[0][0], 1.0, 1e-3)
                      and checks.close(got[0][1], self.linfty_rhs, 1e-9))
        rc, text = run_cli(["rexp", "--config", self.rexp_cfg, "out="])
        gaps = grab(rf"gap at t={NUM} is {NUM} ", text)
        ledger.record("cli rexp", rc == 0 and len(gaps) == self.rexp_n
                      and all(checks.close(g, 1.0, self.rexp_tol)
                              for _t, g in gaps))
        for row, tv_args, osl_args, bound in self.cases:
            rc, text = run_cli(tv_args)
            got = grab(rf"tv={NUM} <= bound={NUM} ", text)
            ledger.record(f"cli oleinik-tv {row}", rc == 0 and len(got) == 1
                          and got[0][0] <= bound * (1.0 + 1e-9)
                          and checks.close(got[0][1], bound, 1e-9 * bound))
            rc, text = run_cli(osl_args)
            got = grab(rf"\[PASS\] osl: {NUM} violations in {NUM} pairs "
                       rf"\(max excess {NUM}, slack {NUM}\)", text)
            ledger.record(f"cli osl {row}", rc == 0 and len(got) == 1
                          and got[0][0] == 0 and got[0][1] == self.OSL_PAIRS
                          and got[0][2] <= got[0][3])
        problem, t, xs, want = self.pulse
        got = lax_oleinik.lax_oleinik_eval_many(problem, t, xs)
        ledger.record("pulse probes", checks.values_match(got, want))
        v = lax_oleinik.lax_oleinik_eval(self.pulse_shock, 1.0, 1.5)
        ledger.record("pulse shock left limit", checks.close(v, 1.0, 1e-9))
        for x in checks.ON_SHOCK_X:
            v = lax_oleinik.lax_oleinik_eval(self.on_shock, checks.ON_SHOCK_T, x)
            ledger.record(f"on-shock left limit x={x}", checks.on_shock_ok(v),
                          known_fault=True)


class Tracking:
    """Front tracking: shipped configs, semigroup checks, seeded step data.

    The seeded data alternate between about +-0.4 on a jittered uniform
    grid of jumps, with values on the flux nodes, so collision counts (and
    run time) vary little between seeds while each seed gives its own
    fronts.
    """

    name = "tracking"
    SEGMENTS = 512
    JUMPS = (12, 16)  # even: the data start and end below zero
    T_RANDOM = 0.5
    WINDOW = (-3.0, 3.0)  # holds every front: data on [-1, 1], speeds <= 1

    def __init__(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cfg_dir = root / "configs"
        self.tmain_cfg = str(cfg_dir / "tmain_tilt.cfg")
        tm = config.load_config(self.tmain_cfg)
        if tm["flux_f"] != "burgers" or tm["datum"] != "pulse 1.0 0.0 1.0":
            raise ValueError("tmain_tilt.cfg: expected burgers on a unit pulse")
        eps, T = _tilt(tm["flux_g"]), float(tm["T"])
        # the tilted sample is an exact translate by eps T of a profile
        # whose variation stays 2: the gap and eps * (TV integral 2 T) are
        # both 2 eps T
        self.tmain_gap = 2.0 * eps * T
        self.suite_cfg = str(cfg_dir / "suite.cfg")
        segs = int(config.load_config(self.suite_cfg)["segments"])
        self.suite_sup = {name: checks.sampled_pair_sup(name, segs)
                          for name in checks.BUNDLED_POLYS}
        self.pairs = [(e["name"], e["f"], e["g"],
                       checks.sampled_pair_sup(e["name"], self.SEGMENTS))
                      for e in metrics.bundled_pairs(segments=self.SEGMENTS)]
        self.data = [
            ("pulse", PiecewiseConstantFn.from_steps(0.0, [(0.0, 1.0), (1.0, 0.0)])),
            ("stair", PiecewiseConstantFn.from_steps(
                0.0, [(-0.5, 0.8), (0.0, -0.6), (0.75, 0.0)])),
        ]
        self.linear = (fluxes.linear_flux(0.3), fluxes.linear_flux(-0.2),
                       PiecewiseConstantFn.step(0.0, 0.0, 1.0))
        self.burgers_pl = fluxes.pl_sample(fluxes.burgers(), self.SEGMENTS)
        self.random = [self._steps(rng, n) for n in self.JUMPS]
        self.collisions: list[int] | None = None
        self.lerrest_eps, self.lerrest_T = 0.05, 0.5
        self.lerrest_args = ["lerrest", "flux_f=burgers",
                             f"flux_g=tilted_burgers {self.lerrest_eps!r}",
                             "datum=pulse 1 0 1", f"T={self.lerrest_T!r}",
                             "steps=16"]

    def _steps(self, rng, n: int) -> PiecewiseConstantFn:
        xs = -1.0 + (np.arange(n) + 0.5 + rng.uniform(-0.1, 0.1, n)) * (2.0 / n)
        sign = np.where(np.arange(n + 1) % 2 == 0, -1.0, 1.0)
        vals = sign * (0.4 + 0.05 * rng.uniform(0.0, 1.0, n + 1))
        # equal tails: no net flux through the window ends, so the mass
        # on the window is conserved exactly (n is even, signs agree)
        vals[-1] = vals[0]
        # on the node grid of the 512-segment sample (spacing 1/256), so
        # the tracker's projection leaves the data as they are
        return PiecewiseConstantFn(xs, np.round(vals * 256.0) / 256.0)

    def round(self, ledger: checks.Ledger) -> None:
        rc, text = run_cli(["tmain", "--config", self.tmain_cfg])
        got = grab(rf"tmain: lhs={NUM} <= rhs={NUM} \(hat_d={NUM}, "
                   rf"tv_integral={NUM}\)", text)
        ledger.record("cli tmain", rc == 0 and len(got) == 1 and all(
            checks.close(v, self.tmain_gap, 1e-10)
            for v in (got[0][0], got[0][1], got[0][2] * got[0][3])))
        rc, text = run_cli(["suite", "--config", self.suite_cfg, "out="])
        ledger.record("cli suite", rc == 0 and self._suite_ok(text))
        for name, f, g, sup in self.pairs:
            for tag, u0 in self.data:
                rep = metrics.check_tmain(f, g, u0, 1.0)
                ledger.record(f"check_tmain {name}/{tag}",
                              checks.close(rep.hat_d, sup, 1e-12 * (1.0 + sup))
                              and rep.lhs <= sup * rep.tv_time_integral
                              * (1.0 + 1e-6) + 1e-9)
        f, g, u0 = self.linear
        rep = metrics.check_tmain(f, g, u0, 1.0)
        ledger.record("check_tmain linear single jump",
                      checks.close(rep.lhs, rep.rhs, 1e-9)
                      and checks.close(rep.lhs, 0.5, 1e-9))
        self._random_round(ledger)
        rc, text = run_cli(self.lerrest_args)
        got = grab(rf"lerrest: lhs={NUM} <= 1\.1 \* {NUM}", text)
        ledger.record("cli lerrest", rc == 0 and len(got) == 1
                      and got[0][0] <= 1.1 * got[0][1]
                      and checks.close(got[0][0],
                                       2.0 * self.lerrest_eps * self.lerrest_T,
                                       1e-10))

    def _suite_ok(self, text: str) -> bool:
        blocks = re.split(r"^pair ", text, flags=re.M)[1:]
        if len(blocks) != len(self.suite_sup) or "[PASS] suite" not in text:
            return False
        for block in blocks:
            name = block.split()[0]
            est = grab(rf"sampled hat_d +{NUM}", block)
            c0 = grab(rf"max \|f' - g'\| +{NUM}", block)
            gaps = grab(rf"T=\S+: gap={NUM} <= {NUM} ok", block)
            sup = self.suite_sup.get(name)
            if (sup is None or len(est) != 1 or len(c0) != 1 or len(gaps) != 2
                    or not checks.close(c0[0][0], sup, 1e-12 * (1.0 + sup))
                    or not checks.attains_sup(est[0][0], sup)
                    or any(gp > bd + 1e-9 + 1e-6 * bd for gp, bd in gaps)):
                return False
        return True

    def _random_round(self, ledger: checks.Ledger) -> None:
        a, b = self.WINDOW
        states = [front_tracking.ft_evolve(self.burgers_pl, u0, self.T_RANDOM)
                  for u0 in self.random]
        if self.collisions is None:
            self.collisions = [st.n_events for st in states]
        steps = [(u0.breakpoints, u0.values[:, 0]) for u0 in self.random]
        ends = [(st.profile.breakpoints, st.profile.values[:, 0])
                for st in states]
        for n, st, seen, init, end in zip(self.JUMPS, states, self.collisions,
                                          steps, ends):
            ledger.record(f"ft_evolve {n} jumps: {st.n_events} collisions",
                          st.n_events == seen
                          and checks.conserves(init, end, a, b))
        ledger.record("ft_evolve L1 contraction",
                      checks.contracts(*steps, *ends, a, b))


class ClassicalLimit:
    """Relativistic against classical isothermal Euler, the paper's case.

    Runs the shipped classical-limit config and the Jacobian-gap sweep,
    then the linear-system distance between the two Jacobians at seeded
    states for each light speed.
    """

    name = "classical-limit"
    STATES = 24
    BOX = ((0.5, 4.0), (-2.0, 2.0))

    def __init__(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cfg = str(root / "configs" / "classical_limit.cfg")
        cfg = config.load_config(self.cfg)
        self.cs = [float(c) for c in cfg["c_values"].split()]
        self.window = (float(cfg["slope_lo"]), float(cfg["slope_hi"]))
        (r_lo, r_hi), (q_lo, q_hi) = self.BOX
        self.states = np.column_stack([rng.uniform(r_lo, r_hi, self.STATES),
                                       rng.uniform(q_lo, q_hi, self.STATES)])

    def round(self, ledger: checks.Ledger) -> None:
        solutions = []
        evolve = euler.fv_evolve

        def keep(*args, **kwargs):
            sol = evolve(*args, **kwargs)
            solutions.append(sol)
            return sol

        euler.fv_evolve = keep
        try:
            rc, text = run_cli(["classical-limit", "--config", self.cfg, "out="])
        finally:
            euler.fv_evolve = evolve
        gaps = grab(rf"c={NUM}: L1 gap {NUM}", text)
        slope = grab(rf"slope={NUM} in", text)
        fit = (checks.loglog_slope([c for c, _ in gaps], [g for _, g in gaps])
               if len(gaps) >= 2 else float("nan"))
        ledger.record("cli classical-limit", rc == 0 and len(slope) == 1
                      and [c for c, _ in gaps] == self.cs
                      and checks.in_window(fit, *self.window)
                      and checks.close(slope[0][0], fit, 1e-9))
        worst = max((float(np.max(np.abs(s.conservation_residual)))
                     for s in solutions), default=float("inf"))
        ledger.record(f"fv_evolve conservation residuals: {worst!r}",
                      worst <= 1e-11)
        rc, text = run_cli(["jac-gap"])
        ratios = grab(rf"gap\(2c\)/gap\(c\) = {NUM}", text)
        ledger.record("cli jac-gap", rc == 0 and len(ratios) == 3
                      and all(checks.in_window(r, 0.23, 0.27) for r, in ratios))
        A = euler.classical_euler().jacobian(self.states)
        for c in self.cs:
            B = euler.relativistic_euler(c).jacobian(self.states)
            for i in range(self.STATES):
                value = linear_hd.hat_d_lin(A[i], B[i]).value
                floor = float(np.linalg.norm(B[i] - A[i], 2))
                ledger.record(f"hat_d_lin c={c:g} state {i}",
                              value >= floor * (1.0 - 1e-9))


WORKLOADS = {w.name: w for w in (JumpSampling, Variational, Tracking,
                                 ClassicalLimit)}
