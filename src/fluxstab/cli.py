"""Command line front end.

Every subcommand reads its parameters from an optional config file plus
``key=value`` overrides on the command line (``--seed N`` is shorthand
for ``seed=N``), prints one ``[PASS]`` or ``[FAIL]`` line per check, all
spelled by :func:`~fluxstab.report.verdict_line`, and writes CSV/SVG
artifacts into the directory named by the ``out`` key.  An embedded
``check`` spec is resolved before anything runs.  Exit codes: 0 all
checks passed, 1 a check failed, 2 configuration problem, 3 runtime
failure inside a solver.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import (ConfigError, DATUM_HELP, apply_overrides, get_value,
                     load_config, resolve_check, resolve_datum, resolve_flux,
                     resolve_matrix)
from .euler import (AdmissibilityError, classical_limit_experiment,
                    jacobian_gap)
from .fluxes import BUILTIN_FLUX_HELP, PiecewiseLinearFlux, pl_sample
from .front_tracking import FrontTrackingError, ft_evolve
from .lax_oleinik import (LaxOleinikProblem, linfty_bound_check,
                          oleinik_tv_bound_check, one_sided_lipschitz_check,
                          rexp_counterexample, sawtooth_datum)
from .linear_hd import DecompositionError, hat_d_lin, operator_norm
from .metrics import (StabilityReport, check_pgeneral, check_tmain,
                      lerrest_diagnostic, stability_suite)
from .report import svg_line_plot, verdict_line, write_csv
from .riemann import RiemannSampler, UnsupportedFluxError, solve_riemann

_RUNTIME_ERRORS = (AdmissibilityError, FrontTrackingError,
                   UnsupportedFluxError, DecompositionError)


def _cfg_from(args) -> dict[str, str]:
    cfg = load_config(args.config) if args.config else {}
    # --seed sits between the file and explicit key=value overrides
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    return apply_overrides(cfg, args.overrides)


def _provenance(cfg: dict, command: str, **extra) -> dict:
    """CSV comment-line metadata: tool version plus the resolved config."""
    meta = {"command": command, "version": __version__}
    for k in sorted(cfg):
        meta[f"cfg.{k}"] = cfg[k]
    meta.update(extra)
    return meta


def _box(cfg) -> tuple[float, float]:
    return (get_value(cfg, "k_lo", float, -1.0),
            get_value(cfg, "k_hi", float, 1.0))


def _out_dir(cfg) -> Path | None:
    out = get_value(cfg, "out", str, "")
    if not out:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _maybe_pl(flux, segments: int):
    if segments > 0 and not isinstance(flux, PiecewiseLinearFlux) \
            and flux.degree >= 2:
        return pl_sample(flux, segments)
    return flux


def _flux_pair(cfg, segments: int | None = None):
    """``flux_f`` and ``flux_g`` on ``K``; given a default for the
    ``segments`` key, each goes through :func:`_maybe_pl`."""
    K = _box(cfg)
    n = 0 if segments is None else get_value(cfg, "segments", int, segments)
    return [_maybe_pl(resolve_flux(get_value(cfg, key), K), n)
            for key in ("flux_f", "flux_g")]


def _window(cfg) -> dict[str, float]:
    """The time ``t`` and the window ``[a, b]`` of a bound check."""
    return {key: get_value(cfg, key, float) for key in ("t", "a", "b")}


def _sampler(cfg, n: int) -> RiemannSampler:
    """The jump sampler, with ``n`` as the default of both grid sizes."""
    return RiemannSampler(n_grid=get_value(cfg, "n_grid", int, n),
                          n_near=get_value(cfg, "n_near", int, n),
                          near_gap=get_value(cfg, "near_gap", float, 1e-3))


def _lo_datum(spec: str):
    toks = spec.split()
    if toks and toks[0] == "sawtooth":
        if len(toks) != 2:
            raise ConfigError("sawtooth datum needs exactly one index")
        return sawtooth_datum(int(toks[1]))
    return resolve_datum(spec)


def _lo_problem(cfg) -> LaxOleinikProblem:
    flux = resolve_flux(get_value(cfg, "flux", str, "burgers"), _box(cfg))
    return LaxOleinikProblem(flux, _lo_datum(get_value(cfg, "datum")))


def _verdict(name: str, holds: bool, detail: str) -> bool:
    print(verdict_line(name, holds, detail))
    return holds


def _embedded_check(cfg, label: str):
    """The optional ``check = <expr>`` key, resolved now: a function that
    prints the verdict on a value and returns it."""
    spec = get_value(cfg, "check", str, "")
    if not spec:
        return lambda value: True
    pred, desc = resolve_check(spec)
    return lambda value: _verdict(label, bool(pred(value)),
                                  f"{desc}, got {value!r}")


def _finish(report) -> int:
    print(report.line())
    return 0 if report.holds else 1


# -- subcommands ----------------------------------------------------------------

def cmd_riemann(args) -> int:
    cfg = _cfg_from(args)
    flux = resolve_flux(get_value(cfg, "flux", str, "burgers"), _box(cfg))
    uL = get_value(cfg, "left", float)
    uR = get_value(cfg, "right", float)
    fan = solve_riemann(flux, uL, uR)
    print(f"riemann {flux.name}: uL={uL!r} uR={uR!r}")
    for w in fan.waves:
        print(f"  {w}")
    return 0


def cmd_evolve(args) -> int:
    cfg = _cfg_from(args)
    check = _embedded_check(cfg, "evolve tv_integral")
    flux = resolve_flux(get_value(cfg, "flux", str, "burgers"), _box(cfg))
    flux = _maybe_pl(flux, get_value(cfg, "segments", int, 512))
    u0 = resolve_datum(get_value(cfg, "datum"))
    T = get_value(cfg, "T", float)
    state = ft_evolve(flux, u0, T)
    print(f"evolved {flux.name} to T={T!r}: {state.n_events} collisions, "
          f"TV time integral {state.tv_time_integral()!r}")
    ok = check(state.tv_time_integral())
    out = _out_dir(cfg)
    if out:
        prof = state.profile
        rows = [{"x": float(x), "u": float(v[0])}
                for x, v in zip(prof.breakpoints, prof.values[1:])]
        rows.insert(0, {"x": float("-inf"), "u": float(prof.values[0, 0])})
        write_csv(out / "profile.csv", rows,
                  _provenance(cfg, "evolve", flux=flux.name, T=T))
        print(f"wrote {out / 'profile.csv'}")
    return 0 if ok else 1


def cmd_hatd(args) -> int:
    cfg = _cfg_from(args)
    # the Riemann solver takes a smooth flux only if it is uniformly convex
    # on K; any other is sampled, as tmain and lerrest sample theirs
    fluxes = [_maybe_pl(flux, 512) if flux.kappa <= 0.0 else flux
              for flux in _flux_pair(cfg)]
    return _finish(check_pgeneral(
        *fluxes, _sampler(cfg, 64),
        threshold=get_value(cfg, "threshold", float, 0.95)))


def cmd_hatd_lin(args) -> int:
    cfg = _cfg_from(args)
    check = _embedded_check(cfg, "hatd-lin value")
    A = resolve_matrix(get_value(cfg, "A"))
    B = resolve_matrix(get_value(cfg, "B"))
    result = hat_d_lin(A, B)
    gap = operator_norm(B - A)
    holds = _verdict("hatd-lin", gap <= result.value + 1e-9,
                     f"value={result.value!r} upper={result.upper!r} "
                     f"dominates opnorm(B-A)={gap!r} ({result.n_cells} cells)")
    direction = " ".join(repr(float(c)) for c in result.direction)
    print(f"  argmax direction: {direction}")
    return 0 if check(result.value) and holds else 1


def cmd_tmain(args) -> int:
    cfg = _cfg_from(args)
    flux_f, flux_g = _flux_pair(cfg, segments=512)
    u0 = resolve_datum(get_value(cfg, "datum"))
    return _finish(check_tmain(flux_f, flux_g, u0, get_value(cfg, "T", float)))


def cmd_linfty(args) -> int:
    cfg = _cfg_from(args)
    flux_f, flux_g = _flux_pair(cfg)
    data = _lo_datum(get_value(cfg, "datum"))
    return _finish(linfty_bound_check(flux_f, flux_g, data, **_window(cfg)))


def cmd_oleinik_tv(args) -> int:
    cfg = _cfg_from(args)
    return _finish(oleinik_tv_bound_check(_lo_problem(cfg), **_window(cfg)))


def cmd_osl(args) -> int:
    cfg = _cfg_from(args)
    return _finish(one_sided_lipschitz_check(
        _lo_problem(cfg), **_window(cfg),
        n_pairs=get_value(cfg, "n_pairs", int, 10 ** 4),
        seed=get_value(cfg, "seed", int, 0)))


def cmd_rexp(args) -> int:
    cfg = _cfg_from(args)
    n_min = get_value(cfg, "n_min", int, 1)
    n_max = get_value(cfg, "n_max", int, 6)
    tilt = get_value(cfg, "tilt", float, -1.0)
    tol = get_value(cfg, "tol", float, 1e-3)
    ns = list(range(n_min, n_max + 1))
    if not ns:
        raise ConfigError(f"empty sweep: n_min={n_min} > n_max={n_max}")
    results = [rexp_counterexample(n, tilt=tilt) for n in ns]
    rows = []
    ok = True
    for n, res in zip(ns, results):
        rows.append({"n": n, "t": res.t, "l1_distance": res.l1_distance})
        if tilt == -1.0:
            ok = _verdict(f"rexp n={n}", abs(res.l1_distance - 1.0) <= tol,
                          f"gap at t={res.t!r} is {res.l1_distance!r} "
                          "(target 1)") and ok
        else:
            print(f"rexp n={n}: gap at t={res.t!r} is {res.l1_distance!r}")
    out = _out_dir(cfg)
    if out:
        write_csv(out / "rexp.csv", rows, _provenance(cfg, "rexp", tilt=tilt))
        svg_line_plot(out / "rexp.svg", [r["n"] for r in rows],
                      {"l1 distance": [r["l1_distance"] for r in rows]},
                      title="oscillating-data gap", xlabel="n",
                      ylabel="L1 distance at t = 2^-n")
        print(f"wrote {out / 'rexp.csv'} and {out / 'rexp.svg'}")
    return 0 if ok else 1


def cmd_classical_limit(args) -> int:
    cfg = _cfg_from(args)
    cs = [float(tok) for tok in get_value(cfg, "c_values", str, "8 16 32 64").split()]
    UL = [float(t) for t in get_value(cfg, "left", str, "2 0").split()]
    UR = [float(t) for t in get_value(cfg, "right", str, "1 0").split()]
    result = classical_limit_experiment(
        cs, UL=UL, UR=UR,
        sigma=get_value(cfg, "sigma", float, 1.0),
        N=get_value(cfg, "cells", int, 2000),
        T=get_value(cfg, "T", float, 0.2),
    )
    lo = get_value(cfg, "slope_lo", float, -2.3)
    hi = get_value(cfg, "slope_hi", float, -1.7)
    for c, g in zip(result.c_values, result.gaps):
        print(f"  c={c:g}: L1 gap {float(g)!r}")
    holds = _verdict("classical-limit", lo <= result.slope <= hi,
                     f"slope={result.slope!r} in [{lo}, {hi}] "
                     f"(shared wave bound {result.lambda_shared!r})")
    out = _out_dir(cfg)
    if out:
        write_csv(out / "classical_limit.csv", result.summary_rows(),
                  _provenance(cfg, "classical-limit", slope=result.slope,
                              lambda_shared=result.lambda_shared))
        svg_line_plot(out / "classical_limit.svg",
                      list(result.c_values), {"L1 gap": list(result.gaps)},
                      title="relativistic vs classical", xlabel="c",
                      ylabel="L1 gap", loglog=True)
        print(f"wrote {out / 'classical_limit.csv'}")
    return 0 if holds else 1


def cmd_jac_gap(args) -> int:
    cfg = _cfg_from(args)
    cs = [float(tok) for tok in get_value(cfg, "c_values", str, "50 100 200").split()]
    if not cs:
        raise ConfigError("empty sweep: no c_values")
    sigma = get_value(cfg, "sigma", float, 1.0)
    lo = get_value(cfg, "ratio_lo", float, 0.23)
    hi = get_value(cfg, "ratio_hi", float, 0.27)
    ok = True
    gaps: dict[float, float] = {}  # each distinct light speed once
    for c in cs:
        for speed in (c, 2.0 * c):
            if speed not in gaps:
                gaps[speed] = jacobian_gap(speed, sigma=sigma)
        ratio = gaps[2.0 * c] / gaps[c]
        ok = _verdict(f"jac-gap c={c:g}", lo <= ratio <= hi,
                      f"gap(2c)/gap(c) = {ratio!r}") and ok
    return 0 if ok else 1


def cmd_lerrest(args) -> int:
    cfg = _cfg_from(args)
    flux_f, flux_g = _flux_pair(cfg, segments=512)
    u0 = resolve_datum(get_value(cfg, "datum"))
    T = get_value(cfg, "T", float)
    n_steps = get_value(cfg, "steps", int, 256)

    def w(t: float):
        return ft_evolve(flux_g, u0, t).profile if t > 0.0 else u0

    return _finish(lerrest_diagnostic(flux_f, w, T, n_steps=n_steps))


def cmd_suite(args) -> int:
    cfg = _cfg_from(args)
    reports = stability_suite(
        segments=get_value(cfg, "segments", int, 128),
        T=get_value(cfg, "T", float, 1.0),
        sampler=_sampler(cfg, 32),
    )
    for rep in reports:
        print(rep.summary())
    out = _out_dir(cfg)
    if out:
        rows = [dict(zip(StabilityReport.COLUMNS, row))
                for rep in reports for row in rep.rows()]
        write_csv(out / "stability_report.csv", rows,
                  _provenance(cfg, "suite"))
        print(f"wrote {out / 'stability_report.csv'}")
    ok = all(rep.pgeneral_holds and rep.tmain_holds for rep in reports)
    return 0 if _verdict("suite", ok, f"{len(reports)} pairs") else 1


def cmd_list(args) -> int:
    print("built-in fluxes:")
    for line in BUILTIN_FLUX_HELP.values():
        print(f"  {line}")
    print()
    print(DATUM_HELP)
    return 0


_COMMANDS = {
    "riemann": (cmd_riemann, "solve one Riemann problem and print the fan"),
    "evolve": (cmd_evolve, "front-track a step datum and report TV data"),
    "hatd": (cmd_hatd, "sampled flux distance vs the derivative-gap value"),
    "pgeneral": (cmd_hatd, "alias of hatd"),
    "hatd-lin": (cmd_hatd_lin, "flux distance for linear systems vs opnorm"),
    "tmain": (cmd_tmain, "semigroup distance bound on one datum"),
    "linfty": (cmd_linfty, "window L1 bound for merely bounded data"),
    "oleinik-tv": (cmd_oleinik_tv, "variation decay bound"),
    "osl": (cmd_osl, "one-sided Lipschitz sampling"),
    "rexp": (cmd_rexp, "oscillating-data counterexample sweep"),
    "classical-limit": (cmd_classical_limit, "relativistic Euler vs classical"),
    "jac-gap": (cmd_jac_gap, "Jacobian gap scaling in the light speed"),
    "lerrest": (cmd_lerrest, "a-posteriori error functional diagnostic"),
    "suite": (cmd_suite, "all bundled pairs through every scalar check"),
    "list": (cmd_list, "print flux and datum spec grammars"),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command, then flags and
    ``key=value`` overrides in any order."""
    parser = argparse.ArgumentParser(
        prog="fluxstab",
        description="flux-stability experiments for conservation laws",
        epilog="commands:\n" + "\n".join(
            f"  {name:<17}{help_text}"
            for name, (_, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"fluxstab {__version__}")
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", default=None,
                        help="config file with key = value lines")
    parser.add_argument("--seed", default=None, type=int,
                        help="seed for randomized sampling")
    parser.add_argument("overrides", nargs="*", default=[],
                        metavar="key=value", help="override config values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_intermixed_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and bad solver parameters
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
