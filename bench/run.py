"""Run one benchmark workload against the fluxstab tree next to this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: jump-sampling, variational, tracking, classical-limit (see
README.md).  The run repeats whole rounds of its workload until ``S``
seconds have passed and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: a round's wall and CPU time (each
operation's median over the rounds, summed), peak memory, and the median
of several fresh-interpreter set-ups.  With ``--trace 1`` rounds
alternate untraced and traced and the metrics are the per-layer ones
from the traced rounds.  Each run also writes its samples and the
machine description to ``bench/results/``.

Exits nonzero without a result when ``src/fluxstab`` or ``configs`` is
missing.
"""

from __future__ import annotations

import os

# one BLAS thread: the run is a closed loop on a small machine, and the
# only parallelism measured is the program's own (suite.cfg's two workers)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("jump-sampling", "variational", "tracking", "classical-limit")
# fresh interpreters timed per run for setup_s, after one that warms caches
SETUP_STARTS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs, print 'ready', exit")
    return p.parse_args(argv)


def load_program() -> None:
    if not (SRC / "fluxstab" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        raise SystemExit("bench: no fluxstab source tree (src/fluxstab and "
                         "configs) next to the bench directory")
    sys.path.insert(0, str(SRC))
    import fluxstab

    if Path(fluxstab.__file__).resolve().parent != SRC / "fluxstab":
        raise SystemExit(f"bench: imported fluxstab from {fluxstab.__file__}, "
                         "not from this tree")


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its built inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    times = []
    for k in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe exited with {rc}")
        if k:
            times.append(t1 - t0)
    return times


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "platform": platform.platform(),
    }


def run_rounds(workload, ledger, seconds: float, tracer) -> list[dict]:
    """Whole rounds until ``seconds`` have passed; with a tracer, every
    second round is traced and the run ends only after a traced one."""
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            ledger.start_round()
            workload.round(ledger)
        finally:
            if traced:
                tracer.uninstall()
        walls, cpus = ledger.op_times()
        rec = {"traced": traced, "wall_s": sum(walls), "cpu_s": sum(cpus),
               "op_wall_s": walls, "op_cpu_s": cpus}
        if traced:
            rec["functions"] = tracer.functions()
            rec["edges"] = tracer.edge_list()
        rounds.append(rec)
        if time.perf_counter() - start >= seconds and (
                tracer is None or any(r["traced"] for r in rounds)):
            return rounds


def round_time(rounds: list[dict], key: str) -> float:
    """One round's time: each operation's median over the rounds, summed.

    The machine's speed drifts by ~10% for seconds at a time; a slow spell
    spoils whole rounds, but an operation only when it hits that operation
    in most rounds, so this is steadier than the median round.
    """
    per_op = zip(*(r[key] for r in rounds))
    return sum(statistics.median(times) for times in per_op)


def trace_metrics(rounds: list[dict], ledger) -> dict:
    traced = [r for r in rounds if r["traced"]]
    per_round = [tracing.layer_metrics(r["functions"]) for r in traced]
    out = {}
    for name, (value, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        if unit == "count":
            if len(set(values)) != 1:
                ledger.flag(f"{name} differs between rounds: {values}")
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    plain = [r for r in rounds if not r["traced"]]
    overhead = round_time(traced, "op_wall_s") - round_time(plain, "op_wall_s")
    out["trace_overhead_s"] = {"value": overhead, "unit": "s/round"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads  # needs fluxstab on the path

    if args.setup_only:
        workloads.WORKLOADS[args.workload](ROOT, args.seed)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    ledger = checks.Ledger()
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds = run_rounds(workload, ledger, args.seconds, tracer)
    except Exception:  # a solver error ends the run as an incorrect one
        traceback.print_exc()
        ledger.flag("a round raised an exception")
        rounds = []
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = [r for r in rounds if r["traced"]]
    if not rounds:
        metrics = {}
    elif args.trace:
        metrics = trace_metrics(rounds, ledger)
    else:
        metrics = {
            "wall_s": {"value": round_time(rounds, "op_wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": round_time(rounds, "op_cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "result": result,
              "setup_starts_s": setup,
              "rounds": [{k: v for k, v in r.items()
                          if k in ("traced", "wall_s", "cpu_s")}
                         for r in rounds],
              "problems": ledger.problems,
              "last_traced_round": {k: traced[-1][k] for k in
                                    ("functions", "edges")} if traced else None}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in ledger.problems:
        print(f"check failed: {problem}")
    print(f"{args.workload}: {len(rounds)} rounds, {ledger.attempted} operations, "
          f"{ledger.failed} failed")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
