"""One benchmark process: set up a workload, run units of it, print a JSON result.

`run.py` starts this with the thread environment already capped and `src`
on PYTHONPATH. By hand, for debugging:

    PYTHONPATH=src python3 perfbench/worker.py --workload line_evolve --seed 1 --seconds 5

setup_s runs from the first line of this file to just before the first
timed call, so it covers importing numpy, scipy and sqgfronts plus building
the seeded inputs. Units repeat until the next one would overrun the
budget; at least one runs. With --trace, units alternate untraced and
traced, starting untraced, and at least one of each runs.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sqgfronts  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def software() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sqgfronts": sqgfronts.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run_units(workload, inputs, seconds: float, trace: bool) -> dict:
    walls = {False: [], True: []}
    tracers = []
    gates = {}
    notes = None
    start = perf_counter()
    while True:
        traced = trace and len(walls[True]) < len(walls[False])
        if traced:
            tr = tracer.Tracer()
            patched = tracer.install(tr, sqgfronts)
            root = tr.open(f"workload.{workload.name}")
        t0 = perf_counter()
        try:
            output = workload.run(inputs)
        finally:
            wall = perf_counter() - t0
            if traced:
                tr.close(root)
                tracer.uninstall(patched)
        walls[traced].append(wall)
        if traced:
            tracers.append(tr)
        unit_gates, notes = workload.check(inputs, output)
        for g in unit_gates:
            worst = gates.setdefault(g["name"], {**g, "runs": 0, "failed": 0})
            worst["runs"] += 1
            worst["failed"] += not g["passed"]
            if not g["measured"] <= worst["measured"]:
                worst.update(measured=g["measured"], tolerance=g["tolerance"], passed=g["passed"])
        enough = walls[False] and (walls[True] or not trace)
        if enough and perf_counter() - start + wall > seconds:
            break
    return {"walls": walls[False], "traced_walls": walls[True], "gates": list(gates.values()),
            "notes": notes, "layers": layer_metrics(tracers, walls) if trace else None}


def layer_metrics(tracers: list, walls: dict) -> dict:
    """Per-unit layer figures averaged over the traced units."""
    names = sorted(tracer.public_functions(sqgfronts).values())
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    velocity_at_ms = []
    unattributed = 0.0
    work = {}
    for tr in tracers:
        for (name, start, end, parent), own in zip(tr.spans, tracer.self_times(tr.spans)):
            if parent < 0:
                unattributed += own
                continue
            rec = table[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += own
            if name == "velocity.velocity_at":
                velocity_at_ms.append(1e3 * (end - start))
        for key, value in tr.work.items():
            work[key] = work.get(key, 0) + value

    units = len(tracers)
    out = {f"{name}.{field}": value / units for name, rec in table.items() for field, value in rec.items()}
    dense_self = sum(out[f"{name}.self_s"] for name in tracer.DENSE)
    pair_evals = work.get("quadrature.pair_evals", 0) / units
    steps = out["dynamics.step_rk4.calls"]
    sim_time = work.get("dynamics.sim_time", 0.0) / units
    out.update({
        "quadrature.pair_evals": pair_evals,
        "quadrature.pair_evals_per_s": pair_evals / dense_self if dense_self else 0.0,
        "dynamics.rhs_per_step": out["dynamics.rhs.calls"] / steps if steps else 0.0,
        "dynamics.steps_per_sim_time": steps / sim_time if sim_time else 0.0,
        "velocity.velocity_at.p50_ms": float(np.percentile(velocity_at_ms, 50)) if velocity_at_ms else 0.0,
        "velocity.velocity_at.p90_ms": float(np.percentile(velocity_at_ms, 90)) if velocity_at_ms else 0.0,
        "unattributed_s": unattributed / units,
        "traced_wall_s": statistics.median(walls[True]),
        "trace_overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(np.random.default_rng(args.seed), args.size)
    setup_s = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = run_units(workload, inputs, args.seconds, args.trace)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    result["software"] = software()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
