"""sqgfronts benchmark: one workload, end-to-end metrics or a traced layer table.

Run from the repository root:

    python3 perfbench/run.py --workload periodic_symmetry --seed 1 --seconds 38 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones in PER_LAYER. `attempted` and `failed` count the
correctness gates run (checks_run, checks_failed). The line before it is the
full record: machine, software, every gate with its measured value, ungated
notes and, when traced, every layer figure. Exit code 0 means every gate
passed; 1 means a gate failed; 2 a usage error or a missing source tree; 3
a worker that failed (an unknown workload name included) or overran the
deadline.

Each run starts SETUP_PROBES short processes that only set up, then the
measuring process; setup_s is the median set-up time of all of them. BLAS
and OpenMP threads are capped at the number of usable cores for every child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = {"wall_s": ("s", "lower"), "setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower")}

# Layer figures BENCHMARK.json tracks. Times are limited to functions every
# workload calls, so none reads a constant 0; the record line carries calls,
# total_s and self_s for every public function on every workload.
PER_LAYER = (
    "quadrature.nonlinear_term.self_s",
    "quadrature.nonlinear_term.calls",
    "quadrature.linear_term_quadrature.calls",
    "quadrature.background_term.calls",
    "quadrature.pair_evals",
    "quadrature.pair_evals_per_s",
    "dynamics.rhs.total_s",
    "dynamics.rhs.self_s",
    "dynamics.rhs.calls",
    "dynamics.step_rk4.calls",
    "dynamics.rhs_per_step",
    "dynamics.steps_per_sim_time",
    "dynamics.integrate.calls",
    "dynamics.scaling_galilean_check.calls",
    "velocity.velocity_at.calls",
    "velocity.galilean_shift.calls",
    "velocity.normal_velocity_background.calls",
    "velocity.normal_velocity_bmo.calls",
    "velocity.box_riesz_crosscheck.calls",
    "grid.spectral_derivative.calls",
    "grid.apply_linear_multiplier.calls",
    "grid.stencil_derivative.self_s",
    "grid.finite_difference_derivative.calls",
    "grid.build_workspace.calls",
    "fronts.front_profile.self_s",
    "fronts.front_profile.calls",
    "halfspace.harmonic_extension.calls",
    "halfspace.stream_function.calls",
    "halfspace.boundary_stream.calls",
    "cli.run_suite.calls",
    "traced_wall_s",
    "trace_overhead_s",
    "unattributed_s",
)

_SPECIAL = {
    "quadrature.pair_evals": ("count", "lower"),
    "quadrature.pair_evals_per_s": ("1/s", "higher"),
    "dynamics.rhs_per_step": ("rhs/step", "lower"),
    "dynamics.steps_per_sim_time": ("steps/time", "lower"),
}


def describe(name: str) -> tuple:
    """(unit, better) of any metric the benchmark reports."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name in _SPECIAL:
        return _SPECIAL[name]
    if name.endswith(".calls"):
        return ("count", "lower")
    if name.endswith("_ms"):
        return ("ms", "lower")
    if name.endswith("_s"):
        return ("s", "lower")
    raise KeyError(f"no unit for metric {name!r}")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3.strip() if l3 else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit,
    }


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= nproc
        env[var] = current if keep else str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def call_worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py, return the JSON on its last stdout line; stderr passes through."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record: dict, shown: tuple) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} size={record['size']}")
    print(f"  units: {len(record['unit_walls_s'])} untraced, {len(record['traced_unit_walls_s'])} traced; "
          f"set-ups: {len(record['setup_samples_s'])}")
    for name in shown:
        m = record["metrics"][name]
        print(f"  {name:<42} {_fmt(m['value']):>14} {m['unit']:<10} ({m['better']} is better)")
    print(f"  checks_failed {record['checks_failed']} of checks_run {record['checks_run']}")
    for g in record["gates"]:
        tag = "PASS" if g["failed"] == 0 else "FAIL"
        print(f"  {tag} {g['name']:<48} measured {g['measured']:.3e}  tol {g['tolerance']:.1e}")
    for key, value in record["notes"].items():
        print(f"  note {key} = {_fmt(value)} (not gated)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the measured units")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is the smoke-test size")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sqgfronts" / "__init__.py").is_file():
        print(f"perfbench: no sqgfronts source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    host = machine()
    env = child_env(host["nproc"])
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        setups = [call_worker([*common, "--seconds", "0", "--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = call_worker([*common, "--seconds", str(args.seconds)] + (["--trace"] if args.trace else []),
                             env, deadline)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker overran the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    setups.append(result["setup_s"])

    values = {
        "wall_s": statistics.median(result["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        values.update(result["layers"])
    metrics = {name: dict(zip(("value", "unit", "better"), (value, *describe(name))))
               for name, value in values.items()}
    checks_run = sum(g["runs"] for g in result["gates"])
    checks_failed = sum(g["failed"] for g in result["gates"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "machine": host, "software": result["software"], "metrics": metrics,
        "unit_walls_s": result["walls"], "traced_unit_walls_s": result["traced_walls"],
        "setup_samples_s": setups, "checks_run": checks_run, "checks_failed": checks_failed,
        "gates": result["gates"], "notes": result["notes"],
    }
    chosen = PER_LAYER if args.trace else tuple(END_TO_END)
    report(record, tuple(END_TO_END) + chosen if args.trace else chosen)
    print(json.dumps(record))
    print(json.dumps({
        "correct": checks_failed == 0,
        "attempted": checks_run,
        "failed": checks_failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in chosen},
    }))
    return 0 if checks_failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
