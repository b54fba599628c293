"""Smoke test of the benchmark at the tiny size; takes under a minute.

    python3 perfbench/smoke.py

For every workload it runs run.py twice untraced and once traced on one
seed, and once more on another seed, then checks that

  * BENCHMARK.json lists the workloads of workloads.py and the metrics of
    run.py, with the same units and directions;
  * each run passes its gates and its last line carries exactly the
    metrics BENCHMARK.json names, as finite numbers with their units;
  * the record gives every metric a unit and a direction, the traced
    record has calls, total_s and self_s for every public function, and no
    layer time BENCHMARK.json tracks reads 0;
  * the same seed gives identical gate values and notes, and another seed
    moves at least one gate value;

and that run.py refuses, with a non-zero exit and no result, to run in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import sqgfronts  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED, OTHER_SEED = 5, 6


def invoke(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def tiny_run(workload: str, seed: int, trace: int) -> tuple:
    proc = invoke(run.ROOT, workload, seed, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_spec(bench: dict) -> None:
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS), "workload list differs"
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END), "end-to-end metrics differ"
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER), "per-layer metrics differ"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert (m["unit"], m["better"]) == run.describe(m["name"]), f"unit or direction of {m['name']} differs"


def check_result(record: dict, final: dict, names: list, label: str) -> None:
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1, f"{label}: {final}"
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(final)}"
    assert list(final["metrics"]) == names, f"{label}: metrics {list(final['metrics'])}"
    for name, m in final["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name} = {m}"
        assert m["unit"] == run.describe(name)[0], f"{label}: unit of {name}"
    for name, m in record["metrics"].items():
        assert (m["unit"], m["better"]) == run.describe(name), f"{label}: record entry {name}"


def gate_values(record: dict) -> dict:
    return {g["name"]: g["measured"] for g in record["gates"]}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(bench)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    functions = tracer.public_functions(sqgfronts).values()

    for workload in WORKLOADS:
        first, final = tiny_run(workload, SEED, 0)
        check_result(first, final, e2e, f"{workload} untraced")
        again, final = tiny_run(workload, SEED, 0)
        check_result(again, final, e2e, f"{workload} untraced again")
        traced, final = tiny_run(workload, SEED, 1)
        check_result(traced, final, layers, f"{workload} traced")
        missing = [f"{fn}.{field}" for fn in functions for field in ("calls", "total_s", "self_s")
                   if f"{fn}.{field}" not in traced["metrics"]]
        assert not missing, f"{workload}: traced record lacks {missing}"
        zero = [n for n, m in final["metrics"].items() if m["unit"] in ("s", "ms") and m["value"] == 0]
        assert not zero, f"{workload}: tracked layer times read 0: {zero}"
        other, final = tiny_run(workload, OTHER_SEED, 0)
        check_result(other, final, e2e, f"{workload} other seed")

        assert gate_values(first) == gate_values(again) == gate_values(traced), f"{workload}: gates not repeatable"
        assert first["notes"] == again["notes"] == traced["notes"], f"{workload}: notes not repeatable"
        assert gate_values(first) != gate_values(other), f"{workload}: the seed moves no gate value"
        print(f"ok {workload}: {first['checks_run']} checks, gates repeat on seed {SEED}, "
              f"wall_s {first['metrics']['wall_s']['value']:.3f} s at tiny size")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(Path(bare), next(iter(WORKLOADS)), SEED, 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), "run.py ran without a source tree"
    print("ok run.py refuses to run without the source tree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
