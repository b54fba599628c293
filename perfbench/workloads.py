"""The benchmark's three workloads, written against the public API of `sqgfronts`.

Each workload has three parts:

  setup(rng, size) -> inputs    seeded inputs, grids and configs (counted in setup_s)
  run(inputs) -> output         the timed section, one unit of work
  check(inputs, output)         (gates, notes): correctness gates at the
                                tolerances of tests/test_acceptance.py, and
                                recorded but ungated values

The seed only moves front parameters and probe points; the amount of work in
a unit depends on `size` alone. Library calls go through module attributes
(`sq.integrate`, `cli.run_suite`, ...) so a traced run sees them. See
README.md for why each workload exists.
"""

from __future__ import annotations

import math

import numpy as np

import sqgfronts as sq
from sqgfronts import cli, dynamics


def gate(name: str, measured: float, tolerance: float) -> dict:
    measured = float(measured)
    return {"name": name, "measured": measured, "tolerance": float(tolerance),
            "passed": bool(measured <= tolerance)}  # NaN fails


def _signed_amplitude(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


class PeriodicSymmetry:
    """Criterion-08 scaling-Galilean check at n = 512 on a 16 pi window, horizon shortened."""

    name = "periodic_symmetry"
    KS = (2.0, 0.5)
    SIZES = {
        "full": {"n": 512, "half_window": 8.0 * math.pi, "t_end": 0.1},
        "tiny": {"n": 128, "half_window": 2.0 * math.pi, "t_end": 0.01},
    }

    def setup(self, rng, size: str):
        p = self.SIZES[size]
        grid = sq.make_grid(-p["half_window"], 2.0 * p["half_window"], p["n"], periodic=True)
        front = {"amplitude": 0.1 * rng.uniform(0.9, 1.1), "width": 0.5, "center": rng.uniform(-1.0, 1.0)}
        return sq.SimConfig(grid=grid, t_end=p["t_end"], backend="periodic_spectral",
                            initial_family="gaussian", initial_params=front, cfl_safety=1.0)

    def run(self, cfg):
        # scaling_galilean_check returns only the mismatch; keep the
        # trajectories it integrates so their mean drift can be gated
        trajectories = []
        integrate = dynamics.integrate

        def keep(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            trajectories.append(traj)
            return traj

        dynamics.integrate = keep
        try:
            mismatch = {k: sq.scaling_galilean_check(cfg, k) for k in self.KS}
        finally:
            dynamics.integrate = integrate
        return mismatch, trajectories

    def check(self, cfg, output):
        mismatch, trajectories = output
        gates = [gate(f"scaling_galilean_k_{k}", m, 1e-3) for k, m in mismatch.items()]
        gates.append(gate("aborted_trajectories", sum(t.aborted for t in trajectories), 0))
        drift = max(abs(t.diagnostics[-1]["mean"] - t.diagnostics[0]["mean"]) / t.final.t for t in trajectories)
        gates.append(gate("mean_drift_per_unit_time", drift, 1e-8))
        return gates, {"trajectories": len(trajectories)}


class LineEvolve:
    """Line-backend RK4 at n = 2048 on [-30, 30), fixed dt, background audit on."""

    name = "line_evolve"
    DT = 0.002
    # 5 steps (about 9 s) rather than 10 so that a run holds four units:
    # with 10-step units only one or two fit, and their median spread 10 %
    # from seed to seed on a shared 2-core host
    SIZES = {"full": {"n": 2048, "steps": 5}, "tiny": {"n": 256, "steps": 2}}

    def setup(self, rng, size: str):
        p = self.SIZES[size]
        grid = sq.make_grid(-30.0, 60.0, p["n"])
        front = {"amplitude": _signed_amplitude(rng, 0.3, 0.5), "width": rng.uniform(1.5, 2.0),
                 "center": rng.uniform(-3.0, 3.0)}
        return sq.SimConfig(grid=grid, t_end=p["steps"] * self.DT, dt=self.DT, backend="line_quadrature",
                            initial_family="gaussian", initial_params=front, audit_background=True)

    def run(self, cfg):
        return sq.integrate(cfg)

    def check(self, cfg, traj):
        final = traj.final
        route = sq.normal_velocity_bmo(final, sq.galilean_shift(final))
        gates = [
            gate("aborted", traj.aborted, 0),
            gate("background_audit", max(d["max_background"] for d in traj.diagnostics), 1e-8),
            gate("rhs_vs_normal_velocity_bmo_final", np.max(np.abs(sq.rhs(final, cfg) - route)), 1e-6),
        ]
        # the line backend assumes the front stays flat outside the middle
        # half; dispersion breaks that slowly, so record it without gating
        notes = {
            "support_defect_final": sq.support_defect(final),
            "edge_asymmetry_final": abs(float(final.phi[0]) - float(final.phi[-1])),
            "steps": len(traj.snapshots) - 1,
        }
        return gates, notes


class VelocityProbe:
    """One-shot velocity analysis of several line fronts at n = 1024, no time stepping."""

    name = "velocity_probe"
    SUITES = ("identities", "equivalence", "farfield", "qg")
    PARAMS = sq.KernelParams(h=1.0)
    SIZES = {
        "full": {"n": 1024, "fronts": 6, "probes": 2000, "box": 1024, "big_box": 2048},
        "tiny": {"n": 512, "fronts": 2, "probes": 50, "box": 256, "big_box": 512},
    }

    def setup(self, rng, size: str):
        p = self.SIZES[size]
        fronts = []
        for i in range(p["fronts"]):
            amplitude = _signed_amplitude(rng, 0.25, 0.5)
            if i % 2 == 0:
                front = ("gaussian", {"amplitude": amplitude, "width": rng.uniform(1.5, 2.0),
                                      "center": rng.uniform(-3.0, 3.0)})
            else:
                front = ("poly_bump", {"amplitude": amplitude, "width": rng.uniform(5.0, 6.0),
                                       "center": rng.uniform(-3.0, 3.0)})
            # probes sit 0.5 to 10 above the crest or below the trough, so
            # every one is off the front whatever its shape
            px = rng.uniform(-20.0, 20.0, p["probes"])
            above = rng.random(p["probes"]) < 0.5
            gap = rng.uniform(0.5, 10.0, p["probes"])
            py = np.where(above, max(amplitude, 0.0) + gap, min(amplitude, 0.0) - gap)
            fronts.append((front, list(zip(px.tolist(), py.tolist()))))
        return {
            "grid": sq.make_grid(-30.0, 60.0, p["n"]),
            "fronts": fronts,
            "box": sq.BoxSpec(size=80.0, n=p["box"]),
            "big_box": sq.BoxSpec(size=160.0, n=p["big_box"]),
        }

    def run(self, inputs):
        grid, params = inputs["grid"], self.PARAMS
        per_front = []
        first = None
        for (family, fp), probes in inputs["fronts"]:
            phi, phix = sq.front_profile(grid.x, family, **fp)
            state = sq.make_state(grid, phi)
            if first is None:
                first = state
            shift = sq.galilean_shift(state, params)
            background = sq.normal_velocity_background(state, params)
            bmo = sq.normal_velocity_bmo(state, shift, params)
            residual = sq.background_term(state, phix, params)
            samples = [sq.velocity_at(state, x, y, shift) for x, y in probes]
            box = sq.box_riesz_crosscheck(state, inputs["box"], params)
            per_front.append({
                "route_gap": float(np.max(np.abs(background - bmo))),
                "background": float(np.max(np.abs(residual))),
                "nonfinite_probes": sum(not (math.isfinite(s.u) and math.isfinite(s.v)) for s in samples),
                "box_sup": box["sup"],
            })
        big_box = sq.box_riesz_crosscheck(first, inputs["big_box"], params)
        suites = {name: cli.run_suite(name, None, None, 1.0) for name in self.SUITES}
        return per_front, big_box, suites

    def check(self, inputs, output):
        per_front, big_box, suites = output
        worst = lambda key: max(f[key] for f in per_front)
        gates = [
            gate("route_gap", worst("route_gap"), 1e-6),
            gate("background_integral", worst("background"), 1e-8),
            gate("nonfinite_probes", sum(f["nonfinite_probes"] for f in per_front), 0),
            gate("box_sup", worst("box_sup"), 1e-1),
            gate("big_box_sup", big_box["sup"], 1e-1),
        ]
        for name, checks in suites.items():
            gates.extend(gate(f"{name}.{c['name']}", c["measured"], c["tolerance"]) for c in checks)
        notes = {
            "fronts": len(per_front),
            "probes": sum(len(p) for _, p in inputs["fronts"]),
            # criterion 11 expects doubling the box to at least halve the
            # mismatch at n = 1024; recorded, not gated, since the smoke size
            # is too coarse for it
            "big_box_over_box_sup": big_box["sup"] / per_front[0]["box_sup"],
        }
        return gates, notes


WORKLOADS = {w.name: w for w in (PeriodicSymmetry(), LineEvolve(), VelocityProbe())}
