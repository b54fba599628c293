"""Command line interface: config parsing, artifacts, exit codes."""

import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqgfronts import cfl_timestep, initial_state, quadrature
from sqgfronts.cli import (
    SUITES,
    UsageError,
    _decay_ratio,
    _fmt,
    build_parser,
    load_config,
    main,
    measure_invariant_drift,
    measure_scaling_galilean,
    run_suite,
    write_csv,
)

PERIODIC_CFG = {
    "grid": {"n": 256, "length": 4 * np.pi, "x_min": -2 * np.pi, "periodic": True},
    "initial": {"family": "gaussian", "params": {"amplitude": 0.1, "width": 0.5, "center": 0.0}},
    "t_end": 0.05,
    "output_stride": 20,
}

LINE_CFG = {
    "grid": {"n": 600, "length": 60.0, "x_min": -30.0},
    "initial": {"family": "gaussian", "params": {"amplitude": 0.5, "width": 2.0, "center": 0.0}},
    "t_end": 0.01,
    "dt": 0.005,
}


# fields whose JSON type used to be passed on unchecked: a TypeError
# traceback (exit 1) or a silently misread value
BAD_TYPES = [
    ("output_stride", lambda c: c.update(output_stride=True)),
    ("dt", lambda c: c.update(dt=[0.005])),
    ("grid.periodic", lambda c: c["grid"].update(periodic="no")),
    ("t_end", lambda c: c.update(t_end=True)),
]

# Python's json reads NaN and Infinity as floats, and an integer literal may
# be too large for a float; these used to end in a ValueError or
# OverflowError traceback (exit 1) or, for the center, a silent all-zero front
HUGE = 10**400
NON_FINITE = [
    ("grid.x_min", math.nan),
    ("grid.length", math.inf),
    ("initial.params.amplitude", math.nan),
    ("initial.params.center", math.inf),
    ("initial.params.width", HUGE),
    ("dt", math.nan),
    ("t_end", HUGE),
]

# keys the schema does not have used to be dropped, so the run went ahead on
# defaults; the first three are settings that could not change the run
UNKNOWN_KEYS = [
    ("backend", "line"),
    ("galilean_form", False),
    ("kernel", {"h": None}),
    ("d_t", 0.5),
    ("grid.periodc", True),
    ("initial.famly", "gaussian"),
]

# a params value that is not a number used to pass: true ran at amplitude 1
NOT_NUMBERS = [
    ("initial.params.amplitude", True),
    ("initial.params.center", False),
    ("initial.params.amplitude", [0.5]),
]


def _setter(field, value):
    def mutate(c):
        *parents, last = field.split(".")
        for key in parents:
            c = c.setdefault(key, {})
        c[last] = value
    return mutate


BAD_FIELDS = BAD_TYPES + [(field, _setter(field, value)) for field, value in NON_FINITE + UNKNOWN_KEYS + NOT_NUMBERS]
BAD_FIELD_IDS = ([field for field, _ in BAD_TYPES]
                 + [f"{field}-{'huge' if value is HUGE else value}" for field, value in NON_FINITE]
                 + [field for field, _ in UNKNOWN_KEYS]
                 + [f"{field}-{json.dumps(value)}" for field, value in NOT_NUMBERS])


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_load_config_roundtrip(tmp_path):
    cfg, raw = load_config(_write_cfg(tmp_path, LINE_CFG))
    assert cfg.backend == "line_quadrature"
    assert cfg.grid.n == 600 and not cfg.grid.periodic
    assert cfg.dt == 0.005
    assert cfg.output_stride == 1
    assert raw["t_end"] == 0.01

    cfg2, _ = load_config(_write_cfg(tmp_path, PERIODIC_CFG, "p.json"))
    assert cfg2.backend == "periodic_spectral"
    assert cfg2.dt is None and cfg2.output_stride == 20


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("grid"),
        lambda c: c["grid"].update(n=255),
        lambda c: c["grid"].update(n=True),
        lambda c: c["grid"].update(length=-5.0),
        lambda c: c.pop("initial"),
        lambda c: c["initial"].update(family="sawtooth"),
        lambda c: c["initial"]["params"].pop("width"),
        # backend, kernel and galilean_form are not config fields
        lambda c: c.update(backend="crank_nicolson"),
        lambda c: c.update(kernel={"hh": 1.0}),
        lambda c: c.update(kernel={"h": -2.0}),
        lambda c: c.update(t_end=0.0),
        lambda c: c.update(backend="periodic"),  # line grid + periodic backend
        lambda c: c.update(kernel={"window": 20.0}),
        lambda c: c.update(kernel={"diagonal_mode": "skip_point"}),
        lambda c: c.update(output_stride="two"),
        lambda c: c.update(output_stride=None),
        lambda c: c.update(output_stride=2.7),
        lambda c: c.update(galilean_form="no"),
        lambda c: c.update(galilean_form=True),
    ] + [mutate for _, mutate in BAD_FIELDS],
)
def test_load_config_rejects(tmp_path, mutate):
    payload = json.loads(json.dumps(LINE_CFG))
    mutate(payload)
    with pytest.raises(UsageError):
        load_config(_write_cfg(tmp_path, payload))


@pytest.mark.parametrize("field, mutate", BAD_FIELDS, ids=BAD_FIELD_IDS)
def test_badly_typed_field_exits_2_and_names_it(tmp_path, capsys, field, mutate):
    payload = json.loads(json.dumps(LINE_CFG))
    mutate(payload)
    code = main(["simulate", "--config", _write_cfg(tmp_path, payload), "--out", str(tmp_path / "run")])
    assert code == 2
    assert field in capsys.readouterr().err


def test_readme_schema_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Run config schema\s+```json\n(.*?)```", readme, re.S)
    assert block, "README.md has no run config schema block"
    cfg, raw = load_config(_write_cfg(tmp_path, json.loads(block.group(1))))
    # the block shows every field
    assert set(raw) == {"grid", "initial", "t_end", "dt", "output_stride"}
    assert set(raw["grid"]) == {"n", "length", "x_min", "periodic"}
    assert cfg.backend == "periodic_spectral" and cfg.grid.n == raw["grid"]["n"]


def test_load_config_bad_file(tmp_path):
    with pytest.raises(UsageError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UsageError):
        load_config(str(bad))


def test_param_errors_name_the_family(tmp_path):
    payload = json.loads(json.dumps(LINE_CFG))
    payload["initial"]["params"].pop("width")
    with pytest.raises(UsageError) as ei:
        load_config(_write_cfg(tmp_path, payload))
    assert "gaussian" in str(ei.value)
    assert "_gaussian" not in str(ei.value)


def test_fmt_floats():
    assert _fmt(0.1) == "0.1"
    assert _fmt(np.float64(0.25)) == "0.25"  # numpy scalars must not leak their repr
    assert _fmt(3) == "3"


def test_write_csv_deterministic(tmp_path):
    rows = [(0.1, np.float64(2.5)), (1.0 / 3.0, -1e-17)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["p", "q"], rows)
    write_csv(b, ["p", "q"], list(rows))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "p,q"
    assert "np.float64" not in a.read_text()


def test_run_suite_unknown():
    with pytest.raises(UsageError):
        run_suite("spectra", None, None, 1.0)
    assert SUITES == ("identities", "equivalence", "farfield", "qg", "symmetry", "dispersion")


# ordered check names of each suite: the verify manifest contract and the
# names the benchmark gates as {suite}.{name}
SUITE_CHECKS = {
    "identities": ["background_integral_zero", "scale_identity_vs_log", "cosine_integral_constant",
                   "hilbert_pair_flat_front"],
    "equivalence": ["derivation_I_vs_II", "rhs_vs_derivation_II", "rhs_regrouping"],
    "farfield": ["farfield_u_error_at_1e3_x0p0", "farfield_v_error_at_1e3_x0p0",
                 "farfield_monotone_decay_ratio_x0p0", "farfield_u_error_at_1e3_x3p0",
                 "farfield_v_error_at_1e3_x3p0", "farfield_monotone_decay_ratio_x3p0"],
    "qg": ["laplacian_harmonic_extension", "laplacian_stream_function", "dz_stream_vs_extension",
           "boundary_trace", "boundary_velocity_2logy"],
    "symmetry": ["scaling_galilean_k_2.0", "scaling_galilean_k_0.5", "translation_in_phi",
                 "translation_in_x", "mean_conservation_per_unit_time", "l2_conservation_per_unit_time"],
    "dispersion": ["dispersion_rel_error_xi1", "dispersion_rel_error_xi2", "dispersion_rel_error_xi4"],
}


# symmetry at its default n = 256 takes seconds; at n = 64 the mean drift
# reads 7.2e-9 against its 1e-8 bound, too close to use
@pytest.mark.parametrize("name, n", [(name, 128 if name in ("symmetry", "dispersion") else None) for name in SUITES])
def test_run_suite_passes_with_pinned_check_names(name, n):
    checks = run_suite(name, n, None, 1.0)
    assert [c["name"] for c in checks] == SUITE_CHECKS[name]
    for c in checks:
        assert set(c) == {"name", "measured", "tolerance", "passed", "wall_s"}
        assert c["passed"], c
        assert c["wall_s"] >= 0.0


def test_decay_ratio_skips_roundoff_sequences():
    u = np.array([1e-4, 1e-6, 1e-8])
    zeros = np.array([5.2e-17, 5.2e-17, 1e-102])  # v on the symmetry axis
    assert _decay_ratio(u, zeros) == pytest.approx(1e-2)
    assert _decay_ratio(zeros) == math.inf  # nothing left to measure fails the check
    # a sequence that rises out of roundoff still counts, floored
    assert _decay_ratio(u, np.array([1e-16, 1e-3, 1e-2])) == pytest.approx(1e11)


def test_verify_qg_passes(capsys):
    assert main(["verify", "--suite", "qg"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "spectra"]) == 2


def test_verify_impossible_tolerance(tmp_path):
    code = main(["verify", "--suite", "qg", "--tolerance-scale", "1e-12",
                 "--out", str(tmp_path / "v")])
    assert code == 1
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["cores"] == quadrature._usable_cores()
    assert any(not c["passed"] for c in manifest["checks"])


def test_simulate_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, PERIODIC_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["aborted"] is False
    assert manifest["cores"] == quadrature._usable_cores()
    assert manifest["snapshots"]
    for d in manifest["diagnostics"]:
        assert set(d) >= {"t", "mean", "l2", "max_slope"}
    # identical inputs, byte-identical snapshot bodies
    for name in manifest["snapshots"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_abort_exit_code(tmp_path):
    steep = json.loads(json.dumps(PERIODIC_CFG))
    steep["initial"]["params"] = {"amplitude": 30.0, "width": 0.2, "center": 0.0}
    steep["t_end"] = 0.01
    cfg = _write_cfg(tmp_path, steep, "steep.json")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "ab")])
    assert code == 1
    manifest = json.loads((tmp_path / "ab" / "manifest.json").read_text())
    assert manifest["aborted"] is True


# the periodic front of amplitude 0.5 has a stability step of 0.023; run to
# t = 1 at dt = 0.04 it blows up, and the slope threshold then blamed the front
STEEP_PERIODIC_CFG = {**PERIODIC_CFG, "initial": {"family": "gaussian",
                                                  "params": {"amplitude": 0.5, "width": 0.5, "center": 0.0}}}


@pytest.mark.parametrize("base, dt", [(LINE_CFG, None), (STEEP_PERIODIC_CFG, 0.04)], ids=["line-no-dt", "above-cfl"])
def test_simulate_step_the_grid_cannot_take_exits_2(tmp_path, capsys, base, dt):
    # both used to end in a ValueError traceback (exit 1)
    payload = {**base, "dt": dt}
    assert main(["simulate", "--config", _write_cfg(tmp_path, payload), "--out", str(tmp_path / "run")]) == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("base, dt, steps", [(LINE_CFG, 0.005, 2), (PERIODIC_CFG, None, 3)], ids=["line", "periodic"])
def test_simulate_manifest_records_the_step(tmp_path, base, dt, steps):
    path = _write_cfg(tmp_path, base)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    if dt is None:  # the automatic step of the start state
        cfg, _ = load_config(path)
        dt = cfl_timestep(initial_state(cfg), cfg)
    assert (manifest["dt"], manifest["steps"]) == (dt, steps)


@pytest.mark.parametrize("base, family", [(PERIODIC_CFG, "gaussian"), (LINE_CFG, "gaussian"), (PERIODIC_CFG, "zero")],
                         ids=["periodic", "line", "flat"])
def test_simulate_manifest_records_invariant_drift(tmp_path, base, family):
    params = base["initial"]["params"] if family == "gaussian" else {}
    path = _write_cfg(tmp_path, {**base, "initial": {"family": family, "params": params}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == 0
    drift = json.loads((tmp_path / "run" / "manifest.json").read_text())["drift_per_unit_time"]
    assert set(drift) == {"mean", "l2"}
    if family == "zero":  # no int phi^2 to measure a relative drift against
        assert drift == {"mean": 0.0, "l2": None}
    elif base is PERIODIC_CFG:
        # the symmetry suite's run: the same front, grid and horizon
        assert (drift["mean"], drift["l2"]) == measure_invariant_drift(256, t_end=0.05)
    else:
        assert all(math.isfinite(v) for v in drift.values())


def test_simulate_refuses_a_line_front_that_leaks(tmp_path, capsys):
    # support 20 reaches past the middle half [-15, 15) of [-30, 30), where
    # the line tails assume the front is flat
    leaky = {**LINE_CFG, "initial": {"family": "windowed_cosine",
                                     "params": {"amplitude": 0.1, "mode": 1.0, "plateau": 10.0, "support": 20.0}}}
    assert main(["simulate", "--config", _write_cfg(tmp_path, leaky), "--out", str(tmp_path / "run")]) == 2
    assert "defect" in capsys.readouterr().err


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_dispersion_takes_a_step_past_the_linear_cfl_step(tmp_path):
    # dt = 0.01 is twice the linear CFL step 0.0049 at n = 64 and was refused;
    # the integrating factor propagates the linear modes exactly, and the
    # phase speeds read 9.0e-8 from the prediction, as at the automatic step
    out = tmp_path / "disp"
    assert main(["verify", "--suite", "dispersion", "--n", "64", "--dt", "0.01", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(c["measured"] < 1e-6 for c in manifest["checks"])


def test_dispersion_suite_refuses_an_unresolved_mode(capsys):
    # the suite's modes are 1, 2 and 4; at n = 8 only xi <= 2 is resolved
    assert main(["verify", "--suite", "dispersion", "--n", "8"]) == 2
    assert "xi = 4" in capsys.readouterr().err


# numeric flags that used to run a default, print FAIL everywhere or die with
# a ValueError traceback (exit 1); the second entry must appear in the message
BAD_FLAGS = [
    (["verify", "--n", "0"], "--n"),
    (["verify", "--n", "255"], "--n"),
    (["verify", "--suite", "identities", "--n", "8"], "n = 8"),  # probes within one spacing of the front
    (["verify", "--suite", "symmetry", "--dt", "-1"], "--dt"),
    (["verify", "--suite", "symmetry", "--dt", "1", "--n", "64"], "dt = 1.0"),  # dt > t_end
    (["verify", "--suite", "symmetry", "--dt", "0.1", "--n", "1024"], "dt = 0.1"),  # above the stability step 0.071
    (["verify", "--suite", "dispersion", "--dt", "1"], "dt = 1.0"),  # dt > t_end
    (["verify", "--tolerance-scale", "-1"], "--tolerance-scale"),
    (["verify", "--tolerance-scale", "nan"], "--tolerance-scale"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAGS, ids=["_".join(argv) for argv, _ in BAD_FLAGS])
def test_numeric_flags_exit_2_and_name_the_flag(argv, flag, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert flag in capsys.readouterr().err


def test_velocity_map(tmp_path):
    cfg = _write_cfg(tmp_path, LINE_CFG)
    out = tmp_path / "vm"
    code = main(["velocity-map", "--config", cfg, "--probe-x", "0.0,3.0",
                 "--probe-y=-100.0,100.0", "--out", str(out)])
    assert code == 0
    lines = (out / "velocity_map.csv").read_text().splitlines()
    assert lines[0] == "x,y,u,v,u_minus_2log_abs_y"
    assert len(lines) == 5


def test_velocity_map_needs_line_backend(tmp_path):
    cfg = _write_cfg(tmp_path, PERIODIC_CFG)
    assert main(["velocity-map", "--config", cfg, "--out", str(tmp_path / "vm")]) == 2


def test_velocity_map_probe_on_front(tmp_path):
    cfg = _write_cfg(tmp_path, LINE_CFG)
    code = main(["velocity-map", "--config", cfg, "--probe-x", "0.0",
                 "--probe-y", "0.5", "--out", str(tmp_path / "vm")])
    assert code == 2  # singular probe reported as a usage error


@pytest.mark.parametrize("flag", ["--probe-x", "--probe-y"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_velocity_map_refuses_non_finite_probes(flag, value, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, LINE_CFG)
    out = tmp_path / "vm"
    assert main(["velocity-map", "--config", cfg, f"{flag}=5.0,{value}", "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_symmetry_identity():
    assert measure_scaling_galilean(64, 1.0, 0.1) == 0.0


def test_symmetry_coarse_grid_fails_checks_not_usage():
    # at n = 8 the automatic step exceeds t_end / k; each run is cut to the horizon
    # and the unresolved grid fails its checks (exit 1) instead of exit 2
    assert main(["verify", "--suite", "symmetry", "--n", "8"]) == 1
    assert measure_scaling_galilean(8, 3.0, 0.25) > 1e-3
    # (0.7 / 0.3) * 0.3 rounds one ulp above 0.7: the rescaled run keeps its step
    assert math.isfinite(measure_scaling_galilean(8, 0.3, 0.7))


def test_symmetry_bad_k():
    with pytest.raises(UsageError, match="k = -2.0"):
        measure_scaling_galilean(64, -2.0, 0.25)


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\s+```sh\n(.*?)```", readme, re.S)
    assert block, "README.md has no CLI block"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("sqgfronts")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert {argv[1] for argv in lines} == {"simulate", "verify", "velocity-map"}
    for argv in lines:
        build_parser().parse_args(argv[1:])


def test_help_lists_the_three_commands(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    assert "{simulate,verify,velocity-map}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["dispersion"], ["symmetry", "--k", "2"],
                                  ["simulate", "--config", "run.json", "--n", "128"],
                                  ["simulate", "--config", "run.json", "--dt", "0.01"],
                                  ["velocity-map", "--config", "line.json", "--n", "128"]],
                         ids=["dispersion", "symmetry", "simulate-n", "simulate-dt", "velocity-map-n"])
def test_removed_commands_and_flags_exit_2(argv, capsys):
    # the run config is the only place that sets a run; verify runs the checks
    with pytest.raises(SystemExit) as ei:
        build_parser().parse_args(argv)
    assert ei.value.code == 2


def test_console_script_version():
    res = subprocess.run([sys.executable, "-m", "sqgfronts.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
