"""Contract tests of the command line on tiny configs: exit codes, files, reruns."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hjsing import GridFunction, cli
from hjsing.cli import main

SINE_KINK = """
[problem]
key = sine_kink
lambda = 1.0

[grid]
box = -3.141592653589793 3.141592653589793
resolution = 32

[evolve]
u0 = -abs(sin(x))
times = 0.5

[trace]
t0 = 0.5
x0 = 0.0
horizon = 1.5

[cutlocus]
demo_points = 2
demo_range = 0.3 1.0
"""

FREE_PARTICLE_KINK = """
[problem]
key = free_particle

[grid]
box = -6 6
resolution = 97
periodic = false

[evolve]
u0 = -abs(x)

[trace]
field = evolutionary
t0 = 0.5
x0 = 0.0
horizon = 1.5
"""

COS_EXPRESSION = """
[problem]
lagrangian = v^2/2 + cos(x)
c1 = 1
c2 = 1

[grid]
box = -3.141592653589793 3.141592653589793
resolution = 32
"""

POTENTIAL = SINE_KINK.replace("key = sine_kink", "potential = -cos(x)")

FREE_PARTICLE_2D = """
[problem]
key = free_particle
dimension = 2

[grid]
resolution = 16
"""


def run(tmp_path, command, config_text, *flags):
    config = tmp_path / "run.ini"
    config.write_text(config_text)
    out = tmp_path / "out"
    return main([command, "--config", str(config), "--out", str(out), *flags]), out


def data_rows(path):
    """The rows of a CSV output below its comment header and column names."""
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    return lines[1:]


@pytest.mark.parametrize("config_text", [SINE_KINK, FREE_PARTICLE_KINK],
                         ids=["discounted", "evolutionary"])
def test_trace(tmp_path, config_text):
    code, out = run(tmp_path, "trace", config_text)
    assert code == 0
    curve = (out / "curve.csv").read_bytes()
    columns = [line for line in curve.decode().splitlines()
               if line and not line.startswith("#")][0]
    assert columns == "s,x1,step_size,certificate_diameter"
    payload = json.loads((out / "certificates.json").read_text())
    assert len(payload["certificates"]) == len(data_rows(out / "curve.csv"))
    assert float(data_rows(out / "curve.csv")[-1].split(",")[0]) == 1.5
    code, out = run(tmp_path, "trace", config_text)
    assert code == 0
    assert (out / "curve.csv").read_bytes() == curve


def test_trace_of_many_blocks_reaches_its_horizon(tmp_path):
    # 75 annuli of 0.02 from t0 = 0.5; the trace used to stop after 64
    config = SINE_KINK.replace("horizon = 1.5", "horizon = 2.0\nblock = 0.02")
    code, out = run(tmp_path, "trace", config)
    assert code == 0
    # the last annulus ends at t0 + 75 * 0.02, clamped onto 2.0
    assert float(data_rows(out / "curve.csv")[-1].split(",")[0]) == 2.0
    assert len(json.loads((out / "certificates.json").read_text())["schedule"]) > 64


@pytest.mark.parametrize("line, replacement, exit_code", [
    ("horizon = 1.5", "horizon = 0.5", 0),      # ends where it starts
    ("x0 = 0.0", "x0 = 1.0", 2),                # not a singular start
], ids=["horizon-at-t0", "smooth-start"])
def test_trace_certificates_shape(tmp_path, capsys, line, replacement, exit_code):
    code, out = run(tmp_path, "trace", SINE_KINK.replace(line, replacement))
    assert code == exit_code
    if code:
        assert "numerical failure: start point [1.] has reachable diameter" in (
            capsys.readouterr().err)
        assert not (out / "certificates.json").exists()
        return
    payload = json.loads((out / "certificates.json").read_text())
    assert set(payload) == {"schedule", "certificates"}
    assert len(payload["certificates"]) == len(data_rows(out / "curve.csv")) == 1


def test_cutlocus(tmp_path):
    code, out = run(tmp_path, "cutlocus", SINE_KINK)
    assert code == 0
    for name in ("v.grid", "tau.grid", "alpha.grid", "aubry.csv"):
        assert (out / name).is_file()
    assert len(data_rows(out / "retraction_demo.csv")) == 2
    tau, _ = GridFunction.read(out / "tau.grid")
    assert tau.values.shape == (32,) and np.all(tau.values >= 0)


@pytest.mark.parametrize("command, output", [("solve", "v.grid"),
                                             ("evolve", "u_t0.500000.grid")])
def test_writes_the_same_grid_twice(tmp_path, command, output):
    code, out = run(tmp_path, command, SINE_KINK)
    assert code == 0
    grid = (out / output).read_bytes()
    if command == "solve":
        assert "final_residual" in json.loads((out / "report.json").read_text())
    code, out = run(tmp_path, command, SINE_KINK)
    assert code == 0
    assert (out / output).read_bytes() == grid


@pytest.mark.parametrize("config_text, flags", [
    (SINE_KINK, ()),
    # finite-difference partials; c1, c2 set the model's growth offsets
    (COS_EXPRESSION, ("--seed", "2")),
    # a non-periodic box: the boundary nodes' search balls leave it
    (FREE_PARTICLE_KINK, ()),
], ids=["catalog", "expression", "box"])
def test_verify(tmp_path, capsys, config_text, flags):
    code, _ = run(tmp_path, "verify", config_text, *flags)
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 5
    assert "np.float64" not in out


def test_evolve_resamples_u0_on_a_padded_box(tmp_path):
    # on a box that is not periodic u0 is resampled over the search pad; the
    # slices keep the configured box and nodes
    config = FREE_PARTICLE_KINK.replace("u0 = -abs(x)", "u0 = -abs(x)\ntimes = 0.5 1.0")
    code, out = run(tmp_path, "evolve", config)
    assert code == 0
    for t in (0.5, 1.0):
        u, _ = GridFunction.read(out / f"u_t{t:.6f}.grid")
        assert u.box.tolist() == [[-6.0, 6.0]] and u.values.shape == (97,)
        x = u.nodes()[:, 0]
        assert np.max(np.abs(u.values + np.abs(x) + t / 2)) <= 1e-12


def test_evolve_u0_file_without_the_pad_is_a_config_error(tmp_path, capsys):
    u0 = GridFunction.from_callable(lambda p: -np.abs(p[..., 0]), [(-6.0, 6.0)], 97,
                                    periodic=False)
    u0.write(tmp_path / "u0.grid")
    config = FREE_PARTICLE_KINK.replace(
        "u0 = -abs(x)", f"u0_file = {tmp_path / 'u0.grid'}\ntimes = 0.5 1.0")
    code, out = run(tmp_path, "evolve", config)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("hjsing: config error:") and "localization pad" in err
    assert not list(out.glob("u_t*.grid"))


@pytest.mark.parametrize("command, output", [("solve", "v.grid"), ("constants", None)])
def test_potential_model(tmp_path, capsys, command, output):
    code, out = run(tmp_path, command, POTENTIAL)
    assert code == 0
    if output:
        assert (out / output).is_file()
    else:
        assert "c3" in json.loads(capsys.readouterr().out)


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main([])
    assert exit_.value.code == 3
    assert "hjsing: error:" in capsys.readouterr().err


def test_non_numeric_value_is_a_bad_config_value(tmp_path, capsys):
    code, _ = run(tmp_path, "constants", SINE_KINK.replace("lambda = 1.0", "lambda = one"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("hjsing: config error: bad config value:")


def test_constants(tmp_path, capsys):
    code, _ = run(tmp_path, "constants", SINE_KINK)
    assert code == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "K1", "K2", "lambda1_unit_lip1", "F0_unit_lip1", "lambda2_unit",
        "c0", "c1", "c2", "c3"}


def test_constants_catalog_key_takes_c1_c2(tmp_path, capsys):
    config = SINE_KINK.replace("lambda = 1.0", "lambda = 1.0\nc1 = 5\nc2 = 7")
    code, _ = run(tmp_path, "constants", config)
    assert code == 0
    constants = json.loads(capsys.readouterr().out)
    assert (constants["K1"], constants["K2"]) == (5.0, 7.0)


def test_constants_2d_without_trace_section(tmp_path, capsys):
    code, _ = run(tmp_path, "constants", FREE_PARTICLE_2D)
    assert code == 0
    assert "c3" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command, base, line, replacement, flags", [
    ("constants", SINE_KINK, "lambda = 1.0", "lambda = -1", ()),
    ("constants", SINE_KINK, "lambda = 1.0", "lambda = 1.0", ("--tol", "0")),
    ("constants", SINE_KINK, "lambda = 1.0", "lambda = 1.0\neps = -1", ()),
    ("constants", SINE_KINK, "lambda = 1.0", "lambda = 1.0\nc1 = -1", ()),
    ("constants", SINE_KINK, "key = sine_kink", "key = pendulum\neps = 0.1", ()),
    ("constants", SINE_KINK, "times = 0.5", "times = -0.5", ()),
    ("constants", SINE_KINK, "demo_range = 0.3 1.0", "demo_range = 0.3", ()),
    ("constants", SINE_KINK, "x0 = 0.0", "x0 = 0.0 1.0", ()),
    ("constants", SINE_KINK, "[trace]", "[trace]\nfield = evolutinary", ()),
    ("constants", SINE_KINK, "[trace]", "[singular]\ncalib_tol = 1e-3\n\n[trace]", ()),
    ("constants", SINE_KINK, "horizon = 1.5", "horizion = 1.5", ()),
    ("constants", SINE_KINK, "[trace]", "[tarce]", ()),
    ("constants", SINE_KINK, "resolution = 32", "resolution = 32\nperiodic = maybe", ()),
    ("constants", SINE_KINK, "t0 = 0.5", "t0 = 0\nfield = evolutionary", ()),
    ("constants", SINE_KINK, "horizon = 1.5", "horizon = 0.4", ()),
    ("constants", FREE_PARTICLE_2D, "resolution = 16",
     "resolution = 16\n\n[evolve]\nresolution = 16 16 16", ()),
    ("constants", FREE_PARTICLE_2D, "key = free_particle", "potential = -cos(x1)", ()),
    ("constants", SINE_KINK, "x0 = 0.0", "x0 = nan", ()),
    ("solve", SINE_KINK, "box = -3.141592653589793 3.141592653589793", "box = 0 nan", ()),
    ("constants", SINE_KINK, "demo_range = 0.3 1.0",
     "demo_range = 0.3 1.0\n\n[run]\nseed = -1", ()),
    ("constants", SINE_KINK, "demo_points = 2", "demo_points = -1", ()),
    ("constants", SINE_KINK, "[trace]", "[solve]\ntol = inf\n\n[trace]", ()),
    ("constants", SINE_KINK, "lambda = 1.0", "lambda = 1.0\nc2 = -5", ()),
    ("constants", SINE_KINK, "lambda = 1.0", "lambda = 1.0", ("--seed", "-1")),
    # 10,000 annuli, over a minute of tracing
    ("trace", SINE_KINK, "horizon = 1.5", "horizon = 1.5\nblock = 1e-4", ()),
], ids=["lambda", "tol", "eps", "c1", "eps_key", "times", "demo_range", "x0", "field",
        "calib_tol", "misspelled_key", "misspelled_section", "periodic", "evolutionary_t0",
        "horizon_before_t0", "evolve_resolution", "potential_2d", "x0_nan", "box_nan", "seed",
        "demo_points", "tol_inf", "c2", "seed_flag", "block"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, base, line,
                                            replacement, flags):
    assert line in base
    code, _ = run(tmp_path, command, base.replace(line, replacement), *flags)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("hjsing: config error:") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["v.grid", "u0_file"])
@pytest.mark.parametrize("line, replacement", [
    ("0.5", "half"),                            # a value that is not a number
    ("resolution 4", "resolution 5"),           # fewer values than nodes
    ("dim 1", ""),                              # no dim line
], ids=["non-numeric", "short", "no-dim"])
def test_malformed_grid_file_is_a_config_error(tmp_path, capsys, target, line, replacement):
    # cutlocus reads out/v.grid if it is there, evolve reads evolve.u0_file
    text = "dim 1\nbox 0.0 3.0\nresolution 4\nlambda 1.0\n0.0\n0.5\n0.5\n0.0\n"
    grid = tmp_path / ("out" if target == "v.grid" else "data") / "v.grid"
    grid.parent.mkdir()
    grid.write_text(text.replace(line, replacement))
    if target == "v.grid":
        code, _ = run(tmp_path, "cutlocus", SINE_KINK)
    else:
        config = SINE_KINK.replace("u0 = -abs(sin(x))", f"u0_file = {grid}")
        code, _ = run(tmp_path, "evolve", config)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("hjsing: config error:") and err.count("\n") == 1
    assert str(grid) in err


@pytest.mark.parametrize("command", ["constants", "solve"])
def test_expression_without_c1_is_a_config_error(tmp_path, capsys, command):
    # an expression model's c_T = 0 is a placeholder, which the search
    # ball and the coarse re-score's action floor would trust
    code, out = run(tmp_path, command, COS_EXPRESSION.replace("c1 = 1\n", ""))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("hjsing: config error:") and "problem.c1" in err
    assert not out.exists()


def test_docstring_lists_every_key():
    sections = {}
    for block in cli.__doc__.split("\n\n"):
        if block.startswith("["):
            header, *entries = block.splitlines()
            sections[header] = entries
    assert [(f"[{key.section}]", "  " + cli._describe(key)) for key in cli.KEYS] == [
        (header, entry) for header, entries in sections.items() for entry in entries]


# Fuzzed configs start from SINE_KINK (32 nodes) with a short trace.  Text
# keys draw from FUZZ_TEXTS; a key the table gains needs an entry there.
FUZZ_BASE = {"problem": {"key": "sine_kink"}, "grid": {"resolution": "32"},
             "evolve": {"u0": "-abs(sin(x))", "times": "0.5"},
             "trace": {"t0": "0.5", "x0": "0.0", "horizon": "1.0"},
             "cutlocus": {"demo_points": "2", "demo_range": "0.3 1.0"}}
FUZZ_TEXTS = {"key": ["sine_kink", "free_particle", "pendulum", "nope"],
              "lagrangian": ["v^2/2 + cos(x)", "v^2/2 +", "v^2/2 + log(x + 4)"],
              "potential": ["-cos(x)", "x^", "log(x)", "sqrt(x)", "1/x"],
              "u0": ["-abs(sin(x))", "x1^2", "sin(", "log(x)"], "u0_file": ["missing.grid"],
              "out": ["elsewhere"]}
ODD_NUMBERS = ["0", "-1", "1e300", "-1e300", "1e-300"]


def accepted(key):
    """Config text that the key's own rule accepts; a rule across keys may
    still reject it.  Numbers lie within 3 of the rule's bound (of -1 without
    one) and, above an exclusive bound, at least 0.1 above it: a trace block
    of 1e-3 makes 500 annuli here, about 9 s.  Integers lie within 2 of the
    bound."""
    if key.kind is str:
        return st.sampled_from(FUZZ_TEXTS[key.name])
    if isinstance(key.kind, dict):
        return st.sampled_from([*key.kind, *(word.upper() for word in key.kind)])
    if key.rule == "lo < hi":
        return st.tuples(st.floats(-2, 2), st.floats(0.1, 2)).map(
            lambda pair: f"{pair[0]!r} {pair[0] + pair[1]!r}")
    op, bound = key.rule.split() if key.rule else (">=", "-1")
    lo = float(bound) + (0.1 if op == ">" else 0.0)
    number = (st.integers(int(lo), int(lo) + 2) if key.kind is int
              else st.floats(lo, lo + 3)).map(repr)
    return st.lists(number, min_size=key.count or 1, max_size=key.count or 3).map(" ".join)


def rejected(key):
    """Config text that the key's own rule, parse or arity rejects."""
    if isinstance(key.kind, dict):
        return st.just("maybe")
    bad = ["nan", "inf", "-inf", "one", "1 2 x"]
    if key.count:
        bad.append(" ".join(["1"] * (key.count + 1)))
    if key.rule == "lo < hi":
        bad += ["1 0", "0 0"]
    elif key.rule:
        op, bound = key.rule.split()
        bad += [str(key.kind(bound) - 1)] + ([bound] if op == ">" else [])
    return st.sampled_from(bad)


def odd(key):
    """Extreme or signed numbers, which the key's rule may accept."""
    return st.sampled_from(ODD_NUMBERS).map(
        lambda number: " ".join([number] * max(key.count, 1)))


@st.composite
def fuzzed_runs(draw, command, max_keys, skip=()):
    """(config text, flags, whether the config must be rejected): up to
    max_keys keys outside ``skip`` set to accepted, rejected or odd values,
    those with a flag for the command set by the flag half of the time."""
    config = {section: dict(keys) for section, keys in FUZZ_BASE.items()}
    flags, must_reject = [], False
    keys = draw(st.lists(st.sampled_from([key for key in cli.KEYS
                                          if f"{key.section}.{key.name}" not in skip]),
                         min_size=1, max_size=max_keys, unique_by=lambda key: key.attr))
    for key in keys:
        kinds = ["accepted"] if key.kind is str else ["accepted", "rejected", "odd"]
        kind = draw(st.sampled_from(kinds))
        text = draw({"accepted": accepted, "rejected": rejected, "odd": odd}[kind](key))
        must_reject |= kind == "rejected"
        if key.flag in ("all", command) and draw(st.booleans()):
            flags += [f"--{key.name}", *text.split()]
        else:
            config.setdefault(key.section, {})[key.name] = text
    text = "".join(f"[{section}]\n" + "".join(f"{name} = {value}\n"
                                               for name, value in entries.items())
                   for section, entries in config.items())
    return text, flags, must_reject


def run_quietly(command, config_text, flags):
    """main's exit code and stderr for the config, writing to a fresh
    directory (the last --out wins); an exception other than SystemExit
    fails the calling test."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(config_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([command, "--config", str(config), *flags,
                             "--out", f"{tmp}/out"])
            except SystemExit as exit_:             # an argparse usage error
                code = exit_.code
    return code, err.getvalue()


def check_exit(command, run):
    config_text, flags, must_reject = run
    code, err = run_quietly(command, config_text, flags)
    assert code in ({3} if must_reject else {0, 2, 3}), (code, err)
    assert "Traceback" not in err


# 150 examples of up to 3 keys through constants, which reads every key and
# builds the model, and 10 of up to 2 keys through each other subcommand.
# grid.resolution is left to constants: cutlocus on 16 nodes runs 30 s.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=fuzzed_runs("constants", 3))
def test_fuzzed_config_exits_0_2_or_3(run):
    check_exit("constants", run)


@pytest.mark.parametrize("command", ["solve", "evolve", "trace", "cutlocus", "verify"])
def test_fuzzed_config_exits_0_2_or_3_in_every_subcommand(command):
    @seed(command)
    @settings(max_examples=10, deadline=None, database=None)
    @given(run=fuzzed_runs(command, 2, skip=("grid.resolution",)))
    def fuzz(run):
        check_exit(command, run)

    fuzz()


# Expression models and data that are not finite where they are read: the
# potentials at 0 or below, u0 on the negative half of the box, and a
# Lagrangian finite on the box whose periodic candidates reach x < -4
NON_FINITE_BASE = """
[grid]
resolution = 32

[evolve]
u0 = -abs(x)
times = 0.5

[trace]
horizon = 1.0

[cutlocus]
demo_points = 2
demo_range = 0.3 1.0
"""
COMMANDS = ("solve", "constants", "verify", "trace", "cutlocus", "evolve")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("problem, base, exits", [
    ("potential = log(x)", NON_FINITE_BASE, (3, 3, 3, 3, 3, 3)),
    ("potential = sqrt(x)", NON_FINITE_BASE, (3, 3, 3, 3, 3, 3)),
    ("potential = 1/x", NON_FINITE_BASE, (3, 3, 3, 3, 3, 3)),
    ("key = sine_kink", NON_FINITE_BASE.replace("u0 = -abs(x)", "u0 = log(x)").replace(
        "[trace]", "[trace]\nfield = evolutionary"), (0, 0, 0, 3, 0, 3)),
    ("lagrangian = v^2/2 + log(x + 4)\nc1 = 0.2\nc2 = 2.1", NON_FINITE_BASE,
     (2, 0, 2, 2, 2, 0)),
], ids=["log_potential", "sqrt_potential", "inverse_potential", "log_u0", "log_lagrangian"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_model_or_data_exits_0_2_or_3(problem, base, exits, command):
    code, err = run_quietly(command, f"[problem]\n{problem}\n{base}", [])
    assert code == exits[COMMANDS.index(command)], err
    assert "Traceback" not in err
    if code == 2:
        assert "no finite cost in the search ball" in err
