"""Contract tests of the command line on tiny configs: exit codes, files, reruns."""

import json

import pytest

from hjsing.cli import main

SINE_KINK = """
[problem]
key = sine_kink
lambda = 1.0

[grid]
box = -3.141592653589793 3.141592653589793
resolution = 32

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


def run(tmp_path, command, config_text):
    config = tmp_path / "run.ini"
    config.write_text(config_text)
    out = tmp_path / "out"
    return main([command, "--config", str(config), "--out", str(out)]), out


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
    payload = json.loads((out / "certificates.json").read_text())
    assert len(payload["certificates"]) == len(data_rows(out / "curve.csv"))
    assert float(data_rows(out / "curve.csv")[-1].split(",")[0]) == 1.5
    code, out = run(tmp_path, "trace", config_text)
    assert code == 0
    assert (out / "curve.csv").read_bytes() == curve


def test_cutlocus(tmp_path):
    code, out = run(tmp_path, "cutlocus", SINE_KINK)
    assert code == 0
    for name in ("v.grid", "tau.grid", "alpha.grid", "aubry.csv"):
        assert (out / name).is_file()
    assert len(data_rows(out / "retraction_demo.csv")) == 2
