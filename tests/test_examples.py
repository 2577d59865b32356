"""The examples still show what they say they show.

``examples/clash_storm.py`` prints whether the newcomer moved off the
stolen address; a regression there would only change a printed word,
so the outcome is asserted here.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("timer", ["uniform", "exponential"])
def test_clash_storm_newcomer_moves(timer, capsys):
    clash_storm = load("clash_storm")
    assert clash_storm.run_scenario(timer, clash_storm.TIMERS[timer])
    assert "newcomer moved: True" in capsys.readouterr().out
