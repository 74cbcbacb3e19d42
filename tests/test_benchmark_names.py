"""The names of ``mmjoint`` that the benchmark in ``perfbench/`` reaches.

The benchmark's tracer only notes on stderr that a traced name is gone and
then leaves its metrics out, so a rename would drop a layer without a
failure.  These tests fail instead.
"""

import importlib.util
from pathlib import Path

import mmjoint
from mmjoint import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """``perfbench/tracer.py``, loaded by path as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer().Tracer()
    with tracer:
        assert tracer.absent == []


def test_names_the_benchmark_calls_exist():
    # set-up resolves configs with cli.load_config_file; the CLI workloads
    # call cli.main, and solve-point the one-split solvers and forward model
    for owner, name in [(cli, "load_config_file"), (cli, "main"),
                        (mmjoint, "solve_mmf"), (mmjoint, "solve_wsse"),
                        (mmjoint, "PowerAllocation"), (mmjoint, "evaluate")]:
        assert callable(getattr(owner, name, None)), name
