import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mmjoint import cli, montecarlo
from mmjoint.closed_form import PowerAllocation
from mmjoint.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    SeriesText,
    _write_json,
    build_parser,
    emit_plotdata,
    grid_text,
    load_config,
    load_config_file,
    main,
    provenance_header,
    write_pareto_csv,
)
from mmjoint.optimizers import (
    check_convexity,
    mmf_arrays,
    pareto_sweep,
    solve_mmf,
    solve_wsse,
    wsse_arrays,
)

SMALL_CONFIG = {
    "scenario": {
        "n_antennas": 64,
        "n_unicast": 2,
        "n_groups": 1,
        "group_sizes": 2,
        "coherence_symbols": 200,
        "physical": {
            "bandwidth_hz": 20e6,
            "noise_psd_dbm_per_hz": -174.0,
            "dl_power_watts": 10.0,
            "pilot_energy_joules": 2e-6,
        },
        "seed": 9,
    },
    "sweep": {"n_points": 5, "antenna_counts": [32, 64]},
    "montecarlo": {"n_realizations": 300, "seed": 3, "n_workers": 1},
    "output": {"directory": "out"},
}


class Point(NamedTuple):
    """One boundary point, as a row of the output files."""

    p_un: float
    p_mu: float
    o_mu: float
    o_un: float


def points(sweep) -> list[Point]:
    """The boundary points of a ``pareto_sweep`` result."""
    return list(map(Point, sweep.p_un.tolist(), sweep.p_mu.tolist(),
                    sweep.mmf.objective.tolist(),
                    sweep.wsse.objective.tolist()))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


class TestConfigLoading:
    def test_default_config_is_valid(self):
        cfg = load_config_file(None)
        assert cfg.system().n_unicast == 20
        assert cfg.system().n_multicast == 1000

    def test_missing_power_field_named(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["physical"]
        with pytest.raises(ConfigError) as err:
            load_config(raw)
        assert err.value.field == "scenario.total_dl_power"

    def test_unknown_key_rejected(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scenario"]["bogus_knob"] = 1
        with pytest.raises(ConfigError) as err:
            load_config(raw)
        assert err.value.field == "scenario.bogus_knob"

    def test_missing_seed_and_distances(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["seed"]
        with pytest.raises(ConfigError) as err:
            load_config(raw)
        assert err.value.field == "scenario.seed"

    def test_explicit_distances(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["seed"]
        raw["scenario"]["unicast_distances"] = [100.0, 200.0]
        raw["scenario"]["multicast_distances"] = [[150.0, 400.0]]
        cfg = load_config(raw)
        assert cfg.geometry.unicast_distances == [100.0, 200.0]

    @pytest.mark.parametrize("key, value", [
        ("unicast_weights", [1.0, -1.0]),
        ("total_dl_power", float("nan")),
        ("total_dl_power", float("inf")),
        ("unicast_energy_budgets", float("inf")),
        ("multicast_energy_budgets", [[10.0, 10.0], [5.0]]),
    ])
    def test_invalid_value_on_seed_path_is_config_error(
            self, tmp_path, capsys, key, value):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["physical"]
        raw["scenario"].update(total_dl_power=5.0, unicast_energy_budgets=10.0,
                               multicast_energy_budgets=10.0)
        raw["scenario"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))  # writes NaN / Infinity literals
        code = main(["mmf", "--config", str(path), "--out",
                     str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert key in err["message"]

    @pytest.mark.parametrize("block, key, value, field", [
        ("montecarlo", "n_realizations", 50, "montecarlo.n_realizations"),
        ("montecarlo", "n_realizations", "abc", "montecarlo.n_realizations"),
        ("montecarlo", "n_realizations", 150.7, "montecarlo.n_realizations"),
        ("montecarlo", "seed", 1.5, "montecarlo.seed"),
        ("montecarlo", "seed", -1, "montecarlo.seed"),
        ("montecarlo", "n_workers", 0, "montecarlo.n_workers"),
        ("montecarlo", "n_workers", -3, "montecarlo.n_workers"),
        ("montecarlo", "unicast_power_fraction", float("nan"),
         "montecarlo.unicast_power_fraction"),
        ("physical", "bandwidth_hz", -1, "physical"),
        ("scenario", "exclusion_radius_m", 600, "scenario.exclusion_radius_m"),
        ("sweep", "n_points", 1, "sweep.n_points"),
        ("sweep", "antenna_counts", [0], "sweep.antenna_counts"),
        ("scenario", "cell_radius_m", "abc", "scenario.cell_radius_m"),
        ("scenario", "exclusion_radius_m", -5.0,
         "scenario.exclusion_radius_m"),
        ("scenario", "pathloss_exponent", float("nan"),
         "scenario.pathloss_exponent"),
        ("scenario", "attenuation_const", 0.0, "scenario.attenuation_const"),
        ("scenario", "n_unicast", "abc", "scenario.n_unicast"),
        ("scenario", "group_sizes", "x", "scenario.group_sizes"),
        ("scenario", "coherence_symbols", "200", "scenario.coherence_symbols"),
        ("scenario", "unicast_weights", 2.0, "scenario.unicast_weights"),
        ("scenario", "unicast_distances", 100.0, "scenario.unicast_distances"),
        ("output", "directory", 5, "output.directory"),
        ("scenario", "n_antennas", 64.5, "scenario.n_antennas"),
        ("scenario", "coherence_symbols", 2.5, "scenario.coherence_symbols"),
        ("scenario", "n_groups", 1.5, "scenario.n_groups"),
        ("scenario", "n_unicast", True, "scenario.n_unicast"),
        ("scenario", "coherence_symbols", 3, "scenario"),
        ("physical", "noise_psd_dbm_per_hz", float("nan"), "physical"),
        ("physical", "bandwidth_hz", float("inf"), "physical"),
        ("scenario", "attenuation_const", 1e-320, "scenario"),
        ("scenario", "pathloss_exponent", 400, "scenario"),
        ("sweep", "n_points", 2, "sweep.n_points"),
    ])
    def test_invalid_value_exits_2_naming_field(
            self, tmp_path, capsys, block, key, value, field):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        target = raw["scenario"]["physical"] if block == "physical" \
            else raw[block]
        target[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = main(["validate", "--config", str(path), "--out",
                     str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == field
        assert key in err["field"] + err["message"]

    @pytest.mark.parametrize("raw, argv, field", [
        ({"scenario": [1]}, [], "<root>.scenario"),
        ({"scenario": [1]}, ["--seed", "3"], "<root>.scenario"),
        ({"scenario": {}, "montecarlo": 5}, ["--seed", "3"],
         "<root>.montecarlo"),
        ([1], [], "<root>"),
        ([1], ["--seed", "3"], "<root>"),
    ])
    def test_non_mapping_exits_2_with_or_without_overrides(
            self, tmp_path, capsys, raw, argv, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = main(["validate", "--config", str(path), "--out",
                     str(tmp_path / "run"), *argv])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == field
        assert not (tmp_path / "run").exists()

    def test_default_workers_are_the_usable_cpus(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["montecarlo"]["n_workers"]
        cfg = load_config(raw)
        assert cfg.montecarlo["n_workers"] == len(os.sched_getaffinity(0))
        assert "n_workers" not in cfg.provenance()["montecarlo"]

    def test_provenance_carries_filled_defaults(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["sweep"], raw["output"]
        prov = load_config(raw).provenance()
        assert prov["montecarlo"]["unicast_power_fraction"] == 0.5
        assert prov["sweep"] == {"n_points": 21,
                                 "antenna_counts": [50, 100, 200]}
        assert prov["output"] == {"directory": "out"}
        assert prov["scenario"]["pathloss_exponent"] == 3.76

    def test_normalized_default_power(self):
        cfg = load_config_file(None)
        assert cfg.total_dl_power == pytest.approx(1.256e14, rel=1e-3)
        assert cfg.unicast_energy_budgets[0] == pytest.approx(5.02e14,
                                                              rel=1e-3)


class TestPareto:
    def test_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["pareto", "--config", config_path,
                     "--out", str(out)]) == 0
        lines = (out / "pareto.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "N,p_un,p_mu,o_mu,o_un"
        assert len(data) == 1 + 2 * 5  # two antenna counts, five points each
        # rows sorted by (N, p_un)
        keys = [(int(r.split(",")[0]), float(r.split(",")[1])) for r in data[1:]]
        assert keys == sorted(keys)
        convexity = json.loads((out / "convexity_report.json").read_text())
        assert all(v["is_consistent"] for v in convexity["convexity"].values())
        plot = (out / "pareto_plotdata.txt").read_text()
        assert plot.count("# series N=") == 2
        assert plot.count("# radial") == 3

    def test_points_override(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["pareto", "--config", config_path, "--out", str(out),
              "--points", "7", "--n", "64"])
        data = [l for l in (out / "pareto.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(data) == 1 + 7

    def test_overrides_recorded_in_provenance(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["pareto", "--config", config_path, "--out", str(out),
                     "--points", "7", "--n", "64", "--seed", "4"]) == 0
        for name in ("pareto.csv", "pareto_plotdata.txt"):
            header = (out / name).read_text().splitlines()[0]
            prov = json.loads(header.removeprefix("# "))
            assert prov["sweep"] == {"n_points": 7, "antenna_counts": [64]}
            assert prov["scenario"]["n_antennas"] == 64
            assert prov["scenario"]["seed"] == 4
            assert prov["montecarlo"]["seed"] == 4
        report = json.loads((out / "convexity_report.json").read_text())
        assert list(report["convexity"]) == ["64"]

    @pytest.mark.parametrize("points", ["0", "1", "2"])
    def test_points_below_two_rejected(self, config_path, tmp_path, capsys,
                                       points):
        code = main(["pareto", "--config", config_path, "--out",
                     str(tmp_path / "run"), "--points", points, "--n", "32"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "--points"
        assert not (tmp_path / "run").exists()

    def test_same_bytes_as_the_per_point_path(self, tmp_path):
        # unsorted antenna counts: the CSV sorts by N, the plot keeps the
        # config's order
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "small.json").read_text())
        raw["sweep"]["antenna_counts"] = [64, 32]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["pareto", "--config", str(path), "--out", str(out),
                     "--points", "7"]) == 0

        cfg = load_config(raw, {"sweep": {"n_points": 7}})
        prov = cfg.provenance()
        sweeps = {n: pareto_sweep(cfg.system(n), cfg.profile, 7)
                  for n in (64, 32)}
        points_by_n = {n: points(sweep) for n, sweep in sweeps.items()}
        header = "# " + json.dumps(prov, sort_keys=True)
        rows = sorted((n, pt.p_un, pt.p_mu, pt.o_mu, pt.o_un)
                      for n, pts in points_by_n.items() for pt in pts)
        csv = [header, "N,p_un,p_mu,o_mu,o_un"] + [
            f"{n},{a:.17e},{b:.17e},{c:.17e},{d:.17e}"
            for n, a, b, c, d in rows]
        plot = [header, "# columns: o_mu<TAB>o_un"]
        for n, pts in points_by_n.items():
            plot.append(f"# series N={n}")
            plot += [f"{pt.o_mu:.17e}\t{pt.o_un:.17e}" for pt in pts]
        for ratio in (0.25, 0.5, 0.75):
            plot.append(f"# radial P_un/P={ratio}")
            for pts in points_by_n.values():
                total = pts[0].p_un + pts[0].p_mu
                pt = min(pts, key=lambda p: abs(p.p_un - ratio * total))
                plot.append(f"{pt.o_mu:.17e}\t{pt.o_un:.17e}")
        report = {"provenance": prov, "convexity": {
            str(n): vars(check_convexity(sweep.p_un, sweep.mmf.objective,
                                         sweep.wsse.objective))
            for n, sweep in sweeps.items()}}
        assert (out / "pareto.csv").read_text() == "\n".join(csv) + "\n"
        assert (out / "pareto_plotdata.txt").read_text() == \
            "\n".join(plot) + "\n"
        assert (out / "convexity_report.json").read_text() == json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_runs_pareto_sweep_and_check_convexity_per_antenna_count(
            self, tmp_path, monkeypatch):
        # perfbench traces these two names as the Pareto layers of `pareto`
        calls = []
        for name in ("pareto_sweep", "check_convexity"):
            def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        path = Path(__file__).resolve().parents[1] / "configs" / "small.json"
        assert main(["pareto", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 0
        counts = json.loads(path.read_text())["sweep"]["antenna_counts"]
        assert calls == ["pareto_sweep", "check_convexity"] * len(counts)

    def test_determinism_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["pareto", "--config", config_path, "--out", str(out1)])
        main(["pareto", "--config", config_path, "--out", str(out2)])
        for name in ("pareto.csv", "pareto_plotdata.txt",
                     "convexity_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSolverCommands:
    def test_mmf_at_zero_unicast_power(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["mmf", "--config", config_path, "--out", str(out),
                     "--p-un", "0"]) == 0
        payload = json.loads((out / "mmf_solution.json").read_text())
        cfg = load_config_file(config_path)
        direct = solve_mmf(cfg.system(), cfg.profile, 0.0)
        assert payload["solution"]["objective_bits_per_s_per_hz"] == \
            direct.objective
        assert payload["p_mu"] == cfg.total_dl_power

    def test_wsse_writes_solution(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["wsse", "--config", config_path, "--out", str(out),
                     "--p-mu", "0"]) == 0
        payload = json.loads((out / "wsse_solution.json").read_text())
        assert payload["solution"]["objective_bits_per_s_per_hz"] > 0.0

    def test_infeasible_split(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["mmf", "--config", config_path, "--out", str(out),
                     "--p-un", "1e30"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "infeasible"
        assert "P_un + P_mu <= P" in err["message"] or "p_un" in err["message"]

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_nonpositive_antenna_override_rejected(self, config_path,
                                                   tmp_path, capsys, n):
        code = main(["mmf", "--config", config_path, "--out",
                     str(tmp_path / "run"), "--n", n])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "--n"
        assert not (tmp_path / "run").exists()

    def test_internal_error_is_not_reported_as_infeasible(
            self, config_path, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("internal")
        monkeypatch.setattr("mmjoint.cli.solve_mmf", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["mmf", "--config", config_path, "--out",
                  str(tmp_path / "run")])

    def test_oracle_instances_need_a_longer_coherence_interval(
            self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scenario"].update(n_unicast=1, coherence_symbols=4)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["oracle-check", "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "scenario"
        assert "coherence_symbols" in err["message"]
        assert list(out.iterdir()) == []

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["mmf", "--config", str(tmp_path / "nope.json"),
                     "--p-un", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"


def normalized_config(tmp_path, total_dl_power):
    raw = json.loads(json.dumps(SMALL_CONFIG))
    del raw["scenario"]["physical"]
    raw["scenario"].update(total_dl_power=total_dl_power,
                           unicast_energy_budgets=10.0,
                           multicast_energy_budgets=10.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def budget_config(tmp_path, total_dl_power, budgets):
    """``normalized_config`` with every pilot energy budget at ``budgets``."""
    path = Path(normalized_config(tmp_path, total_dl_power))
    raw = json.loads(path.read_text())
    raw["scenario"].update(unicast_energy_budgets=budgets,
                           multicast_energy_budgets=budgets)
    path.write_text(json.dumps(raw))
    return str(path)


class TestPowerBudgetBounds:
    def test_zero_power_sweep_is_config_error(self, tmp_path, capsys):
        path = normalized_config(tmp_path, 0.0)
        out = tmp_path / "run"
        assert main(["pareto", "--config", path, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "scenario.total_dl_power"
        assert not (out / "pareto.csv").exists()
        # a single solve at P = 0 is the documented degenerate case
        assert main(["mmf", "--config", path, "--out", str(out)]) == 0

    def test_non_finite_result_writes_nothing(self, tmp_path, capsys):
        path = normalized_config(tmp_path, 1e300)
        out = tmp_path / "run"
        assert main(["mmf", "--config", path, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "scenario"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["wsse", "pareto"])
    def test_overflowing_budget_writes_nothing(self, command, tmp_path,
                                               capsys):
        # the unicast floors and the groups' 1/upsilon overflow at P = 1e300
        path = normalized_config(tmp_path, 1e300)
        out = tmp_path / "run"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "scenario"
        assert list(out.iterdir()) == []


    def test_validate_overflow_is_a_config_error(self, tmp_path, capsys):
        # x_star overflows here, so the default split would otherwise read
        # as an infeasible allocation (exit 3)
        path = budget_config(tmp_path, 1e308, 1e300)
        out = tmp_path / "run"
        assert main(["validate", "--config", path, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "scenario"
        assert list(out.iterdir()) == []

    def test_validate_overflow_starts_no_chunk(self, tmp_path, capsys,
                                               monkeypatch):
        # the squared entry powers overflow at this power, before the
        # Monte Carlo starts a chunk
        path = Path(budget_config(tmp_path, 1e200, 10.0))
        raw = json.loads(path.read_text())
        raw["montecarlo"].update(n_realizations=20000, n_workers=2)
        path.write_text(json.dumps(raw))
        run_chunk, calls = montecarlo._run_chunk, []

        def counted(*args):
            calls.append(args[-1][0])
            return run_chunk(*args)

        monkeypatch.setattr(montecarlo, "_run_chunk", counted)
        out = tmp_path / "run"
        assert main(["validate", "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", "scenario")
        assert list(out.iterdir()) == []
        assert calls == []


class TestWriteJson:
    def test_failed_write_leaves_earlier_file_and_no_partial(self,
                                                            tmp_path):
        path = tmp_path / "report.json"
        _write_json(path, {"ok": True})
        good = path.read_bytes()
        # the encoder has written the list's first entries when it fails
        with pytest.raises(ConfigError):
            _write_json(path, {"values": [1.0] * 1000 + [float("nan")]})
        with pytest.raises(TypeError):
            _write_json(path, {"values": [1.0] * 1000 + [object()]})
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_same_bytes_as_one_shot_encoding(self, tmp_path):
        payload = {"b": [1.5, {"z": None, "a": "x"}], "a": 2, "c": []}
        path = tmp_path / "report.json"
        _write_json(path, payload)
        assert path.read_text() == json.dumps(
            payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestValidate:
    def test_report_written_and_parallel_identical(self, config_path,
                                                   tmp_path):
        outs = []
        for workers, name in ((1, "a"), (4, "b")):
            raw = json.loads(json.dumps(SMALL_CONFIG))
            raw["montecarlo"]["n_workers"] = workers
            cfg_path = tmp_path / f"cfg_{name}.json"
            cfg_path.write_text(json.dumps(raw))
            out = tmp_path / name
            assert main(["validate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outs.append((out / "montecarlo_report.json").read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])["report"]
        assert report["n_realizations"] == 300
        assert len(report["unicast"]) == 2
        assert len(report["multicast"]) == 2

    def test_default_workers_write_the_one_worker_report(self, tmp_path):
        outs = []
        for name, workers in (("default", {}), ("one", {"n_workers": 1})):
            raw = json.loads(json.dumps(SMALL_CONFIG))
            raw["montecarlo"] = {"n_realizations": 300, "seed": 3, **workers}
            cfg_path = tmp_path / f"cfg_{name}.json"
            cfg_path.write_text(json.dumps(raw))
            out = tmp_path / name
            assert main(["validate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outs.append((out / "montecarlo_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_report_does_not_depend_on_the_blas_thread_count(self,
                                                             tmp_path):
        # the default scenario: N = 100, U = 20, G = 10 groups of 100
        raw = {**cli.DEFAULT_CONFIG,
               "montecarlo": {"n_realizations": montecarlo.MIN_REALIZATIONS}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        src = str(Path(__file__).resolve().parents[1] / "src")
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run(
                [sys.executable, "-m", "mmjoint.cli", "validate", "--config",
                 str(path), "--out", str(out)], capture_output=True,
                text=True, env=env)
            assert run.returncode == 0, run.stderr
            reports.append((out / "montecarlo_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_report_block_is_the_report_dict_and_builds_no_row(
            self, tmp_path, monkeypatch):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scenario"].update(n_unicast=3, n_groups=3, group_sizes=[2, 1, 3])
        path = tmp_path / "three_groups.json"
        path.write_text(json.dumps(raw))
        calls = []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return montecarlo.empirical_sinr(*args, **kwargs)

        built = []
        init = montecarlo.UserSinrBreakdown.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli, "empirical_sinr", recorded)
        monkeypatch.setattr(montecarlo.UserSinrBreakdown, "__init__", counted)
        assert main(["validate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        assert built == []
        written = tmp_path / "out" / "montecarlo_report.json"
        block = json.loads(written.read_text())["report"]
        [(args, kwargs)] = calls
        report = montecarlo.empirical_sinr(*args, **kwargs)
        assert kwargs["seed"] == 3
        # JSON reads the index tuples as lists
        assert block == json.loads(json.dumps(report.to_dict()))
        assert [len(block[s]) for s in ("unicast", "multicast")] == [3, 6]
        assert len(report.multicast) == len(built) == 6


def series_text(points_by_n: dict) -> dict:
    """Each series of boundary points as the writers take it."""
    texts = {}
    for n, pts in points_by_n.items():
        p_un, p_mu, o_mu, o_un = np.array(
            [(pt.p_un, pt.p_mu, pt.o_mu, pt.o_un) for pt in pts]).T
        texts[n] = SeriesText(p_un, pts[0].p_un + pts[0].p_mu,
                              grid_text(p_un, p_mu),
                              [f"{v:.17e}" for v in o_mu.tolist()],
                              [f"{v:.17e}" for v in o_un.tolist()])
    return texts


class TestEmitPlotdata:
    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plotdata({}, tmp_path / "x.txt", {})

    def test_same_bytes_as_per_row_formatting(self, tmp_path, monkeypatch):
        cfg = load_config(SMALL_CONFIG)
        points_by_n = {n: points(pareto_sweep(cfg.system(n), cfg.profile, 7))
                       for n in (32, 64)}
        # p_un 3 lies exactly halfway between the splits 2 and 4 of P = 8
        halfway = [Point(p_un=2.0 * i, p_mu=8.0 - 2.0 * i, o_mu=5.0 - i,
                         o_un=0.1 * i**2 + 1 / 3) for i in range(5)]
        points_by_n[16] = halfway
        ratios = (0.25, 0.375, 0.5, 0.75)
        monkeypatch.setattr(cli, "RADIAL_RATIOS", ratios)
        prov = {"tool": "test"}
        emit_plotdata(series_text(points_by_n), tmp_path / "plot.txt",
                      provenance_header(prov))
        rows = sorted((n, pt.p_un, pt.p_mu, pt.o_mu, pt.o_un)
                      for n, pts in points_by_n.items() for pt in pts)
        write_pareto_csv(tmp_path / "pareto.csv", series_text(points_by_n),
                         provenance_header(prov))

        header = "# " + json.dumps(prov, sort_keys=True)
        plot = [header, "# columns: o_mu<TAB>o_un"]
        for n, pts in points_by_n.items():
            plot.append(f"# series N={n}")
            plot += [f"{pt.o_mu:.17e}\t{pt.o_un:.17e}" for pt in pts]
        for ratio in ratios:
            plot.append(f"# radial P_un/P={ratio}")
            for pts in points_by_n.values():
                total = pts[0].p_un + pts[0].p_mu
                pt = min(pts, key=lambda p: abs(p.p_un - ratio * total))
                plot.append(f"{pt.o_mu:.17e}\t{pt.o_un:.17e}")
        csv = [header, "N,p_un,p_mu,o_mu,o_un"] + [
            f"{n},{a:.17e},{b:.17e},{c:.17e},{d:.17e}"
            for n, a, b, c, d in rows]
        assert (tmp_path / "plot.txt").read_text() == "\n".join(plot) + "\n"
        assert (tmp_path / "pareto.csv").read_text() == "\n".join(csv) + "\n"
        # the tie at p_un = 3 goes to the lower split, p_un = 2
        assert plot[plot.index("# radial P_un/P=0.375") + 3] == (
            f"{halfway[1].o_mu:.17e}\t{halfway[1].o_un:.17e}")


OVERRIDE_VALUES = {"--p-un": "0", "--p-mu": "0", "--n": "16",
                   "--points": "7", "--seed": "5"}


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
# (subcommand, override flag) for every override the parser takes
ACCEPTED = [(name, action.option_strings[0])
            for name, parser in SUBCOMMANDS.items()
            for action in parser._actions
            if set(action.option_strings) & set(OVERRIDE_VALUES)]


def outputs_without_provenance(out: Path) -> dict:
    """Each output file with its provenance (JSON key, '#' lines) removed."""
    result = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            del payload["provenance"]
            result[path.name] = payload
        else:
            result[path.name] = [line for line in
                                 path.read_text().splitlines()
                                 if not line.startswith("#")]
    return result


class TestOverrideFlags:
    def test_each_command_takes_the_flags_it_reads(self):
        taken = {}
        for command, flag in ACCEPTED:
            taken.setdefault(command, []).append(flag)
        at_a_split = ["--p-un", "--p-mu", "--n", "--seed"]
        assert taken == {"pareto": ["--n", "--points", "--seed"],
                         "mmf": at_a_split, "wsse": at_a_split,
                         "validate": at_a_split}

    @pytest.mark.parametrize("command, flag", ACCEPTED)
    def test_every_accepted_flag_changes_the_result(
            self, config_path, tmp_path, command, flag):
        base = ["--config", config_path]
        assert main([command, *base, "--out", str(tmp_path / "a")]) == 0
        assert main([command, *base, "--out", str(tmp_path / "b"),
                     flag, OVERRIDE_VALUES[flag]]) == 0
        assert outputs_without_provenance(tmp_path / "a") != \
            outputs_without_provenance(tmp_path / "b")

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in SUBCOMMANDS for flag in OVERRIDE_VALUES
        if (command, flag) not in ACCEPTED])
    def test_flag_a_command_does_not_read_is_a_usage_error(
            self, config_path, tmp_path, capsys, command, flag):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path, "--out", str(out),
                  flag, OVERRIDE_VALUES[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestSharedParser:
    def test_one_process_writes_what_fresh_calls_write(self, tmp_path):
        runs = [["validate", "--seed", "5"], ["pareto", "--points", "21"],
                ["validate"]]
        for i, argv in enumerate(runs):
            assert main([*argv, "--out", str(tmp_path / f"shared{i}")]) == 0
        for i, argv in enumerate(runs):
            build_parser.cache_clear()
            assert main([*argv, "--out", str(tmp_path / f"fresh{i}")]) == 0
        for i in range(len(runs)):
            shared = sorted((tmp_path / f"shared{i}").iterdir())
            fresh = sorted((tmp_path / f"fresh{i}").iterdir())
            assert [p.name for p in shared] == [p.name for p in fresh]
            for a, b in zip(shared, fresh):
                assert a.read_bytes() == b.read_bytes(), a.name

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


class TestRepeatedAntennaCounts:
    def test_repeated_count_exits_2_and_writes_nothing(self, tmp_path,
                                                       capsys):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["sweep"]["antenna_counts"] = [32, 64, 32]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["pareto", "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "sweep.antenna_counts"
        assert not out.exists()


class TestDegenerateBoundary:
    @pytest.mark.parametrize("exponent", [8, 40])
    def test_weak_fading_exits_2_naming_scenario(self, exponent, tmp_path,
                                                 capsys):
        # every SINR is below float eps, so every objective rounds to 0
        raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "small.json").read_text())
        raw["scenario"]["pathloss_exponent"] = exponent
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["pareto", "--config", str(path),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["error"], err["field"]) == ("config", "scenario")
        assert "degenerate" in err["message"]
        assert list(out.iterdir()) == []


class TestOverflowStderr:
    def test_pareto_at_a_huge_power_prints_one_json_line(self, tmp_path):
        path = normalized_config(tmp_path, 1e300)
        out = tmp_path / "run"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)  # the default filters show them
        run = subprocess.run(
            [sys.executable, "-m", "mmjoint.cli", "pareto", "--config", path,
             "--out", str(out)], capture_output=True, text=True, env=env)
        assert run.returncode == 2
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert json.loads(lines[0])["field"] == "scenario"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, power, budgets", [
        ("wsse", 1e308, 1e300),  # the WSSE SINRs overflow
        ("pareto", 1e308, 1e300),
        ("validate", 1e200, 10.0),  # the Monte Carlo's squared powers do
    ])
    def test_huge_budgets_print_one_json_line(self, command, power, budgets,
                                              tmp_path):
        path = budget_config(tmp_path, power, budgets)
        out = tmp_path / "run"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)  # the default filters show them
        run = subprocess.run(
            [sys.executable, "-m", "mmjoint.cli", command, "--config", path,
             "--out", str(out)], capture_output=True, text=True, env=env)
        assert run.returncode == 2
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert json.loads(lines[0])["field"] == "scenario"


class TestSplitFlags:
    @pytest.mark.parametrize("command", ["mmf", "wsse", "validate"])
    def test_p_un_with_p_mu_is_a_usage_error(self, config_path, tmp_path,
                                            capsys, command):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path, "--out", str(out),
                  "--p-un", "0", "--p-mu", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--p-mu: not allowed with argument --p-un" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--p-un", "--p-mu"])
    @pytest.mark.parametrize("command", ["mmf", "wsse", "validate"])
    def test_non_finite_split_rejected(self, config_path, tmp_path, capsys,
                                       command, flag, value):
        out = tmp_path / "run"
        assert main([command, "--config", config_path, "--out", str(out),
                     f"{flag}={value}"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", flag)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--p-un", "--p-mu"])
    @pytest.mark.parametrize("command", ["mmf", "wsse", "validate"])
    def test_finite_split_beyond_the_budget_is_infeasible(
            self, config_path, tmp_path, capsys, command, flag):
        assert main([command, "--config", config_path, "--out",
                     str(tmp_path / "run"), flag, "1e30"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "infeasible"


class TestOracleCheck:
    def test_default_config_is_consistent(self, tmp_path):
        out = tmp_path / "run"
        assert main(["oracle-check", "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert len(report["results"]) == 3
        assert all(entry["consistent"] for entry in report["results"])
        assert report["all_consistent"] is True
        assert report["provenance"] == json.loads(json.dumps(
            load_config_file(None).provenance()))

    def test_oracle_above_the_closed_form_exits_4(self, tmp_path,
                                                   monkeypatch):
        oracle = cli.brute_force_oracle

        def above(*args, **kwargs):
            found = oracle(*args, **kwargs)
            return dataclasses.replace(found, objective=found.objective + 1)

        monkeypatch.setattr(cli, "brute_force_oracle", above)
        out = tmp_path / "run"
        assert main(["oracle-check", "--out", str(out)]) == 4
        report = json.loads((out / "oracle_report.json").read_text())
        assert len(report["results"]) == 3
        assert report["all_consistent"] is False

    def test_huge_power_is_a_config_error(self, tmp_path, capsys):
        path = normalized_config(tmp_path, 1e300)
        out = tmp_path / "run"
        assert main(["oracle-check", "--config", path, "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", "scenario")
        assert list(out.iterdir()) == []


class TestConfigRejections:
    @pytest.mark.parametrize("block, key", [
        ("scenario", "n_unicast"),
        ("physical", "bandwidth_hz"),
    ])
    def test_missing_required_field_is_named(self, tmp_path, capsys, block,
                                             key):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        target = raw["scenario"]["physical"] if block == "physical" \
            else raw[block]
        del target[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["mmf", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == f"{block}.{key}"
        assert err["message"] == "missing required field"

    def test_invalid_json_names_the_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"scenario": ')
        assert main(["mmf", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "<config>"
        assert err["message"].startswith("invalid JSON")

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"scenario": '
                                      + b"[" * 100_000 + b"]" * 100_000
                                      + b"}"], ids=["not-utf8", "deep"])
    def test_unreadable_json_names_the_config(self, tmp_path, capsys, text):
        # text that is not UTF-8, and nesting past the decoder's recursion
        # limit
        path = tmp_path / "config.json"
        path.write_bytes(text)
        out = tmp_path / "run"
        assert main(["mmf", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "<config>"
        assert not out.exists()

    def test_distances_outside_the_annulus(self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["seed"]
        raw["scenario"].update(unicast_distances=[100.0, 600.0],
                               multicast_distances=[[150.0, 400.0]])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["mmf", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "scenario.unicast_distances"

    @pytest.mark.parametrize("command", ["pareto", "mmf", "wsse", "validate"])
    @pytest.mark.parametrize("unicast, multicast, field", [
        ([100.0, 200.0, 300.0], [[150.0, 400.0]], "unicast_distances"),
        ([100.0, 200.0], [[100.0, 200.0, 300.0]], "multicast_distances"),
        ([100.0, 200.0], [[150.0, 400.0], [150.0, 400.0]],
         "multicast_distances"),
        ([100.0, 200.0], [[150.0, 600.0]], "multicast_distances"),
    ], ids=["unicast-count", "member-count", "group-count",
            "multicast-annulus"])
    def test_explicit_distances_name_their_field(self, tmp_path, capsys,
                                                 command, unicast,
                                                 multicast, field):
        # configs/small.json has 2 unicast users and one group of 2, in the
        # annulus from 35 m to 500 m
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["seed"]
        raw["scenario"].update(unicast_distances=unicast,
                               multicast_distances=multicast)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", f"scenario.{field}")
        assert not out.exists()


class TestFloatingPointErrors:
    """The library raises FloatingPointError where a value overflows and
    leaves numpy's error state as it found it."""

    @pytest.mark.parametrize("solve", [
        lambda system, profile: solve_mmf(system, profile, 0.0),
        lambda system, profile: solve_wsse(system, profile, 0.0),
        lambda system, profile: pareto_sweep(system, profile, 5),
        lambda system, profile: mmf_arrays(system, profile, np.zeros(3)),
        lambda system, profile: wsse_arrays(system, profile, np.zeros(3)),
    ], ids=["solve_mmf", "solve_wsse", "pareto_sweep", "mmf_arrays",
            "wsse_arrays"])
    def test_solvers_raise_at_a_huge_power(self, tmp_path, solve):
        cfg = load_config_file(normalized_config(tmp_path, 1e300))
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            solve(cfg.system(), cfg.profile)
        assert np.geterr() == before

    def test_monte_carlo_raises_at_a_huge_power(self, tmp_path):
        cfg = load_config_file(budget_config(tmp_path, 1e200, 10.0))
        system, profile = cfg.system(), cfg.profile
        half = 0.5 * system.total_dl_power
        mmf = solve_mmf(system, profile, half)
        wsse = solve_wsse(system, profile, half)
        alloc = PowerAllocation(p_dl=wsse.p_dl, q_dl=mmf.q_dl,
                                p_up=wsse.p_up, q_up=mmf.q_up,
                                tau=system.n_pilots)
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            montecarlo.empirical_sinr(system, profile, alloc, 300, seed=3,
                                      n_workers=2)
        assert np.geterr() == before


class TestGeometryOutOfFloatRange:
    @pytest.mark.parametrize("command", ["mmf", "pareto", "validate"])
    @pytest.mark.parametrize("radii, field", [
        ({"cell_radius_m": 1e200}, "scenario.cell_radius_m"),
        ({"exclusion_radius_m": 1e-200, "cell_radius_m": 1e-100},
         "scenario"),
    ], ids=["squared-radius-overflows", "fading-underflows"])
    def test_seeded_drop_exits_2_naming_the_field(self, tmp_path, capsys,
                                                  command, radii, field):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scenario"].update(radii)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", field)
        assert not out.exists()

    @pytest.mark.parametrize("distance", [1e-150, 1e150])
    def test_explicit_distances_exit_2_naming_scenario(self, tmp_path,
                                                       capsys, distance):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["seed"]
        raw["scenario"].update(
            exclusion_radius_m=1e-200, cell_radius_m=1e200,
            unicast_distances=[distance, 1.0],
            multicast_distances=[[1.0, 2.0]])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["mmf", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", "scenario")
        assert "fading" in err["message"]


HUGE_INTEGER = "1" + "0" * 400  # a JSON integer past the float range


class TestIntegersPastTheFloatRange:
    @pytest.mark.parametrize("command", ["mmf", "validate"])
    @pytest.mark.parametrize("key, value", [
        ("total_dl_power", 12345),
        ("unicast_energy_budgets", 12345),
        ("multicast_energy_budgets", [[10.0, 12345]]),
        ("unicast_weights", [1.0, 12345]),
        ("cell_radius_m", 12345),
        ("exclusion_radius_m", 12345),
        ("pathloss_exponent", 12345),
        ("attenuation_const", 12345),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, key,
                                      value):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["physical"]
        raw["scenario"].update(total_dl_power=5.0,
                               unicast_energy_budgets=10.0,
                               multicast_energy_budgets=10.0)
        raw["scenario"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw).replace("12345", HUGE_INTEGER))
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out",
                     str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", f"scenario.{key}")
        assert "finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("unicast_distances", [100.0, 12345]),
        ("multicast_distances", [[100.0, 12345]]),
    ])
    def test_distance_exits_2_naming_the_field(self, tmp_path, capsys, key,
                                               value):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        del raw["scenario"]["seed"]
        raw["scenario"].update(unicast_distances=[100.0, 200.0],
                               multicast_distances=[[150.0, 400.0]])
        raw["scenario"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw).replace("12345", HUGE_INTEGER))
        assert main(["mmf", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", f"scenario.{key}")
        assert "finite" in err["message"]

    def test_integers_in_the_float_range_still_pass(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scenario"].update(cell_radius_m=1000, exclusion_radius_m=35)
        del raw["scenario"]["physical"]
        raw["scenario"].update(total_dl_power=10 ** 300,
                               unicast_energy_budgets=10,
                               multicast_energy_budgets=10)
        cfg = load_config(raw)
        assert cfg.total_dl_power == 1e300

    # counts checked before anything is allocated: 10^30 is past the index
    # range, 10^400 past the float range too
    @pytest.mark.parametrize("block, key, value", [
        ("scenario", "n_antennas", 10**400),
        ("sweep", "antenna_counts", [10**400]),
        ("scenario", "n_unicast", 10**30),
        ("scenario", "group_sizes", [10**30]),
    ])
    def test_count_past_the_index_range_exits_2(self, tmp_path, capsys,
                                                block, key, value):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw.setdefault(block, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["mmf", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", f"{block}.{key}")
        assert not out.exists()

    def test_antenna_override_past_the_index_range_exits_2(
            self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["mmf", "--config", config_path, "--out", str(out),
                     "--n", str(10**400)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", "--n")
        assert not out.exists()
