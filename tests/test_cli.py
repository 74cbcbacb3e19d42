import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmjoint.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    _write_json,
    build_parser,
    emit_plotdata,
    load_config,
    load_config_file,
    main,
    write_pareto_csv,
)
from mmjoint.optimizers import ParetoPoint, pareto_sweep, solve_mmf

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


class TestEmitPlotdata:
    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plotdata({}, tmp_path / "x.txt", {})

    def test_same_bytes_as_per_row_formatting(self, tmp_path):
        cfg = load_config(SMALL_CONFIG)
        points_by_n = {n: pareto_sweep(cfg.system(n), cfg.profile, 7)
                       for n in (32, 64)}
        # p_un 3 lies exactly halfway between the splits 2 and 4 of P = 8
        halfway = [ParetoPoint(p_un=2.0 * i, p_mu=8.0 - 2.0 * i,
                               o_mu=5.0 - i, o_un=0.1 * i**2 + 1 / 3,
                               mmf=None, wsse=None) for i in range(5)]
        points_by_n[16] = halfway
        ratios = (0.25, 0.375, 0.5, 0.75)
        prov = {"tool": "test"}
        emit_plotdata(points_by_n, tmp_path / "plot.txt", prov, ratios)
        rows = sorted((n, pt.p_un, pt.p_mu, pt.o_mu, pt.o_un)
                      for n, pts in points_by_n.items() for pt in pts)
        write_pareto_csv(tmp_path / "pareto.csv", rows, prov)

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
