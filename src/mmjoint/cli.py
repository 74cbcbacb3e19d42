"""Command-line interface: config ingestion, experiment orchestration, output.

Subcommands: ``pareto`` (boundary sweep over antenna counts), ``mmf`` /
``wsse`` (single solver run at a given power split), ``validate`` (Monte
Carlo cross-check), ``oracle-check`` (brute-force comparisons on an embedded
tiny-instance suite).  All outputs are static text files that embed the fully
resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .closed_form import InfeasibleAllocationError, PowerAllocation
from .montecarlo import MIN_REALIZATIONS, empirical_sinr
from .optimizers import (
    brute_force_oracle,
    check_convexity,
    pareto_sweep,
    solve_mmf,
    solve_wsse,
)
from .scenario import (
    CellGeometry,
    Grouped,
    LargeScaleProfile,
    PhysicalUnits,
    SystemConfig,
    normalize_units,
    place_users,
)

DEFAULT_CONFIG = {
    "scenario": {
        "n_antennas": 100,
        "n_unicast": 20,
        "n_groups": 10,
        "group_sizes": 100,
        "coherence_symbols": 200,
        "physical": {
            "bandwidth_hz": 20e6,
            "noise_psd_dbm_per_hz": -174.0,
            "dl_power_watts": 10.0,
            "pilot_energy_joules": 2e-6,
        },
        "cell_radius_m": 500.0,
        "exclusion_radius_m": 35.0,
        "pathloss_exponent": 3.76,
        "attenuation_const": 10.0 ** -3.5,
        "seed": 1,
    },
    "sweep": {"n_points": 21, "antenna_counts": [50, 100, 200]},
    "montecarlo": {
        "n_realizations": 20000,
        "seed": 1,
        "n_workers": 1,
        "unicast_power_fraction": 0.5,
    },
    "output": {"directory": "out"},
}

_SCHEMA = {
    "scenario": {
        "n_antennas", "n_unicast", "n_groups", "group_sizes",
        "coherence_symbols", "unicast_weights", "physical",
        "total_dl_power", "unicast_energy_budgets", "multicast_energy_budgets",
        "cell_radius_m", "exclusion_radius_m", "pathloss_exponent",
        "attenuation_const", "seed", "unicast_distances",
        "multicast_distances",
    },
    "physical": {
        "bandwidth_hz", "noise_psd_dbm_per_hz", "dl_power_watts",
        "pilot_energy_joules",
    },
    "sweep": {"n_points", "antenna_counts"},
    "montecarlo": {"n_realizations", "seed", "n_workers",
                   "unicast_power_fraction"},
    "output": {"directory"},
}

RADIAL_RATIOS = (0.25, 0.5, 0.75)

_NON_FINITE = "the scenario gives a non-finite result (NaN or infinity)"


class ConfigError(Exception):
    """Invalid experiment configuration; ``field`` names the offending key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _check_keys(block: dict, name: str):
    if not isinstance(block, dict):
        raise ConfigError(name, "must be a mapping")
    for key in block:
        if key not in _SCHEMA[name]:
            raise ConfigError(f"{name}.{key}", "unknown key")


def _require(block: dict, name: str, key: str):
    if key not in block:
        raise ConfigError(f"{name}.{key}", "missing required field")
    return block[key]


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_integer(value, field: str, low: int):
    if not _is_number(value, int) or value < low:
        raise ConfigError(field, f"must be an integer >= {low}")


def _check_montecarlo(mc: dict):
    """Reject values that would otherwise be truncated, ignored or refused
    only as an infeasible allocation."""
    for key, low in (("n_realizations", MIN_REALIZATIONS), ("seed", 0),
                     ("n_workers", 1)):
        _check_integer(mc.get(key, low), f"montecarlo.{key}", low)
    frac = mc.get("unicast_power_fraction", 0.5)
    if not _is_number(frac) or not 0.0 <= frac <= 1.0:
        raise ConfigError("montecarlo.unicast_power_fraction",
                          "must be a finite number in [0, 1]")


def _check_sweep(sweep: dict):
    """Reject sweeps that would otherwise fail only as infeasible."""
    default = DEFAULT_CONFIG["sweep"]
    _check_integer(sweep.get("n_points", default["n_points"]),
                   "sweep.n_points", 2)
    counts = sweep.get("antenna_counts", default["antenna_counts"])
    if not isinstance(counts, list) or not counts \
            or not all(_is_number(n, int) and n >= 1 for n in counts):
        raise ConfigError("sweep.antenna_counts",
                          "must be a nonempty list of positive integers")


@dataclass
class ExperimentConfig:
    """Fully validated and resolved experiment configuration."""

    scenario: dict
    sweep: dict
    montecarlo: dict
    output: dict
    base_system: SystemConfig
    geometry: CellGeometry
    profile: LargeScaleProfile

    @property
    def total_dl_power(self) -> float:
        return self.base_system.total_dl_power

    @property
    def unicast_energy_budgets(self) -> list:
        return self.base_system.unicast_energy_budgets

    @property
    def multicast_energy_budgets(self) -> Grouped:
        return self.base_system.multicast_energy_budgets

    def system(self, n_antennas: int | None = None) -> SystemConfig:
        if n_antennas is None:
            n_antennas = self.base_system.n_antennas
        return replace(self.base_system, n_antennas=n_antennas)

    def provenance(self) -> dict:
        """Resolved config echoed into every output file.

        The parallelism degree is excluded: it cannot affect results, and
        outputs must be byte-identical across worker counts.
        """
        mc = {k: v for k, v in self.montecarlo.items() if k != "n_workers"}
        return {
            "tool": f"mmjoint {__version__}",
            "scenario": self.scenario,
            "sweep": self.sweep,
            "montecarlo": mc,
            "output": self.output,
            "normalized": {
                "total_dl_power": self.total_dl_power,
                "unicast_energy_budgets": self.unicast_energy_budgets,
                "multicast_energy_budgets":
                    self.multicast_energy_budgets.tolist(),
                "convention": "powers normalized by sigma2*W; pilot energy "
                "by sigma2 (one symbol = 1/W seconds)",
            },
        }


def _as_list(value, length: int, field: str) -> list:
    if isinstance(value, (int, float)):
        return [float(value)] * length
    if isinstance(value, list) and len(value) == length:
        return [float(v) for v in value]
    raise ConfigError(field, f"must be a scalar or a list of length {length}")


def load_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping and resolve all derived quantities."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    for key in raw:
        if key not in ("scenario", "sweep", "montecarlo", "output"):
            raise ConfigError(key, "unknown key")
    sc = dict(_require(raw, "<root>", "scenario"))
    _check_keys(sc, "scenario")
    sweep = dict(raw.get("sweep", DEFAULT_CONFIG["sweep"]))
    _check_keys(sweep, "sweep")
    _check_sweep(sweep)
    mc = dict(raw.get("montecarlo", DEFAULT_CONFIG["montecarlo"]))
    _check_keys(mc, "montecarlo")
    _check_montecarlo(mc)
    out = dict(raw.get("output", DEFAULT_CONFIG["output"]))
    _check_keys(out, "output")

    n_unicast = int(_require(sc, "scenario", "n_unicast"))
    n_groups = int(_require(sc, "scenario", "n_groups"))
    group_sizes = _require(sc, "scenario", "group_sizes")
    if isinstance(group_sizes, int):
        group_sizes = [group_sizes] * n_groups
    sc["group_sizes"] = [int(k) for k in group_sizes]
    _require(sc, "scenario", "coherence_symbols")
    sc.setdefault("n_antennas", DEFAULT_CONFIG["scenario"]["n_antennas"])
    # the fading model needs each of these finite and positive
    for key in ("cell_radius_m", "exclusion_radius_m", "pathloss_exponent",
                "attenuation_const"):
        value = sc.setdefault(key, DEFAULT_CONFIG["scenario"][key])
        if not _is_number(value) or not 0.0 < value < math.inf:
            raise ConfigError(f"scenario.{key}",
                              "must be a finite positive number")

    # power and pilot energy: physical block or normalized values directly
    if "physical" in sc:
        _check_keys(sc["physical"], "physical")
        for key in _SCHEMA["physical"]:
            _require(sc["physical"], "physical", key)
        try:
            phys = PhysicalUnits(**sc["physical"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("physical", str(exc))
        total_power, energy = normalize_units(phys)
        uni_budgets = [energy] * n_unicast
        multi_budgets = [[energy] * k for k in sc["group_sizes"]]
    else:
        total_power = float(_require(sc, "scenario", "total_dl_power"))
        uni_budgets = _as_list(
            _require(sc, "scenario", "unicast_energy_budgets"),
            n_unicast, "scenario.unicast_energy_budgets",
        )
        mb = _require(sc, "scenario", "multicast_energy_budgets")
        if isinstance(mb, (int, float)):
            mb = [mb] * len(sc["group_sizes"])
        if not isinstance(mb, list) or len(mb) != len(sc["group_sizes"]):
            raise ConfigError("scenario.multicast_energy_budgets",
                              "multicast_energy_budgets must be a scalar or "
                              "have one entry per group")
        multi_budgets = [_as_list(g, k, "scenario.multicast_energy_budgets")
                         for g, k in zip(mb, sc["group_sizes"])]

    try:
        system = SystemConfig(
            n_antennas=sc["n_antennas"],
            n_unicast=n_unicast,
            n_groups=n_groups,
            group_sizes=sc["group_sizes"],
            coherence_symbols=sc["coherence_symbols"],
            total_dl_power=total_power,
            unicast_energy_budgets=uni_budgets,
            multicast_energy_budgets=multi_budgets,
            unicast_weights=sc.get("unicast_weights"),
        )
    except ValueError as exc:
        raise ConfigError("scenario", str(exc))

    # geometry: explicit distances win over a drop seed
    if "unicast_distances" in sc or "multicast_distances" in sc:
        try:
            geometry = CellGeometry(
                unicast_distances=_require(sc, "scenario", "unicast_distances"),
                multicast_distances=_require(sc, "scenario",
                                             "multicast_distances"),
                cell_radius=sc["cell_radius_m"],
                exclusion_radius=sc["exclusion_radius_m"],
            )
        except ValueError as exc:
            raise ConfigError("scenario.unicast_distances", str(exc))
    elif "seed" in sc:
        if not sc["exclusion_radius_m"] < sc["cell_radius_m"]:
            raise ConfigError("scenario.exclusion_radius_m",
                              "must be smaller than scenario.cell_radius_m")
        try:
            geometry = place_users(
                system, sc["cell_radius_m"], sc["exclusion_radius_m"],
                sc["seed"],
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("scenario.seed", str(exc))
    else:
        raise ConfigError(
            "scenario.seed", "either a seed or explicit distances are required"
        )
    profile = LargeScaleProfile.from_geometry(
        geometry, sc["pathloss_exponent"], sc["attenuation_const"]
    )

    return ExperimentConfig(
        scenario=sc, sweep=sweep, montecarlo=mc, output=out,
        base_system=system, geometry=geometry, profile=profile,
    )


def _read_raw_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    p = Path(path)
    if not p.is_file():
        raise ConfigError("<config>", f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}")


def load_config_file(path: str | None) -> ExperimentConfig:
    return load_config(_read_raw_config(path))


def _provenance_lines(provenance: dict) -> list[str]:
    return ["# " + json.dumps(provenance, sort_keys=True)]


def write_pareto_csv(path: Path, rows: list[tuple], provenance: dict):
    """CSV with header N,p_un,p_mu,o_mu,o_un; provenance as '#' comments."""
    lines = _provenance_lines(provenance)
    lines.append("N,p_un,p_mu,o_mu,o_un")
    for n, p_un, p_mu, o_mu, o_un in rows:
        lines.append(f"{n},{p_un:.17e},{p_mu:.17e},{o_mu:.17e},{o_un:.17e}")
    path.write_text("\n".join(lines) + "\n")


def emit_plotdata(
    points_by_n: dict, path: Path, provenance: dict,
    radial_ratios=RADIAL_RATIOS,
):
    """Plain tab-delimited plot data: one (o_mu, o_un) series per antenna
    count, plus radial-line annotations at fixed P_un/P power-split ratios."""
    if not points_by_n:
        raise ValueError("no sweep results to emit")
    lines = _provenance_lines(provenance)
    lines.append("# columns: o_mu<TAB>o_un")
    for n, points in points_by_n.items():
        lines.append(f"# series N={n}")
        for pt in points:
            lines.append(f"{pt.o_mu:.17e}\t{pt.o_un:.17e}")
    for ratio in radial_ratios:
        lines.append(f"# radial P_un/P={ratio}")
        for n, points in points_by_n.items():
            total = points[0].p_un + points[0].p_mu
            pt = min(points, key=lambda p: abs(p.p_un - ratio * total))
            lines.append(f"{pt.o_mu:.17e}\t{pt.o_un:.17e}")
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ConfigError("scenario", _NON_FINITE)
    path.write_text(text + "\n")


def _cmd_pareto(cfg: ExperimentConfig, args, out_dir: Path) -> int:
    if not cfg.total_dl_power > 0.0:
        raise ConfigError("scenario.total_dl_power",
                          "a sweep needs a positive total downlink power")
    n_points = args.points if args.points is not None else cfg.sweep.get(
        "n_points", DEFAULT_CONFIG["sweep"]["n_points"]
    )
    counts = [args.n] if args.n is not None else cfg.sweep.get(
        "antenna_counts", DEFAULT_CONFIG["sweep"]["antenna_counts"]
    )
    points_by_n, rows, convexity = {}, [], {}
    for n in counts:
        system = cfg.system(n_antennas=n)
        points = pareto_sweep(system, cfg.profile, n_points)
        points_by_n[n] = points
        new_rows = [(n, pt.p_un, pt.p_mu, pt.o_mu, pt.o_un) for pt in points]
        if not all(math.isfinite(x) for row in new_rows for x in row[1:]):
            raise ConfigError("scenario", _NON_FINITE)
        rows += new_rows
        report = check_convexity(points)
        convexity[str(n)] = {
            "is_consistent": report.is_consistent,
            "max_violation": report.max_violation,
            "slope_violation": report.slope_violation,
            "dominance_violation": report.dominance_violation,
        }
    rows.sort(key=lambda r: (r[0], r[1]))
    prov = cfg.provenance()
    # the JSON check for non-finite values runs before any file is written
    _write_json(out_dir / "convexity_report.json",
                {"provenance": prov, "convexity": convexity})
    write_pareto_csv(out_dir / "pareto.csv", rows, prov)
    emit_plotdata(points_by_n, out_dir / "pareto_plotdata.txt", prov)
    return 0


def _split_from_args(cfg: ExperimentConfig, args) -> tuple[float, float]:
    P = cfg.total_dl_power
    if getattr(args, "p_un", None) is not None:
        p_un = args.p_un
    elif getattr(args, "p_mu", None) is not None:
        p_un = P - args.p_mu
    else:
        p_un = cfg.montecarlo.get("unicast_power_fraction", 0.5) * P
    p_mu = P - p_un
    if p_un < 0 or p_mu < 0:
        raise InfeasibleAllocationError(
            f"power split p_un={p_un!r}, p_mu={p_mu!r} violates the total "
            f"downlink power constraint P_un + P_mu <= P with P={P!r}"
        )
    return p_un, p_mu


def _solution_payload(cfg: ExperimentConfig, p_un: float, p_mu: float,
                      which: str, n_antennas: int | None) -> dict:
    system = cfg.system(n_antennas=n_antennas)
    if which == "mmf":
        sol = solve_mmf(system, cfg.profile, p_un)
        body = {
            "objective_bits_per_s_per_hz": sol.objective,
            "common_sinr": sol.common_sinr,
            "q_dl": sol.q_dl,
            "q_up": sol.q_up.tolist(),
            "tau": sol.tau,
            "upsilon": sol.upsilon,
            "x_star": sol.x_star.tolist(),
        }
    else:
        sol = solve_wsse(system, cfg.profile, p_mu)
        body = {
            "objective_bits_per_s_per_hz": sol.objective,
            "p_dl": sol.p_dl,
            "p_up": sol.p_up,
            "tau": sol.tau,
            "water_level_nu": sol.water_level_nu,
            "vartheta_star": sol.vartheta_star,
        }
    return {
        "provenance": cfg.provenance(),
        "n_antennas": system.n_antennas,
        "p_un": p_un,
        "p_mu": p_mu,
        "solution": body,
    }


def _cmd_mmf(cfg, args, out_dir: Path) -> int:
    p_un, p_mu = _split_from_args(cfg, args)
    _write_json(out_dir / "mmf_solution.json",
                _solution_payload(cfg, p_un, p_mu, "mmf", args.n))
    return 0


def _cmd_wsse(cfg, args, out_dir: Path) -> int:
    p_un, p_mu = _split_from_args(cfg, args)
    _write_json(out_dir / "wsse_solution.json",
                _solution_payload(cfg, p_un, p_mu, "wsse", args.n))
    return 0


def _cmd_validate(cfg, args, out_dir: Path) -> int:
    p_un, p_mu = _split_from_args(cfg, args)
    system = cfg.system(n_antennas=args.n)
    mmf = solve_mmf(system, cfg.profile, p_un)
    wsse = solve_wsse(system, cfg.profile, p_mu)
    alloc = PowerAllocation(
        p_dl=wsse.p_dl, q_dl=mmf.q_dl, p_up=wsse.p_up, q_up=mmf.q_up,
        tau=system.n_pilots,
    )
    mc = cfg.montecarlo
    seed = args.seed if args.seed is not None else mc.get("seed", 1)
    report = empirical_sinr(
        system, cfg.profile, alloc,
        n_realizations=int(mc.get("n_realizations", 20000)),
        seed=int(seed),
        n_workers=int(mc.get("n_workers", 1)),
    )
    _write_json(out_dir / "montecarlo_report.json",
                {"provenance": cfg.provenance(), "p_un": p_un, "p_mu": p_mu,
                 "report": report.to_dict()})
    return 0


# tiny embedded instances exercised by the oracle-check subcommand
_ORACLE_SUITE = [
    {"n_unicast": 2, "n_groups": 1, "group_sizes": [2], "drop_seed": 11},
    {"n_unicast": 3, "n_groups": 2, "group_sizes": [2, 1], "drop_seed": 23},
    {"n_unicast": 1, "n_groups": 1, "group_sizes": [1], "drop_seed": 37},
]


def _cmd_oracle_check(cfg, args, out_dir: Path) -> int:
    results, ok = [], True
    for spec in _ORACLE_SUITE:
        system = SystemConfig(
            n_antennas=64,
            n_unicast=spec["n_unicast"],
            n_groups=spec["n_groups"],
            group_sizes=spec["group_sizes"],
            coherence_symbols=cfg.scenario["coherence_symbols"],
            total_dl_power=cfg.total_dl_power,
            unicast_energy_budgets=[cfg.unicast_energy_budgets[0]]
            * spec["n_unicast"],
            multicast_energy_budgets=[
                [cfg.multicast_energy_budgets[0][0]] * k
                for k in spec["group_sizes"]
            ],
        )
        geometry = place_users(
            system, cfg.scenario["cell_radius_m"],
            cfg.scenario["exclusion_radius_m"], spec["drop_seed"],
        )
        profile = LargeScaleProfile.from_geometry(
            geometry, cfg.scenario["pathloss_exponent"],
            cfg.scenario["attenuation_const"],
        )
        P = system.total_dl_power
        mmf = solve_mmf(system, profile, p_un=0.3 * P)
        mmf_oracle = brute_force_oracle(system, profile, "mmf", 400,
                                        p_un=0.3 * P)
        wsse = solve_wsse(system, profile, p_mu=0.3 * P)
        wsse_oracle = brute_force_oracle(system, profile, "wsse", 200,
                                         p_mu=0.3 * P)
        entry = {
            "instance": spec,
            "mmf_closed_form": mmf.objective,
            "mmf_oracle": mmf_oracle.objective,
            "wsse_closed_form": wsse.objective,
            "wsse_oracle": wsse_oracle.objective,
        }
        entry["consistent"] = (
            mmf_oracle.objective <= mmf.objective * (1 + 1e-9) + 1e-12
            and wsse_oracle.objective <= wsse.objective * (1 + 1e-9) + 1e-12
        )
        ok = ok and entry["consistent"]
        results.append(entry)
    _write_json(out_dir / "oracle_report.json",
                {"provenance": cfg.provenance(), "results": results,
                 "all_consistent": ok})
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmjoint",
        description="Joint unicast / multigroup-multicast massive MIMO "
        "resource allocation: closed-form solvers, Pareto sweep, and Monte "
        "Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pareto", "sweep the Pareto boundary over antenna counts"),
        ("mmf", "solve the multicast max-min problem at a power split"),
        ("wsse", "solve the weighted-sum unicast SE problem at a power split"),
        ("validate", "Monte Carlo validation of the closed-form SINRs"),
        ("oracle-check", "brute-force comparisons on tiny embedded instances"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (embedded default if omitted)")
        p.add_argument("--p-un", type=float, dest="p_un",
                       help="unicast downlink power (normalized)")
        p.add_argument("--p-mu", type=float, dest="p_mu",
                       help="multicast downlink power (normalized)")
        p.add_argument("--n", type=int, help="antenna count override")
        p.add_argument("--points", type=int, help="sweep points override")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


_COMMANDS = {
    "pareto": _cmd_pareto,
    "mmf": _cmd_mmf,
    "wsse": _cmd_wsse,
    "validate": _cmd_validate,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.n is not None and args.n < 1:
            raise ConfigError("--n", "antenna count must be a positive "
                              "integer")
        if args.points is not None and args.points < 2:
            raise ConfigError("--points", "a sweep needs at least 2 points")
        raw = _read_raw_config(args.config)
        if args.seed is not None:
            raw.setdefault("scenario", {})["seed"] = args.seed
            raw.setdefault("montecarlo", {})["seed"] = args.seed
            raw["scenario"].pop("unicast_distances", None)
            raw["scenario"].pop("multicast_distances", None)
        cfg = load_config(raw)
        out_dir = Path(args.out or cfg.output.get("directory", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args, out_dir)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "field": exc.field,
                          "message": exc.message}), file=sys.stderr)
        return 2
    except (InfeasibleAllocationError, ValueError) as exc:
        print(json.dumps({"error": "infeasible", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
