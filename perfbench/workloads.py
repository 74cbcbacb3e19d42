"""Seeded workload inputs, the timed operations and their output checks.

Every workload writes the configs it needs from its seed; the program sees
only those configs.  The configs use the keys the test suite uses and
nothing else.  Each workload is one closed-loop caller: an operation starts
after the previous one has returned.  Output checks run outside the timed
region.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

import mmjoint
from mmjoint import cli

REFERENCE_SEED = 1  # seed the pareto reference was recorded at
REFERENCE = (Path(__file__).resolve().parent / "reference"
             / "pareto_seed1.csv.gz")

PHYSICAL = {
    "bandwidth_hz": 20e6,
    "noise_psd_dbm_per_hz": -174.0,
    "dl_power_watts": 10.0,
    "pilot_energy_joules": 2e-6,
}


def default_scenario(seed: int) -> dict:
    """The CLI's default cell: N=100, U=20 unicast users, 10 groups of 100."""
    return {"n_antennas": 100, "n_unicast": 20, "n_groups": 10,
            "group_sizes": 100, "coherence_symbols": 200,
            "physical": dict(PHYSICAL), "seed": seed}


def small_scenario(seed: int) -> dict:
    """The scenario of ``configs/small.json``: N=64, U=2, one group of 2."""
    return {"n_antennas": 64, "n_unicast": 2, "n_groups": 1,
            "group_sizes": 2, "coherence_symbols": 200,
            "physical": dict(PHYSICAL), "seed": seed}


def stratified(rng: np.random.Generator, n: int, lo: int, hi: int):
    """n integers spread evenly over [lo, hi], one uniform draw per stratum,
    in random order, so their sum barely depends on the seed."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + np.floor(u * (hi - lo + 1)).astype(int)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


@dataclass
class OpResult:
    wall: float  # seconds the operation took, checks included
    busy: float  # seconds inside the timed calls
    work: int  # boundary points, queries or realizations completed
    latencies: list  # seconds per query; empty where an operation has none
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1))
    return path


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.configs = self.write_configs()

    def write_configs(self) -> list[Path]:
        raise NotImplementedError

    def setup(self):
        """Resolve every config in this process, as set-up does."""
        self.loaded = [cli.load_config_file(str(p)) for p in self.configs]

    def warmup(self):
        """One small untimed operation so lazy initialisation is not timed."""

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def computed_sizes(self) -> dict:
        """Work per operation computed from the input sizes."""
        return {"normals": 0.0, "gflop": 0.0}


class CliWorkload(Workload):
    """An operation is one in-process ``mmjoint.cli.main`` call."""

    work_per_op = 0

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        out = self.workdir / f"op{index}"
        start = time.perf_counter()
        try:
            code = cli.main(self.argv(out))
        except Exception as exc:  # an op that raises counts as failed
            code, problems = None, [f"raised {exc!r}"]
        elapsed = time.perf_counter() - start
        if code == 0:
            problems = self.check(out)
        elif code is not None:
            problems = [f"exit code {code}"]
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(wall=elapsed, busy=elapsed, work=self.work_per_op,
                        latencies=[], attempted=1,
                        failed=int(bool(problems)), problems=problems)


class ParetoDense(CliWorkload):
    """``pareto`` with 1001 points on the default scenario, three N."""

    name = "pareto-dense"
    work_unit = "boundary points"
    antennas = (50, 100, 200)
    points = 1001
    work_per_op = len(antennas) * points

    def write_configs(self):
        return [_write(self.workdir / "pareto.json", {
            "scenario": default_scenario(self.seed),
            "sweep": {"n_points": self.points,
                      "antenna_counts": list(self.antennas)},
        })]

    def argv(self, out):
        return ["pareto", "--config", str(self.configs[0]), "--out", str(out)]

    def warmup(self):
        out = self.workdir / "warmup"
        cli.main(self.argv(out) + ["--points", "21"])
        shutil.rmtree(out, ignore_errors=True)

    def check(self, out):
        try:
            convexity = json.loads(
                (out / "convexity_report.json").read_text())["convexity"]
            lines = [line for line in (out / "pareto.csv").read_text()
                     .splitlines() if not line.startswith("#")]
            rows = [(int(n), *map(float, rest)) for n, *rest in
                    (line.split(",") for line in lines[1:])]
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = []
        for n in self.antennas:
            if not convexity.get(str(n), {}).get("is_consistent"):
                problems.append(f"N={n}: convexity report not consistent")
        if lines[:1] != ["N,p_un,p_mu,o_mu,o_un"]:
            problems.append(f"unexpected CSV header {lines[:1]}")
        if len(rows) != self.work_per_op:
            problems.append(f"{len(rows)} CSV rows, expected "
                            f"{self.work_per_op}")
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append("non-finite value in CSV")
        for n in self.antennas:
            own = [r for r in rows if r[0] == n]
            if not own:
                problems.append(f"N={n}: no rows")
                continue
            first, last = own[0], own[-1]
            if not (first[1] == 0.0 and first[4] == 0.0):
                problems.append(f"N={n}: o_un != 0 at p_un=0: {first}")
            if not (last[2] == 0.0 and last[3] == 0.0):
                problems.append(f"N={n}: o_mu != 0 at p_un=P: {last}")
        if self.seed == REFERENCE_SEED and not problems:
            problems += self.check_reference(rows)
        return problems

    def check_reference(self, rows) -> list[str]:
        with gzip.open(REFERENCE, "rt") as fh:
            ref = [line.split(",") for line in fh.read().splitlines()[1:]]
        if len(ref) != len(rows):
            return [f"reference has {len(ref)} rows, output {len(rows)}"]
        for (n, _, _, o_mu, o_un), (rn, r_mu, r_un) in zip(rows, ref):
            if n != int(rn) or not (close(o_mu, float(r_mu), 1e-9)
                                    and close(o_un, float(r_un), 1e-9)):
                return [f"N={n}: ({o_mu!r}, {o_un!r}) differs from the "
                        f"reference ({r_mu}, {r_un})"]
        return []


class MonteCarlo(CliWorkload):
    """``validate`` at the default split, checked term by term."""

    family_wise = 1e-3
    n_realizations = 0

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.first_report = None

    def scenario(self) -> dict:
        raise NotImplementedError

    def write_configs(self):
        self.warmup_config = _write(self.workdir / "warmup.json", {
            "scenario": self.scenario(),
            "montecarlo": {"n_realizations": 100, "seed": self.seed},
        })
        return [_write(self.workdir / "validate.json", {
            "scenario": self.scenario(),
            "montecarlo": {"n_realizations": self.n_realizations,
                           "seed": self.seed},
        })]

    def argv(self, out):
        return ["validate", "--config", str(self.configs[0]),
                "--out", str(out)]

    def warmup(self):
        out = self.workdir / "warmup"
        cli.main(["validate", "--config", str(self.warmup_config),
                  "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)

    def computed_sizes(self):
        sc = self.scenario()
        n, u, g = sc["n_antennas"], sc["n_unicast"], sc["n_groups"]
        k = sc["group_sizes"] * g
        # channels and pilot noise: one complex normal is two real normals
        normals = 2 * n * (2 * u + k + g)
        # f^H [V W] and g^H [V W]: 8 real flops per complex multiply-add
        flops = 8 * n * (u + g) * (u + k)
        return {"normals": float(normals * self.n_realizations),
                "gflop": flops * self.n_realizations * 1e-9}

    def check(self, out):
        try:
            raw = (out / "montecarlo_report.json").read_bytes()
            report = json.loads(raw)["report"]
            users = report["unicast"] + report["multicast"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = []
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            problems.append("report differs from the first run with the "
                            "same seed")
        if report.get("n_realizations") != self.n_realizations:
            problems.append(f"n_realizations {report.get('n_realizations')}")
        # Bonferroni over three terms per user at the family-wise level
        z = NormalDist().inv_cdf(1 - self.family_wise / (2 * 3 * len(users)))
        for u in users:
            values = [v for v in u.values() if isinstance(v, float)]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{u['index']}: non-finite term")
                continue
            terms = {
                "desired": (u["desired_power"] - u["desired_power_analytic"],
                            u["desired_power_se"]),
                "own": (u["self_interference"]
                        + u["same_service_interference"]
                        - u["same_service_analytic"],
                        math.hypot(u["self_interference_se"],
                                   u["same_service_interference_se"])),
                "cross": (u["cross_service_interference"]
                          - u["cross_service_analytic"],
                          u["cross_service_interference_se"]),
            }
            for term, (diff, se) in terms.items():
                if abs(diff) > z * se:
                    problems.append(
                        f"{u['service']} {u['index']} {term}: off by "
                        f"{diff!r}, more than {z:.2f} SE of {se!r}")
        return problems


class McDefault(MonteCarlo):
    name = "mc-default"
    work_unit = "realizations"
    n_realizations = work_per_op = 1024

    def scenario(self):
        return default_scenario(self.seed)


class McSmall(MonteCarlo):
    name = "mc-small"
    work_unit = "realizations"
    n_realizations = work_per_op = 20000

    def scenario(self):
        return small_scenario(self.seed)


class SolvePoint(Workload):
    """Single-split queries through the exported library API.

    An operation is one pass over all queries; a query is ``solve_mmf`` +
    ``solve_wsse`` + ``PowerAllocation`` + ``evaluate`` and is timed alone.
    """

    name = "solve-point"
    work_unit = "queries"
    n_scenarios = 64
    n_queries = 2000
    antennas = (32, 64, 128, 256)

    def write_configs(self):
        rng = np.random.default_rng(self.seed)
        m = self.n_scenarios
        n_unicast = stratified(rng, m, 1, 40)
        n_groups = stratified(rng, m, 1, 20)
        # stratified within each scenario, so a scenario's user count and
        # cost barely depend on the seed, and neither does the latency tail
        sizes = [stratified(rng, int(g), 1, 200) for g in n_groups]
        antennas = rng.permutation(np.resize(self.antennas, m))
        drops = rng.integers(2**31, size=m)
        self.scenario_of = rng.permutation(np.arange(self.n_queries) % m)
        self.fractions = rng.uniform(0.0, 1.0, self.n_queries)
        paths = []
        for i, group_sizes in enumerate(sizes):
            paths.append(_write(self.workdir / f"scenario{i:02d}.json", {
                "scenario": {
                    "n_antennas": int(antennas[i]),
                    "n_unicast": int(n_unicast[i]),
                    "n_groups": int(n_groups[i]),
                    "group_sizes": [int(k) for k in group_sizes],
                    "coherence_symbols": 200,
                    "physical": dict(PHYSICAL),
                    "seed": int(drops[i]),
                },
            }))
        return paths

    def setup(self):
        super().setup()
        self.cases = [(cfg.system(), cfg.profile) for cfg in self.loaded]

    def warmup(self):
        for i in range(len(self.cases)):
            self.query(i, 0.5)

    def query(self, scenario: int, fraction: float):
        system, profile = self.cases[scenario]
        P = system.total_dl_power
        p_un = fraction * P
        p_mu = P - p_un
        start = time.perf_counter()
        mmf = mmjoint.solve_mmf(system, profile, p_un)
        wsse = mmjoint.solve_wsse(system, profile, p_mu)
        alloc = mmjoint.PowerAllocation(
            p_dl=wsse.p_dl, q_dl=mmf.q_dl, p_up=wsse.p_up, q_up=mmf.q_up,
            tau=system.n_pilots)
        ses = mmjoint.evaluate(system, alloc, profile)
        elapsed = time.perf_counter() - start
        return elapsed, system, P - p_mu, mmf, wsse, ses

    def op(self, index):
        start = time.perf_counter()
        latencies, problems, failed = [], [], 0
        for scenario, fraction in zip(self.scenario_of, self.fractions):
            try:
                elapsed, *result = self.query(int(scenario), float(fraction))
            except Exception as exc:  # a query that raises counts as failed
                found = [f"scenario {scenario}: raised {exc!r}"]
            else:
                latencies.append(elapsed)
                found = self.check(*result)
            if found:
                failed += 1
                problems += found
        return OpResult(wall=time.perf_counter() - start,
                        busy=sum(latencies), work=len(latencies),
                        latencies=latencies, attempted=self.n_queries,
                        failed=failed, problems=problems)

    @staticmethod
    def check(system, unicast_power, mmf, wsse, ses) -> list[str]:
        problems = []
        multicast = np.concatenate([np.asarray(g, dtype=float)
                                    for g in ses.se_multicast])
        lo, hi = float(multicast.min()), float(multicast.max())
        if not (close(lo, mmf.objective, 1e-9)
                and close(hi, mmf.objective, 1e-9)):
            problems.append(f"multicast SEs {lo!r}..{hi!r} differ from the "
                            f"MMF objective {mmf.objective!r}")
        if not close(math.fsum(wsse.p_dl), unicast_power, 1e-10):
            problems.append(f"WSSE powers sum to {math.fsum(wsse.p_dl)!r}, "
                            f"not {unicast_power!r}")
        weighted = math.fsum(np.multiply(system.unicast_weights,
                                         ses.se_unicast))
        if not close(weighted, wsse.objective, 1e-9):
            problems.append(f"weighted unicast SE {weighted!r} differs from "
                            f"the WSSE objective {wsse.objective!r}")
        return problems


WORKLOADS = {w.name: w for w in (ParetoDense, SolvePoint, McDefault, McSmall)}
