"""The benchmark's four workloads: generated configs, units of work and output checks.

Every workload is built from a workload seed. It writes the config document
it generates to a file and loads it back through gravsim.config.load_config,
so the program only ever sees generated configs. A unit of work is one call
into gravsim's public API; `run(k)` performs unit k and `check(k, output)`
returns the problems found in its output (empty when it is correct).
Units cycle through CYCLE per-unit seeds, so unit k replays the inputs of
unit k - CYCLE; the runner requires the replay to give an identical summary.

The checks are statistical or exact by physics, never byte digests, so they
hold under any random-stream contract that keeps the physics.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np

import gravsim.cli

CYCLE = 8
SIGMA_BOUND = 4.0
BREAK_SIGMA = 1e-30


def _session_problems(stats: dict, rounds: int) -> list[str]:
    problems = []
    if stats["rounds"] != rounds:
        problems.append(f"rounds {stats['rounds']} != requested {rounds}")
    spread = SIGMA_BOUND * math.sqrt(rounds) / 2.0
    if abs(stats["siftedCount"] - rounds / 2.0) > spread:
        problems.append(f"siftedCount {stats['siftedCount']} outside {rounds / 2} +- {spread:.1f}")
    return problems


class Workload:
    """Shared set-up: per-unit seeds, the generated config file and its loaded form."""

    name = ""
    why = ""
    # Simulated rounds per unit, the denominator of round_us.
    rounds_per_unit = 0
    # Sessions' rounds per unit and sweep grid points per unit, for the traced breakdown.
    session_rounds = 0
    sweep_points = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.seeds = [self.rng.randrange(2**31) for _ in range(CYCLE)]
        self.workdir = workdir
        self.config_path = workdir / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.document(), indent=2), encoding="utf-8")
        self.config = gravsim.config.load_config(str(self.config_path))

    def document(self) -> dict:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> list[str]:
        raise NotImplementedError

    def summary(self, output):
        """A value that must repeat exactly when the unit's inputs repeat."""
        return output


class EveSession(Workload):
    name = "eve-session"
    why = "Eve attacks every round at b = 0.05, so sensing, inference and the field (the attack layer) do most of the work"
    ROUNDS = 2000
    B = 0.05

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.eve = self.config.to_eve_config()
        self.rounds_per_unit = self.session_rounds = self.config.rounds
        estimate = gravsim.attack.analytic_accuracy(self.eve.params, self.eve.geometry, self.eve.sensor)
        p = estimate.mean
        self.accuracy_floor = p - SIGMA_BOUND * math.sqrt(p * (1.0 - p) / self.config.rounds)

    def document(self) -> dict:
        return {
            "nonlinear": {"b": self.B},
            "eve": {"enabled": True, "strategy": "CloneInferred", "attackFraction": 1.0},
            "session": {"rounds": self.ROUNDS, "seed": self.seeds[0]},
        }

    def describe(self) -> dict:
        return {
            "unit": "one run_session call, records off, Eve attacking every round",
            "rounds": self.config.rounds,
            "b": self.B,
            "strategy": "CloneInferred",
            "sessionSeeds": self.seeds,
        }

    def run(self, k: int):
        stats, _ = gravsim.protocol.run_session(
            self.config.rounds, self.eve, seed=self.seeds[k % CYCLE], with_records=False
        )
        return stats.to_dict()

    def check(self, k: int, output) -> list[str]:
        problems = _session_problems(output, self.config.rounds)
        accuracy = output["eveAccuracy"]
        if accuracy is None or accuracy < self.accuracy_floor:
            problems.append(f"eveAccuracy {accuracy} below {self.accuracy_floor:.4f}")
        return problems


class HonestTranscript(Workload):
    name = "honest-transcript"
    why = "Eve disabled, CSV transcript via the CLI: random streams, round records and serialization work, the attack layer is idle"
    ROUNDS = 5000
    EVE_COLUMNS = slice(8, None)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.rounds_per_unit = self.session_rounds = self.config.rounds
        self.csv_path = workdir / f"{self.name}.csv"
        self.transcript_bytes: list[int] = []

    def document(self) -> dict:
        return {
            "eve": {"enabled": False},
            "session": {"rounds": self.ROUNDS, "seed": self.seeds[0]},
        }

    def describe(self) -> dict:
        return {
            "unit": "one in-process `gravsim run --format csv --out FILE` call, Eve disabled",
            "rounds": self.config.rounds,
            "sessionSeeds": self.seeds,
        }

    def run(self, k: int):
        argv = [
            "run",
            "--config", str(self.config_path),
            "--format", "csv",
            "--out", str(self.csv_path),
            "--seed", str(self.seeds[k % CYCLE]),
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = gravsim.cli.main(argv)
        return code, stdout.getvalue()

    def check(self, k: int, output) -> list[str]:
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        stats = json.loads(stdout)
        rounds = self.config.rounds
        problems = _session_problems(stats, rounds)
        if stats["qber"] != 0.0:
            problems.append(f"qber {stats['qber']} != 0 without Eve")
        data = self.csv_path.read_bytes()
        self.transcript_bytes.append(len(data))
        lines = data.decode("utf-8").split("\n")
        if lines[-1] != "" or len(lines) - 1 != rounds + 1:
            problems.append(f"transcript has {len(lines) - 1} lines, expected {rounds + 1}")
        if lines[0] != ",".join(gravsim.cli.RECORD_COLUMNS):
            problems.append(f"transcript header {lines[0]!r}")
        if any(any(cell for cell in line.split(",")[self.EVE_COLUMNS]) for line in lines[1:-1]):
            problems.append("transcript has Eve cells without Eve")
        return problems

    def summary(self, output):
        return output[1]


class SweepGrid(Workload):
    name = "sweep-grid"
    why = "72 short sessions per sweep weigh per-session fixed cost and run the Threshold, Resend and partial-attack branches"
    ROUNDS_PER_POINT = 50
    SIGMAS = [BREAK_SIGMA, 1e-12, 2.5e-12, 1e-11]
    FRACTIONS = [0.5, 1.0]
    STRATEGIES = ["CloneInferred", "ResendMeasured", "Threshold"]

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        base = self.config.sweep
        self.specs = [replace(base, seed_base=s) for s in self.seeds]
        self.names = base.parameter_names
        self.combos = list(itertools.product(*(values for _, values in base.grids)))
        self.sweep_points = len(self.combos)
        self.session_rounds = self.rounds_per_unit = base.rounds_per_point * self.sweep_points

    def document(self) -> dict:
        b_values = [0.0, round(self.rng.uniform(0.03, 0.08), 4), round(self.rng.uniform(0.3, 0.7), 4)]
        return {
            "nonlinear": {"b": 0.05},
            "eve": {"enabled": True, "strategy": "CloneInferred", "attackFraction": 1.0},
            "session": {"rounds": self.ROUNDS_PER_POINT, "seed": self.seeds[0]},
            "sweep": {
                "grids": [
                    ["b", b_values],
                    ["sigma", self.SIGMAS],
                    ["attackFraction", self.FRACTIONS],
                    ["strategy", self.STRATEGIES],
                ],
                "roundsPerPoint": self.ROUNDS_PER_POINT,
                "seedBase": self.seeds[0],
            },
        }

    def describe(self) -> dict:
        return {
            "unit": "one analysis.sweep call over the grid with max_workers=1",
            "points": self.sweep_points,
            "roundsPerPoint": self.config.sweep.rounds_per_point,
            "grids": [[name, list(values)] for name, values in self.config.sweep.grids],
            "seedBases": self.seeds,
        }

    def run(self, k: int):
        return gravsim.analysis.sweep(self.specs[k % CYCLE], self.config, max_workers=1)

    def check(self, k: int, output) -> list[str]:
        spec = self.specs[k % CYCLE]
        if len(output) != len(self.combos):
            return [f"{len(output)} rows for {len(self.combos)} grid points"]
        problems = []
        for j, (row, combo) in enumerate(zip(output, self.combos)):
            params = dict(zip(self.names, combo))
            if any(row.get(name) != value for name, value in params.items()):
                problems.append(f"row {j} does not echo grid point {params}")
            if row["rounds"] != spec.rounds_per_point:
                problems.append(f"row {j} ran {row['rounds']} rounds")
            broken = (
                params["sigma"] == BREAK_SIGMA
                and params["strategy"] == "CloneInferred"
                and params["b"] > 0.0
                and params["attackFraction"] == 1.0
            )
            if broken and (row["qber"] != 0.0 or row["eveAccuracy"] != 1.0):
                problems.append(
                    f"break-regime row {j}: qber {row['qber']}, eveAccuracy {row['eveAccuracy']}"
                )
        j = k % len(self.combos)
        alone = self.config.with_overrides(dict(zip(self.names, self.combos[j])))
        stats, _ = gravsim.protocol.run_session(
            spec.rounds_per_point, alone.to_eve_config(), seed=spec.seed_base + j, with_records=False
        )
        expected = stats.to_dict()
        if {name: output[j][name] for name in expected} != expected:
            problems.append(f"point {j} re-run alone with seed {spec.seed_base + j} differs")
        return problems


def mix_norm(config, preparation_index: int) -> float:
    """|mix field| of a preparation, from Newton's law and the BB84 branch weights.

    Computed here rather than taken from gravsim so that the exclusion check
    is independent of the code it checks.
    """
    geometry = config.geometry
    sites = np.asarray(geometry.sites, dtype=np.float64)
    probes = np.asarray(geometry.probes, dtype=np.float64)
    offsets = sites[:, np.newaxis, :] - probes[np.newaxis, :, :]
    distances = np.linalg.norm(offsets, axis=2)[:, :, np.newaxis]
    fields = (geometry.grav_const * geometry.test_mass * offsets / distances**3).reshape(4, -1)
    # Weight 1/2 on the prepared symbol, 0 on its orthogonal partner, 1/4 on the other basis.
    weights = np.full(4, 0.25)
    same_basis = (preparation_index // 2) * 2
    weights[same_basis : same_basis + 2] = 0.0
    weights[preparation_index] = 0.5
    return float(np.linalg.norm(weights @ fields))


def closed_form_bounds(lambdas, schedule, confidence, sigma, samples, mix) -> list[float]:
    """b bound per lambda: z sigma / (sqrt(samples) |mix| sqrt(sum_t exp(-2 lambda t))), capped at 1."""
    z = statistics.NormalDist().inv_cdf(confidence)
    bounds = []
    for lam in lambdas:
        quadrature = math.sqrt(sum(math.exp(-2.0 * lam * t) for t in schedule))
        bounds.append(min(1.0, z * sigma / (math.sqrt(samples) * mix * quadrature)))
    return bounds


def exclusion_problems(lambdas, bounds, expected, analytic, monte_carlo, tolerance) -> list[str]:
    problems = []
    if len(bounds) != len(lambdas):
        return [f"{len(bounds)} bounds for {len(lambdas)} lambdas"]
    if any(not 0.0 <= b <= 1.0 for b in bounds):
        problems.append("a bound lies outside [0, 1]")
    if any(later < earlier for earlier, later in zip(bounds, bounds[1:])):
        problems.append("bounds decrease as lambda grows")
    for lam, got, want in zip(lambdas, bounds, expected):
        if not math.isclose(got, want, rel_tol=1e-9):
            problems.append(f"lambda {lam}: bound {got!r} != closed form {want!r}")
            break
    for a, m in zip(analytic, monte_carlo):
        if a is None or m is None or abs(m - a) > tolerance * a:
            problems.append(f"min_detectable_b analytic {a} vs Monte Carlo {m} beyond {tolerance:.0%}")
    return problems


class ExclusionScan(Workload):
    name = "exclusion-scan"
    why = "no sessions: exclusion limits plus analytic and Monte Carlo min_detectable_b load scipy scoring, the MC kernel and bisection"
    GRID_POINTS = 251
    MDB_STRIDE = 50
    TARGET_ACCURACY = 0.9
    MC_TRIALS = 2000
    # Bisection candidates min_detectable_b scores at its default tolerance of
    # 1e-4: the b = 1 reachability probe plus 14 halvings of [0, 1].
    MDB_CANDIDATES = 15
    # Relative agreement required between the analytic and Monte Carlo
    # min_detectable_b. At 90% accuracy and 2000 trials per candidate, 400
    # seeds put the Monte Carlo result 0.8% below the analytic one (whose
    # union bound is slightly pessimistic) with a 2% standard deviation, so
    # 10% lies more than four standard deviations out.
    MDB_TOLERANCE = 0.10
    NULL_SIGMA = 4.964458866005237e-11

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        limit = self.config.limit
        self.experiment = gravsim.analysis.ExclusionExperiment(
            sensor=self.config.sensor,
            geometry=self.config.geometry,
            delta_t_schedule=limit.delta_t_schedule,
            preparation=limit.preparation,
            null_observation=limit.null_observation,
        )
        self.mdb_sensor = gravsim.attack.SensorModel(sigma=gravsim.config.DEFAULT_SIGMA)
        # With lambda * delay <= 5.5 * 0.3 = 1.65 every min_detectable_b
        # target stays reachable (b < 0.3 at 90% accuracy).
        self.mdb_delay = round(self.rng.uniform(0.15, 0.3), 3)
        self.mdb_lambdas = limit.lambda_grid[:: self.MDB_STRIDE]
        self.rounds_per_unit = len(self.mdb_lambdas) * self.MDB_CANDIDATES * self.MC_TRIALS
        self.expected = closed_form_bounds(
            limit.lambda_grid,
            limit.delta_t_schedule,
            limit.confidence,
            self.config.sensor.sigma,
            self.config.sensor.samples,
            mix_norm(self.config, int(limit.preparation)),
        )

    def document(self) -> dict:
        # The grid runs far enough (lambda of 4 to 5.5 / s against a shortest delay
        # of at least 0.5 s) for the bounds to reach the cap at 1.
        schedule = [round(self.rng.uniform(0.5, 1.0), 3)]
        schedule += sorted(round(self.rng.uniform(1.0, 3.0), 3) for _ in range(3))
        lam_max = round(self.rng.uniform(4.0, 5.5), 3)
        grid = [lam_max * i / (self.GRID_POINTS - 1) for i in range(self.GRID_POINTS)]
        return {
            "sensor": {"sigma": self.NULL_SIGMA, "samples": 1},
            "eve": {"enabled": False},
            "session": {"rounds": 1, "seed": self.seeds[0]},
            "limit": {
                "lambdaGrid": grid,
                "deltaTSchedule": schedule,
                "confidence": self.rng.choice([0.9, 0.95, 0.99]),
                "preparation": "Z1",
                "nullObservation": True,
            },
        }

    def describe(self) -> dict:
        limit = self.config.limit
        return {
            "unit": "one exclusion_limit over the lambda grid, then min_detectable_b "
            f"at every {self.MDB_STRIDE}th lambda, analytic and Monte Carlo",
            "lambdaPoints": len(limit.lambda_grid),
            "lambdaMax": limit.lambda_grid[-1],
            "deltaTSchedule": list(limit.delta_t_schedule),
            "confidence": limit.confidence,
            "mdbLambdas": list(self.mdb_lambdas),
            "mdbDelay": self.mdb_delay,
            "targetAccuracy": self.TARGET_ACCURACY,
            "monteCarloTrials": self.MC_TRIALS,
            "roundsAre": "Monte Carlo classifier trials: trials x 15 bisection candidates x lambdas",
            "monteCarloSeeds": self.seeds,
        }

    def run(self, k: int):
        analysis = gravsim.analysis
        limit = self.config.limit
        result = analysis.exclusion_limit(self.experiment, limit.lambda_grid, limit.confidence)
        analytic = [
            analysis.min_detectable_b(
                lam, self.mdb_delay, self.mdb_sensor, self.config.geometry, self.TARGET_ACCURACY
            )
            for lam in self.mdb_lambdas
        ]
        monte_carlo = [
            analysis.min_detectable_b(
                lam,
                self.mdb_delay,
                self.mdb_sensor,
                self.config.geometry,
                self.TARGET_ACCURACY,
                mc_rounds=self.MC_TRIALS,
                seed=self.seeds[k % CYCLE],
            )
            for lam in self.mdb_lambdas
        ]
        return list(result.b_upper), analytic, monte_carlo

    def check(self, k: int, output) -> list[str]:
        bounds, analytic, monte_carlo = output
        return exclusion_problems(
            self.config.limit.lambda_grid, bounds, self.expected, analytic, monte_carlo, self.MDB_TOLERANCE
        )


WORKLOADS = {cls.name: cls for cls in (EveSession, HonestTranscript, SweepGrid, ExclusionScan)}
