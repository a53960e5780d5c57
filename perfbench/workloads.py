"""The three benchmark workloads: seeded inputs, one timed round, its checks.

A workload's inputs for round ``i`` are a pure function of ``(seed, i)``
and are made before that round's timer starts; the program receives only
those generated values. ``run`` performs one round, timing each stage
through the ``Clock``; ``check`` verifies the round's outputs afterwards,
outside the timed region, and reports each checked operation to the gate.
``reference`` times the calibration job that round times are divided by
(see calibrate.py), or returns None on rounds that skip it.

Why these workloads (each stresses layers the others bypass):

- cli-burst: a closed loop with one client, one fresh interpreter per
  invocation. The math takes microseconds; interpreter start, ``import
  numpy`` and ``cli`` dominate, so import-time work shows here and nowhere
  else.
- validate: the paper's verification work in one process: the
  ``verify_bounds`` sweep, the curvature oracle against the closed-form
  thresholds, and Monte Carlo recovery. Scalar loops in ``bounds``,
  ``thresholds`` and ``metrics`` dominate; there is no CSV and no process
  start.
- curves-io: CSV emission of curve datasets (including the specificity-1
  and sensitivity-1 edge profiles, whose undefined cells are written
  empty) beside a predictions table that is written and ingested back.
  ``dataio`` formatting and parsing dominate, and per-point ``metrics`` /
  ``curvature_at`` calls are shared with validate.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import calibrate
import gate as g

DIGEST_ROUNDS = 20  # rounds of the default seed whose payloads are pinned by sha256
DEFAULT_SEED = 0


class Clock:
    """Times the stages of one round; under a tracer each stage is an operation span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stages: dict[str, float] = {}
        self.units: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        span = self.tracer.operation(f"op.{name}") if self.tracer is not None else nullcontext()
        with span as index:
            t0 = perf_counter()
            try:
                yield index
            finally:
                self.stages[name] = self.stages.get(name, 0.0) + perf_counter() - t0

    def count(self, name: str, units: int) -> None:
        self.units[name] = self.units.get(name, 0) + units


class Tally:
    """Per-layer quantities the checks observe (rows, bytes, skipped cells, ...)."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


def _rng(workload: str, seed: int, i: int, part: str = "") -> random.Random:
    # String seeds are hashed with SHA-512, so streams repeat across processes.
    return random.Random(f"{workload}/{seed}/{i}/{part}")


def draw_profile(rng: random.Random, lo: float = 0.05, hi: float = 0.99, margin: float = 0.05):
    """An interior informative profile: lo <= a, b <= hi and a + b >= 1 + margin."""
    while True:
        a = round(rng.uniform(lo, hi), 6)
        b = round(rng.uniform(lo, hi), 6)
        if a + b >= 1.0 + margin:
            return a, b


def draw_betas(rng: random.Random, k: int = 2) -> tuple[float, ...]:
    betas: dict[str, float] = {}
    while len(betas) < k:
        beta = round(rng.uniform(0.25, 4.0), 3)
        betas.setdefault(f"{beta:g}", beta)
    return tuple(betas.values())


def _guarded(check, *args) -> list[str]:
    """Run a check; an exception while checking is a failure of the output, not of the harness."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - malformed output can fail any parse
        return [f"check raised {exc!r}"]


# --- cli-burst ----------------------------------------------------------------

CLI_CHILD = "from prevthresh.cli import main; main()"
# The traced child times the import and run_cli itself; perf_counter is the
# system-wide monotonic clock, so its stamps line up with the parent's.
CLI_TRACED_CHILD = (
    "import os, sys, time\n"
    "t0 = time.perf_counter()\n"
    "from prevthresh.cli import run_cli\n"
    "t1 = time.perf_counter()\n"
    "code = run_cli(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "with open(os.environ['PERFBENCH_CHILD_TIMES'], 'w') as f:\n"
    "    f.write(f'{t0!r} {t1!r} {t2!r}')\n"
    "raise SystemExit(code)\n"
)
# Each block of ten invocations has this fixed mix, in seeded order, so the
# latency distribution does not depend on the seed. One in ten passes an
# out-of-range rate, which README fixes at exit code 1 with one error line.
CLI_MIX = ("thresholds",) * 3 + ("ratios",) * 2 + ("analyze",) * 2 + ("simulate",) * 2 + ("error",)
ERROR_LINE = re.compile(r"error:[a-z-]+: [^\n]+\n")


class CliBurst:
    name = "cli-burst"
    in_process = False

    def __init__(self, root: Path, tmp: Path, env: dict):
        self.env = dict(env, PERFBENCH_CHILD_TIMES=str(tmp / "child_times"))
        self.cwd = root
        self.times_path = tmp / "child_times"

    def inputs(self, seed: int, i: int) -> dict:
        block, pos = divmod(i, len(CLI_MIX))
        order = list(CLI_MIX)
        _rng(self.name, seed, block, "order").shuffle(order)
        kind = order[pos]
        rng = _rng(self.name, seed, i)
        a, b = draw_profile(rng)
        profile = ["--sensitivity", repr(a), "--specificity", repr(b)]
        inp = {"kind": kind, "a": a, "b": b}
        if kind == "thresholds":
            argv = ["thresholds", *profile, "--json"]
        elif kind == "ratios":
            inp["betas"] = draw_betas(rng)
            argv = ["ratios", *profile, "--betas", ",".join(repr(x) for x in inp["betas"]), "--json"]
        elif kind == "analyze":
            inp["counts"] = [rng.randint(1, 10**6) for _ in range(4)]
            argv = ["analyze", "--counts", ",".join(map(str, inp["counts"])), "--json"]
        elif kind == "simulate":
            inp.update(prevalence=round(rng.uniform(0.02, 0.98), 6), n=rng.randint(1000, 100_000))
            inp["seed"] = rng.randrange(2**32)
            argv = [
                "simulate", "--prevalence", repr(inp["prevalence"]), *profile,
                "--n", str(inp["n"]), "--seed", str(inp["seed"]), "--json",
            ]
        else:
            bad = rng.choice([round(rng.uniform(1.01, 2.0), 4), -round(rng.uniform(0.01, 1.0), 4)])
            command = rng.choice(["thresholds", "ratios", "simulate"])
            flags = {"--sensitivity": repr(a), "--specificity": repr(b)}
            if command == "simulate":
                flags = {"--prevalence": "0.3", **flags, "--n": "1000"}
            flags[rng.choice(sorted(k for k in flags if k != "--n"))] = repr(bad)
            argv = [command] + [f"{k}={v}" for k, v in flags.items()] + ["--json"]
        inp["argv"] = argv
        return inp

    def reference(self, i: int) -> float | None:
        # Every second round, so a run still makes about a hundred invocations.
        return calibrate.process_seconds(self.env, self.cwd) if i % 2 == 0 else None

    def run(self, inp: dict, clock: Clock):
        code = CLI_CHILD if clock.tracer is None else CLI_TRACED_CHILD
        self.times_path.unlink(missing_ok=True)
        with clock.stage("invoke") as span:
            proc = subprocess.run(
                [sys.executable, "-c", code, *inp["argv"]],
                cwd=self.cwd, env=self.env, capture_output=True, stdin=subprocess.DEVNULL,
            )
        clock.count("invoke", 1)
        if clock.tracer is None:
            return proc, None
        t0, t1, t2 = map(float, self.times_path.read_text().split())
        clock.tracer.add("cli.import", span, t0, t1)
        clock.tracer.add("cli.run_cli", span, t1, t2)
        return proc, t2 - t1

    def check(self, seed: int, i: int, inp: dict, out, gate: g.Gate, tally: Tally) -> None:
        proc, run_cli_s = out
        kind = inp["kind"]
        problems = _guarded(self._check_output, inp, proc)
        if kind != "simulate" and seed == DEFAULT_SEED and i < DIGEST_ROUNDS:
            problems += gate.digest(f"cli-burst/seed{seed}/round{i}/stdout", proc.stdout)
        gate.op(f"cli-burst round {i} {' '.join(inp['argv'])}", problems)
        if proc.returncode == 1:
            tally.add("cli.error_exits", 1)
        if run_cli_s is not None:
            tally.sample("cli.run_cli_s", run_cli_s)

    @staticmethod
    def _check_output(inp: dict, proc) -> list[str]:
        kind = inp["kind"]
        if kind == "error":
            problems = []
            if proc.returncode != 1:
                problems.append(f"exit code {proc.returncode}, expected 1")
            if proc.stdout:
                problems.append(f"stdout not empty: {proc.stdout[:80]!r}")
            if not ERROR_LINE.fullmatch(proc.stderr.decode("utf-8", "replace")):
                problems.append(f"stderr is not one error line: {proc.stderr[:200]!r}")
            return problems
        if proc.returncode != 0 or proc.stderr:
            return [f"exit code {proc.returncode}, stderr {proc.stderr[:200]!r}"]
        got = json.loads(proc.stdout)
        a, b = inp["a"], inp["b"]
        if kind == "thresholds":
            return g.compare_dict(got, g.threshold_summary(a, b), g.BAYES_TOL)
        if kind == "ratios":
            return g.compare_dict(got, g.ratio_summary(a, b, inp["betas"]), g.RATIO_REL_TOL, rel=True)
        if kind == "analyze":
            return check_analysis(got, *inp["counts"])
        return check_simulation(got, inp)


def check_analysis(got: dict, tp: int, fp: int, fn: int, tn: int) -> list[str]:
    """`analyze --counts --json` output against the confusion-matrix formulas."""
    n = tp + fp + fn + tn
    a, b = tp / (tp + fn), tn / (tn + fp)
    precision = tp / (tp + fp)
    mcc = (tp * tn - fp * fn) / ((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) ** 0.5
    metrics = {
        "accuracy": (tp + tn) / n,
        "ppv": precision,
        "npv": tn / (tn + fn),
        "f1": 2.0 / (1.0 / a + 1.0 / precision),
    }
    for beta in (0.5, 1.0, 2.0):
        metrics[f"f_beta_{beta:g}"] = (1.0 + beta * beta) / (beta * beta / a + 1.0 / precision)
    metrics.update(fm=(a * precision) ** 0.5, mcc=mcc, chi_square=n * mcc * mcc)
    s = g.threshold_summary(a, b)
    ratios = g.ratio_summary(a, b, (0.5, 1.0, 2.0))
    want = {
        "counts": {"tp": tp, "fp": fp, "fn": fn, "tn": tn, "n": n},
        "profile": {"sensitivity": a, "specificity": b, "epsilon": a + b},
        "prevalence": (tp + fn) / n,
        "metrics": metrics,
        "thresholds": {k: s[k] for k in ("phi_e", "ppv_at_phi_e", "phi_n", "npv_at_phi_n")},
        "ratios": {k: v for k, v in ratios.items() if k.endswith("_ratio")},
        "flags": {
            "informative": s["informative"],
            "degenerate": s["degenerate"],
            "below_positive_threshold": (tp + fn) / n < s["phi_e"],
        },
    }
    if list(got) != list(want):
        return [f"analysis keys {list(got)}"]
    problems = []
    for key, value in want.items():
        if isinstance(value, dict):
            problems += g.compare_dict(got[key], value, g.RATIO_REL_TOL, rel=True, where=f"{key}.")
        elif not g.close(got[key], value, g.RATIO_REL_TOL, rel=True):
            problems.append(f"{key}: {got[key]!r} != {value!r}")
    return problems


def check_simulation(got: dict, inp: dict) -> list[str]:
    """`simulate --json` output: exact bookkeeping, analytic values, binomial agreement."""
    a, b, prev, n = inp["a"], inp["b"], inp["prevalence"], inp["n"]
    c = got["counts"]
    tp, fp, fn, tn = c["tp"], c["fp"], c["fn"], c["tn"]
    problems = []
    want_config = {"prevalence": prev, "sensitivity": a, "specificity": b, "n": n, "seed": inp["seed"]}
    if got["config"] != want_config:
        problems.append(f"config {got['config']!r}")
    if min(tp, fp, fn, tn) < 0 or tp + fp + fn + tn != n or c["n"] != n:
        return problems + [f"counts {c!r} do not sum to n={n}"]
    problems += g.compare_dict(
        got["analytic"], {"ppv": g.ppv(a, b, prev), "npv": g.npv(a, b, prev)}, g.BAYES_TOL, where="analytic."
    )
    draws = {  # empirical rate: (successes, trials, expected rate)
        "prevalence": (tp + fn, n, prev),
        "sensitivity": (tp, tp + fn, a),
        "specificity": (tn, tn + fp, b),
        "ppv": (tp, tp + fp, g.ppv(a, b, prev)),
        "npv": (tn, tn + fn, g.npv(a, b, prev)),
    }
    for key, (k, m, p) in draws.items():
        value = got["empirical"][key]
        if m == 0:
            if value is not None:
                problems.append(f"empirical {key} {value!r} with no trials")
        elif not g.close(value, k / m, g.BAYES_TOL):
            problems.append(f"empirical {key} {value!r} != {k}/{m}")
        elif not g.binomial_ok(k, m, p):
            problems.append(f"empirical {key} {k}/{m} too far from {p!r}")
    return problems


# --- validate -----------------------------------------------------------------

SWEEP_N = 50  # verify_bounds grid step 1/50: 1,225 cells per sweep
SWEEP_STEP = 0.02
SWEEP_DELTA = 1e-6
ORACLE_PROFILES = 32
MC_CONFIGS = 128


class Validate:
    name = "validate"
    in_process = True

    def __init__(self, root: Path, tmp: Path, env: dict):
        from prevthresh import bounds, metrics, report, simulate, thresholds

        self.bounds, self.metrics, self.report = bounds, metrics, report
        self.simulate, self.thresholds = simulate, thresholds

    def inputs(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        oracle = [draw_profile(rng) for _ in range(ORACLE_PROFILES)]
        mc = []
        for _ in range(MC_CONFIGS):
            a, b = draw_profile(rng)
            mc.append((round(rng.uniform(0.02, 0.98), 6), a, b, round(10 ** rng.uniform(4, 7)), rng.randrange(2**32)))
        return {"oracle": oracle, "mc": mc}

    def reference(self, i: int) -> float:
        return calibrate.kernel_seconds()

    def run(self, inp: dict, clock: Clock):
        bounds, metrics, thresholds = self.bounds, self.metrics, self.thresholds
        with clock.stage("sweep"):
            sweep = bounds.verify_bounds(grid_step=SWEEP_STEP, delta=SWEEP_DELTA)
        clock.count("sweep", sweep.cells_swept)
        with clock.stage("oracle"):
            oracle = []
            for a, b in inp["oracle"]:
                p = metrics.DiagnosticProfile(a, b)
                oracle.append((
                    float(thresholds.positive_threshold(p).phi),
                    float(thresholds.negative_threshold(p).phi),
                    float(thresholds.curvature_argmax(p, "ppv").phi),
                    float(thresholds.curvature_argmax(p, "npv").phi),
                ))
        clock.count("oracle", len(oracle))
        with clock.stage("mc"):
            mc = []
            for prevalence, a, b, n, seed in inp["mc"]:
                p = metrics.DiagnosticProfile(a, b)
                counts = self.simulate.simulate_population(self.simulate.SimulationConfig(prevalence, p, n, seed))
                mc.append((
                    counts,
                    self.report.analyze_counts(counts),
                    float(metrics.ppv_at(p, prevalence)),
                    float(metrics.npv_at(p, prevalence)),
                ))
        clock.count("mc", len(mc))
        return sweep, oracle, mc

    def check(self, seed: int, i: int, inp: dict, out, gate: g.Gate, tally: Tally) -> None:
        sweep, oracle, mc = out
        problems = _guarded(check_sweep, sweep)
        payload = json.dumps(sweep.to_dict(), indent=2).encode()
        problems += gate.digest(f"validate/verify_bounds/step={SWEEP_STEP!r}", payload)
        gate.op(f"validate round {i} verify_bounds", problems)
        for r in sweep.records:
            tally.add("bounds.skipped", len(r.skipped))
            tally.add("bounds.evaluations", r.cells + len(r.skipped))

        for (a, b), (phi_e, phi_n, arg_ppv, arg_npv) in zip(inp["oracle"], oracle):
            want = g.threshold_summary(a, b)
            err = max(abs(arg_ppv - phi_e), abs(arg_npv - phi_n))
            tally.max("thresholds.oracle_max_abs_err", err)
            problems = []
            if err > g.ORACLE_TOL:
                problems.append(f"oracle off closed form by {err!r}")
            if not (g.close(phi_e, want["phi_e"], g.BAYES_TOL) and g.close(phi_n, want["phi_n"], g.BAYES_TOL)):
                problems.append(f"thresholds {phi_e!r}, {phi_n!r} != {want['phi_e']!r}, {want['phi_n']!r}")
            gate.op(f"validate round {i} oracle ({a!r}, {b!r})", problems)
        if seed == DEFAULT_SEED and i < DIGEST_ROUNDS:
            payload = json.dumps([[repr(x) for x in row] for row in oracle]).encode()
            gate.op(f"validate round {i} oracle digest", gate.digest(f"validate/seed{seed}/round{i}/oracle", payload))

        for config, result in zip(inp["mc"], mc):
            gate.op(f"validate round {i} monte carlo {config!r}", _guarded(check_recovery, config, *result))


def check_sweep(report) -> list[str]:
    bounds = g.ratio_bounds()
    problems = []
    expected = g.sweep_cells(SWEEP_N, SWEEP_DELTA)
    if report.cells_swept != expected:
        problems.append(f"cells_swept {report.cells_swept} != {expected}")
    if report.has_violations:
        problems.append("bound violations reported")
    if [r.metric for r in report.records] != list(bounds):
        problems.append(f"metrics {[r.metric for r in report.records]!r}")
    for r in report.records:
        lower, upper = bounds.get(r.metric, (None, None))
        if r.cells + len(r.skipped) != expected:
            problems.append(f"{r.metric}: {r.cells} cells + {len(r.skipped)} skipped != {expected}")
        if (r.lower, r.upper) != (lower, upper):
            problems.append(f"{r.metric}: bounds {(r.lower, r.upper)!r} != {(lower, upper)!r}")
        if r.cells and not (lower - 1e-9 <= r.observed_min <= r.observed_max <= upper + 1e-9):
            problems.append(f"{r.metric}: observed [{r.observed_min!r}, {r.observed_max!r}] outside bounds")
    return problems


def check_recovery(config, counts, report, ppv_value, npv_value) -> list[str]:
    """Monte Carlo recovery: bookkeeping, analytic PPV/NPV, and binomial agreement."""
    prevalence, a, b, n, _ = config
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    problems = []
    if counts.n != n or report.counts != counts:
        return [f"counts {counts!r} for n={n}"]
    if not (g.close(ppv_value, g.ppv(a, b, prevalence), g.BAYES_TOL) and g.close(npv_value, g.npv(a, b, prevalence), g.BAYES_TOL)):
        problems.append(f"ppv_at/npv_at {ppv_value!r}, {npv_value!r} disagree with Bayes' rule")
    for key, k, m, p in (("ppv", tp, tp + fp, ppv_value), ("npv", tn, tn + fn, npv_value)):
        got = report.metrics[key]
        if not g.close(got, k / m, g.BAYES_TOL):
            problems.append(f"report {key} {got!r} != {k}/{m}")
        elif not g.binomial_ok(k, m, p):
            problems.append(f"empirical {key} {k}/{m} too far from {p!r}")
    for name, k, m, p in (("prevalence", tp + fn, n, prevalence), ("sensitivity", tp, tp + fn, a), ("specificity", tn, tn + fp, b)):
        if not g.binomial_ok(k, m, p):
            problems.append(f"simulated {name} {k}/{m} too far from {p!r}")
    return problems


# --- curves-io ----------------------------------------------------------------

EMIT_N = 2000  # prevalence step 1/2000: 2,001 rows per emitted CSV
EMIT_STEP = 0.0005
TABLE_ROWS = 50_000
EDGE_PROFILES = {1: (0.9, 1.0), 3: (1.0, 0.9)}  # round i % 4 -> fixed edge profile
EDGE_BETAS = (0.5, 2.0)
SAMPLED_ROWS = 64


class CurvesIO:
    name = "curves-io"
    in_process = True

    def __init__(self, root: Path, tmp: Path, env: dict):
        from prevthresh import dataio, metrics

        self.dataio, self.metrics = dataio, metrics
        self.paths = {k: tmp / f"{k}.csv" for k in ("curves", "ratios", "predictions")}
        self.paths["sidecar"] = tmp / "curves.csv.json"

    def inputs(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        edge = EDGE_PROFILES.get(i % 4)
        if edge is not None:
            (a, b), betas = edge, EDGE_BETAS
        else:
            a, b = round(rng.uniform(0.01, 0.99), 6), round(rng.uniform(0.01, 0.99), 6)
            betas = draw_betas(rng)
        cuts = sorted(rng.randint(0, TABLE_ROWS) for _ in range(3))
        counts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], TABLE_ROWS - cuts[2])
        sample = sorted({0, EMIT_N, *rng.sample(range(EMIT_N + 1), SAMPLED_ROWS)})
        return {"a": a, "b": b, "betas": betas, "counts": counts, "sample": sample, "edge": edge is not None}

    def reference(self, i: int) -> float:
        return calibrate.kernel_seconds()

    def run(self, inp: dict, clock: Clock):
        dataio, paths = self.dataio, self.paths
        counts = self.metrics.ConfusionCounts(*inp["counts"])
        with clock.stage("emit"):
            profile = self.metrics.DiagnosticProfile(inp["a"], inp["b"])
            with open(paths["curves"], "w", encoding="utf-8", newline="") as f, \
                    open(paths["sidecar"], "w", encoding="utf-8", newline="") as side:
                curve_rows = dataio.emit_curves(profile, EMIT_STEP, f, sidecar=side)
            with open(paths["ratios"], "w", encoding="utf-8", newline="") as f:
                ratio_rows = dataio.emit_ratio_curves(profile, inp["betas"], EMIT_STEP, f)
        clock.count("emit", curve_rows + ratio_rows)
        with clock.stage("write"):
            with open(paths["predictions"], "w", encoding="utf-8", newline="") as f:
                written = dataio.write_predictions(counts, f)
        clock.count("write", written)
        with clock.stage("ingest"):
            ingested = dataio.ingest_predictions(str(paths["predictions"]))
        clock.count("ingest", ingested.n)
        return counts, curve_rows, ratio_rows, written, ingested

    def check(self, seed: int, i: int, inp: dict, out, gate: g.Gate, tally: Tally) -> None:
        _, curve_rows, ratio_rows, written, ingested = out
        a, b, betas, sample = inp["a"], inp["b"], inp["betas"], inp["sample"]
        data = {k: p.read_bytes() for k, p in self.paths.items()}
        # Edge profiles are the same for every seed, so their emissions are pinned on every run.
        seeded = f"curves-io/seed{seed}/round{i}" if seed == DEFAULT_SEED and i < DIGEST_ROUNDS else None
        emitted = f"curves-io/edge/{a!r},{b!r}/step={EMIT_STEP!r}" if inp["edge"] else seeded

        def digest(key, name):
            return gate.digest(None if key is None else f"{key}/{name}", data[name])

        problems = _guarded(g.check_curves_csv, data["curves"], a, b, EMIT_N, sample)
        if curve_rows != EMIT_N + 1:
            problems.append(f"emit_curves returned {curve_rows}")
        sidecar = _guarded(lambda: g.compare_dict(json.loads(data["sidecar"]), g.threshold_summary(a, b), g.BAYES_TOL))
        gate.op(f"curves-io round {i} emit_curves ({a!r}, {b!r})", problems + sidecar + digest(emitted, "curves") + digest(emitted, "sidecar"))

        problems = _guarded(g.check_ratio_csv, data["ratios"], a, b, betas, EMIT_N, sample)
        if ratio_rows != EMIT_N + 1:
            problems.append(f"emit_ratio_curves returned {ratio_rows}")
        gate.op(f"curves-io round {i} emit_ratio_curves ({a!r}, {b!r}, {betas!r})", problems + digest(emitted, "ratios"))

        size = len(data["predictions"])
        problems = []
        if written != TABLE_ROWS or size != g.predictions_size(TABLE_ROWS):
            problems.append(f"write_predictions wrote {written} rows, {size} bytes")
        gate.op(f"curves-io round {i} write_predictions {inp['counts']!r}", problems + digest(seeded, "predictions"))
        got = (ingested.tp, ingested.fp, ingested.fn, ingested.tn)
        problems = [] if got == inp["counts"] else [f"ingested {got!r} != {inp['counts']!r}"]
        gate.op(f"curves-io round {i} ingest_predictions", problems)

        for name in ("curves", "ratios"):
            empty, total = g.empty_cells(data[name])
            tally.add("dataio.empty_cells", empty)
            tally.add("dataio.cells", total)
        tally.add("dataio.emit_curves.rows", curve_rows)
        tally.add("dataio.emit_curves.bytes", len(data["curves"]))
        tally.add("dataio.emit_ratio_curves.rows", ratio_rows)
        tally.add("dataio.emit_ratio_curves.bytes", len(data["ratios"]))
        tally.add("dataio.write_predictions.rows", written)
        tally.add("dataio.write_predictions.bytes", size)
        tally.add("dataio.ingest_predictions.rows", ingested.n)
        tally.add("dataio.ingest_predictions.bytes", size)


WORKLOADS = {w.name: w for w in (CliBurst, Validate, CurvesIO)}
