#!/usr/bin/env python3
"""Benchmark for the stormsim command line: fit, simulate and risk.

    python3 perfbench/run.py --workload simulate --seed 3 --seconds 10 --trace 0

Runs one workload (or every workload, with ``--workload all``) from the root
of a source checkout.  The commands are called in process through
``stormsim.cli.main`` on inputs made here from the seed, repeated in as many
whole rounds as fit in ``--seconds`` seconds (at least one) with tracing off,
and the last round's outputs are then checked (see ``checks.py``).  With
``--trace 1`` one more round runs under the tracer and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
CACHE = HERE / "cache"
RESULTS = HERE / "results"

WORKLOADS = ("fit", "simulate", "simulate_pool", "risk")

# The acceptance fixture is make_catalog(1200, seed=101).  The simulate
# bundle is fitted on all of it; the fit workload times its first 400 storms
# (make_catalog draws storms in sequence), because one fit of the full
# fixture takes 40-65 s on 2 CPUs.
CATALOG_SEED = 101
BUNDLE_STORMS = 1200
FIT_STORMS = 400
FIT_CONFIG = {  # the acceptance RECOVERY_CONFIG
    "gcv_points": 21, "gcv_sweeps": 2, "allow_quadratic_preproc": False,
    "bw_genesis_conditions": 0.3, "bw_direction": 0.3, "bw_speed": 0.3, "bw_vorticity": 0.3,
}
# Outside simulate_catalog, one simulate command loads the 10.6 MB bundle
# JSON (about 0.5 s) and writes the CSV.  In traced rounds that fixed cost
# was 16% of a one-worker round and 26% of a two-worker round at 100 storms,
# and 6% and 11% at 400, so at 400 the per-step path dominates, as it does
# in an 84,000-storm catalog, and two one-worker rounds still fit in a run.
SIM_STORMS = 400
POOL_WORKERS = 2
REPLAY_SAMPLE = 10
RISK_STORMS = 200
# Thresholds inside the toy catalogs' range (UK-region vorticity runs to
# about 6-7), so every return period has exceedances and runs its bootstrap;
# 200 storms span 2.5 years, so both return levels are supported.
RISK_CONFIG = {
    "regions": [{"name": "uk", "lon_min": -11.0, "lon_max": 2.0,
                 "lat_min": 50.0, "lat_max": 60.0}],
    "omegas": [3.0, 4.0],
    "return_years": [1.0, 2.0],
    "bootstrap_b": 200,
    "grid_dlon": 4.0,
    "grid_dlat": 3.0,
    "cell_omega": 3.5,
    "seed": 0,
}

# Work counts read from the simulate outputs (zero on the other workloads).
OUTPUT_COUNTS = {
    "engine.steps.genesis": "count", "engine.steps.body": "count", "engine.steps.tail": "count",
    "engine.points_per_storm": "points", "engine.simulate_storm.accept_ratio": "ratio",
    "engine.bundle.json_bytes": "bytes", "engine.bundle.pickle_bytes": "bytes",
    "engine.tracks.pickle_bytes": "bytes", "engine.simulate_catalog.serial_s": "s",
}


def since_process_start() -> float:
    """Seconds since this process started (falls back to the script's start)."""
    fallback = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return elapsed if fallback <= elapsed < fallback + 5.0 else fallback


def write_catalog(catalog, path: Path) -> None:
    lines = [f"# years_of_record: {catalog.years_of_record!r}",
             "storm_id,time_index,lon,lat,vorticity"]
    for s in catalog.storms:
        for p in s.points:
            lines.append(f"{s.id},{p.time_index},{p.lon!r},{p.lat!r},{p.vorticity!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# the simulate bundle: fitted by the code under test, cached per source tree
# --------------------------------------------------------------------------

def bundle_path() -> Path:
    digest = hashlib.sha256(json.dumps([BUNDLE_STORMS, CATALOG_SEED, FIT_CONFIG]).encode())
    for f in sorted(SRC.rglob("*.py")):
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes() + b"\0")
    return CACHE / f"bundle-{digest.hexdigest()[:16]}.json"


def ensure_bundle() -> bool:
    """Fit the bundle in a child process unless cached; True if it was fitted."""
    path = bundle_path()
    if path.exists():
        return False
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    subprocess.run([sys.executable, str(HERE / "run.py"), "--build-bundle", str(tmp)],
                   cwd=ROOT, check=True, stdout=sys.stderr)
    os.replace(tmp, path)
    return True


def build_bundle(out: str) -> None:
    from stormsim import engine, toydata

    catalog = toydata.make_catalog(BUNDLE_STORMS, seed=CATALOG_SEED)
    engine.save_bundle(engine.fit_all(catalog, engine.FitConfig(**FIT_CONFIG)), out)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """Inputs, the command line and the output checks of one workload."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        from stormsim import toydata

        self.name, self.seed, self.workers = name, seed, 1
        self.out = run_dir / "out"
        config: dict = {"paths": {"output_dir": str(self.out)}}
        if name == "fit":
            self.catalog = toydata.make_catalog(FIT_STORMS, seed=CATALOG_SEED)
            config["fit"] = FIT_CONFIG
        elif name == "risk":
            self.catalog = toydata.make_catalog(RISK_STORMS, seed=CATALOG_SEED)
            config["risk"] = {**RISK_CONFIG, "seed": seed}
        else:
            self.bundle = bundle_path()
            if name == "simulate_pool":
                self.workers = min(POOL_WORKERS, len(os.sched_getaffinity(0)))
            config["paths"]["bundle"] = str(self.bundle)
            config["simulation"] = {"n_storms": SIM_STORMS, "seed": seed, "workers": self.workers}
        if name in ("fit", "risk"):
            self.csv = run_dir / "catalog.csv"
            write_catalog(self.catalog, self.csv)
            config["paths"]["catalog"] = str(self.csv)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.command = "simulate" if name.startswith("simulate") else name

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path)]

    def check(self) -> tuple[list[str], dict]:
        """Output problems, plus work counts read from the outputs."""
        import checks

        if self.name == "fit":
            size = (self.out / "bundle.json").stat().st_size
            return self._check_fit(checks), {"engine.bundle.json_bytes": size}
        if self.name == "risk":
            return checks.check_risk(checks.read_points(self.csv), self.catalog.years_of_record,
                                     RISK_CONFIG, self.out), {}
        return self._check_simulated(checks)

    def _check_fit(self, checks) -> list[str]:
        import numpy as np

        from stormsim import engine, evt, gam

        text = (self.out / "bundle.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        marginal = engine.bundle_from_json(text).marginal
        cols, y = gam.storm_rows(self.catalog.storms, covariates=tuple(doc["hazard"]["covariates"]))
        for basis, name in zip(doc["hazard"]["bases"], doc["hazard"]["covariates"]):
            knots, deg = basis["knots"], basis["degree"]
            cols[name] = np.clip(cols[name], knots[deg], knots[-deg - 1])
        return checks.check_fit(doc, self.catalog.storms, (cols, y),
                                lambda z: evt.to_laplace(z, marginal),
                                lambda s: evt.from_laplace(s, marginal))

    def _check_simulated(self, checks) -> tuple[list[str], dict]:
        from stormsim import engine

        text = self.bundle.read_text(encoding="utf-8")
        doc = json.loads(text)
        bundle = engine.bundle_from_json(text)
        pickle_bytes = len(pickle.dumps(bundle))  # before use fills the kernel caches
        storms = checks.read_simulated(self.out / "simulated.csv")
        start = time.perf_counter()
        reference, _ = engine.simulate_catalog(bundle, SIM_STORMS, seed=self.seed, workers=1)
        serial_s = time.perf_counter() - start
        tokens = [s["token"] for s in storms.values()]
        sample = tokens[:: max(1, len(tokens) // REPLAY_SAMPLE)][:REPLAY_SAMPLE]
        replayed = {t: engine.replay_storm(bundle, t) for t in sample}
        problems = checks.check_simulated(storms, SIM_STORMS, doc, reference.storms, replayed)

        tags = [t for s in storms.values() for t in s["tags"]]
        attempts = sum(int(t.rsplit("-", 1)[1]) + 1 for t in tokens)
        results = [(t, t.termination_cause, int(t.seed_token.rsplit("-", 1)[1]))
                   for t in reference.storms]
        counts = {
            "engine.steps.genesis": tags.count("genesis"),
            "engine.steps.body": tags.count("body"),
            "engine.steps.tail": tags.count("tail"),
            "engine.points_per_storm": len(tags) / max(1, len(storms)),
            "engine.simulate_storm.accept_ratio": len(storms) / max(1, attempts),
            "engine.bundle.json_bytes": len(text.encode()),
            "engine.bundle.pickle_bytes": pickle_bytes,
            "engine.tracks.pickle_bytes": len(pickle.dumps(results)),
            "engine.simulate_catalog.serial_s": serial_s,
        }
        return problems, counts


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def run_command(workload: "Workload") -> tuple[float, bool]:
    """One round of the workload's command, into an emptied output directory."""
    from stormsim import cli

    shutil.rmtree(workload.out, ignore_errors=True)
    argv = workload.argv()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            ok = cli.main(argv) == 0
    except Exception:  # a crash is a failed operation; keep measuring
        traceback.print_exc()
        ok = False
    return time.perf_counter() - start, ok


def per_layer(tracer, traced_s: float, untraced_s: float, counts: dict, fallbacks: int) -> dict:
    metrics = dict(tracer.metrics())
    for name in ("kde.sample_conditional", "gam.hazard"):
        metrics[f"{name}.us_per_call"] = (tracer.us_per_call(name), "us")
    metrics["evt.to_laplace.wall_s"] = (tracer.wall("evt.to_laplace"), "s")
    metrics["engine.simulate_catalog.wall_s"] = (tracer.wall("engine.simulate_catalog"), "s")
    metrics["engine.draw_fallbacks"] = (fallbacks, "count")
    for name, unit in OUTPUT_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return metrics


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process, plus that of a pool's workers:
    the largest reaped worker's peak times their number, as the sum of the
    pool's resident sizes that `ps` shows."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from stormsim import cli, engine  # noqa: F401  (imports count towards setup_s)

    run_dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = Workload(name, seed, run_dir)
        setup_s = since_process_start()

        # Whole rounds while another one, as long as the longest so far, still
        # ends within the time, so a run's length does not depend on how far
        # its last round overshoots.
        rounds, failed = [], 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + max(rounds) <= seconds:
            elapsed, ok = run_command(workload)
            rounds.append(elapsed)
            failed += not ok
            if len(rounds) == 1:
                # later rounds grow the heap a little each, so the peak after
                # one command does not depend on how many rounds fit the time
                peak_mb = peak_rss_mb(workload.workers)

        if trace:
            from tracing import Tracer

            before = engine.DRAW_FALLBACKS["count"]
            with Tracer() as tracer:
                traced_s, ok = run_command(workload)
            fallbacks = engine.DRAW_FALLBACKS["count"] - before
            rounds.append(traced_s)
            failed += not ok

        # every round empties the output directory, so only the last round's
        # outputs are there to check
        problems, counts = workload.check() if ok else (["the last round failed; no output checked"], {})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED ({name}): {p}", file=sys.stderr)
    command_s = statistics.median(rounds[: len(rounds) - trace])
    if trace:
        metrics = per_layer(tracer, traced_s, command_s, counts, fallbacks)
    else:
        metrics = {
            "command_s": (command_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "rounds_s": rounds, "problems": problems},
                   indent=1), encoding="utf-8")
    return result


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-bundle", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "stormsim" / "__init__.py").is_file():
        print(f"error: no stormsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.build_bundle:
        sys.path.insert(0, str(SRC))
        build_bundle(args.build_bundle)
        return 0
    if args.workload == "all":
        return run_all(args)
    if ensure_bundle():
        # measure in a fresh process, so that neither the fit's time nor its
        # memory is counted in this run's set-up time or peak memory
        return subprocess.run([sys.executable, str(HERE / "run.py"), *sys.argv[1:]],
                              cwd=ROOT, check=False).returncode
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
