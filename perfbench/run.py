"""Seeded end-to-end and per-layer benchmark of geodrev.

One workload per run:

    python3 perfbench/run.py --workload criterion --seed 1 --seconds 30 --trace 0

or every workload, untraced and traced, with the results recorded in
perfbench/_out/record-seed<seed>.json:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Run from the root of a checkout: the program is imported from ./src.  A
run generates its config corpus from --seed, sets up (import, corpus,
config parsing, bundle construction) several times, then repeats the
workload's cycle of commands until --seconds have passed and checks every
output.  It prints one "name value unit" line per metric and, last, one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs cycles
untraced for half of --seconds, then the same cycles again with every
public geodrev function wrapped in a span, and reports the per-layer
metrics, per cycle, with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

import corpus  # noqa: E402

WORKLOADS = ("criterion", "oracle", "long_path")
DEFAULT_SEED = 1

# The host's speed drifts by tens of percent within minutes, because other
# tenants share its cores, and it moves every timing of a run together.
# A fixed kernel of interpreted arithmetic and small numpy operations, the
# program's own mix, runs before each untraced operation.  End-to-end
# timings are reported in calibrated seconds: measured seconds times
# CAL_REF_S over the run's mean kernel time, that is, seconds on a host
# where the kernel takes CAL_REF_S.  The measured figures are printed too.
CAL_REF_S = 0.0018
SETUP_REPEATS = 5
TIMED_KINDS = ("classify", "scan", "geodesic")

END_TO_END = (
    ("setup_s", "s"),
    ("classify_p50_s", "s"),
    ("classify_tail_s", "s"),
    ("scan_p50_s", "s"),
    ("scan_tail_s", "s"),
    ("geodesic_p50_s", "s"),
    ("geodesic_tail_s", "s"),
    ("fan_p50_s", "s"),
    ("rk4_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

MODULES = ("scalarfield", "config", "metric", "reversibility", "frames", "geodesics", "runtime", "cli")

# Per-layer metrics: (name, unit).  Counts and seconds are per cycle of the
# workload's schedule, so runs that complete different numbers of cycles
# compare.  ".s" is inclusive span time, ".self_s" excludes child spans.
PER_LAYER = (
    ("scalarfield.eval.calls", "count"),
    ("scalarfield.eval.elements", "count"),
    ("scalarfield.eval.self_s", "s"),
    ("scalarfield.eval.us_per_call", "us"),
    ("config.load_config.s", "s"),
    ("metric.validate.calls", "count"),
    ("metric.validate.s", "s"),
    ("reversibility.point_data.calls", "count"),
    ("reversibility.point_data.s", "s"),
    ("reversibility.residual.calls", "count"),
    ("reversibility.residual.s", "s"),
    ("reversibility.classify.s", "s"),
    ("reversibility.calE.calls", "count"),
    ("reversibility.calF.calls", "count"),
    ("frames.directional_grid.s", "s"),
    ("frames.crosscheck.calls", "count"),
    ("frames.crosscheck.s", "s"),
    ("geodesics.spray.calls", "count"),
    ("geodesics.spray.self_s", "s"),
    ("geodesics.spray.failures", "count"),
    ("geodesics.integrate.calls", "count"),
    ("geodesics.integrate.s", "s"),
    ("geodesics.integrate.self_s", "s"),
    ("geodesics.integrate.rk4_steps", "count"),
    ("geodesics.integrate.truncations", "count"),
    ("geodesics.integrate.useful_ratio", "ratio"),
    ("geodesics.path_distance.calls", "count"),
    ("geodesics.path_distance.s", "s"),
    ("geodesics.path_distance.pairs", "count"),
    ("geodesics.path_distance.temp_bytes_computed", "bytes"),
    ("geodesics.reversibility_error.s", "s"),
    ("geodesics.reversibility_scan.s", "s"),
    ("runtime.ordered_map.calls", "count"),
    ("runtime.ordered_map.workers", "count"),
    ("cli.main.validate.s", "s"),
    ("cli.main.classify.s", "s"),
    ("cli.main.scan.s", "s"),
    ("cli.main.geodesic.s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.rows", "count"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.write_csv.s", "s"),
    *((f"layer.{m}.self_s", "s") for m in MODULES),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_share", "ratio"),
)


# ---------------------------------------------------------------------------
# Program import and machine facts


def import_program():
    """Import geodrev from ./src."""
    if not os.path.isfile(os.path.join(SRC, "geodrev", "__init__.py")):
        raise SystemExit(f"no geodrev sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import geodrev
    import geodrev.cli  # noqa: F401

    if not os.path.abspath(geodrev.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"geodrev was imported from {geodrev.__file__}, not from {SRC}")
    return geodrev


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the program, numpy included."""
    code = "import time; t = time.perf_counter(); import geodrev.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def machine_facts(threads_env: str) -> dict:
    import numpy

    caches = {}
    for label, key in (
        ("l1d", "SC_LEVEL1_DCACHE_SIZE"),
        ("l2", "SC_LEVEL2_CACHE_SIZE"),
        ("l3", "SC_LEVEL3_CACHE_SIZE"),
    ):
        if key in os.sysconf_names and os.sysconf(key) > 0:
            caches[label] = os.sysconf(key)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "GEODREV_THREADS": threads_env,
    }


def sysfs_caches() -> dict:
    """Cache sizes of cpu0 as Linux lists them, e.g. {"L2 Unified": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if entry.startswith("index"):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as handle:
                    fields[key] = handle.read().strip()
            caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return caches


def path_distance_temp_bytes(plan: corpus.Plan) -> int:
    """Largest (n, m-1, 2) float64 temporary of path_distance in the plan, from the path lengths."""
    n = max(round(op.T / op.h) + 1 for ops in plan.cycles for op in ops if op.kind in ("geodesic", "fan"))
    return 16 * n * (n - 1)


def calibration_kernel() -> float:
    """Seconds taken by the fixed calibration work."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    a = np.arange(5000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up and the measured operations


def setup(geodrev, workload: str, seed: int, tiny: bool, workdir: str):
    """Generate the corpus, write it, parse every config and build its bundle."""
    plan = corpus.build_plan(workload, seed, tiny)
    os.makedirs(workdir, exist_ok=True)
    paths, bundles = {}, {}
    for name, cfg in plan.configs.items():
        path = os.path.join(workdir, name + ".cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cfg.text)
        paths[name] = path
        try:
            bundles[name] = geodrev.config.load_config(path).build_bundle()
        except Exception:  # the operations on this config fail and are counted
            bundles[name] = None
    return plan, paths, bundles


def op_key(cfg: corpus.Config, op: corpus.Op) -> str:
    return hashlib.sha256(json.dumps([cfg.text, op.kind, list(op.args)]).encode()).hexdigest()


class Runner:
    """Runs operations, times them and checks their outputs."""

    def __init__(self, geodrev, plan, paths, bundles, workdir, digests=None, record=None):
        self.geodrev = geodrev
        self.plan = plan
        self.paths = paths
        self.bundles = bundles
        self.workdir = workdir
        self.digests = digests or {}
        self.record = record       # dict to fill with digests instead of checking them
        self.tracer = None
        self.durations = defaultdict(list)
        self.kinds = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests_checked = 0
        self.geodesic_steps = 0
        self.geodesic_seconds = 0.0
        self.calibration = []

    def run_cycle(self, index: int) -> float:
        """Run one cycle of the schedule; returns the summed operation time."""
        total = 0.0
        for op in self.plan.cycles[index % len(self.plan.cycles)]:
            total += self.run_op(op)
        return total

    def run_op(self, op: corpus.Op) -> float:
        if self.tracer is None:
            self.calibration.append(calibration_kernel())
        cfg = self.plan.configs[op.config]
        self.attempted += 1
        self.kinds[self.attempted] = op.kind
        if op.kind == "fan":
            seconds, problem = self._fan(op, cfg)
        else:
            seconds, problem = self._command(op, cfg)
        self.durations[op.kind].append(seconds)
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.kind} {op.config} {' '.join(op.args)}: {problem}")
        return seconds

    def _timed(self, kind: str, call):
        """Run call() in a root span when tracing; returns (seconds, result, error)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_command(self.attempted)
            root = tracer.open(f"op.{kind}")
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = call()
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # a failed operation is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        return seconds, result, error

    def _fan(self, op, cfg):
        bundle = self.bundles[op.config]
        if bundle is None:
            return 0.0, "config did not load"
        scan = self.geodrev.geodesics
        seconds, result, error = self._timed(
            op.kind,
            lambda: scan.reversibility_scan(bundle, corpus.FAN_X0, op.T, op.h, corpus.FAN_DIRECTIONS),
        )
        if error:
            return seconds, error
        errors = [e for _, e in result]
        if len(errors) != corpus.FAN_DIRECTIONS:
            return seconds, f"{len(errors)} probes, expected {corpus.FAN_DIRECTIONS}"
        return seconds, _probe_bounds(cfg, op, max(errors))

    def _command(self, op, cfg):
        argv = [op.kind, self.paths[op.config], *op.args]
        outputs = {}
        if op.kind in ("scan", "geodesic"):
            outputs["out"] = os.path.join(self.workdir, "out.csv")
            if op.kind == "geodesic":
                outputs["rev"] = os.path.join(self.workdir, "out_rev.csv")
            argv += ["--out", outputs["out"]]
        for path in outputs.values():
            if os.path.exists(path):
                os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return self.geodrev.cli.main(argv)

        seconds, rc, error = self._timed(op.kind, call)
        if error:
            return seconds, error
        text = stdout.getvalue()
        csvs = {}
        for label, path in outputs.items():
            try:
                with open(path, "rb") as handle:
                    csvs[label] = handle.read()
            except OSError:
                return seconds, f"exit {rc}, no {label} CSV written"
        if op.kind == "geodesic":
            problem = self._check_geodesic(op, cfg, rc, text, csvs, seconds)
        elif rc != 0:
            problem = f"exit {rc}: {stderr.getvalue().strip()[:200]}"
        elif op.kind == "validate" and "bundle validation: PASS" not in text:
            problem = "validation did not pass"
        elif op.kind == "classify" and text.split("\n", 1)[0] != f"verdict: {cfg.verdict}":
            problem = f"{text.splitlines()[0] if text else 'no output'}, expected {cfg.verdict}"
        else:
            problem = ""
        return seconds, problem or self._check_digests(op, cfg, csvs)

    def _check_geodesic(self, op, cfg, rc, text, csvs, seconds) -> str:
        steps_fwd = csvs["out"].count(b"\n") - 2
        steps_rev = csvs["rev"].count(b"\n") - 2
        self.geodesic_steps += steps_fwd + steps_rev
        self.geodesic_seconds += seconds
        # The backward path runs for the forward path's covered duration.
        truncated = steps_fwd < max(1, round(op.T / op.h)) or steps_rev < max(1, steps_fwd)
        if rc != (3 if truncated else 0):
            return f"exit {rc} with truncated={truncated}"
        line = text.strip().splitlines()[-1] if text.strip() else ""
        if not line.startswith("reversibility_error = "):
            return "no reversibility_error line"
        return _probe_bounds(cfg, op, float(line.split("=", 1)[1]), fan=False)

    def _check_digests(self, op, cfg, csvs) -> str:
        if not csvs:
            return ""
        got = {label: hashlib.sha256(data).hexdigest() for label, data in csvs.items()}
        key = op_key(cfg, op)
        if self.record is not None:
            self.record[key] = got
            return ""
        want = self.digests.get(key)
        if want is None:
            return ""
        self.digests_checked += 1
        return "" if got == want else "CSV bytes differ from the recorded digest"


def _probe_bounds(cfg: corpus.Config, op: corpus.Op, worst: float, fan: bool = True) -> str:
    """Criterion 7's bounds, which hold at its duration T = 1 only.

    Every probe on the ClassA witness stays within CLASS_A_MAX_ERROR; the
    largest of a fan on the Irreversible witness reaches
    IRREVERSIBLE_MIN_ERROR (a single direction need not).
    """
    if op.T != corpus.FAN_T:
        return ""
    if cfg.witness == "class_a" and worst > corpus.CLASS_A_MAX_ERROR:
        return f"ClassA probe error {worst:.3g} > {corpus.CLASS_A_MAX_ERROR}"
    if fan and cfg.witness == "irreversible" and worst < corpus.IRREVERSIBLE_MIN_ERROR:
        return f"Irreversible probe error {worst:.3g} < {corpus.IRREVERSIBLE_MIN_ERROR}"
    return ""


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list) -> tuple:
    """(value, percentile, n) of the highest percentile with >= 10 samples above it.

    Below 21 samples that percentile would lie under the median; the
    maximum is reported instead, with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, list]:
    raw = {"setup_s": setup_s}
    notes = []
    for kind in TIMED_KINDS:
        values = runner.durations[kind]
        raw[f"{kind}_p50_s"] = statistics.median(values)
        raw[f"{kind}_tail_s"], pct, n = tail(values)
        notes.append(f"{kind}_tail_s is p{pct:.1f} of n={n}")
    raw["fan_p50_s"] = statistics.median(runner.durations["fan"])
    notes.append(f"fan_p50_s of n={len(runner.durations['fan'])}")
    raw["rk4_steps_per_s"] = runner.geodesic_steps / runner.geodesic_seconds
    kernel = statistics.mean(runner.calibration)
    scale = CAL_REF_S / kernel
    notes.append(
        f"calibration kernel {kernel:.6g} s (mean of {len(runner.calibration)}), "
        f"timings scaled by {scale:.4f}"
    )
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["rk4_steps_per_s"] = raw["rk4_steps_per_s"] / scale
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = dict(END_TO_END)
    notes += [f"measured {name} {value:.6g} {units[name]}" for name, value in raw.items()]
    return metrics, notes


def per_layer(tracer, runner: Runner, cycles: int, wall: float, overhead: float) -> tuple[dict, list]:
    summary = tracer.summary()

    def get(name, field):
        return summary.get(name, {}).get(field, 0.0)

    per = 1.0 / cycles
    m = {}
    for name, unit in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and not name.startswith(("layer.", "cli.main.")):
            m[name] = get(head, field) * per
    calls = get("scalarfield.eval", "calls")
    m["scalarfield.eval.elements"] = tracer.counts["scalarfield.eval.elements"] * per
    m["scalarfield.eval.us_per_call"] = 1e6 * get("scalarfield.eval", "self_s") / calls if calls else 0.0
    m["geodesics.spray.failures"] = tracer.counts["geodesics.spray.failures"] * per
    integrations = get("geodesics.integrate", "calls")
    repeats = tracer.counts["geodesics.integrate.repeats"]
    m["geodesics.integrate.rk4_steps"] = tracer.counts["geodesics.integrate.rk4_steps"] * per
    m["geodesics.integrate.truncations"] = tracer.counts["geodesics.integrate.truncations"] * per
    m["geodesics.integrate.useful_ratio"] = (integrations - repeats) / integrations if integrations else 1.0
    m["geodesics.path_distance.pairs"] = tracer.counts["geodesics.path_distance.pairs"] * per
    m["geodesics.path_distance.temp_bytes_computed"] = tracer.maxima["geodesics.path_distance.temp_bytes_computed"]
    m["runtime.ordered_map.workers"] = tracer.maxima["runtime.ordered_map.workers"]
    main_s = tracer.main_seconds_by_command(runner.kinds)
    for command in ("validate", "classify", "scan", "geodesic"):
        m[f"cli.main.{command}.s"] = main_s.get(command, 0.0) * per
    m["cli.write_csv.rows"] = tracer.counts["cli.write_csv.rows"] * per
    m["cli.write_csv.bytes"] = tracer.counts["cli.write_csv.bytes"] * per

    layers = Counter()
    for name, stats in summary.items():
        module = name.split(".", 1)[0]
        if module in MODULES:
            layers[module] += stats["self_s"]
    for module in MODULES:
        m[f"layer.{module}.self_s"] = layers[module] * per
    m["trace.spans"] = sum(s["calls"] for s in summary.values()) * per
    m["trace.overhead_ratio"] = overhead
    m["trace.unaccounted_share"] = 1.0 - sum(layers.values()) / wall

    ranked = sorted(
        ((s["self_s"], name) for name, s in summary.items() if name.split(".", 1)[0] in MODULES),
        reverse=True,
    )
    m = {name: m[name] for name, _ in PER_LAYER}
    notes = [f"cycles traced: {cycles}, traced wall {wall:.3f} s"]
    notes.append("largest layer self times: " + ", ".join(
        f"{module} {layers[module] / wall:.1%}" for module, _ in layers.most_common(4)
    ))
    notes.append("largest function self times: " + ", ".join(
        f"{name} {seconds / wall:.1%}" for seconds, name in ranked[:6]
    ))
    return m, notes


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    threads_env = os.environ.pop("GEODREV_THREADS", None)
    geodrev = import_program()
    import tracing

    facts = machine_facts("unset" if threads_env is None else f"{threads_env} (unset for the run)")
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    digests = {}
    if args.seed == DEFAULT_SEED and not args.tiny and os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            digests = json.load(handle)
    try:
        setup_times, import_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds())
            t0 = time.perf_counter()
            plan, paths, bundles = setup(geodrev, args.workload, args.seed, args.tiny, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        facts["path_distance_temp_bytes_computed"] = path_distance_temp_bytes(plan)
        runner = Runner(geodrev, plan, paths, bundles, workdir, digests)

        budget = args.seconds / 2.0 if args.trace else float(args.seconds)
        cycles, untraced, start = 0, 0.0, time.perf_counter()
        while cycles == 0 or time.perf_counter() - start < budget:
            untraced += runner.run_cycle(cycles)
            cycles += 1
        if args.trace:
            tracer = tracing.Tracer(geodrev)
            runner.tracer = tracer
            tracer.install()
            try:
                traced, start = 0.0, time.perf_counter()
                for c in range(cycles):
                    traced += runner.run_cycle(c)
                wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
                runner.tracer = None
            tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
            metrics, notes = per_layer(tracer, runner, cycles, wall, traced / untraced - 1.0)
            units = dict(PER_LAYER)
        else:
            metrics, notes = end_to_end(runner, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} cycles {cycles}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for note in notes:
        print(note)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"digests checked: {runner.digests_checked}")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} ratio ({runner.failed} of {runner.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process.

    Unlike a single-workload run, this also reads the cache sizes from
    sysfs, for machines where sysconf does not report them.
    """
    record = {"seed": args.seed, "seconds": args.seconds, "caches": sysfs_caches(), "runs": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["machine"] = json.loads(next(l for l in lines if l.startswith("machine "))[8:])
            record["runs"][f"{workload}/trace{trace}"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"record-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"recorded {path}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one tiny cycle per workload, for the smoke test")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
