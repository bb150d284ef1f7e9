"""entlab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload paper_t1 --seed 20260810 --seconds 10 --trace 0

Run from the repository root; entlab is imported from ``src/`` of the same
checkout.  Each workload is a closed loop in one process: the next call starts
when the previous one returns.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from ``spans.py``.  Every metric is printed on
its own line with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.  Results and spans are also written
to ``bench/out/``.  See ``bench/README.md`` for what each workload and metric
stands for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 20260810  # the acceptance seed
PAPER_PAIRS = 100_000  # ROADMAP's acceptance run
P_ENTANGLED = (0.355, 0.375)  # acceptance bounds, as in tests/test_acceptance.py
P_VIOLATION = (0.040, 0.054)
# The acceptance bounds hold for the acceptance seed.  Another seed's estimate
# can sit a few standard errors outside them (seed 406 gives p_violation
# 0.0390; the other nine of seeds 401-410 give 0.0410-0.0433), so for other
# seeds each bound is widened by this many standard errors of the run's own
# estimate.
SE_SLACK = 5.0
TINY_SIZES = (1, 64, 512)
TINY_MIN_CALLS = 100  # so that p90 has at least ten samples beyond it
SCALAR_STATES = 5000
SCALAR_TOL = 1e-12
SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60
# Printed but not in BENCHMARK.json: on a shared 2-vCPU VM, a latency
# percentile lands in the host's fast or slow phase depending on how much of
# the run was slow, so it jumps from run to run by about as much as any bound.
# wall_s is the steady form of the same latency.
REPORTED_ONLY = {"run_p50_ms": "ms", "run_p90_ms": "ms"}


@dataclass
class Pass:
    """One timed pass of a workload and what its checks found."""

    traced: bool
    wall: float = math.nan
    run_s: float = math.nan  # time inside the calls that produce states
    states: int = 0  # states those calls used (states_drawn, or states sampled)
    rows: int = 0  # result rows: pairs, or states sampled and measured
    latencies: list = field(default_factory=list)  # seconds per call
    exact: dict = field(default_factory=dict)  # counts and digests that must repeat
    layers: dict = field(default_factory=dict)  # per-layer values, traced passes only
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Context:
    """What a pass needs: the library, the tracer and a scratch directory."""

    def __init__(self, entlab, tracer, seed: int, tmpdir: Path, span_log=None):
        self.entlab = entlab
        self.tracer = tracer
        self.span_log = span_log  # open CSV file that traced passes append their spans to
        self.seed = seed
        self.tmpdir = tmpdir
        self._outdirs = 0

    def outdir(self) -> Path:
        self._outdirs += 1
        return self.tmpdir / f"csv-{self._outdirs}"

    @contextlib.contextmanager
    def untraced(self):
        """Checks call the library too; keep their calls out of the spans."""
        was = self.tracer.active
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = was


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def csv_digest(outdir: Path) -> tuple[str, int]:
    """SHA-256 over the CSV files (name and bytes, in name order) and their total size."""
    h = hashlib.sha256()
    nbytes = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        nbytes += len(data)
    return h.hexdigest(), nbytes


def _in(value: float, bounds: tuple[float, float], slack: float) -> bool:
    return bounds[0] - slack <= value <= bounds[1] + slack


# ---------------------------------------------------------------- workloads


def paper_pass(ctx: Context, rec: Pass, _index: int, threads: int) -> None:
    experiment = ctx.entlab.experiment
    cfg = experiment.ExperimentConfig(seed=ctx.seed, n_pairs=PAPER_PAIRS, threads=threads)
    outdir = ctx.outdir()
    t0 = time.perf_counter()
    summary = experiment.run_experiment(cfg)
    t1 = time.perf_counter()
    experiment.write_csvs(summary, outdir)
    t2 = time.perf_counter()
    digest, nbytes = csv_digest(outdir)
    shutil.rmtree(outdir)
    rec.wall, rec.run_s = t2 - t0, t1 - t0
    rec.states, rec.rows, rec.latencies = summary.states_drawn, summary.n_pairs, [t1 - t0]
    rec.exact.update(
        states_drawn=summary.states_drawn,
        states_kept=summary.states_kept,
        ties=summary.n_ties_excluded,
        csv_bytes=nbytes,
        csv_sha256=digest,
    )
    if summary.n_pairs != PAPER_PAIRS:
        rec.errors.append(f"n_pairs {summary.n_pairs} != {PAPER_PAIRS}")
    ses = 0.0 if ctx.seed == DEFAULT_SEED else SE_SLACK
    if not _in(summary.p_entangled, P_ENTANGLED, ses * summary.se_entangled):
        rec.errors.append(f"p_entangled {summary.p_entangled} outside {P_ENTANGLED} +- {ses} se")
    if not _in(summary.p_violation, P_VIOLATION, ses * summary.se_violation):
        rec.errors.append(f"p_violation {summary.p_violation} outside {P_VIOLATION} +- {ses} se")


def tiny_pass(ctx: Context, rec: Pass, index: int, _threads: int) -> None:
    experiment = ctx.entlab.experiment
    drawn = kept = ties = 0
    h = hashlib.sha256()
    t_start = time.perf_counter()
    for j, n in enumerate(TINY_SIZES):
        cfg = experiment.ExperimentConfig(seed=derived_seed(ctx.seed, len(TINY_SIZES) * index + j), n_pairs=n)
        t0 = time.perf_counter()
        summary = experiment.run_experiment(cfg)
        rec.latencies.append(time.perf_counter() - t0)
        if summary.n_pairs != n or len(summary.pairs) != n:
            rec.errors.append(f"n_pairs={n} returned {summary.n_pairs} ({len(summary.pairs)} rows)")
        if summary.states_kept > summary.states_drawn:
            rec.errors.append(f"states_kept {summary.states_kept} > states_drawn {summary.states_drawn}")
        drawn += summary.states_drawn
        kept += summary.states_kept
        ties += summary.n_ties_excluded
        h.update(summary.pairs.tobytes())
    rec.wall = time.perf_counter() - t_start
    rec.run_s, rec.states, rec.rows = sum(rec.latencies), drawn, sum(TINY_SIZES)
    rec.exact.update(states_drawn=drawn, states_kept=kept, ties=ties, pairs_sha256=h.hexdigest())


def scalar_pass(ctx: Context, rec: Pass, index: int, _threads: int) -> None:
    entlab, tracer = ctx.entlab, ctx.tracer
    seed = derived_seed(ctx.seed, index)
    path = ctx.tmpdir / "states.csv"
    sample_out, measure_out = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sample_out), tracer.span("cli.sample"):
        code_sample = entlab.cli.main(
            ["sample", "--seed", str(seed), "--count", str(SCALAR_STATES), "--out", str(path)]
        )
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(measure_out), tracer.span("cli.measure"):
        code_measure = entlab.cli.main(["measure", "--input", str(path)])
    t2 = time.perf_counter()
    rec.wall, rec.run_s = t2 - t0, t1 - t0
    rec.states = rec.rows = SCALAR_STATES
    rec.latencies = [t2 - t0]
    stdout = sample_out.getvalue() + measure_out.getvalue()
    file_bytes = path.read_bytes()
    rec.exact.update(
        stdout_bytes=len(stdout.encode()),
        states_csv_sha256=hashlib.sha256(file_bytes).hexdigest(),
        measure_sha256=hashlib.sha256(measure_out.getvalue().encode()).hexdigest(),
    )
    if code_sample != 0 or code_measure != 0:
        rec.errors.append(f"exit codes sample={code_sample} measure={code_measure}")
        return
    with ctx.untraced():
        expected = entlab.sampler.random_density_batch(entlab.sampler.RngStream(seed), SCALAR_STATES)
        table = entlab.measures.measure_table(expected)
    flat = np.loadtxt(io.BytesIO(file_bytes), delimiter=",", skiprows=1, ndmin=2)
    loaded = (flat[:, 0::2] + 1j * flat[:, 1::2]).reshape(-1, 4, 4)
    if loaded.shape != expected.shape or not np.array_equal(loaded, expected):
        rec.errors.append("sampled states do not round-trip through CSV exactly")
    lines = measure_out.getvalue().splitlines()
    columns = entlab.measures.REPORT_CSV_HEADER.split(",")
    if not lines or lines[0] != entlab.measures.REPORT_CSV_HEADER or len(lines) != SCALAR_STATES + 1:
        rec.errors.append(f"measure printed {len(lines)} lines, expected header + {SCALAR_STATES}")
        return
    fields = [line.split(",") for line in lines[1:]]
    values = np.array([[float(v) for v in row[:-1]] for row in fields])
    separable = np.array([row[-1] == "true" for row in fields])
    expected_values = np.column_stack([table[name] for name in columns[:-1]])
    worst = float(np.abs(values - expected_values).max())
    if worst > SCALAR_TOL or not np.array_equal(separable, table["separable"]):
        rec.errors.append(f"measure_report rows differ from measure_table by {worst:.3e}")


@dataclass(frozen=True)
class Workload:
    name: str
    run: object  # (ctx, rec, index, threads) -> None
    threads: int
    same_inputs: bool  # every pass repeats pass 0's inputs
    min_passes: int  # untraced run
    min_traced_passes: int  # traced run, besides the untraced ones it alternates with
    reference_threads: int = 0  # if set, one untimed pass at this thread count must match


# Why each workload exists is recorded in bench/README.md.  BENCHMARK.json
# gates paper_t1 and scalar_io only; paper_t2 and tiny are run by hand.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_t1", paper_pass, 1, True, 2, 2),
        Workload("paper_t2", paper_pass, 2, True, 1, 1, reference_threads=1),
        Workload("tiny", tiny_pass, 1, False, -(-TINY_MIN_CALLS // len(TINY_SIZES)), 1),
        Workload("scalar_io", scalar_pass, 1, False, 1, 1),
    )
}


# ---------------------------------------------------------------- running


def run_pass(workload: Workload, ctx: Context, index: int, traced: bool, threads=None) -> Pass:
    from spans import SpanStats

    rec = Pass(traced=traced)
    ctx.tracer.active = traced
    try:
        workload.run(ctx, rec, index, threads or workload.threads)
    except Exception as exc:  # a failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        rec.errors.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        ctx.tracer.active = False
    if traced and rec.ok:
        stats = SpanStats(ctx.tracer.spans)
        rec.layers = layer_metrics(stats, rec, threads or workload.threads)
        for name in ("sampler.calls", "sampler.states", "qstate.states"):
            rec.exact[name] = rec.layers[name]
    if traced:
        ctx.tracer.drain(ctx.span_log)
    return rec


def layer_metrics(st, rec: Pass, threads: int) -> dict:
    """Per-layer values for one traced pass."""
    rds = "sampler.random_density_batch"
    run_s = st.total_s("experiment.run_experiment")
    pt_states = st.states["measures.pt_eigenvalues"]
    sampler_states = st.states[rds]
    return {
        "sampler.calls": st.calls[rds],
        "sampler.states": sampler_states,
        "sampler.rng_s": st.total_s("sampler.uniforms"),
        "sampler.subsample_s": st.total_s("sampler.subsample_indices"),
        "sampler.build_s": st.self_s(rds),
        "cmat.eigvalsh_s": st.self_s("cmat.eigvalsh_desc"),
        "cmat.psd_sqrt_s": st.self_s("cmat.psd_sqrt"),
        "cmat.hermiticity_s": st.total_s("cmat.hermiticity_defect"),
        "measures.pt_s": st.total_s("measures.pt_eigenvalues"),
        "measures.pt_states": pt_states,
        "measures.concurrence_s": st.total_s("measures.concurrence_batch"),
        "measures.concurrence_states": st.states["measures.concurrence_batch"],
        "measures.kept_frac": st.states["measures.concurrence_batch"] / pt_states if pt_states else 0.0,
        "measures.report_s": st.total_s("measures.measure_report"),
        "measures.report_calls": st.calls["measures.measure_report"],
        "experiment.run_s": run_s,
        "experiment.self_s": st.self_s("experiment.run_experiment") + st.self_s("experiment.shard"),
        "experiment.shards": st.calls["experiment.shard"],
        "experiment.states_drawn": rec.exact.get("states_drawn", 0),
        "experiment.states_kept": rec.exact.get("states_kept", 0),
        "experiment.ties": rec.exact.get("ties", 0),
        "experiment.useful_frac": rec.exact.get("states_drawn", 0) / sampler_states if sampler_states else 0.0,
        "experiment.write_csvs_s": st.total_s("experiment.write_csvs"),
        "experiment.csv_bytes": rec.exact.get("csv_bytes", 0),
        "experiment.parallel_eff": st.total_s("experiment.shard") / (threads * run_s) if run_s else 0.0,
        "qstate.save_s": st.total_s("qstate.save_states"),
        "qstate.load_s": st.total_s("qstate.load_states"),
        "qstate.validate_s": st.total_s("qstate.validate"),
        "qstate.states": st.calls["qstate.validate"],
        "cli.sample_s": st.total_s("cli.sample"),
        "cli.measure_s": st.total_s("cli.measure"),
        "cli.stdout_bytes": rec.exact.get("stdout_bytes", 0),
    }


def drift(reference: Pass, other: Pass) -> list[str]:
    """Exact counts and digests present in both passes that differ."""
    return [
        f"{key}: {reference.exact[key]} then {other.exact[key]}"
        for key in sorted(reference.exact.keys() & other.exact.keys())
        if reference.exact[key] != other.exact[key]
    ]


def measure(workload: Workload, ctx: Context, seconds: float, trace: bool) -> tuple[list, list]:
    """Closed loop for ``seconds``; returns (timed passes, reference/repeat passes).

    With tracing, passes alternate traced and untraced so that the traced run
    also measures the tracing overhead.
    """
    extra = []
    if workload.reference_threads:
        extra.append(run_pass(workload, ctx, 0, trace, threads=workload.reference_threads))
    passes: list[Pass] = []
    start = time.perf_counter()
    min_passes = max(2 * workload.min_traced_passes - 1, 2) if trace else workload.min_passes
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, ctx, len(passes), trace and len(passes) % 2 == 0))
    if not workload.same_inputs:  # repeat pass 0 to check that its counts repeat exactly
        extra.append(run_pass(workload, ctx, 0, passes[0].traced))
    return passes, extra


def check_repeats(workload: Workload, passes: list, extra: list) -> None:
    """Record drift of exact counts as a failure of the pass that drifted."""
    if workload.reference_threads:
        reference, others = extra[0], passes
    elif workload.same_inputs:
        reference, others = passes[0], passes[1:]
    else:
        reference, others = passes[0], extra
    for rec in others:
        if rec.ok and reference.ok:
            rec.errors += [f"drift {d}" for d in drift(reference, rec)]


def end_to_end(passes: list, setup: list) -> tuple[dict, dict]:
    """Pass time and throughputs are totals over the loop, latencies are percentiles.

    On a shared 2-vCPU VM the same call's time swings by up to 1.6x over
    5-20 s; a median of back-to-back passes jumps between the two speeds, a
    total averages them.
    """
    good = [p for p in passes if p.ok and not p.traced]
    latencies = [x for p in good for x in p.latencies]
    wall = sum(p.wall for p in good)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall / len(good),
        "states_per_s": sum(p.states for p in good) / sum(p.run_s for p in good),
        "rows_per_s": sum(p.rows for p in good) / wall,
        "run_p50_ms": 1e3 * statistics.median(latencies),
        "run_p90_ms": 1e3 * (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                             if len(latencies) > 1 else latencies[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup), "wall_s": len(good), "states_per_s": len(good), "rows_per_s": len(good),
        "run_p50_ms": len(latencies), "run_p90_ms": len(latencies), "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(passes: list) -> tuple[dict, dict]:
    traced = [p for p in passes if p.ok and p.traced]
    plain = [p for p in passes if p.ok and not p.traced]
    values = {}
    for name in traced[0].layers:
        column = [p.layers[name] for p in traced]
        exact = all(isinstance(v, int) for v in column)  # counts stay whole numbers
        values[name] = statistics.median_low(column) if exact else statistics.median(column)
    values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    samples = {name: len(traced) for name in values}
    return values, samples


def measure_setup(workload: str, seed: int, tmpdir: Path) -> list[float]:
    """Seconds to import entlab and make one cold call, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(tmpdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(proc.stdout.splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        deps = {}
    keys = ("name", "version", "openblas configuration")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in keys},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in keys},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entlab" / "__init__.py").is_file():
        print(f"error: no entlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import entlab
    import entlab.cli
    from probe import cold_call
    from spans import SPAN_CSV_HEADER, Tracer

    if Path(entlab.__file__).resolve().parent != (SRC / "entlab").resolve():
        print(f"error: imported entlab from {entlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, tmpdir, ignore_errors=True)
        setup = measure_setup(workload.name, args.seed, tmpdir)
        with contextlib.redirect_stdout(io.StringIO()):  # warm this process before timing
            cold_call(entlab, workload.name, args.seed, tmpdir)
        span_log = None
        if args.trace:
            span_log = stack.enter_context(open(OUT / f"spans-{workload.name}.csv", "w", encoding="ascii"))
            span_log.write(SPAN_CSV_HEADER)
            tracer.install(entlab)
            stack.callback(tracer.uninstall)
        ctx = Context(entlab, tracer, args.seed, tmpdir, span_log)
        passes, extra = measure(workload, ctx, args.seconds, bool(args.trace))
    check_repeats(workload, passes, extra)

    every = passes + extra
    failed = sum(not p.ok for p in every)
    for p in every:
        for err in p.errors:
            print(f"FAIL: {err}", file=sys.stderr)
    correct = failed == 0
    why = next((w["why"] for w in spec["workloads"] if w["name"] == workload.name), "not in BENCHMARK.json")
    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}: {why}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"fail_frac = {failed / len(every):.6g} ratio  ({failed} of {len(every)} operations)")
    metrics = {}
    good = [p for p in passes if p.ok]
    if any(not p.traced for p in good) and (not args.trace or any(p.traced for p in good)):
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        values, samples = per_layer(passes) if args.trace else end_to_end(passes, setup)
        units = {**REPORTED_ONLY, **{m["name"]: m["unit"] for m in wanted}}
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}  (n={samples[name]})")
        for m in wanted:
            if m["name"] not in values:
                print(f"FAIL: metric {m['name']} not produced", file=sys.stderr)
                correct = False
                continue
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        correct = False
    result = {"correct": correct, "attempted": len(every), "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setup_samples=setup, env=env, exact=[p.exact for p in every],
                  passes=[{"traced": p.traced, "wall": p.wall, "latencies": p.latencies} for p in passes])
    with open(OUT / f"result-{workload.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
