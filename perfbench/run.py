"""pairsim benchmark: one workload per process, one CLI command per op.

    python3 perfbench/run.py --workload train_simple --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  BLAS is pinned to one thread.  Set-up writes the workload's input
files in fresh processes, several times, and reports the median as
``setup_s``.  One warm-up op then fixes the reference artifacts, and ops run
back to back until ``--seconds`` have passed.  Every op is checked (see
workloads.check_op); a failed check makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops traced by tracing.Tracer, and prints the per-layer
metrics.  Metric names, units and directions come from
BENCHMARK.json.  The last line of stdout is the JSON result; the line before
it holds the run metadata.  Spans and metadata are also written to
``.perfbench-work/<workload>/``.  ``--smoke`` runs toy sizes in about a second.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_OPS = 3
# Shared hosts change speed by up to half within seconds (other tenants).
# A fixed numpy kernel, timed right before and right after each set-up and
# each op, measures the host's speed at that moment; setup_s and
# throughput_per_s scale each time to a host on which the kernel takes
# CAL_REF_S (about its time on an idle 2-core x86-64 VM).  Raw figures go to
# the metadata.
CAL_REF_S = 0.045


def _fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_cli():
    sys.path.insert(0, str(SRC))
    import pairsim.cli

    if not Path(pairsim.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported pairsim from {pairsim.cli.__file__}, not from {SRC}")
    return pairsim.cli


def _quiet(fn, *args):
    """Call fn(*args) with its stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return fn(*args), buf.getvalue()


class Calibration:
    """Times a fixed kernel: small matmuls and transcendentals in a Python
    loop, like a training step, then plain Python parsing and dict updates,
    like the CLI around it.  Its arrays are small, so it leaves peak_rss_mb
    alone."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(32, 64))
        self.w = rng.normal(size=(64, 64)) / 8.0
        self.v = rng.normal(size=8192)
        self.samples = []

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(150):
            np.tanh(self.x @ self.w) @ self.w.T
            np.logaddexp(0.0, 3.0 * self.v).sum()
        counts = {}
        for i in range(30000):
            key = int(float(str(i)) * 1.5) % 1000
            counts[key] = counts.get(key, 0) + 1
        self.samples.append(time.perf_counter() - t0)

    def scaled(self, times):
        """Times (None for an op that raised) taken between the last
        len(times) + 1 kernel runs, each scaled by the mean of the kernel
        runs on its two sides."""
        k = self.samples[-len(times) - 1 :]
        return [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(times, k, k[1:]) if t is not None]


def _timed_setups(args, work, cal):
    times = []
    cal()
    for k in range(1 if args.smoke else SETUP_REPEATS):
        dest = work / f"setup{k}"
        cmd = [sys.executable, __file__, "--setup-only", str(dest),
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            _fail(f"set-up failed:\n{done.stdout}{done.stderr}")
        cal()
    return times, dest


class OpRunner:
    """Runs ops, checks each one, and keeps the tallies."""

    def __init__(self, cli, w, smoke, inputs, work):
        self.cli, self.w, self.smoke = cli, w, smoke
        self.out = str(work / "out")
        self.argv = workloads.op_argv(w, str(inputs), self.out)
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = None
        self.report = None

    def one(self, call):
        """One checked op; ``call(fn)`` runs fn and returns (its result,
        seconds).  Returns the seconds, or None if the op raised."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        try:
            (rc, log), seconds = call(lambda: _quiet(self.cli.main, self.argv))
            problem = f"exit code {rc}: {log.strip()[-300:]}" if rc != 0 else None
        except Exception as exc:  # an op that raises is a failed op
            seconds, problem = None, f"{type(exc).__name__}: {exc}"
        if problem is None:
            hashes, report, problem = workloads.check_op(self.w, self.smoke, self.out, self.reference)
            if self.reference is None:
                self.reference, self.report = hashes, report
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
        return seconds

    def loop(self, calls, seconds, between=lambda: None):
        """Runs ops with each of `calls` in turn until `seconds` have passed.

        Returns one list of op times per call, None for an op that raised.
        between() runs before the first op and after each one.
        """
        times = [[] for _ in calls]
        deadline = time.perf_counter() + seconds
        between()
        while (min(len(t) - t.count(None) for t in times) < MIN_OPS
               or time.perf_counter() < deadline):
            for call, t in zip(calls, times):
                t.append(self.one(call))
                between()
            if self.failed > 2 * MIN_OPS:
                break
        return times


def _untraced(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _layer_metrics(tracer, untraced, traced, per_op, report):
    """Per-layer metrics: times in ms per `per_op` unit (step or op)."""
    import tracing

    n = len(traced) * per_op
    self_s = tracer.self_times()
    total = tracer.root_seconds()
    if abs(sum(self_s.values()) - total) > 1e-9 * max(1.0, total):
        raise RuntimeError("self times do not add up to the traced op time")
    names = {tracing.ROOT} | {b[2] for b in tracing.BOUNDARIES}
    own = {tracing.ROOT: "cli.self_ms", "trainer": "trainer.self_ms"}
    m = {own.get(s, f"{s}_ms"): 1e3 * self_s.get(s, 0.0) / n for s in names}
    pairs = tracer.counts["pair_queue.pairs"]
    m.update({
        "encoder.forward_calls": tracer.calls["encoder.forward"] / n,
        "baselines.ce_calls": tracer.calls["baselines.ce"] / n,
        "similarity.score_matrix_calls": tracer.calls["similarity.score_matrix"] / n,
        "pair_queue.pairs_per_step": pairs / n,
        "pair_queue.pos_pair_ratio": tracer.counts["pair_queue.pos_pairs"] / pairs if pairs else 0.0,
        "evaluation.clusters": tracer.counts["evaluation.clusters"],
        "evaluation.cluster_peak_mb": tracer.peak_bytes["evaluation.cluster"] / 2**20,
        "evaluation.audit_peak_mb": tracer.peak_bytes["evaluation.audit"] / 2**20,
        "trace.op_ms": 1e3 * total / n,
        "trace.untraced_op_ms": 1e3 * sum(untraced) / (len(untraced) * per_op),
        "quality.eer": report["eer"],
        "quality.margin": report["desideratum_margin"],
    })
    m["trace.overhead_ratio"] = m["trace.op_ms"] / m["trace.untraced_op_ms"]
    return m


def _metadata(args, runner, n_timed):
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    src_files = sorted(SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "timed_ops": n_timed,
        "git_sha": sha, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "src_modules": len(src_files),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "problems": runner.problems[:5],
    }


def _declared(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    w = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cal = Calibration()
    setup_times, inputs = _timed_setups(args, work, cal)
    setup_scaled = cal.scaled(setup_times)
    cli = _import_cli()
    runner = OpRunner(cli, w, args.smoke, inputs, work)
    runner.one(_untraced)  # warm-up; fixes the reference artifacts
    if runner.failed:
        _fail(f"warm-up op failed: {runner.problems[0]}")
    per_op = workloads.steps_per_op(runner.out) if w.command == "train" else 1
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

        def traced_op(fn):
            tracer.install()
            try:
                return tracer.run_op(runner.attempted, fn)
            finally:
                tracer.restore()

        # untraced and traced ops alternate, so host drift hits both alike
        untraced, traced = (
            [t for t in ts if t is not None]
            for ts in runner.loop([_untraced, traced_op], args.seconds)
        )
        tracer.write(work / "spans.jsonl")
        values = _layer_metrics(tracer, untraced, traced, per_op, runner.report)
        n_timed = len(untraced) + len(traced)
    else:
        (times,) = runner.loop([_untraced], args.seconds, between=cal)
        items = per_op if w.command == "train" else workloads.eval_rows(inputs)
        ok_times = [t for t in times if t is not None]
        raw = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": items / statistics.median(ok_times),
        }
        values = {
            "setup_s": statistics.median(setup_scaled),
            "throughput_per_s": items / statistics.median(cal.scaled(times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        n_timed = len(ok_times)
    declared = _declared(args.trace)
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} are not "
                           "both measured and declared in BENCHMARK.json")
    meta = _metadata(args, runner, n_timed)
    if args.trace:
        meta["unwrapped"] = tracer.missing
    else:
        meta["raw"] = raw
        meta["op_seconds"] = times
        meta["calibration_seconds"] = cal.samples
    with open(work / "meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    for name in sorted(values):
        d = declared[name]
        print(f"{name} = {values[name]!r} {d['unit']} ({d['better']} is better)")
    print(f"correct = {runner.failed == 0}: {runner.failed} of {runner.attempted} ops "
          f"failed (failed_ratio {runner.failed / runner.attempted!r})")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in values.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one set-up")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "pairsim" / "cli.py").is_file():
        _fail(f"no pairsim sources under {SRC}; run from a source checkout")
    if args.setup_only:
        cli = _import_cli()
        w = workloads.WORKLOADS[args.workload]
        workloads.setup(w, args.seed, args.smoke, args.setup_only, cli.main)
        return
    run(args)


if __name__ == "__main__":
    main()
