"""Benchmark of burstkin: time to a certified result, end to end and per module.

    python3 perfbench/run.py --workload {survey,solvers,simulate} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a source checkout; burstkin is imported from
``src/`` there and nowhere else, so the command fails (exit 2) in a
directory without the sources.  The benchmark generates the workload's
batch of configs from the seed (see workloads.py), then repeats the
batch through ``burstkin.cli.parse_config``/``run_experiment``/
``run_sweep`` in this one process for about ``--seconds`` seconds, and
at least three times.  Every run's outcome and CSV digest must repeat
exactly from batch to batch, or the benchmark fails with exit code 1.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` first measures the ROADMAP baseline table and one
untraced batch, then installs the span wrappers of tracing.py and
reports per-layer metrics, per traced batch, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
results record with the machine's provenance go to ``.perfbench/``.
"""

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# one BLAS thread: on a 2-CPU machine two threads made a 4096-knot run
# faster but noisier.  numpy is first imported inside main(), after this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_BATCHES = 3        # the fewest batches a run measures, traced runs included
SETUP_PER_BATCH = 2    # fresh processes timed for setup_s after each batch
TAIL_BEYOND = 10       # runs that must lie above the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "result_frac": "frac",
    "contract_frac": "frac",
    "accurate_frac": "frac",
    "peak_rss_mib": "MiB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
    }


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it."""
    return max(0, math.floor(100 * (1 - TAIL_BEYOND / n_samples)))


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


class Workload:
    """One workload's jobs, parsed configs and per-batch results."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        from burstkin.cli import parse_config
        self.jobs = workloads.generate(name, seed, tiny=tiny)
        self.work = work
        self.texts = [(job.text, str(work / f"{i:03d}")) for i, job in enumerate(self.jobs)]
        self.configs = [parse_config(text, {("output", "dir"): out})
                        for text, out in self.texts]
        self.batch_walls: list = []
        self.batch_costs: list = []   # wall plus certification, to plan the window
        self.job_times: list = []     # per batch, per job
        self.outcomes: list = []      # (outcome, accurate or None) per run
        self.reference = None         # signatures of the first batch
        self.mismatches: list = []

    def run_batch(self, tracer=None) -> float:
        from burstkin import cli
        import certify
        # each batch writes into fresh directories, as separate CLI runs
        # would; rewriting the previous batch's files would time ext4's
        # flush-on-truncate instead
        batch_dir = self.work / f"batch{len(self.batch_walls)}"
        configs = [dataclasses.replace(cfg, out_dir=str(batch_dir / f"{i:03d}"))
                   for i, cfg in enumerate(self.configs)]
        outs = [Path(cfg.out_dir) for cfg in configs]
        # garbage left by the previous batch must not count against this one
        gc.collect()
        started = time.perf_counter()
        raw = []
        for job, cfg in zip(self.jobs, configs):
            if tracer is not None:
                tracer.run_id += 1
            summary, outcome = None, "ok"
            t0 = time.perf_counter()
            try:
                if job.sweep:
                    cli.run_sweep(cfg, job.sweep)
                else:
                    summary = cli.run_experiment(cfg)
            except Exception as error:   # every failure is an outcome to count
                # classify now and drop the exception: its traceback would
                # keep the failed run's arrays alive until a cyclic collection
                outcome = certify.classify(error)
            raw.append((time.perf_counter() - t0, summary, outcome))
        wall = time.perf_counter() - started

        if tracer is not None:
            tracer.paused = True
        try:
            signatures = []
            for job, cfg, out, (_, summary, outcome) in zip(
                    self.jobs, configs, outs, raw):
                good = None
                if outcome == "ok" and job.sweep:
                    outcome = certify.sweep_outcome(out)
                if outcome == "ok":
                    scalars = summary.scalars if summary is not None else {}
                    good = certify.accurate(
                        certify.certificates(cfg, scalars, out, sweep=bool(job.sweep)))
                signatures.append((outcome, certify.digest(out) if outcome == "ok" else ""))
                self.outcomes.append((outcome, good))
        finally:
            if tracer is not None:
                tracer.paused = False
        if self.reference is None:
            self.reference = signatures
        else:
            self.mismatches += [f"{job.tag}: {a} then {b}" for job, a, b
                                in zip(self.jobs, self.reference, signatures) if a != b]
        self.batch_walls.append(wall)
        self.batch_costs.append(time.perf_counter() - started)
        self.job_times.append([elapsed for elapsed, _, _ in raw])
        return wall

    @property
    def run_times(self) -> list:
        return [t for batch in self.job_times for t in batch]

    def fill(self, window_start: float, seconds: float, minimum: int, tracer=None,
             between=None) -> int:
        """Run batches to fill the window, at least ``minimum`` of them.

        ``between`` runs after every batch, outside the batch's timing.
        """
        done = 0
        while True:
            self.run_batch(tracer)
            done += 1
            if between is not None:
                between()
            elapsed = time.perf_counter() - window_start
            # stop unless the next batch ends within half a batch of the window
            if done >= minimum and elapsed + 0.5 * statistics.median(self.batch_costs) > seconds:
                return done


class SetupTimer:
    """Seconds for a fresh process to import burstkin, parse the configs and
    build the models.  Probes are spread over the measurement window, a few
    after each batch, so that the median samples the machine at several
    moments rather than in one burst."""

    def __init__(self, wl: Workload, work: Path, per_batch: int):
        path = work / "configs.json"
        path.write_text(json.dumps(wl.texts), encoding="utf-8")
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)]
        self.per_batch = per_batch
        self.times: list = []
        self._probe()   # warm-up: fills the file cache and writes bytecode

    def _probe(self) -> float:
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def sample(self) -> None:
        self.times += [self._probe() for _ in range(self.per_batch)]


def end_to_end(wl: Workload, setup_s: float) -> dict:
    attempted = len(wl.outcomes)
    returned = sum(1 for o, _ in wl.outcomes if o == "ok")
    raw = sum(1 for o, _ in wl.outcomes if o.startswith("raw:"))
    accurate = sum(1 for o, good in wl.outcomes if o == "ok" and good)
    pct = tail_percentile(MIN_BATCHES * len(wl.jobs))
    values = {
        "setup_s": setup_s,
        "batch_s": statistics.median(wl.batch_walls),
        "run_p50_s": statistics.median(wl.run_times),
        "run_tail_s": nearest_rank(wl.run_times, pct),
        "result_frac": returned / attempted,
        "contract_frac": (attempted - raw) / attempted,
        "accurate_frac": accurate / returned if returned else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (float(values[name]), unit) for name, unit in END_TO_END.items()}


def _report(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}} = {value:.6g} {unit}")


def _outcome_lines(wl: Workload) -> None:
    counts: dict = {}
    for outcome, good in wl.outcomes:
        key = outcome if good is not False else "ok:inaccurate"
        counts[key] = counts.get(key, 0) + 1
    attempted = len(wl.outcomes)
    failed = sum(v for k, v in counts.items() if not k.startswith("ok"))
    raw = sum(v for k, v in counts.items() if k.startswith("raw:"))
    returned = attempted - failed
    print("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"  failed_frac = {failed / attempted:.6g}, raw_error_frac = {raw / attempted:.6g}, "
          f"inaccurate_frac = {counts.get('ok:inaccurate', 0) / max(returned, 1):.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every run and repeat; used by the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "burstkin" / "__init__.py").is_file():
        print(f"error: no burstkin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import burstkin
    if Path(burstkin.__file__).resolve().parent != (SRC / "burstkin").resolve():
        print(f"error: burstkin imported from {burstkin.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.environ["BURSTKIN_THREADS"] = str(_nproc())

    load_start = os.getloadavg()
    prov = provenance()
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        work.mkdir()
        wl = Workload(args.workload, args.seed, args.tiny, work)
        print(f"workload {args.workload}, seed {args.seed}, {len(wl.jobs)} jobs per batch, "
              f"trace {args.trace}")
        extra = {}
        if args.trace == 0:
            setup = SetupTimer(wl, work, 1 if args.tiny else SETUP_PER_BATCH)
            batches = wl.fill(time.perf_counter(), args.seconds, MIN_BATCHES,
                              between=setup.sample)
            metrics = end_to_end(wl, statistics.median(setup.times))
            pct = tail_percentile(MIN_BATCHES * len(wl.jobs))
            extra["run_tail"] = f"p{pct} of {len(wl.run_times)} runs"
        else:
            metrics, batches, spans = traced(wl, args, tag)
            extra["spans"] = spans
        load_end = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not wl.mismatches
    failed = sum(1 for o, _ in wl.outcomes if o != "ok")
    print(f"{batches} batches, {len(wl.run_times)} runs; " + ", ".join(
        f"{k} {v}" for k, v in extra.items()))
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in prov.items())
          + f", loadavg start {load_start[0]:.2f}, end {load_end[0]:.2f}")
    _outcome_lines(wl)
    _report("metrics:", metrics)
    for line in wl.mismatches:
        print(f"error: outcome or artifact digest changed between batches: {line}",
              file=sys.stderr)
    result = {"correct": correct, "attempted": len(wl.outcomes), "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  batches=batches, provenance=prov, loadavg_start=load_start,
                  loadavg_end=load_end, mismatches=wl.mismatches,
                  batch_walls=wl.batch_walls, job_times=wl.job_times, **extra)
    (STATE / f"results-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def traced(wl: Workload, args, tag: str):
    """Baseline table, one untraced batch, then traced batches; per-layer metrics."""
    import baseline
    from tracing import Tracer, layer_metrics
    metrics = {}
    base = baseline.measure(tiny=args.tiny)
    started = time.perf_counter()
    untraced = wl.run_batch()

    from burstkin import cli
    tracer = Tracer()
    tracer.install()
    try:
        for text, out in wl.texts:
            cli.parse_config(text, {("output", "dir"): out})
        parse_s = tracer.totals()[0]["cli.parse_config"][1]
        parse_spans = tracer.span_count()
        tracer.reset()
        n = wl.fill(started, args.seconds, MIN_BATCHES - 1, tracer)
    finally:
        tracer.uninstall()
    traced_s = statistics.median(wl.batch_walls[1:])
    metrics.update(layer_metrics(tracer, n, parse_s))
    metrics["trace.batch_s"] = (traced_s, "s")
    metrics["trace.untraced_batch_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    metrics["trace.spans_per_batch"] = ((tracer.span_count() - parse_spans) / n, "count")
    metrics.update(base)
    spans = STATE / f"spans-{tag}.csv"
    tracer.write_spans(spans)
    return metrics, n + 1, str(spans.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
