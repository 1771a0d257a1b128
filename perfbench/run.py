"""Run one workload of the benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from its
``src`` directory, never from an installed copy.  One client runs one
operation at a time (a closed loop) over the seed's fixed instance set, in
whole passes, until ``--seconds`` have passed and at least ``MIN_PASSES``
passes were made.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with times scaled to a fixed machine speed (see ``speed``); with
``--trace 1`` it reports per-layer metrics from the outside-in tracer
(per traced pass, set-up included).  Progress, the per-class latencies,
the output digest and any failing instance go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

MIN_PASSES = 2
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.speed import Clock  # noqa: E402


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def quantile(values, q, steps=20):
    """Harrell-Davis estimate of the ``q`` quantile: a weighted mean of all
    order statistics, rank i weighing the Beta((n+1)q, (n+1)(1-q)) mass on
    [(i-1)/n, i/n] (midpoint rule, ``steps`` points per rank).

    Per-instance latencies cluster by instance class with gaps between the
    clusters; a single order statistic jumps across a gap when a seed moves
    one instance past the rank, where this estimate moves a little.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [[(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
             for t in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_pass(ops, clock=None):
    """Time each operation once: [(name, scaled seconds, result, wall
    seconds)].  An exception is the operation's result."""
    clock = clock or Clock()
    marks = []
    for name, fn in ops:
        clock.tick()
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # the package's answer, judged by check()
            res = exc
        marks.append((name, t0, time.perf_counter(), res))
    clock.probe()
    return [(name, clock.scaled(t0, t1), res, t1 - t0) for name, t0, t1, res in marks]


def import_seconds(clock, reps=5):
    """Median scaled time a fresh interpreter takes to import the package."""
    code = ("import time; t = time.perf_counter(); import coxdescent; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(reps):
        scaled, wall, proc = clock.run(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60))
        out.append(float(proc.stdout) * scaled / wall)
    return statistics.median(out)


def timed_setup(wl, clock):
    dt, _, state = clock.run(wl.setup)
    return dt, state


class Verdicts:
    """Judges each pass as it ends, so no result outlives its pass.

    The first pass's results are checked against the known answers; every
    later pass must reproduce the first one's canonical text exactly.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first = None
        self.texts = {}
        self.seen = {}
        self.bad = {}
        self.digest = None

    def add(self, results):
        if self.first is None:
            self.first = results
            self.texts = {name: self.wl.canon(res) for name, _, res, _ in results}
            text = "".join("%s\t%s\n" % (name, self.texts[name]) for name, *_ in results)
            self.digest = hashlib.sha256(text.encode()).hexdigest()
        else:
            for name, _, res, _ in results:
                if name not in self.bad and self.wl.canon(res) != self.texts[name]:
                    self.bad[name] = "output differs between passes"
        for name, *_ in results:
            self.seen[name] = self.seen.get(name, 0) + 1

    def finish(self):
        """Check the first pass; return (failed op count, attempted)."""
        for name, _, res, _ in self.first:
            why = self.wl.check(name, res)
            if why:
                self.bad.setdefault(name, why)
        self.first = []
        for name, why in sorted(self.bad.items()):
            log("FAILED %s: %s" % (name, why))
        failed = sum(self.seen[name] for name in self.bad)
        count = sum(self.seen.values())
        log("%s: digest %s, failed_ratio %.4f (%d of %d)"
            % (self.wl.name, self.digest, failed / count, failed, count))
        return failed, count


def measure(wl, seconds):
    """End-to-end metrics over the instance set, in scaled seconds.

    Each instance's latency is the median of its runs in this run, each run
    scaled to the reference machine speed (see ``speed``).  Throughput and
    percentiles are then taken over the instances, so the sample count is
    the instance count (at least 100).
    """
    clock = Clock()
    # set-up runs before and after the timed loop, so its median spans the
    # machine states the run met
    before = wl.setup_reps // 2 + 1
    times = []
    for _ in range(before):
        state = None
        t, state = timed_setup(wl, clock)
        times.append(t)
    ops = wl.ops(state)
    verdicts = Verdicts(wl)
    runs, walls = {}, {}
    passes = 0
    t_start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t_start < seconds:
        results = run_pass(ops, clock)
        verdicts.add(results)
        for name, dt, _, wall in results:
            runs.setdefault(name, []).append(dt)
            walls.setdefault(name, []).append(wall)
        passes += 1
        del results
    del ops, state
    times += [timed_setup(wl, clock)[0] for _ in range(wl.setup_reps - before)]
    setup_s = statistics.median(times)
    if wl.name != "cli":   # the CLI's set-up process imports the package itself
        setup_s += import_seconds(clock)
    if wl.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latency = {name: statistics.median(dts) for name, dts in runs.items()}
    by_class = {}
    for name, dt in latency.items():
        by_class.setdefault(name.rsplit(".", 1)[0], []).append(dt)
    for cls, vals in sorted(by_class.items(), key=lambda kv: -statistics.median(kv[1])):
        log("  %-40s n=%-3d median %.4f s" % (cls, len(vals), statistics.median(vals)))
    lat = list(latency.values())
    wall = sum(statistics.median(dts) for dts in walls.values())
    log("%s: %d passes, %d instances (samples), %d probes; ops_per_s %.4g scaled, "
        "%.4g by wall time" % (wl.name, passes, len(lat), len(clock.probes),
                               len(lat) / sum(lat), len(lat) / wall))
    failed, count = verdicts.finish()
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (quantile(lat, 0.5), "s"),
        "op_p90_s": (quantile(lat, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return failed, count, metrics


def measure_traced(wl, seconds):
    """Per-layer metrics, per traced pass with its set-up.

    A pass sets up twice, once traced, then runs each operation on both
    states back to back, untraced and traced, the order flipping from pass
    to pass, so the machine's drifting speed meets both sides alike.  The
    overhead is the pass's traced minus untraced wall time (median over
    passes).
    """
    from perfbench.tracer import Tracer, merge

    tracer = Tracer()
    sink = []                   # summaries reported by traced CLI processes
    summaries, overheads, import_s = [], [], []
    verdicts = Verdicts(wl)

    def timed(fn, traced):
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # the package's answer, judged by check()
            res = exc
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        return dt, res

    t_start = time.perf_counter()
    while not overheads or time.perf_counter() - t_start < seconds:
        order = (False, True) if len(overheads) % 2 == 0 else (True, False)
        wall = {False: 0.0, True: 0.0}
        states = {}
        for traced in order:
            dt, states[traced] = timed(wl.setup, traced)
            wall[traced] += dt
        plain_ops = wl.ops(states[False])
        traced_ops = wl.ops(states[True], traced=sink)
        results = {False: [], True: []}
        for pair in zip(plain_ops, traced_ops):
            for traced in order:
                name, fn = pair[traced]
                dt, res = timed(fn, traced)
                wall[traced] += dt
                results[traced].append((name, dt, res, dt))
        verdicts.add(results[False])
        verdicts.add(results[True])
        del states, plain_ops, traced_ops, results
        summaries.append(tracer.summary())
        tracer.clear()
        for child in sink:
            summaries.append(child["summary"])
            import_s.append(child["import_s"])
        sink.clear()
        overheads.append(wall[True] - wall[False])
    n = len(overheads)
    log("%s: %d traced passes" % (wl.name, n))
    total = merge(summaries)
    failed, count = verdicts.finish()
    metrics = {}
    for label, rec in total["labels"].items():
        metrics[label + ".calls"] = (rec["calls"] / n, "count")
        metrics[label + ".self_s"] = (rec["self_s"] / n, "s")
        metrics[label + ".total_s"] = (rec["total_s"] / n, "s")
    c = total["counts"]
    metrics["groebner.saturate.singles_per_gen"] = (
        c["singles_in_saturate"] / c["saturate_gens"] if c["saturate_gens"] else 0.0, "ratio")
    metrics["groebner.saturate.intersect_per_single"] = (
        c["intersects_in_saturate"] / c["singles_in_saturate"]
        if c["singles_in_saturate"] else 0.0, "ratio")
    metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return failed, count, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coxdescent", "__init__.py")):
        log("no package source at %s; run from a checkout of the repository" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import coxdescent
    if os.path.dirname(os.path.dirname(os.path.abspath(coxdescent.__file__))) != SRC:
        log("coxdescent was imported from %s, not from %s" % (coxdescent.__file__, SRC))
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        wl = WORKLOADS[args.workload](coxdescent, args.seed, workdir)
        if args.trace:
            failed, count, metrics = measure_traced(wl, args.seconds)
        else:
            failed, count, metrics = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": count,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
