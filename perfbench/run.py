"""commcalc benchmark: one closed-loop client driving the commcalc CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decide-powerlog --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` runs whole rounds of the workload for about ``--seconds``
seconds and reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs a fixed
document set of the workload with every layer function wrapped, and
reports the per-layer metrics (calls, self time, counts, ratios) plus the
tracing overhead against an untraced pass over matched documents.

The program is imported from ``src/`` of the checkout.  The last line of
stdout is the result object; the line before it holds the details
(environment, sample counts, failures, output digest).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, SRC)

# one BLAS thread: a single closed-loop client on small matrices
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import environment  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-ups in child processes, before and after the timed loop so that they
# sample the machine at different times; with the run's own set-up, the
# median of the four is setup_s.  Children, because importing commcalc
# (numpy, scipy) can be timed only once per interpreter.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 1, 2
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit 2."""


def setup(name, seed, workdir):
    """Import commcalc, generate the first round, and run one untimed
    warm-up query per command the workload uses."""
    if not os.path.isfile(os.path.join(SRC, "commcalc", "__init__.py")):
        raise BenchError("no commcalc sources under %s" % SRC)
    runner = harness.Runner(workdir)
    import commcalc

    if not os.path.abspath(commcalc.__file__).startswith(SRC + os.sep):
        raise BenchError("commcalc imported from %s, not from %s"
                         % (commcalc.__file__, SRC))
    w = workloads.WORKLOADS[name]
    stream = workloads.rounds(name, seed)
    first = next(stream)
    warm = workloads.warmup_queries()
    for cmd in w.commands:
        q = warm[cmd]
        res = harness.check(q, runner.run(q), {})
        if res.rc is None:
            raise BenchError("warm-up %s raised %s" % (cmd, res.error))
    return runner, first, stream


def measure_setup(name, seed, n):
    """Set up n times in fresh child processes; return the times."""
    times = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: %s"
                             % proc.stderr.strip()[-500:])
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def timed_run(runner, first, stream, seconds):
    """Closed loop over whole rounds, ending on the round boundary nearest
    to ``seconds`` of wall time; returns the results, the digest of the
    first round's reports, the busy time, the elapsed time and the number
    of rounds.  Busy time, the sum of the query latencies, is what
    queries_per_s divides by: it leaves out the benchmark's own document
    writes and answer checks between queries.  Reports are dropped once
    checked, so the benchmark's memory does not grow with throughput."""
    results, by_id, digest = [], {}, harness.Digest()
    start = time.perf_counter()
    batch, rounds = first, 0
    while True:
        for q in batch:
            res = harness.check(q, runner.run(q), by_id)
            if rounds == 0:
                digest.add(res)
            res.output = None
            results.append(res)
            by_id[q.qid] = res
        rounds += 1
        elapsed = time.perf_counter() - start
        # stop when less than half a mean round is left
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
        batch = next(stream)
    return (results, digest, sum(r.latency for r in results), elapsed,
            rounds)


def traced_run(name, seed, runner):
    """Fixed documents: rounds 0..R-1 traced, interleaved
    round by round with untraced rounds that share the traced round's
    schedule index (so the same cost parameters, slot for slot) but draw
    their values from another seed, so that the overhead compares like
    with like, no document repeats, and counts repeat exactly."""
    w = workloads.WORKLOADS[name]
    rec = tracing.Recorder()
    inst = tracing.Instrumentation(rec)
    qspan = rec.intern(tracing.QUERY_SPAN)
    traced, plain, by_id = [], [], {}
    digest = harness.Digest()
    traced_busy = plain_busy = 0.0

    def run(q, traced_pass):
        if traced_pass:
            rec.current_query = len(traced)
            inst.install()
            idx = rec.open(qspan)
            try:
                res = runner.run(q)
            finally:
                rec.close(idx)
                inst.remove()
        else:
            res = runner.run(q)
        res = harness.check(q, res, by_id)
        if traced_pass:
            digest.add(res)
            rec.add("decfun.quad_warnings", res.quad_warnings)
            if q.command != "shoda":
                rec.add("cli.report_bytes", len(res.output))
        res.output = None
        by_id[q.qid] = res
        (traced if traced_pass else plain).append(res)
        return res.latency

    for k in range(w.trace_rounds):
        rng = workloads.round_rng(name, seed, 100000 + k)
        for q in w.round(rng, k, "u"):
            plain_busy += run(q, False)
        for q in w.round(workloads.round_rng(name, seed, k), k):
            traced_busy += run(q, True)
    return rec, digest, traced, plain, traced_busy, plain_busy


def layer_metrics(rec, overhead):
    table = rec.layer_table()
    m = {}
    for _, _, name in tracing.LAYERS + (("", "", tracing.QUERY_SPAN),):
        calls, self_s, _ = table.get(name, (0, 0.0, 0.0))
        m[name + ".calls"] = (calls, "count")
        m[name + ".self_s"] = (self_s, "s")
    for name in tracing.COUNTS:
        m[name] = (rec.counts[name], "count")
    for name, num, den in tracing.RATIOS:
        d = m[den][0]
        m[name] = (rec.counts[num] / d if d else 0.0, "ratio")
    m["bench.query.wall_s"] = (table[tracing.QUERY_SPAN][2], "s")
    m["bench.trace_overhead_frac"] = (overhead, "ratio")
    return m


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(metrics):
    for name, (value, unit) in metrics.items():
        print("  %-44s %16.6g %s" % (name, value, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    name, seed = args.workload, args.seed
    tag = "%s-%d-%d" % (name, seed, os.getpid())
    workdir = os.path.join(WORK, tag)
    try:
        return _run(args, name, seed, workdir)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        _clean(workdir)


def _run(args, name, seed, workdir):
    if args.setup_only:
        t0 = time.perf_counter()
        setup(name, seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    t0 = time.perf_counter()
    runner, first, stream = setup(name, seed, workdir)
    setup_samples = [time.perf_counter() - t0]
    if args.trace == 0:
        setup_samples += measure_setup(name, seed, SETUP_PROBES_BEFORE)
    details = {"workload": name, "seed": seed, "trace": args.trace,
               "environment": environment.capture(ROOT, SRC, BLAS_THREADS)}
    if args.trace == 0:
        results, metrics = _timed(args, runner, first, stream,
                                  setup_samples, details)
    else:
        results, metrics = _traced(name, seed, runner, details)
    failures = [{"qid": r.qid, "reason": r.failure}
                for r in results if r.failure]
    details["failures"] = failures[:50]
    wrong = sum(1 for r in results if r.wrong)
    print("%s seed=%d trace=%d: %d queries, %d failed, %d wrong answers"
          % (name, seed, args.trace, len(results), len(failures), wrong))
    print_table(metrics)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0, "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def _timed(args, runner, first, stream, setup_samples, details):
    name, seed = args.workload, args.seed
    results, digest, busy, elapsed, rounds = timed_run(
        runner, first, stream, args.seconds)
    setup_samples += measure_setup(name, seed, SETUP_PROBES_AFTER)
    s = harness.summarize(results, busy, elapsed)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "query_p50_ms": (s["query_p50_ms"], "ms"),
        "query_p90_ms": (s["query_p90_ms"], "ms"),
        "queries_per_s": (s["queries_per_s"], "1/s"),
        "answered_frac": (s["answered_frac"], "ratio"),
        "decided_frac": (s["decided_frac"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details.update(
        seconds=args.seconds, elapsed_s=elapsed, busy_s=busy, rounds=rounds,
        setup_samples_s=setup_samples, summary=s,
        digest=digest.report())
    return results, metrics


def _traced(name, seed, runner, details):
    rec, digest, traced, plain, tbusy, pbusy = traced_run(name, seed, runner)
    metrics = layer_metrics(rec, tbusy / pbusy - 1.0)
    os.makedirs(WORK, exist_ok=True)
    rec.dump(os.path.join(WORK, "spans-%s.npz" % name))
    details.update(summary=harness.summarize(traced, tbusy, tbusy),
                   spans=len(rec.start), untraced_queries=len(plain),
                   traced_busy_s=tbusy, untraced_busy_s=pbusy,
                   digest=digest.report())
    return traced + plain, metrics


def _clean(workdir):
    import shutil

    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
