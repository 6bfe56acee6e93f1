"""infochain benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload binary-verify --seed 1001 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it give each metric with its sample
count and the machine it ran on.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` spends half the time untraced and then replays the same
operations with a span around every call into the package, and reports the
per-layer metrics.  Results and spans are also written to ``.perfbench/``.
See README.md in this directory for the workloads and metrics.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("binary-verify", "uniform-verify", "design", "cli-session")
SETUP_RUNS = 10       # set-up is measured this many times a run; the median is reported
CALIB_RUNS = 5
PROBE_TIMEOUT_S = 120
SHOWN_FAILURES = 5


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1001,
                        help="input seed (default 1001: the acceptance suite's 1001 binary and "
                             "3003 uniform games)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python loop: the speed of this box,
    reported beside the results and never used to scale them."""
    times = []
    for _ in range(CALIB_RUNS):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from importlib import metadata

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "calib_ms": calibrate(),
    }


def setup_probe(args) -> int:
    """Child side of a set-up measurement: import, draw the inputs, exit."""
    started = time.perf_counter()
    import infochain.cli  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload].prepare(args.seed)
    print(json.dumps({"t0": T0, "import": [started, imported]}))
    return 0


class SetupProbes:
    """Set-up, measured `SETUP_RUNS` times a run: seconds from spawning a
    fresh interpreter to its exit after importing the package and drawing the
    workload's inputs.  The probes are spread evenly through the measured
    window, between operations, so that their median sees the same machine
    as the operations do."""

    def __init__(self, args, tracer) -> None:
        self.command = [sys.executable, str(Path(__file__).resolve()), "--workload",
                        args.workload, "--seed", str(args.seed), "--setup-probe"]
        self.tracer = tracer
        self.samples: list[float] = []
        self.due: list[float] = []

    def spread(self, start: float, end: float) -> None:
        self.due = [start + (end - start) * k / SETUP_RUNS for k in range(SETUP_RUNS)]

    def run_due(self, now: float | None = None) -> float:
        """Run the probes due by `now` (all that are left if None); return
        the seconds they took."""
        spent = 0.0
        while self.due and (now is None or self.due[0] <= now):
            self.due.pop(0)
            spent += self.probe()
        return spent

    def probe(self) -> float:
        start = time.perf_counter()
        proc = subprocess.run(self.command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        self.samples.append(seconds)
        if self.tracer is not None:
            child = json.loads(proc.stdout.splitlines()[-1])
            self.tracer.op = spans.SETUP
            self.tracer.add("cli.python_start", start, child["t0"])
            self.tracer.add("cli.import", *child["import"])
        return seconds


def run_ops(op, inputs, ctx, *, deadline=None, count=None, tracer=None, setup=None):
    """Closed loop over `inputs` (cycled): the next operation starts when the
    previous one returns.  Stops after `count` operations or at the first
    return past `deadline`.  With `setup`, its probes are spread over the
    time to `deadline` and run between operations; their time is left out of
    the wall seconds.  Returns ([(seconds, status)], wall seconds)."""
    results = []
    shown = 0
    start = time.perf_counter()
    probing = 0.0
    if setup is not None:
        setup.spread(start, deadline)
    while True:
        k = len(results)
        item = inputs[k % len(inputs)]
        if setup is not None:
            probing += setup.run_due(time.perf_counter())
        began = time.perf_counter()
        try:
            if tracer is None:
                status = op(item, ctx)
            else:
                tracer.op = k
                with tracer.span("op"):
                    status = op(item, ctx)
        except Exception as e:  # noqa: BLE001 - a failed operation is a result
            status = "failed"
            if shown < SHOWN_FAILURES:
                shown += 1
                print(f"operation {k} failed: {type(e).__name__}: {e}", file=sys.stderr)
        ended = time.perf_counter()
        results.append((ended - began, status))
        if count is not None and len(results) >= count:
            break
        if deadline is not None and ended >= deadline:
            break
    wall = time.perf_counter() - start - probing
    if setup is not None:
        setup.run_due()
    return results, wall


def tally(results) -> dict:
    statuses = [status for _, status in results]
    return {s: statuses.count(s) for s in ("ok", "refused", "failed")}


def percentile_ms(samples: list[tuple[float, float]], q: int) -> float:
    """Lowest (seconds, weight) sample at which the cumulative weight reaches q%."""
    samples = sorted(samples)
    total = sum(weight for _, weight in samples)
    reached = 0.0
    for seconds, weight in samples:
        reached += weight
        if reached >= total * q / 100:
            break
    return seconds * 1000


def latency_samples(results, round_length) -> list[tuple[float, float]]:
    """Verified operations with weights that give every slot of a round of
    the input schedule the same total weight.  A run that stops partway
    through a round would otherwise over-weight the slots it reached twice,
    and how far it gets depends on the speed of the machine."""
    slots = [k % round_length for k in range(len(results))]
    attempts = {slot: slots.count(slot) for slot in set(slots)}
    samples = [(seconds, 1 / attempts[slot])
               for (seconds, status), slot in zip(results, slots) if status == "ok"]
    return samples or [(seconds, 1.0) for seconds, _ in results]


def end_to_end(results, wall, setup, round_length, ctx) -> dict:
    n = tally(results)
    done = latency_samples(results, round_length)
    beyond = len(done) - int(0.9 * len(done))
    if ctx.child_peak_kb:
        peak_kb, peak_of = ctx.child_peak_kb, "largest CLI process"
    else:
        peak_kb, peak_of = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "workload process"
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        "ops_per_s": (n["ok"] / wall, "1/s", f"{n['ok']} verified operations / {wall:.2f} s"),
        "op_p50_ms": (percentile_ms(done, 50), "ms", f"over {len(done)} verified operations"),
        "op_p90_ms": (percentile_ms(done, 90), "ms",
                      f"over {len(done)} verified operations, {beyond} beyond"),
        "peak_rss_mb": (peak_kb / 1024, "MB", f"ru_maxrss of the {peak_of}"),
        "verified_share": (n["ok"] / len(results), "ratio",
                           f"failed_share {1 - n['ok'] / len(results):.4f}: {n['failed']} failed "
                           f"+ {n['refused']} refused of {len(results)}"),
    }


def per_layer(tracer, ctx, untraced, untraced_wall, traced, traced_wall, env) -> dict:
    measured = set(range(len(traced)))
    op_seconds = sum(s for s, _ in traced)
    layers = spans.layer_metrics(tracer.spans, measured, op_seconds)
    inside = spans.layer_self_seconds(tracer.spans, measured)
    untraced_seconds = sum(s for s, _ in untraced)
    requests = ctx.grid_hits + round(layers["oracle.build_grid.calls"] * len(traced))
    counts = {
        "oracle.grid.cache_hit_share": (ctx.grid_hits / requests if requests else 0.0, "ratio"),
        "trace.ops": (len(traced), "count"),
        "trace.overhead_ops_per_s": (tally(traced)["ok"] / traced_wall
                                     - tally(untraced)["ok"] / untraced_wall, "1/s"),
        "trace.untraced_op_ms": (untraced_seconds / len(untraced) * 1000, "ms"),
        "trace.traced_op_ms": (op_seconds / len(traced) * 1000, "ms"),
        "trace.layer_op_ms": (inside / len(traced) * 1000, "ms"),
        "trace.accounted_share": ((inside - (op_seconds - untraced_seconds)) / untraced_seconds,
                                  "ratio"),
        "env.calib_ms": (env["calib_ms"], "ms"),
    }
    metrics = {}
    for name, value in layers.items():
        unit = "ms" if name.endswith(".ms") else "ratio" if name.endswith("_share") else "count"
        metrics[name] = (value, unit, "")
    for name, (value, unit) in counts.items():
        metrics[name] = (value, unit, "")
    return metrics


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "infochain" / "__init__.py").is_file():
        print(f"error: no infochain sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    env = environment()
    tracer = spans.Tracer() if args.trace else None
    setup = SetupProbes(args, tracer)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    run_ops(workload.op, inputs, workloads.Context(), count=1)  # warm-up, not measured
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced_ctx = workloads.Context()
    untraced, wall = run_ops(workload.op, inputs, untraced_ctx,
                             deadline=time.perf_counter() + budget, setup=setup)
    results = list(untraced)

    if args.trace:
        ctx = workloads.Context(tracer)
        with spans.patched(tracer):
            tracer.op = spans.CENSUS
            for name, item in workloads.census_inputs():
                census, _ = run_ops(workloads.WORKLOADS[name].op, [item], workloads.Context(tracer),
                                    count=1)
                results += census
            traced, traced_wall = run_ops(workload.op, inputs, ctx, count=len(untraced),
                                          tracer=tracer)
        results += traced
        metrics = per_layer(tracer, ctx, untraced, wall, traced, traced_wall, env)
    else:
        metrics = end_to_end(untraced, wall, setup.samples, workload.round or len(inputs),
                             untraced_ctx)

    n = tally(results)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(results)} attempted, "
          f"{n['ok']} verified, {n['refused']} refused, {n['failed']} failed; "
          f"one client, closed loop, {wall:.2f} s measured")
    for name, (value, unit, note) in metrics.items():
        if args.trace and name.endswith(".calls") and value == 0:
            continue  # a layer this workload does not reach
        print(f"  {name:<48} {value:>14.4f} {unit:<6} {note}")
    print(f"env: {json.dumps(env)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": n["failed"] == 0,
        "attempted": len(results),
        "failed": n["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "refused": n["refused"], "setup_samples_s": setup.samples, "env": env,
         "operations": [[round(seconds, 6), status] for seconds, status in untraced]},
        indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "op", "error", "work"), s))
             for s in tracer.spans]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
