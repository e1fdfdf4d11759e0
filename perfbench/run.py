"""The sccckit benchmark: seeded CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {teleport,plain-suites,phase-quotient}
                             --seed N --seconds S --trace {0,1}

Every op is one in-process ``sccckit.cli.main(argv)`` call with ``--json -``,
its stdout captured in memory: the path of ``sccckit verify ...`` and
``sccckit protocol teleport ...``.  Ops run one at a time in a closed loop
with a single client.  The package is imported from ``src/`` next to this
directory, never from an installed copy.  Every op's output is checked (see
``ops.check_output``); a failed op counts in ``failed``.

The seed fixes one op list per run.  ``--trace 0`` runs one untimed warm-up
op, then repeats the op list (a round) until ``--seconds`` have passed, with
set-up probes in fresh interpreters spread over the run, and prints the
end-to-end metrics: medians over rounds and probes, op latency percentiles
over every timed op.  ``--trace 1`` runs the warm-up op, then the op list once under the
per-layer tracer of ``layers.py`` and once untraced, and prints the per-layer
metrics.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
carries details outside the metrics: ``fail_ratio``, the sample counts, the
seconds per suite, the unscaled times and their scale, and a sha256 over the op list's reports in order, which
is fixed for a given seed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed
from ops import WORKLOADS, check_output

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
SUITES = ("sccc", "ortho", "wproj", "born", "prep-state", "equivalence")
MAX_PROBLEMS_SHOWN = 5


def load_sccckit():
    """Import sccckit from the checkout's src/ tree, or exit without a result."""
    if not (SRC / "sccckit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sccckit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sccckit
    if not Path(sccckit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported sccckit from {sccckit.__file__}, not {SRC}")
    from sccckit import cli
    return sccckit, cli


class OpRunner:
    """Runs ops through the CLI entry point, times them and checks their output."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, op, tracer=None) -> tuple[float, float, str]:
        """Run one op; returns its start and end clock readings and its output."""
        buf = io.StringIO()
        argv = list(op.argv)
        code = None
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(self.cli.main, argv)
        except SystemExit as exc:             # argparse refusing the argv
            code = exc.code
        except Exception as exc:              # a crash counts as a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        text = buf.getvalue()
        problems = [error] if error else check_output(op, code, text)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_PROBLEMS_SHOWN:
                print(f"perfbench: op failed: {' '.join(argv)}: "
                      f"{'; '.join(problems[:3])}", file=sys.stderr)
        return start, end, text

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def setup_probe(models) -> float:
    """Seconds from a fresh interpreter to imported sccckit and resolved models."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *models]
    done = subprocess.run(probe, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def suite_seconds(ops, rounds) -> dict:
    """suite.<name>_s for suites in ops: per round, the seconds of that suite's
    ops, then the median over rounds."""
    totals = []
    for seconds in rounds:
        total = Counter()
        for op, s in zip(ops, seconds):
            total[op.suite] += s
        totals.append(total)
    return {f"suite.{s}_s": (statistics.median(t[s] for t in totals), "s")
            for s in SUITES if s in totals[0]}


def timings(rounds, probes) -> dict:
    """The end-to-end times from each round's op seconds and the set-up probes."""
    samples = [s for seconds in rounds for s in seconds]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.median(sum(seconds) for seconds in rounds), "s"),
        "op_ms_p50": (1000 * statistics.median(samples), "ms"),
        "op_ms_p90": (1000 * deciles[8], "ms"),
    }


def run_pass(runner, ops, tracer=None, digest=None) -> tuple[list[float], int]:
    """Run every op once; returns their seconds and the bytes they printed."""
    seconds = []
    json_bytes = 0
    for op in ops:
        start, end, text = runner.run(op, tracer)
        seconds.append(end - start)
        data = text.encode()
        json_bytes += len(data)
        if digest is not None:
            digest.update(data)
    return seconds, json_bytes


def untraced(runner, workload, seed: int, seconds: float, details: dict) -> dict:
    """Repeat the op list for ``seconds``, timing every op.

    ``wall_s`` is the median over rounds of a round's op seconds; the op
    latencies are percentiles over every op of every round.  Every op and
    set-up probe is timed at the nominal host speed of ``hostspeed.HostSpeed``;
    the details line gives the same figures unscaled and the scale applied.
    """
    ops = workload.ops(seed)
    rounds, raw_rounds = [], []
    probes, raw_probes = [], []
    digest = hashlib.sha256()
    with HostSpeed() as host:
        def probe() -> None:
            start = time.perf_counter()
            raw = setup_probe(workload.models)
            raw_probes.append(raw)
            probes.append(raw * host.speed(start, time.perf_counter()))

        probe()
        runner.run(workload.warmup(seed))
        began = time.perf_counter()
        while True:
            scaled, raw_s = [], []
            for op in ops:
                start, end, text = runner.run(op)
                scaled.append(host.normalized(start, end))
                raw_s.append(end - start)
                if not rounds:
                    digest.update(text.encode())
            rounds.append(scaled)
            raw_rounds.append(raw_s)
            elapsed = time.perf_counter() - began
            if elapsed >= seconds:
                break
            if elapsed >= seconds * len(probes) / SETUP_RUNS:
                probe()
        while len(probes) < SETUP_RUNS:
            probe()
        sample_s = host.median_sample_s()
    metrics = timings(rounds, probes)
    raw = {name: value for name, (value, _) in timings(raw_rounds, raw_probes).items()}
    details.update(report_digest=digest.hexdigest(), ops=len(ops), repeats=len(rounds),
                   latency_samples=len(ops) * len(rounds), setup_samples_s=probes,
                   host_sample_median_s=sample_s, raw=raw,
                   scale={name: metrics[name][0] / value for name, value in raw.items()},
                   suite_seconds={k: {"value": v, "unit": u}
                                  for k, (v, u) in suite_seconds(ops, rounds).items()})
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def traced(runner, sccckit, workload, seed: int, details: dict) -> dict:
    """Run the op list once under the tracer, then once untraced."""
    from layers import LayerTracer
    ops = workload.ops(seed)
    runner.run(workload.warmup(seed))
    tracer = LayerTracer(sccckit)
    digest = hashlib.sha256()
    traced_s, json_bytes = run_pass(runner, ops, tracer=tracer, digest=digest)
    plain_s, _ = run_pass(runner, ops)
    details.update(report_digest=digest.hexdigest(), ops=len(ops),
                   traced_s=sum(traced_s), untraced_s=sum(plain_s))
    metrics = tracer.metrics()
    metrics["report.json_bytes"] = (json_bytes, "B")
    metrics["trace.overhead_ratio"] = (sum(traced_s) / sum(plain_s), "ratio")
    metrics.update({f"suite.{s}_s": (0.0, "s") for s in SUITES})
    metrics.update(suite_seconds(ops, [plain_s]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    sccckit, cli = load_sccckit()
    workload = WORKLOADS[args.workload]
    runner = OpRunner(cli)
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics = traced(runner, sccckit, workload, args.seed, details)
    else:
        metrics = untraced(runner, workload, args.seed, args.seconds, details)
    details["fail_ratio"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
