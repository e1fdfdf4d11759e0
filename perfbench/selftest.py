"""Self-tests of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. Negative control: captured reports are tampered with (one status flipped,
   one check dropped, one teleport probability perturbed, one echoed field
   changed) and fed
   back through the benchmark's op accounting; each tampered op must count
   as failed, so ``fail_ratio`` rises above 0.
2. Exact counts: the traced run of each workload is made twice with seed
   ``SEED``, in two fresh interpreters, and every per-layer count and ratio
   (every metric but times and the trace overhead) must be identical, as
   must the report digest.

Exits 0 when every test passes.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from ops import WORKLOADS, teleport_op, verify_op
from run import OpRunner, load_sccckit

BENCH_DIR = Path(__file__).resolve().parent
TRACED_RUN_TIMEOUT_S = 600
SEED = 7


class CannedCli:
    """Stands in for sccckit.cli: prints a fixed report and exits 0."""

    def __init__(self, text: str) -> None:
        self.text = text

    def main(self, argv) -> int:
        sys.stdout.write(self.text)
        return 0


def _tampered(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _flip_first_pass(report):
    first = next(r for r in report["results"] if r["status"] == "pass")
    first["status"] = "fail"
    first["witness"] = {"note": "tampered"}


def _pass_expected_fail(report):
    next(r for r in report["results"] if r["status"] == "expected-fail")["status"] = "pass"


def _drop_last_pass(report):
    """Drops the last passing check: on teleport, probability-conservation,
    which no other check covers."""
    passed = [r for r in report["results"] if r["status"] == "pass"]
    report["results"].remove(passed[-1])


def _perturb_probability(report):
    branch = next(r for r in report["results"] if r["check_name"] == "branch-0")
    branch["witness"]["probability"] *= 1 + 1e-6


def _shift_seed(report):
    report["seed"] += 1


def negative_control(cli) -> list[str]:
    ops = [teleport_op(0.6 - 0.2j, 0.3 + 0.7j, 11),
           verify_op("equivalence", "wproj:fdhilb", 12)]
    captured = []
    honest = OpRunner(cli)
    for op in ops:
        captured.append((op, honest.run(op)[2]))
    problems = []
    if honest.failed:
        problems.append(f"untampered ops failed: {honest.failed} of {honest.attempted}")

    tampers = [("status pass->fail", _flip_first_pass, None),
               ("status expected-fail->pass", _pass_expected_fail, None),
               ("one passing check dropped", _drop_last_pass, None),
               ("teleport probability x(1+1e-6)", _perturb_probability, "teleport"),
               ("echoed seed", _shift_seed, None)]
    for label, edit, only_suite in tampers:
        for op, text in captured:
            if only_suite is not None and op.suite != only_suite:
                continue
            runner = OpRunner(CannedCli(text))
            runner.run(op)
            runner.cli = CannedCli(_tampered(text, edit))
            runner.run(op)
            ratio = runner.failed / runner.attempted
            verdict = "ok" if ratio == 0.5 else "MISSED"
            print(f"negative control [{op.suite}] {label}: fail_ratio 0 -> {ratio} {verdict}")
            if ratio != 0.5:
                problems.append(f"tampering '{label}' on {op.suite} went unnoticed")
    return problems


def traced_counts(workload: str, seed: int) -> tuple[dict, str]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, check=False,
                          timeout=TRACED_RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"traced run failed: {done.stderr.strip()}")
    details_line, result_line = done.stdout.strip().splitlines()[-2:]
    metrics = json.loads(result_line)["metrics"]
    counts = {name: m["value"] for name, m in metrics.items()
              if m["unit"] != "s" and name != "trace.overhead_ratio"}
    return counts, json.loads(details_line)["report_digest"]


def exact_counts() -> list[str]:
    problems = []
    for name in WORKLOADS:
        first, digest_a = traced_counts(name, SEED)
        second, digest_b = traced_counts(name, SEED)
        differing = sorted(k for k in first if first[k] != second.get(k))
        if digest_a != digest_b:
            differing.append("report_digest")
        print(f"exact counts [{name}] {len(first)} counts compared: "
              + ("identical" if not differing else f"DIFFER: {differing}"))
        if differing:
            problems.append(f"{name}: traced counts differ between runs: {differing}")
    return problems


def main() -> int:
    _, cli = load_sccckit()
    problems = negative_control(cli)
    problems += exact_counts()
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
