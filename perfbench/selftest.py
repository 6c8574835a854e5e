#!/usr/bin/env python3
"""Self-test of the BLEND benchmark at tiny size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced on tiny lakes
and asserts that every metric BENCHMARK.json names is printed with its
unit, that nothing failed (failed / attempted is 0), and that the result
is marked correct. It then feeds the seekers workload a deliberately wrong
reference ranking and asserts that ops count as failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, wrong_reference=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "3",
           "--trace", str(trace), "--scale", "tiny",
           "--wrong-reference", "1" if wrong_reference else "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert p.returncode == 0, f"{' '.join(cmd)} exited with {p.returncode}"
    last = p.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, specs, label):
    metrics = result["metrics"]
    names = [m["name"] for m in specs]
    assert sorted(metrics) == sorted(names), f"{label}: metrics {sorted(metrics)} != {sorted(names)}"
    for m in specs:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (label, m["name"])


def check_clean(result, label):
    failed_ratio = result["failed"] / result["attempted"]
    assert failed_ratio == 0, f"{label}: failed_ratio {failed_ratio}"
    assert result["correct"] is True, f"{label}: not correct"


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        plain = run(w, 0)
        check_metrics(plain, SPEC["end_to_end"], f"{w} trace=0")
        check_clean(plain, f"{w} trace=0")
        zero = [n for n, m in plain["metrics"].items() if m["value"] == 0]
        assert not zero, f"{w}: end-to-end metrics read 0: {zero}"

        traced = run(w, 1)
        check_metrics(traced, SPEC["per_layer"], f"{w} trace=1")
        check_clean(traced, f"{w} trace=1")
        layers = traced["metrics"]
        if w == "seekers":
            assert layers["ir.placeholders"]["value"] == 0, "seekers must not hold IR placeholders"
        if w == "plans":
            assert layers["ir.placeholders"]["value"] > 0, "plans must hold IR placeholders"
            assert layers["ir.fired_ratio"]["value"] == 1.0, "every IR rewrite must fire on plans"
        print(f"selftest: {w}: ok ({plain['attempted']} + {traced['attempted']} checked)")

    wrong = run("seekers", 0, wrong_reference=True)
    assert wrong["failed"] >= 1, "a wrong reference ranking must make ops fail"
    assert wrong["correct"] is False
    print(f"selftest: wrong reference: ok ({wrong['failed']} of {wrong['attempted']} failed)")


if __name__ == "__main__":
    main()
