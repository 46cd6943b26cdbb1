#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at the short (tiny) sizes.

  python3 perfbench/test_checks.py

For every workload: a plain short run passes every check and reports the
metrics BENCHMARK.json lists (untraced and traced), and each corruption makes
the run report correct = false and exit non-zero. Every workload runs every
part, so each corruption touches one check of one part only, and the test
asks that every check failure the run prints is that check's own: a check
that could never fail is not hidden behind another that fails first. Builds
through run.py like a real run. Exits 0 when every case behaves.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["naive_scale", "exact_measure", "serve_sessions"]
# Corruption -> a fragment of the failure message of the one check it
# targets.
CORRUPTIONS = {
    "drop_answer.library": "answers, oracle has",
    "drop_answer.served": "answers, shadow oracle has",
    "flip_mu.prop4": "Proposition 4:",
    "flip_mu.theorem1": "Theorem 1:",
    "flip_mu.served": "shadow oracle says",
    "ack_count.served": "svc.wal.appends grew by",
}
CHECK_FAILED = "perfbench: CHECK FAILED: "


def run(workload, trace="0", extra=()):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--short", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {"0": {m["name"] for m in spec["end_to_end"]},
             "1": {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result, err = run(workload, trace)
            case = "%s trace=%s" % (workload, trace)
            if code != 0 or not result or not result["correct"]:
                failures.append("%s: clean run failed (exit %d)\n%s" %
                                (case, code, err[-2000:]))
            elif result["failed"] != 0:
                failures.append("%s: %d failed ops" % (case, result["failed"]))
            elif set(result["metrics"]) != names[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: %s" %
                                (case, sorted(set(result["metrics"]) ^
                                              names[trace])))
        for corruption, message in CORRUPTIONS.items():
            case = "%s --corrupt %s" % (workload, corruption)
            code, result, err = run(workload, extra=("--corrupt", corruption))
            # "warm-up round" sums up the warm-up's own failures.
            reported = [line[len(CHECK_FAILED):] for line in err.splitlines()
                        if line.startswith(CHECK_FAILED) and
                        line != CHECK_FAILED + "warm-up round"]
            if code == 0 or (result is not None and result["correct"]):
                failures.append("%s: the check did not fail" % case)
            elif not reported:
                failures.append("%s: no check failure printed" % case)
            elif any(message not in line for line in reported):
                failures.append("%s: another check failed: %s" %
                                (case, reported))
    for failure in failures:
        print("FAIL " + failure)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
