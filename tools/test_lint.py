#!/usr/bin/env python3
"""Self-test for bitwave_lint.py against the fixture corpus.

Runs the linter over tools/lint_fixtures/ and asserts that every rule
fires exactly where the bad fixtures say it should, that the good
fixtures stay silent, and that the allow(<rule>) escape hatch
suppresses only the rule it names.  Run by ctest as `test_lint`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(HERE, "bitwave_lint.py")
FIXTURES = os.path.join(HERE, "lint_fixtures")

# Every finding the fixture tree must produce: (path, line, rule).
EXPECTED = {
    ("src/common/bad_determinism.cpp", 8, "determinism"),
    ("src/common/bad_determinism.cpp", 9, "determinism"),
    ("src/common/bad_determinism.cpp", 10, "determinism"),
    ("src/common/bad_determinism.cpp", 11, "determinism"),
    # <random> itself, its engines and its distributions:
    ("src/common/bad_determinism.cpp", 4, "determinism"),
    ("src/common/bad_sampler.cpp", 4, "determinism"),
    ("src/common/bad_sampler.cpp", 9, "determinism"),
    ("src/common/bad_sampler.cpp", 10, "determinism"),
    ("src/common/bad_sampler.cpp", 11, "determinism"),
    ("src/common/bad_sampler.cpp", 12, "determinism"),
    ("src/common/bad_memory_order.cpp", 9, "memory-order"),
    ("src/common/bad_memory_order.cpp", 10, "memory-order"),
    ("src/common/bad_memory_order.cpp", 11, "memory-order"),
    ("src/common/bad_memory_order.cpp", 13, "memory-order"),
    ("src/common/bad_memory_order.cpp", 14, "memory-order"),
    ("src/eval/bad_unordered.cpp", 16, "unordered-iteration"),
    ("src/common/bad_env.cpp", 7, "env-access"),
    ("src/common/bad_logging.cpp", 6, "logging"),
    ("bench/bad_bench_write.cpp", 6, "bench-write"),
    # allow(logging) does not excuse a memory-order finding:
    ("src/common/allow_suppressed.cpp", 19, "memory-order"),
}

# Files that must not contribute any finding at all.
SILENT_FILES = {
    "src/common/good_determinism.cpp",
    "src/common/good_memory_order.cpp",
    "src/eval/good_unordered.cpp",
    "src/common/env.cpp",
    "src/common/good_logging.cpp",
    "bench/bench_util.hpp",
    "bench/good_bench_write.cpp",
}


def parse(output):
    got = set()
    for line in output.splitlines():
        parts = line.split(":", 2)
        if len(parts) < 3 or not parts[1].isdigit():
            continue
        rule = parts[2].split("]", 1)[0].strip().lstrip("[ ")
        got.add((parts[0], int(parts[1]), rule))
    return got


def main():
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", FIXTURES],
        capture_output=True, text=True)
    if proc.returncode != 1:
        print(f"FAIL: expected exit 1 on fixture tree, got "
              f"{proc.returncode}\nstdout:\n{proc.stdout}\n"
              f"stderr:\n{proc.stderr}")
        return 1

    got = parse(proc.stdout)
    failures = []
    for missing in sorted(EXPECTED - got):
        failures.append(f"missing finding: {missing}")
    for extra in sorted(got - EXPECTED):
        failures.append(f"unexpected finding: {extra}")
    for path, _, _ in got:
        if path in SILENT_FILES:
            failures.append(f"good fixture fired: {path}")

    # The suppressed lines must genuinely be suppressed.
    for path, line in [("src/common/allow_suppressed.cpp", 10),
                       ("src/common/allow_suppressed.cpp", 12)]:
        if any(p == path and ln == line for p, ln, _ in got):
            failures.append(f"allow() failed to suppress {path}:{line}")

    # --list-rules must succeed and name every rule seen above.
    rules = subprocess.run(
        [sys.executable, LINTER, "--list-rules"],
        capture_output=True, text=True)
    if rules.returncode != 0:
        failures.append("--list-rules exited nonzero")
    for rule in {r for _, _, r in EXPECTED}:
        if rule not in rules.stdout:
            failures.append(f"--list-rules missing rule: {rule}")

    if failures:
        print("FAIL:")
        for f in failures:
            print(f"  {f}")
        print("\nlinter output was:\n" + proc.stdout)
        return 1
    print(f"PASS: {len(EXPECTED)} expected findings, "
          f"{len(SILENT_FILES)} silent fixtures, allow() honored")
    return 0


if __name__ == "__main__":
    sys.exit(main())
