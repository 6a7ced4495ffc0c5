#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size.

    python3 perfbench/selftest.py

Checks, for every workload:
  * the untraced run exits 0 and prints every end-to-end metric of
    BENCHMARK.json with its unit, both as a row and in the result line,
    and the ungated job_ms_p90 as a row;
  * the traced run exits 0, prints every per-layer metric with its unit,
    and reports the same digest for every spec the untraced run ran;
  * a committed digest table with one digest altered makes the run fail.
Then checks that the benchmark refuses to run (non-zero exit, no result
line) in a directory holding only BENCHMARK.json and the benchmark.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.sh")
SEED = "1"  # the seed whose digests are committed in digests.json

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what.rstrip())
    if not ok:
        failures.append(what)


def run(workload, trace, work, digests=None):
    cmd = ["bash", RUN, "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", "--work-dir", work]
    if digests:
        cmd += ["--digests", digests]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout, p.stderr


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def rows(stdout, kind):
    """`metric` rows as {name: unit}; `digest` rows as {label: digest}."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if kind == "metric" and parts[:1] == ["metric"]:
            out[parts[2]] = parts[4]
        if kind == "digest" and parts[:1] == ["digest"]:
            out[line.split(None, 3)[3]] = parts[2]
    return out


def expect_metrics(stdout, specs, what):
    printed = rows(stdout, "metric")
    res = result_line(stdout) or {}
    for m in specs:
        check(printed.get(m["name"]) == m["unit"], f"{what}: row {m['name']} [{m['unit']}]")
        got = res.get("metrics", {}).get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"{what}: result line has {m['name']}")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=HERE)
    try:
        for w in [x["name"] for x in bench["workloads"]]:
            work = os.path.join(tmp, w)
            code, out, err = run(w, 0, work)
            check(code == 0, f"{w}: untraced run exits 0\n{err[-2000:]}")
            expect_metrics(out, bench["end_to_end"], f"{w} untraced")
            check(rows(out, "metric").get("job_ms_p90") == "ms", f"{w}: row job_ms_p90 [ms]")
            res = result_line(out) or {}
            check(res.get("correct") is True and res.get("failed") == 0, f"{w}: correct, nothing failed")
            plain = rows(out, "digest")
            check(len(plain) > 0, f"{w}: digests printed")

            code, out, err = run(w, 1, work)
            check(code == 0, f"{w}: traced run exits 0\n{err[-2000:]}")
            expect_metrics(out, bench["per_layer"], f"{w} traced")
            traced = rows(out, "digest")
            for label, digest in plain.items():
                check(traced.get(label) == digest, f"{w}: traced digest of {label}")

            table = json.load(open(os.path.join(HERE, "digests.json")))
            key = f"tiny/{w}/{sorted(plain)[0]}"
            check(key in table, f"{w}: committed digest for {key}")
            table[key] = "0" * 16
            tampered = os.path.join(tmp, f"tampered-{w}.json")
            json.dump(table, open(tampered, "w"))
            code, out, err = run(w, 0, os.path.join(tmp, w + "-tampered"), digests=tampered)
            res = result_line(out) or {}
            check(code != 0 and res.get("correct") is False, f"{w}: tampered digest fails the run")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("target", ".work", "selftest-*"))
        p = subprocess.run(bench["command"] + ["--workload", "paper-sweep", "--seed", SEED,
                                               "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180,
                           env={**os.environ, "CARGO_TARGET_DIR": os.path.join(bare, ".bench_build")})
        check(p.returncode != 0 and result_line(p.stdout) is None,
              "refuses to run without the repository's sources")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
