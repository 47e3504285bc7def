#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Figure-1 path.

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run; the last line of stdout is the JSON result.
  python3 e2ebench/run.py --all [--seed n] [--seconds s]
      Every workload once, each result printed by name.
  python3 e2ebench/run.py --workload <name> --spread <k> [--seed n] [--seconds s]
      Reruns one workload k times at one seed and prints each metric's
      median and quartiles.
  python3 e2ebench/run.py --test
      Builds and runs the output checker's test.

Run it from the root of a checkout. It builds the benchmark and the
library from the checkout's sources with CMake (RelWithDebInfo) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench).
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["text_firehose", "tenant_churn", "solve_mix"]
RUN_TIMEOUT_S = 175
BUILD_TYPE = "RelWithDebInfo"


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds; all tool output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("e2ebench: the library sources (CMakeLists.txt, src/) "
                         "are missing next to the benchmark in %s\n" % ROOT)
        sys.exit(2)
    build_dir = os.path.join(target_dir(), "e2ebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                   + targets, stdout=sys.stderr, check=True)
    return build_dir


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "e2ebench", "CMakeLists.txt"],
                                   capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_once(binary, workload, seed, seconds, trace, rev):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(target_dir(), "e2ebench-work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--revision", rev]
    if trace:
        traces = os.path.join(target_dir(), "e2ebench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: %s timed out\n" % workload)
        code, out = 124, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, [line for line in out.splitlines() if line.strip()]


def spread(binary, args, rev):
    """Reruns one workload; prints each metric's median and quartiles."""
    values = {}
    units = {}
    worst = 0
    for i in range(args.spread):
        code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace, rev)
        worst = worst or code
        if code != 0 or not lines:
            sys.stderr.write("run %d failed (exit %d)\n" % (i, code))
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            worst = worst or 3
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("%s seed %d, %d runs of %gs (revision %s)"
          % (args.workload, args.seed, args.spread, args.seconds, rev))
    print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        rel = (q3 - q1) / med if med else 0.0
        print("| %s | %s | %.4g | %.4g | %.4g | %.3f |"
              % (name, units[name], med, q1, q3, rel))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--spread", type=int, default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        build_dir = build(["e2e_checker_test"])
        return subprocess.run([os.path.join(build_dir, "e2e_checker_test")]
                              ).returncode
    if not args.all and not args.workload:
        ap.error("name a --workload, or pass --all or --test")
    binary = os.path.join(build(["e2e_bench"]), "e2e_bench")
    rev = revision()
    if args.spread > 0:
        return spread(binary, args, rev)
    if args.all:
        worst = 0
        for workload in WORKLOADS:
            code, lines = run_once(binary, workload, args.seed, args.seconds,
                                   args.trace, rev)
            print("== %s (exit %d)" % (workload, code))
            for line in lines:
                print(line)
            worst = worst or code
        return worst
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, rev)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
