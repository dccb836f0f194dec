#!/usr/bin/env python3
"""Builds and runs mendel's end-to-end benchmark (see README.md).

Run from the root of a source checkout:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One workload. The last line of output is one JSON object:
      {"correct", "attempted", "failed", "metrics"} with the end-to-end
      metrics (--trace 0) or the per-layer ones (--trace 1).
  python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace 0|1] [--out F]
      Every workload, each in its own process; prints "workload/metric value
      unit" lines and writes all results to F. Exits 1 if any run is
      incorrect.
  python3 bench/e2e/run.py --compare A.json ... -- B.json ...
      Median of each metric over the A files against the B files; exits 1
      when an end-to-end metric is worse by more than its bound in
      BENCHMARK.json or any run was incorrect.
  python3 bench/e2e/run.py --smoke | --self-test
      The benchmark's own checks (every workload briefly, with the
      correctness gate on; the percentile and critical-path unit checks).

The build goes to $CARGO_TARGET_DIR, or .bench_build, under the current
directory; compiler and socket scratch files stay inside it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["search-fresh", "extend-cached", "socket-cached", "dna-ingest-sim"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def child_env(build):
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configures (once) and builds mendel_bench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = child_env(out)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "env": env}
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", out, "--target", "mendel_bench",
                    "-j", str(os.cpu_count() or 1)], check=True, **quiet)
    return os.path.join(out, "mendel_bench")


def run_binary(binary, args, capture):
    out = build_dir()
    scratch = os.path.relpath(os.path.join(out, "tmp"))
    return subprocess.run([binary] + args + ["--scratch", scratch],
                          stdout=subprocess.PIPE if capture else None,
                          text=True, env=child_env(out),
                          timeout=RUN_TIMEOUT_S)


def run_all(binary, seed, seconds, trace, out_path):
    results = {}
    ok = True
    for workload in WORKLOADS:
        proc = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds),
                                   "--trace", str(trace)], capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})",
                  file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        results[workload] = result
        ok = ok and result["correct"]
    if out_path:
        with open(out_path, "w") as f:
            json.dump({"seed": seed, "seconds": seconds, "trace": trace,
                       "workloads": results}, f, indent=1)
    return 0 if ok else 1


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(before_files, after_files):
    bounds = load_bounds()

    def collect(files):
        values, correct = {}, True
        for path in files:
            with open(path) as f:
                for workload, result in json.load(f)["workloads"].items():
                    correct = correct and result["correct"]
                    for name, m in result["metrics"].items():
                        values.setdefault((workload, name), []).append(
                            m["value"])
        return values, correct

    before, before_ok = collect(before_files)
    after, after_ok = collect(after_files)
    failed = not (before_ok and after_ok)
    if failed:
        print("some runs were incorrect")
    print(f"{'workload/metric':48} {'before':>12} {'after':>12} "
          f"{'worse':>8} {'bound':>6}")
    for key in sorted(before.keys() & after.keys()):
        a = statistics.median(before[key])
        b = statistics.median(after[key])
        spec = bounds.get(key[1])
        if spec is None or a == 0:
            worse, verdict = "", ""
        else:
            w = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            out = w > spec["bound"]
            failed = failed or out
            worse = f"{w:+.1%}"
            verdict = f"{spec['bound']:.0%}" + (" OUT" if out else "")
        print(f"{key[0] + '/' + key[1]:48} {a:12.6g} {b:12.6g} "
              f"{worse:>8} {verdict:>6}")
    return 1 if failed else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "--compare":
        if "--" not in argv:
            sys.exit("--compare wants A.json ... -- B.json ...")
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    binary = build()
    if args.smoke or args.self_test:
        flag = "--smoke" if args.smoke else "--self-test"
        return run_binary(binary, [flag], capture=False).returncode
    if args.workload is None:
        return run_all(binary, args.seed, args.seconds, args.trace, args.out)
    return run_binary(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                      capture=False).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit(f"run.py: {e}")
