#!/usr/bin/env python3
"""Builds and runs the lcrb end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the library and the
benchmark binary (lcrb_perfbench) from source (Release) under
$CARGO_TARGET_DIR, default .bench_build; later calls reuse the build. The
binary's result is reduced to one JSON line with the keys correct, attempted,
failed and metrics; the line before it records the run context (git sha,
source digest, nproc, CPU model, build type, workload seed, steal share) and
the payload digest. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds lcrb_perfbench; returns its path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "lcrb_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout is not a
    git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """The aggregate cpu line of /proc/stat (user ... steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def run_binary(binary, args):
    """Runs lcrb_perfbench; returns its parsed last stdout line, with the share
    of CPU time the hypervisor stole during the run added to its context
    (a run on a busy host is slower for reasons outside the program)."""
    data_dir = os.path.join(build_dir(), "data")
    before = cpu_times()
    proc = subprocess.run([binary, "--data-dir", data_dir] + args,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    after = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: lcrb_perfbench failed (exit %d)"
                         % proc.returncode)
    result = json.loads(lines[-1])
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        result["context"]["steal_share"] = delta[7] / max(sum(delta), 1)
    return result


def expected_digest(workload, seconds):
    """The recorded payload digest of the default seed, or None when none is
    recorded for this run length (a run's requests depend on --seconds)."""
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    if seconds != recorded["seconds"]:
        return None
    return recorded[workload]


def measure(opts):
    binary = build()
    result = run_binary(binary, [
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    correct = result["correct"]
    digest_ok = None
    expected = expected_digest(opts.workload, opts.seconds)
    if opts.seed == DEFAULT_SEED and expected is not None:
        digest_ok = result["digest"] == expected
        if not digest_ok:
            sys.stderr.write("perfbench: payload digest %s differs from the "
                             "recorded %s\n" % (result["digest"], expected))
            correct = False
    context = dict(result["context"])
    context.update({"git_sha": git_sha(), "source_digest": source_digest(),
                    "cpu_model": cpu_model(), "nproc": os.cpu_count(),
                    "digest": result["digest"], "digest_ok": digest_ok})
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


def self_test():
    """Tiny-scale checks of the benchmark itself: every metric named in
    BENCHMARK.json is printed with its unit, the payload digest is the same
    at 1 and nproc inner threads, and a non-default seed passes every output
    check."""
    binary = build()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        raise SystemExit("perfbench: self-test needs BENCHMARK.json")
    nproc = str(os.cpu_count() or 1)
    problems = []
    for name in [w["name"] for w in spec["workloads"]]:
        failures = len(problems)
        digests = {}
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for threads in ("1", nproc):
                for seed in ("1", "7"):
                    r = run_binary(binary, [
                        "--workload", name, "--seed", seed, "--seconds", "5",
                        "--trace", str(trace), "--scale", "0.05",
                        "--threads", threads])
                    tag = "%s trace=%d threads=%s seed=%s" % (name, trace,
                                                              threads, seed)
                    if not r["correct"] or r["failed"] != 0:
                        problems.append(tag + ": output checks failed")
                    for m in metrics:
                        got = r["metrics"].get(m["name"])
                        if got is None or got.get("unit") != m["unit"]:
                            problems.append("%s: metric %s missing or not in %s"
                                            % (tag, m["name"], m["unit"]))
                    digests.setdefault(seed, set()).add(r["digest"])
        for seed, seen in digests.items():
            if len(seen) != 1:
                problems.append("%s seed %s: digest differs across thread "
                                "counts: %s" % (name, seed, sorted(seen)))
        print("self-test %s: %s" % (name, "ok" if len(problems) == failures
                                      else "FAILED"))
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test()
    if not opts.workload:
        ap.error("--workload is required")
    measure(opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
