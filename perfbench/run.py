#!/usr/bin/env python3
"""Build and run one workload of the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ltfb-population --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (its own Cargo package, which compiles
the repository's crates from source) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload in its own process, records
the host and the source revision next to the result in
`perfbench/out/`, and prints the result as the last line of standard
output. Exits non-zero, printing no result, when the checkout holds no
sources to build or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

WORKLOADS = ("ltfb-population", "dp-ingest", "serve-fleet")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Build budget for the first run in a fresh checkout, and run budget;
# together they stay under 900 s, and a run after the build under 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# ISA features worth recording; the kernels vectorise for the host CPU.
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl",
             "avx512_vnni", "avx_vnni", "amx_tile", "neon", "asimd", "sve")
HASHED = ("Cargo.toml", "Cargo.lock", ".cargo/config.toml", "crates", "shims", "src",
          "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, **kw):
    """Run `cmd`; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(cmd[:2])} ran past {timeout} s")
    return proc.returncode, out


def host():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key in ("model name", "Hardware") and model == "unknown":
                    model = val.strip()
                elif key in ("flags", "Features") and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    config_flags = None
    try:
        with open(".cargo/config.toml") as f:
            config_flags = next((l.split("=", 1)[1].strip() for l in f
                                 if l.strip().startswith("rustflags")), None)
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": affinity,
        "isa_flags": sorted(flags.intersection(ISA_FLAGS)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "rustc": rustc,
        "rustflags_env": os.environ.get("RUSTFLAGS", ""),
        "rustflags_config": config_flags,
    }


def revision():
    """The git commit when there is one, and a hash of the built sources."""
    git = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        git = r.stdout.strip() or None
    h = hashlib.sha256()
    files = []
    for top in HASHED:
        if os.path.isfile(top):
            files.append(top)
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "out"))
            files.extend(os.path.join(root, n) for n in names)
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return {"git": git, "source_sha256": h.hexdigest()[:16]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    if not (os.path.isfile("perfbench/Cargo.toml") and os.path.isdir("crates")):
        fail("run from the root of a full checkout: perfbench/ and the crates it builds", 2)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    code, _ = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    code, out = run_child(
        [binary, args.workload, "--seed", str(args.seed % (1 << 64)), "--seconds", str(args.seconds),
         "--trace", args.trace, "--out", out_dir],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{args.workload} exited with {code}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}")
    info = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
        else:
            print(line)

    report = {"host": host(), "revision": revision(), "run": info, "result": result,
              "finished_unix": time.time()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(report, f, indent=1)
    print("perfbench-host " + json.dumps(report["host"]))
    print("perfbench-revision " + json.dumps(report["revision"]))
    print("perfbench-run " + json.dumps(info))
    print(lines[-1])


if __name__ == "__main__":
    main()
