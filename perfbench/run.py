#!/usr/bin/env python3
"""Build and run the spmvcache repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record   # re-record perfbench/expected.txt

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which builds the library from src/) in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later runs reuse that
build. The driver's last stdout line is the result JSON. Build output goes
to stderr. Exits non-zero, without a result, when the checkout has no
library sources or the build fails.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
# Workloads whose outputs are checked against recorded digests, and the
# seeds 0..3 that cover every matrix instance (seed % 4).
RECORDED = ["predict-file", "sweep-sim"]
INSTANCES = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The commit when the checkout is a git work tree, otherwise a digest
    of the library, tool and benchmark sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "cmake", "perfbench"):
        base = root / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def build(root):
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"{root} holds no spmvcache sources (src/CMakeLists.txt)")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def run(binary, root, args):
    # A fixed mmap threshold stops glibc from keeping freed multi-MB model
    # buffers on its heap, so peak RSS follows live memory instead of
    # run-to-run fragmentation.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        return subprocess.run([str(binary), *args], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main(argv):
    root = Path.cwd()
    binary = build(root)
    common = ["--commit", source_id(root), "--expected", "perfbench/expected.txt"]
    if argv == ["--record"]:
        for workload in RECORDED:
            for seed in range(INSTANCES):
                for size in ([], ["--smoke"]):
                    code = run(binary, root, ["--workload", workload, "--seed", str(seed),
                                              "--seconds", "0.01", "--trace", "0", "--record",
                                              *size, *common])
                    if code != 0:
                        return code
        return 0
    return run(binary, root, [*argv, *common])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
