#!/usr/bin/env python3
"""Build edadb's benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 edabench/run.py --workload <alert_pipeline|rule_churn|capture_fanout>
                            [--seed 1] [--seconds 45] [--trace 0|1]

The binary (edabench/main.cc) is built in Release under
$CARGO_TARGET_DIR (default .bench_build) with edabench/CMakeLists.txt,
which compiles ../src. Everything the run writes stays under that
directory. The last line of stdout is the result object; a build or
run failure exits non-zero without printing one.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("alert_pipeline", "rule_churn", "capture_fanout")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    """HEAD of the checkout if it is a git work tree, else 'none'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest(root):
    """sha256 over src/, so a run names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(source, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--parallel", jobs,
         "--target", "edabench"],
        stdout=sys.stderr, check=True)
    return build_dir / "edabench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    # SIGTERM unwinds through the finally below, which stops the binary.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no edadb sources under {root / 'src'}")
    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root / "edabench", out_dir / "edabench")
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    data_root = out_dir / "data" / f"{args.workload}-{os.getpid()}"
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--data-root", str(data_root),
        "--git-sha", git_sha(root), "--src-digest", src_digest(root),
    ]
    if args.trace == "1":
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: edabench timed out", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_root, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
