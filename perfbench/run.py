#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload spec95 --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --record-references [--seeds 0-31]

The first call configures and builds perfbench/ (and the simulator sources
it links) as a Release build under .bench_build/perfbench, or under
$CARGO_TARGET_DIR/perfbench when that is set; later calls only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Extra arguments (--scale, --perturb-reference,
--inputs-digest) pass through to reese_perfbench. See perfbench/README.md.
"""
import argparse
import concurrent.futures
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCES = os.path.join(BENCH_DIR, "references.txt")
WORKLOADS = ("spec95", "heldout")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configure (once) and build; returns the benchmark binary or None."""
    build_dir = os.path.join(build_root(), "perfbench")
    try:
        if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
                not os.path.exists(os.path.join(build_dir, "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr)
            if configure.returncode != 0:
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        compile_ = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                                  stdout=sys.stderr)
    except OSError as error:
        print(f"perfbench: cannot run cmake: {error}", file=sys.stderr)
        return None
    if compile_.returncode != 0:
        return None
    return os.path.join(build_dir, "reese_perfbench")


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result names
    the code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def record_references(binary, seeds):
    """Regenerate references.txt: every workload at every seed in `seeds`
    at full scale, plus seeds 0-3 at the tiny scale the tests use."""
    runs = [(w, s, "full") for w in WORKLOADS for s in seeds]
    runs += [(w, s, "tiny") for w in WORKLOADS for s in range(4)]
    out_dir = os.path.join(build_root(), "perfbench-out")

    def one(run):
        workload, seed, scale = run
        result = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--scale",
             scale, "--record-references", "--out-dir", out_dir],
            capture_output=True, text=True)
        if result.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} {scale}: "
                               f"{result.stderr.strip()}")
        return result.stdout.splitlines()

    lines = []
    # Two at a time: each recording run uses up to two simulation threads.
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for chunk in pool.map(one, runs):
            lines.extend(chunk)
    with open(REFERENCES, "w") as handle:
        handle.write("# Reference outputs for perfbench (key<TAB>value); "
                     "regenerate with\n# python3 perfbench/run.py "
                     "--record-references. See README.md.\n")
        handle.write("".join(line + "\n" for line in sorted(lines)))
    print(f"perfbench: wrote {len(lines)} references to {REFERENCES}",
          file=sys.stderr)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--seeds", default="0-31")
    args, passthrough = parser.parse_known_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.record_references:
        record_references(binary, parse_seeds(args.seeds))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--references", REFERENCES,
               "--out-dir", os.path.join(build_root(), "perfbench-out"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    return subprocess.run(command + passthrough).returncode


if __name__ == "__main__":
    sys.exit(main())
