#!/usr/bin/env python3
"""Build omnibench and run one workload in its own process.

    python3 omnibench/run.py --workload <train|serve_catalogue|serve_online> \
        --seed N --seconds S --trace <0|1> [more flags, see src/main.rs]

Run from the root of the repository. The benchmark is built from source
with cargo (`--release --offline`, into $CARGO_TARGET_DIR when set, else
omnibench/target); build output goes to standard error. The workload then
runs in a child process whose environment is cleared of every OM_* knob
and given OM_THREADS=1 and OM_LOG=warn explicitly. Its standard output is
passed through: the last line is the JSON result. The exit code is the child's, or non-zero when the build
fails or a time limit is hit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# One compute thread for every workload; README.md gives the reasons.
THREADS = "1"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build_env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr,
            env=build_env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(HERE, "out")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("OM_")}
    env.update(OM_THREADS=THREADS, OM_LOG="warn")
    proc = subprocess.Popen([os.path.join(target, "release", "omnibench")] + args, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: workload ran over {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
