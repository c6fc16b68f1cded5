#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <campaigns|kernel-sim|fleet-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--trace 0` builds and runs the timed
package (`perfbench/`, binary `perfbench`); `--trace 1` the traced one
(`perfbench/traced/`, binary `perfbench-traced`). Both build the
repository's crates from source (`cargo build --release --offline`) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. The other flags
go to the binary. The last line of standard output is the result object;
everything cargo prints goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = (
    "crates", "perfbench/src", "perfbench/traced/src", "Cargo.lock",
    "perfbench/Cargo.toml", "perfbench/traced/Cargo.toml",
)
PACKAGES = {"0": ("Cargo.toml", "perfbench"), "1": ("traced/Cargo.toml", "perfbench-traced")}


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if rev:
            return "git:" + rev
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src:" + h.hexdigest()[:12]


def split_trace(args):
    """Takes `--trace <0|1>` out of the arguments; returns (mode, rest)."""
    mode, rest, it = "0", [], iter(args)
    for a in it:
        if a == "--trace":
            mode = next(it, None)
            if mode not in PACKAGES:
                raise ValueError(f"--trace expects 0 or 1, got {mode!r}")
        else:
            rest.append(a)
    return mode, rest


def main():
    try:
        mode, args = split_trace(sys.argv[1:])
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    missing = [p for p in ("crates", "Cargo.lock") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not a repository checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    manifest, binary = PACKAGES[mode]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, manifest)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = os.path.join(target, "release", binary)
    run = subprocess.run([exe, *args, "--rev", source_rev()], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
