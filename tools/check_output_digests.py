#!/usr/bin/env python3
"""Pin what the figure benches and the examples print.

Runs every program built from bench/*.cc and examples/*.cpp with no
arguments, requires exit status 0, and compares the SHA-256 of its
stdout with the digest recorded in tests/output_digests.txt. The
simulator is deterministic, so a changed digest means a change moved
a simulated result that some figure, ablation, table or example
prints. microbench_simulator is skipped: it prints wall-clock numbers.

Usage:
    tools/check_output_digests.py --build-dir build
    tools/check_output_digests.py --build-dir build --update

Exit status 1 on a failed program, a digest mismatch, a program with
no recorded digest, or a recorded digest whose program is gone.
--update rewrites the digest file from the current build instead.
Dependency-free (stdlib only).
"""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "output_digests.txt"
# Programs whose output is not a pure function of the source.
SKIP = {"microbench_simulator"}

HEADER = """\
# SHA-256 of the stdout of every bench/ and examples/ program run
# with no arguments (microbench_simulator excluded: wall-clock).
# Checked by tools/check_output_digests.py (ctest: output_digests).
# Regenerate only for a change that is meant to move printed results:
#   python3 tools/check_output_digests.py --build-dir build --update
"""


def programs() -> list:
    names = [p.stem for p in (ROOT / "bench").glob("*.cc")]
    names += [p.stem for p in (ROOT / "examples").glob("*.cpp")]
    return sorted(n for n in names if n not in SKIP)


def read_digests(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        digest, name = line.split()
        out[name] = digest
    return out


def run(binary: Path):
    """Return (sha256 hex of stdout, error message or None)."""
    if not binary.is_file():
        return None, "not built"
    proc = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-400:]
        return None, f"exit status {proc.returncode}: {tail}"
    return hashlib.sha256(proc.stdout).hexdigest(), None


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", required=True, type=Path,
                    help="CMake build directory holding the programs")
    ap.add_argument("--update", action="store_true",
                    help="rewrite tests/output_digests.txt from this build")
    args = ap.parse_args(argv)

    names = programs()
    recorded = {} if args.update else read_digests(DIGESTS)
    measured = {}
    problems = []
    for name in names:
        digest, err = run(args.build_dir / name)
        if err:
            problems.append(f"{name}: {err}")
            continue
        measured[name] = digest
        if args.update:
            continue
        if name not in recorded:
            problems.append(f"{name}: no recorded digest")
        elif recorded[name] != digest:
            problems.append(f"{name}: stdout digest {digest} != "
                            f"recorded {recorded[name]}")
    for name in sorted(set(recorded) - set(names)):
        problems.append(f"{name}: recorded, but no such program")

    if problems:
        for p in problems:
            print(f"output_digests: {p}", file=sys.stderr)
        return 1
    if args.update:
        lines = [f"{measured[n]}  {n}" for n in names]
        DIGESTS.write_text(HEADER + "\n".join(lines) + "\n")
        print(f"output_digests: wrote {len(lines)} digests to {DIGESTS}")
    else:
        print(f"output_digests: {len(names)} programs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
