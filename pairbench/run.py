#!/usr/bin/env python3
"""Build and run the paired end-to-end benchmark (see NOTES.md).

    python3 pairbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--reduced]

Run from the repository root.  The harness is compiled from source on
first use into $CARGO_TARGET_DIR/pairbench (default .bench_build).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Besides the harness's own checks (every pair verified
against the sequential reference, the seed-fixed counters identical in
every pair), this script checks those counters across runs of one build
and, for the two recorded seeds, against their recorded values.

Exit codes: 0 ok; 1 build failure, failed job or harness error; 2 a
seed-fixed counter changed; 64 bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170

# logicsim.seq_events of input 0 (the seed itself) recorded in NOTES.md for
# the bound-setting seed (2000) and the held-out seed (7), full size.  The
# simulated work is a function of circuit and stimulus only, so no
# optimization may change it.
RECORDED_SEQ_EVENTS = {
    ("partition-s15850", 2000): 140579,
    ("kernel-s15850", 2000): 608767,
    ("lanes64-s9234", 2000): 163586,
    ("partition-s15850", 7): 154657,
    ("kernel-s15850", 7): 629985,
}


def fail(code, msg):
    print(f"pairbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "pairbench"


def build(out):
    """Configure once, then build incrementally; returns the binary path.
    Compiler temporaries go under the build tree, not the system /tmp."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "pairbench"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, env=env)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(1, "build failed: " + " ".join(cmd))
    return out / "pairbench"


def check_across_runs(out, binary, key, counters):
    """The counters of every input seed of one (workload, seed, size) must
    repeat in every run of one build; the record resets whenever the binary
    is rebuilt."""
    st = binary.stat()
    build_id = f"{st.st_size}:{st.st_mtime_ns}"
    path = out / "counters.json"
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except ValueError:
            record = {}
    if record.get("build") != build_id:
        record = {"build": build_id, "runs": {}}
    seen = record["runs"].setdefault(key, {})
    for inp, values in counters.items():
        before = seen.get(inp, values)
        for name, value in values.items():
            if before.get(name) != value:
                fail(2, f"counter {name} of input {inp} changed between "
                        f"runs of {key}: {before.get(name)} -> {value}")
        seen[inp] = values
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--reduced", action="store_true",
                    help="tenth-size circuit and horizon, two inputs")
    args = ap.parse_args()
    if args.seed < 0:
        fail(64, "--seed must be non-negative")

    out = build_dir()
    binary = build(out)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(traces / f"{args.workload}-seed{args.seed}.spans.json")]
    if args.reduced:
        cmd.append("--reduced")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"harness exceeded {TIMEOUT_S} s")
    lines = p.stdout.splitlines()
    if p.returncode in (2, 64) or not lines:
        fail(p.returncode or 1, f"harness exited with code {p.returncode}")

    counters = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(1, f"malformed result line: {lines[-1]}")

    if result["correct"] and counters is not None:
        size = "reduced" if args.reduced else "full"
        check_across_runs(out, binary,
                          f"{args.workload}:{args.seed}:{size}", counters)
        want = RECORDED_SEQ_EVENTS.get((args.workload, args.seed))
        got = counters.get(str(args.seed), {}).get("logicsim.seq_events")
        if want is not None and not args.reduced and got != want:
            fail(2, f"logicsim.seq_events is {got}, recorded {want} for "
                    f"{args.workload} seed {args.seed}")

    print(lines[-1])
    sys.stdout.flush()
    sys.exit(0 if p.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
