#!/usr/bin/env python3
"""Self-test of the paired benchmark: one reduced-size iteration per workload.

    python3 pairbench/test/self_test.py

Run from the repository root.  For every workload in BENCHMARK.json it runs
run.py with --reduced at --trace 0 and --trace 1 and checks that

  * the run exits 0 and its last line is the result object, with exactly
    the keys correct, attempted, failed and metrics;
  * every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is printed, in the table and in the result, with the
    unit and direction BENCHMARK.json gives it, and no other metric is;
  * correct is true, failed is 0 and verified_frac is 1.

It also checks BENCHMARK.json against the benchmark's format limits.
Exit code 0 when everything holds, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems = []


def expect(cond, msg):
    if not cond:
        problems.append(msg)
    return cond


def check_format(bench):
    expect(sorted(bench) == sorted(["command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"]),
           f"BENCHMARK.json keys: {sorted(bench)}")
    expect(1 <= bench["run_seconds"] <= 60, "run_seconds out of [1, 60]")
    expect(2 <= len(bench["workloads"]) <= 8, "need 2..8 workloads")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    expect(len(names) == len(set(names)), "a name is used twice")
    for n in names:
        expect(NAME.match(n), f"bad name {n!r}")
    for w in bench["workloads"]:
        expect(sorted(w) == ["name", "why"], f"workload keys {sorted(w)}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"],
               f"why of {w['name']} too long")
    for m in bench["end_to_end"]:
        expect(sorted(m) == ["better", "bound", "name", "unit"],
               f"end_to_end keys of {m['name']}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in bench["per_layer"]:
        expect(sorted(m) == ["better", "name", "unit"],
               f"per_layer keys of {m['name']}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(UNIT.match(m["unit"]), f"bad unit of {m['name']}")
        expect(m["better"] in ("lower", "higher"),
               f"bad direction of {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower", "setup_s missing or wrong")
    expect(setup and setup[0]["bound"] ==
           max(m["bound"] for m in bench["end_to_end"]),
           "setup_s must have the largest bound")


def check_run(workload, trace, wanted):
    cmd = [sys.executable, str(ROOT / "pairbench" / "run.py"),
           "--workload", workload, "--seed", "2000", "--seconds", "1",
           "--trace", str(trace), "--reduced"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    where = f"{workload} trace {trace}"
    if not expect(p.returncode == 0, f"{where}: exit code {p.returncode}"):
        return
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{where}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{where}: correct is not true")
    expect(result["failed"] == 0, f"{where}: failed {result['failed']}")
    expect(result["attempted"] >= 1, f"{where}: nothing attempted")

    # Table rows: name value unit better samples.
    table = {}
    for line in lines[:-1]:
        cols = line.split()
        if len(cols) == 5 and cols[3] in ("lower", "higher"):
            table[cols[0]] = (cols[2], cols[3])
    got = result["metrics"]
    expect(sorted(got) == sorted(m["name"] for m in wanted),
           f"{where}: metrics {sorted(set(got) ^ {m['name'] for m in wanted})}"
           " differ from BENCHMARK.json")
    for m in wanted:
        name = m["name"]
        expect(table.get(name) == (m["unit"], m["better"]),
               f"{where}: table row of {name} is {table.get(name)}, "
               f"BENCHMARK.json says {(m['unit'], m['better'])}")
        if expect(name in got, f"{where}: {name} not in result"):
            expect(got[name]["unit"] == m["unit"],
                   f"{where}: unit of {name} is {got[name]['unit']}")
            expect(isinstance(got[name]["value"], (int, float)),
                   f"{where}: value of {name} is not a number")
    if trace == 0:
        expect(got.get("verified_frac", {}).get("value") == 1,
               f"{where}: verified_frac is not 1")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_format(bench)
    for w in bench["workloads"]:
        check_run(w["name"], 0, bench["end_to_end"])
        check_run(w["name"], 1, bench["per_layer"])
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        return 1
    print(f"ok: {len(bench['workloads'])} workloads, "
          f"{len(bench['end_to_end'])} end-to-end and "
          f"{len(bench['per_layer'])} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
