"""Smoke run: every workload at tiny sizes, both trace modes.

Checks that the last output line is the result object and that it carries
every metric BENCHMARK.json names, with the declared unit.  Takes about a
minute (the certificate completion iterates to its fixed cap even here).

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{wl['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = result["metrics"]
            for m in declared:
                if m["name"] not in got:
                    problems.append(f"{where}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got[m['name']]['unit']}")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"{where}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
