#!/usr/bin/env python3
"""Compare a parent commit and a change with one benchmark, in pairs.

    python3 perfbench/compare.py --base ../parent --change . --workload queue

``--base`` and ``--change`` are checkouts (any directory holding ``src/``).
Both sides run this checkout's ``run.py`` with ``--root`` set to the
side, so benchmark code and settings are identical. There are ten pairs;
pair i uses seed ``FIRST_SEED + i``, and the side that runs first
alternates between pairs.

For each end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles, the share of pairs the change won (ties count for
neither) and a verdict, worked out once on the times at reference speed
and once on the raw times:

* ``unresolved``: the base's own spread, the distance between its
  quartiles over its median, exceeds the metric's bound, and not every
  change run beats every base run;
* ``better``: the change won at least nine of the ten pairs and the
  medians differ by more than the base's quartile distance;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``same``: anything else.

The reported verdict is the common one when the two agree and
``unresolved`` when they do not: the reference-speed correction can
flatter a change that moves work from Python into numpy (see
``run.Calibration``), and raw times alone drift with the host.

The full record, with each run's environment, goes to
``perfbench/.work/compare-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
#: pairs per comparison: fewer cannot reach ``better`` (nine of ten won)
PAIRS = 10
FIRST_SEED = 1000


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--root", str(root), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark failed on {root} (exit {proc.returncode}): "
                           f"{proc.stderr[-2000:]}")
    env = next((json.loads(line.split("environment ", 1)[1]) for line in lines
                if line.strip().startswith("environment ")), None)
    # run.py's full record of this run; it holds the unscaled metrics
    record = HERE / ".work" / "results" / f"{workload}-seed{seed}-trace0.json"
    raw = json.loads(record.read_text())["raw_metrics"]
    return {"seed": seed, "environment": env, "result": json.loads(lines[-1]), "raw": raw}


def judge(metric: dict, base: list, change: list) -> dict:
    lower = metric["better"] == "lower"
    q_b = statistics.quantiles(base, n=4)
    q_c = statistics.quantiles(change, n=4)
    med_b, med_c = statistics.median(base), statistics.median(change)
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    spread = (q_b[2] - q_b[0]) / med_b
    worse_by = ((med_c - med_b) if lower else (med_b - med_c)) / med_b
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if spread > metric["bound"] and not all_better:
        call = "unresolved"
    elif wins >= 0.9 * len(base) and abs(med_c - med_b) > q_b[2] - q_b[0]:
        call = "better"
    elif worse_by > metric["bound"]:
        call = "worse"
    else:
        call = "same"
    return {
        "base": {"median": med_b, "q1": q_b[0], "q3": q_b[2], "spread": spread},
        "change": {"median": med_c, "q1": q_c[0], "q3": q_c[2]},
        "pairs_won": wins / len(base), "verdict": call,
    }


def verdict(metric: dict, scaled: tuple, raw: tuple) -> dict:
    """The metric's row: scaled figures, raw figures, and the common verdict."""
    row = judge(metric, *scaled)
    row["raw"] = judge(metric, *raw)
    calls = (row["verdict"], row["raw"]["verdict"])
    row["verdict"] = calls[0] if calls[0] == calls[1] else "unresolved"
    row["calls"] = {"scaled": calls[0], "raw": calls[1]}
    row.update(unit=metric["unit"], better=metric["better"], bound=metric["bound"])
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sides = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}
    runs = {"base": [], "change": []}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, seed, spec["run_seconds"]))
        print(f"pair {i + 1}/{PAIRS} (seed {seed}, {order[0]} first) done", flush=True)

    def values(name):
        return tuple([r["result"]["metrics"][name]["value"] for r in runs[side]]
                     for side in ("base", "change"))

    def raw_values(name):
        return tuple([r["raw"][name] for r in runs[side]] for side in ("base", "change"))

    table = {m["name"]: verdict(m, values(m["name"]), raw_values(m["name"]))
             for m in spec["end_to_end"]}
    correct = {side: all(r["result"]["correct"] for r in runs[side]) for side in runs}
    failed = {side: sum(r["result"]["failed"] for r in runs[side]) for side in runs}
    print(f"{args.workload}: {PAIRS} pairs; correct {correct}; failed ops {failed}")
    print(f"{'metric':16s} {'unit':9s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} won  verdict")
    for name, row in table.items():
        b, c = row["base"], row["change"]
        print(f"{name:16s} {row['unit']:9s} "
              f"{b['median']:<10.5g} [{b['q1']:.5g}, {b['q3']:.5g}]".ljust(61)
              + f" {c['median']:<10.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(35)
              + f" {row['pairs_won']:.2f} {row['verdict']}"
              + ("" if len(set(row["calls"].values())) == 1 else
                 f" (scaled {row['calls']['scaled']}, raw {row['calls']['raw']})"))
    out = HERE / ".work" / f"compare-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"sides": {k: str(v) for k, v in sides.items()},
                               "metrics": table, "runs": runs}, indent=1))
    print(f"record written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
