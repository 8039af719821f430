#!/usr/bin/env python3
"""Records the benchmark's baseline at the checked-out commit.

Runs every workload in BENCHMARK.json (or those named with --workload)
untraced in two sets of --seeds runs each, one seed per run (1..N, then
N+1..2N), then once traced, and writes perfbench/baseline.json: per set and
end-to-end metric the values, their median and quartiles and the spread
(interquartile distance over the median) next to the metric's bound; how far
the second set's median lies from the first's; every metric the traced run
measured; and each run's provenance line. Run from the repository root:

    python3 perfbench/baseline.py            # two sets of ten seeds
    python3 perfbench/baseline.py --seeds 5 --sets 1 --workload tpch-warm
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stdout[-2000:]}\n{p.stderr[-4000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], elapsed


def summarize(values, bounds):
    out = {}
    for k, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        med = statistics.median(vs)
        out[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                  "bound": bounds.get(k), "values": vs}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append", help="run these workloads instead")
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    secs = spec["run_seconds"]
    out = {"run_seconds": secs, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        sets, runs = [], []
        for s in range(args.sets):
            seeds = list(range(s * args.seeds + 1, (s + 1) * args.seeds + 1))
            values = {}
            for seed in seeds:
                res, detail, elapsed = run(name, seed, secs, 0)
                assert res["correct"] and res["failed"] == 0, (name, seed, detail["errors"])
                runs.append({"seed": seed, "attempted": res["attempted"], "elapsed_s": elapsed, "detail": detail})
                for k, v in detail["end_to_end"].items():
                    values.setdefault(k, []).append(v)
            e2e = summarize(values, bounds)
            for k, m in e2e.items():
                flag = ""
                if m["bound"] is not None and k != "setup_s" and m["spread"] > m["bound"] / 3:
                    flag = "  above a third of its bound"
                print(f"{name:13s} set {s + 1} {k:16s} median {m['median']:12.4f} "
                      f"spread {m['spread']:.3f} bound {m['bound']}{flag}", flush=True)
            sets.append({"seeds": seeds, "end_to_end": e2e})
        # How much worse the second set's median is than the first's, as a
        # share of the first: the check a later change is held to.
        worse = {}
        if len(sets) > 1:
            for k, m in sets[1]["end_to_end"].items():
                first = sets[0]["end_to_end"][k]["median"]
                if k in bounds and first:
                    d = (m["median"] - first) / first
                    worse[k] = {"worse_by": d if better[k] == "lower" else -d, "bound": bounds[k]}
                    print(f"{name:13s} {k:16s} set 2 worse than set 1 by {worse[k]['worse_by']:+.3f} "
                          f"(bound {bounds[k]})", flush=True)
        res, tdetail, _ = run(name, 1, secs, 1)
        assert res["correct"] and res["failed"] == 0, (name, "traced", tdetail["errors"])
        out["workloads"][name] = {
            "sets": sets,
            "second_set_worse_by": worse,
            "per_layer": tdetail["per_layer"],
            "per_layer_samples": tdetail["samples"],
            "per_layer_not_exercised": tdetail["not_exercised"],
            "runs": runs,
        }
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
