#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

Save the standard output of several runs per side, then:

    python3 perfbench/run.py --workload sim-bitcoin-6k --seed 1 >> before.out
    ...
    python3 perfbench/compare.py before.out after.out

For every workload and metric it prints both medians, the change, and the
metric's bound from BENCHMARK.json, and marks a change worse than the bound
as REGRESSED. Times are comparable only between runs on the same host:
when the two sides' host fingerprints (GOMAXPROCS, nproc, CPU model, Go
version) differ, every time metric is marked "not comparable" instead of
being judged. Exits 1 if any comparable metric regressed.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("gomaxprocs", "nproc", "cpu_model", "go_version")
TIME_UNITS = ("s", "ms", "ns", "tx/s", "MB/s")
# Simulated (virtual) time does not depend on the host.
VIRTUAL_TIME = ("sim_steady_tps", "sim_p50_confirm_s", "sim_p99_confirm_s")


def load(path):
    """Returns ({workload: {metric: [values]}}, {host fingerprints}, units)."""
    runs, hosts, units = {}, set(), {}
    header = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if "fingerprint" in rec:
                header = rec
                hosts.add(tuple(rec["fingerprint"][k] for k in HOST_KEYS))
            elif "metrics" in rec and header is not None:
                wl = runs.setdefault(header["workload"], {})
                for name, m in rec["metrics"].items():
                    wl.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                header = None
    return runs, hosts, units


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    a, hosts_a, units = load(sys.argv[1])
    b, hosts_b, _ = load(sys.argv[2])
    same_host = len(hosts_a | hosts_b) == 1
    if not same_host:
        print("WARNING: host fingerprints differ; time metrics are not comparable:")
        for h in sorted(hosts_a | hosts_b):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h)))
    regressed = False
    for wl in sorted(set(a) & set(b)):
        print("\n" + wl)
        for name in sorted(set(a[wl]) & set(b[wl])):
            ma, mb = statistics.median(a[wl][name]), statistics.median(b[wl][name])
            change = (mb - ma) / ma if ma else float("nan")
            worse = -change if better.get(name) == "higher" else change
            verdict = ""
            if not same_host and units[name] in TIME_UNITS and name not in VIRTUAL_TIME:
                verdict = "not comparable"
            elif bound.get(name) is not None and worse > bound[name]:
                verdict = "REGRESSED (bound %.0f%%)" % (100 * bound[name])
                regressed = True
            print("  %-30s %14.6g -> %-14.6g %+7.2f%%  %s" % (name, ma, mb, 100 * change, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
