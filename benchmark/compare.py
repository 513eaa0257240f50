#!/usr/bin/env python3
"""Compares msrabench results of a parent commit and a change.

    python3 benchmark/compare.py [--model-change] PARENT_DIR CHANGE_DIR

Each directory holds the result documents msrabench wrote with --json
(benchmark/run.sh puts them under --out DIR); trace files are skipped and
subdirectories are searched. Results pair up by workload and seed, in
file-name order, so run the two sides alternately with the same seeds. For
every (workload, end-to-end metric) it prints one row.

Virtual metrics are exact for a seed, so they are compared pair by pair: a
row whose every pair agrees to 1e-9 relative is "identical", and any other
is "CHANGED", which fails the comparison. A change that means to alter the
model's output passes --model-change; its virtual rows are then judged like
the host rows.

Host rows (and virtual rows under --model-change) follow the rule for
claiming a gain or ruling out a regression:

  * at least ten pairs;
  * a gain needs the change to win at least 9 in 10 pairs (ties count for
    neither side) and the medians to differ by more than the parent's
    interquartile range;
  * no metric may get worse than its BENCHMARK.json bound, as a share of
    the parent's median; where either side's spread exceeds the bound the
    row is "unresolved" unless every change run beats every parent run.

Every workload must also keep its failed share (failed and refused over
attempted) from growing, and each pair's outputs_digest must be equal.
Exits 1 when a rule fails, 0 otherwise.
"""
import json
import pathlib
import statistics
import sys

# The end-to-end metrics on the host clock; every other one is virtual.
HOST_METRICS = {"setup_s", "host_req_per_s", "peak_rss_mb"}
VIRTUAL_TOLERANCE = 1e-9


def load(directory):
    """{(workload, seed): [doc, ...]} in file-name order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        doc = json.loads(path.read_text())
        if "workload" not in doc or "metrics" not in doc:
            continue
        runs.setdefault((doc["workload"], doc["seed"]), []).append(doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def same(a, b):
    return abs(a - b) <= VIRTUAL_TOLERANCE * max(abs(a), abs(b))


def better(a, b, higher):
    return a > b if higher else a < b


def verdict(p, c, wins, higher, bound):
    """(verdict, fails) for one row judged by the gain/regression rule."""
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    c_q1, c_q3 = quartiles(c)
    p_iqr = p_q3 - p_q1
    spread = max(p_iqr / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    worse = ((p_med - c_med) if higher else (c_med - p_med)) / p_med \
        if p_med else 0.0
    if spread > bound and not all(
            better(x, y, higher) for x in c for y in p):
        return "unresolved (spread > bound)", False
    if worse > bound:
        return "REGRESSION", True
    if (wins >= 0.9 * len(p) and abs(c_med - p_med) > p_iqr
            and better(c_med, p_med, higher)):
        return "gain", False
    return "within the bound", False


def main(argv):
    model_change = "--model-change" in argv
    dirs = [a for a in argv[1:] if a != "--model-change"]
    if len(dirs) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    parent, change = load(dirs[0]), load(dirs[1])

    pairs = {}  # workload -> [(parent doc, change doc)]
    for key, parent_docs in sorted(parent.items()):
        for p, c in zip(parent_docs, change.get(key, [])):
            pairs.setdefault(key[0], []).append((p, c))

    failed = False
    print(f"{'workload':14} {'metric':18} {'unit':9} "
          f"{'parent median [q1, q3]':36} {'change median [q1, q3]':36} "
          f"{'delta':>8} {'wins':>7} {'bound':>6}  verdict")
    for workload in sorted(pairs):
        runs = pairs[workload]
        n = len(runs)
        if n < 10:
            print(f"{workload:14} only {n} pairs; the rule needs at least 10")
            failed = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            p = [pr["metrics"][name]["value"] for pr, _ in runs]
            c = [ch["metrics"][name]["value"] for _, ch in runs]
            wins = sum(better(ch, pa, higher) for pa, ch in zip(p, c))
            if name not in HOST_METRICS and all(map(same, p, c)):
                row, fails = "identical", False
            elif name in HOST_METRICS or model_change:
                row, fails = verdict(p, c, wins, higher, metric["bound"])
            else:
                row, fails = "CHANGED (pass --model-change if meant)", True
            failed |= fails
            p_med, c_med = statistics.median(p), statistics.median(c)
            p_q1, p_q3 = quartiles(p)
            c_q1, c_q3 = quartiles(c)
            delta = 100.0 * (c_med - p_med) / p_med if p_med else 0.0
            print(f"{workload:14} {name:18} {metric['unit']:9} "
                  + f"{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]".ljust(36) + " "
                  + f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]".ljust(36)
                  + f" {delta:+7.2f}% {wins:3d}/{n:<3d} "
                  + f"{metric['bound']:6.3f}  {row}")

        p_failed = sum(pr["failed"] + pr["refused"] for pr, _ in runs)
        c_failed = sum(ch["failed"] + ch["refused"] for _, ch in runs)
        p_tried = sum(pr["attempted"] for pr, _ in runs)
        c_tried = sum(ch["attempted"] for _, ch in runs)
        if c_failed * p_tried > p_failed * c_tried:
            print(f"{workload:14} FAILED SHARE GREW: {p_failed}/{p_tried} -> "
                  f"{c_failed}/{c_tried}")
            failed = True
        for pr, ch in runs:
            if (pr["outputs_digest"] != ch["outputs_digest"]
                    or not ch["correct"]):
                print(f"{workload:14} seed {pr['seed']}: outputs differ or a "
                      f"correctness check failed")
                failed = True
                break
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
