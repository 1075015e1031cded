#!/usr/bin/env python3
"""A/B runs of perfbench that decide: parent, change and a second parent.

    scripts/ab_perfbench.py --out AB.json [--parent REV] [--change REV]
        [--seeds 1000-1009] [--trace-seeds 2000-2004] [--scratch DIR]
    scripts/ab_perfbench.py --summarize AB.json   (recompute and store)
    scripts/ab_perfbench.py --selftest

Exports three trees with `git archive` into a scratch directory outside the
repository: the parent, the change and a second copy of the parent
(parent2, the A/A control). --change defaults to the working tree (tracked
and staged files, through `git stash create`), --parent to HEAD. Each tree
builds through its own perfbench/run.py, so the benchmark code and settings
are each tree's own; a tree already exported from the same commit is
reused with its build. A tree directory that holds anything this script
did not export is never deleted: the run stops instead.

Each seed runs every workload of BENCHMARK.json untraced (--trace 0) for
its run_seconds, once per tree, and the order of the three trees rotates
from seed to seed. --trace-seeds adds traced pairs (parent and change,
alternating which runs first) for the per-layer metrics. Every run lands
in --out, a raincore.bench.pairs.v1 file; runs already in it are kept, so
a second call adds seeds.

The summary gives, per workload and end-to-end metric, each tree's median
and quartiles, the change's wins over the parent on the same seed (ties
count for neither), the parent/parent2 median gap, and a verdict:
  gain       over at least ten pairs, the change wins at least 9 in 10,
             its median beats the parent's by more than the parent's
             spread (the larger of its interquartile range and the
             parent/parent2 gap), and no larger share of its operations
             failed;
  no worse   the median is no worse than BENCHMARK.json's bound and the
             spread is within the bound (or every change run beats every
             parent run);
  worse      the median is worse by more than the bound, and the spread is
             within it;
  unresolved the spread exceeds the bound.
Medians, quartiles, the gap and the wins count every run. A run with
failed > 0, correct false, or a p90 above 1.25x the median p90 of its
workload's runs is also listed and flagged, so that an outlier can be
looked at; the flag changes no statistic.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "raincore.bench.pairs.v1"
TREES = ("parent", "change", "parent2")
E2E = ("op_p50_ms", "op_p90_ms", "setup_s")
P90_FLAG = 1.25
WIN_SHARE = 0.9
MIN_PAIRS = 10
RUN_TIMEOUT_S = 400
# The per-layer rows a traced pair reports; hop_transit_us is derived from
# two of them: a rotation is one dwell plus one transit at each of the
# udp workloads' 4 nodes. The rotation p50 comes from a bucketed histogram
# (131 us steps near 8.6 ms), so the derived transit moves in 33 us steps.
TRACED = ("cpu_us_per_op", "io.cpu_us_per_op", "worker.cpu_us_per_op",
          "transport.ack_p50_us", "session.rotation_p50_ms",
          "session.eating_dwell_p50_ms", "session.token_hops_per_s",
          "gen.late_p99_ms", "trace.overhead_frac", "hop_transit_us")
UDP_NODES = 4


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev):
    if rev == "worktree":
        rev = git("stash", "create") or "HEAD"
    return git("rev-parse", "--verify", rev + "^{commit}")


def export(sha, dest):
    """Exports `sha` into `dest`. A directory this script exported (it holds
    an .ab_rev mark) is reused for the same commit and replaced otherwise;
    any other `dest` must be missing or empty."""
    mark = os.path.join(dest, ".ab_rev")
    if os.path.isfile(mark):
        with open(mark) as f:
            if f.read().strip() == sha:
                return
        shutil.rmtree(dest)
    elif os.path.exists(dest) and not (os.path.isdir(dest) and
                                        not os.listdir(dest)):
        sys.exit("ab_perfbench: %s is not empty and holds no export of this "
                 "script; give --scratch a new or empty directory" % dest)
    os.makedirs(dest, exist_ok=True)
    with open(mark, "w") as f:  # claims dest before the export lands in it
        f.write("partial\n")
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("ab_perfbench: git archive %s failed" % sha)
    with open(mark, "w") as f:
        f.write(sha + "\n")


def run_one(tree_dir, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=tree_dir, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        res = json.loads(last)
    except (subprocess.TimeoutExpired, ValueError):
        return {"correct": False, "failed": 0, "attempted": 0, "metrics": {},
                "error": "no result line"}
    return {"correct": bool(res.get("correct")),
            "failed": int(res.get("failed", 0)),
            "attempted": int(res.get("attempted", 0)),
            "metrics": {k: v["value"] for k, v in res["metrics"].items()}}


def parse_seeds(text):
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


# --- summary maths ---------------------------------------------------------

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def flag_runs(runs):
    """Marks each untraced run's `flags` (empty when clean)."""
    by_wl = {}
    for r in runs:
        if not r.get("trace"):
            by_wl.setdefault(r["workload"], []).append(r)
    for wl_runs in by_wl.values():
        p90s = [r["op_p90_ms"] for r in wl_runs if "op_p90_ms" in r]
        med = statistics.median(p90s) if p90s else 0.0
        for r in wl_runs:
            flags = []
            if r.get("failed", 0) > 0:
                flags.append("failed")
            if not r.get("correct", True):
                flags.append("incorrect")
            if "op_p90_ms" in r and r["op_p90_ms"] > P90_FLAG * med:
                flags.append("p90 > %.2fx median %.4g" % (P90_FLAG, med))
            r["flags"] = flags


def fail_share(runs):
    att = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / att if att else 0.0


def verdict(by_tree, bound, better="lower"):
    """by_tree: each tree's values by seed, every run counted. Returns the
    summary row."""
    sign = 1.0 if better == "lower" else -1.0
    row = {}
    for t in TREES:
        vals = list(by_tree.get(t, {}).values())
        if vals:
            q1, med, q3 = quartiles(vals)
            row[t] = {"n": len(vals), "median": med, "q1": q1, "q3": q3}
    if "parent" not in row or "change" not in row:
        row["verdict"] = "unresolved"
        return row
    par, chg = by_tree["parent"], by_tree["change"]
    seeds = sorted(set(par) & set(chg))
    wins = sum(1 for s in seeds if sign * (chg[s] - par[s]) < 0)
    losses = sum(1 for s in seeds if sign * (chg[s] - par[s]) > 0)
    delta = sign * (row["change"]["median"] - row["parent"]["median"])
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    aa = (abs(row["parent"]["median"] - row["parent2"]["median"])
          if "parent2" in row else 0.0)
    spread = max(iqr, aa)
    all_better = bool(par) and max(sign * v for v in chg.values()) < min(
        sign * v for v in par.values())
    row.update({"pairs": len(seeds), "wins": wins, "losses": losses,
                "delta": sign * delta, "parent_iqr": iqr, "aa_gap": aa,
                "bound": bound})
    if len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds) and \
            -delta > spread:
        row["verdict"] = "gain"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif delta > bound:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "no worse"
    return row


def summarize(doc, bounds):
    runs = doc["runs"]
    flag_runs(runs)
    out = {"e2e": {}, "traced": {}, "flagged": []}
    for r in runs:
        if r.get("flags"):
            out["flagged"].append({k: r[k] for k in (
                "workload", "seed", "tree", "op_p50_ms", "op_p90_ms",
                "failed", "flags") if k in r})
    for wl in sorted({r["workload"] for r in runs if not r.get("trace")}):
        wl_runs = [r for r in runs if r["workload"] == wl and not r.get("trace")]
        shares = {t: fail_share([r for r in wl_runs if r["tree"] == t])
                  for t in TREES}
        rows = {}
        for m in E2E:
            by_tree = {}
            for r in wl_runs:
                if m in r:
                    by_tree.setdefault(r["tree"], {})[r["seed"]] = r[m]
            row = verdict(by_tree, bounds.get(m, 0.0))
            if row["verdict"] == "gain" and shares["change"] > shares["parent"]:
                row["verdict"] = "unresolved"
            rows[m] = row
        out["e2e"][wl] = {"failed_share": shares, "metrics": rows}
    for wl in sorted({r["workload"] for r in runs if r.get("trace")}):
        rows = {}
        for m in TRACED:
            stats = {}
            for r in runs:
                if r["workload"] == wl and r.get("trace") and m in r["metrics"]:
                    stats.setdefault(r["tree"], {})[r["seed"]] = r["metrics"][m]
            rows[m] = verdict(stats, float("inf"),
                              "higher" if m == "session.token_hops_per_s"
                              else "lower")
            for k in ("verdict", "bound", "aa_gap"):
                rows[m].pop(k, None)
        out["traced"][wl] = rows
    return out


def print_summary(summary):
    for wl, s in summary["e2e"].items():
        print("\n%s  (failed share: %s)" % (wl, ", ".join(
            "%s %.3g" % (t, v) for t, v in s["failed_share"].items())))
        for m, row in s["metrics"].items():
            cells = []
            for t in TREES:
                if t in row:
                    cells.append("%s %.4g [%.4g-%.4g] n=%d" % (
                        t, row[t]["median"], row[t]["q1"], row[t]["q3"],
                        row[t]["n"]))
            print("  %-10s %s" % (m, "; ".join(cells)))
            if "pairs" in row:
                print("  %-10s wins %d/%d (losses %d), delta %+.4g, parent IQR"
                      " %.4g, A/A gap %.4g, bound %.4g -> %s" % (
                          "", row["wins"], row["pairs"], row["losses"],
                          row["delta"], row["parent_iqr"], row["aa_gap"],
                          row["bound"], row["verdict"]))
    for wl, rows in summary["traced"].items():
        print("\n%s traced pairs (per-layer, medians [quartiles])" % wl)
        for m, row in rows.items():
            if "parent" not in row or "change" not in row:
                continue
            print("  %-28s parent %.4g [%.4g-%.4g]  change %.4g [%.4g-%.4g]"
                  "  wins %d/%d" % (
                      m, row["parent"]["median"], row["parent"]["q1"],
                      row["parent"]["q3"], row["change"]["median"],
                      row["change"]["q1"], row["change"]["q3"], row["wins"],
                      row["pairs"]))
    if summary["flagged"]:
        print("\nflagged runs (counted in every statistic above):")
        for f in summary["flagged"]:
            print("  %s" % json.dumps(f))


def load_benchmark():
    """BENCHMARK.json's run length, workload names and end-to-end bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return (bench["run_seconds"], [w["name"] for w in bench["workloads"]],
            {m["name"]: m["bound"] for m in bench["end_to_end"]})


# --- runs -------------------------------------------------------------------

def record(base, res, trace):
    rec = dict(base, correct=res["correct"], failed=res["failed"],
               attempted=res["attempted"])
    if "error" in res:
        rec["error"] = res["error"]
    if trace:
        m = dict(res["metrics"])
        if "session.rotation_p50_ms" in m and "session.eating_dwell_p50_ms" in m:
            m["hop_transit_us"] = 1e3 * (m["session.rotation_p50_ms"] / UDP_NODES
                                         - m["session.eating_dwell_p50_ms"])
        rec["trace"] = 1
        rec["metrics"] = m
    else:
        for k in E2E:
            if k in res["metrics"]:
                rec[k] = res["metrics"][k]
    return rec


def main_runs(a):
    seconds, workloads, bounds = load_benchmark()
    shas = {"parent": resolve(a.parent), "change": resolve(a.change)}
    shas["parent2"] = shas["parent"]
    scratch = a.scratch or tempfile.mkdtemp(prefix="raincore-ab-")
    if os.path.commonpath([os.path.abspath(scratch), ROOT]) == ROOT:
        sys.exit("ab_perfbench: --scratch must lie outside the repository")
    dirs = {t: os.path.join(scratch, t) for t in TREES}
    for t in TREES:
        export(shas[t], dirs[t])
        print("== %s %s: build and self-test" % (t, shas[t][:12]), flush=True)
        if subprocess.call([sys.executable, "perfbench/run.py", "--selftest"],
                           cwd=dirs[t], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) != 0:
            sys.exit("ab_perfbench: %s tree failed to build or self-test" % t)
    doc = {"schema": SCHEMA, "runs": []}
    if os.path.isfile(a.out):
        with open(a.out) as f:
            doc = json.load(f)
        if doc.get("trees", {}).get("parent") not in (None, shas["parent"]) or \
           doc.get("trees", {}).get("change") not in (None, shas["change"]):
            sys.exit("ab_perfbench: %s holds runs of other commits" % a.out)
    doc.update({
        "schema": SCHEMA,
        "command": "python3 perfbench/run.py --workload <w> --seed <n> "
                   "--seconds %d --trace <0|1>" % seconds,
        "host": "%s, %d CPUs, RelWithDebInfo, runs one at a time" % (
            platform.processor() or platform.machine(), os.cpu_count()),
        "order": "untraced: per seed each workload runs once per tree, the "
                 "tree order rotating parent, change, parent2 by one place "
                 "each seed; traced pairs alternate which tree runs first",
        "trees": {"parent": shas["parent"], "change": shas["change"],
                  "parent2": shas["parent"]},
    })
    doc.setdefault("what", "perfbench A/B: parent, change, parent2")

    def save():
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    for i, seed in enumerate(parse_seeds(a.seeds)):
        order = TREES[i % 3:] + TREES[:i % 3]
        for wl in workloads:
            for t in order:
                res = run_one(dirs[t], wl, seed, seconds, 0)
                doc["runs"].append(record({"phase": "rotation", "workload": wl,
                                           "seed": seed, "tree": t}, res, 0))
                print("  %s seed %d %-7s p50 %s" % (
                    wl, seed, t, doc["runs"][-1].get("op_p50_ms")), flush=True)
                save()
    for i, seed in enumerate(parse_seeds(a.trace_seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for wl in workloads:
            if wl == "kv-sim":
                continue
            for t in order:
                res = run_one(dirs[t], wl, seed, seconds, 1)
                doc["runs"].append(record({"phase": "traced pairs",
                                           "workload": wl, "seed": seed,
                                           "tree": t}, res, 1))
                print("  traced %s seed %d %s" % (wl, seed, t), flush=True)
                save()
    doc["summary"] = summarize(doc, bounds)
    save()
    print_summary(doc["summary"])
    return 0


# --- self-test ----------------------------------------------------------------

def selftest():
    bounds = {"op_p50_ms": 0.2, "op_p90_ms": 0.25, "setup_s": 0.25}

    def runs_of(parent, change, parent2, n=10):
        """Ten seeds of canned runs; each argument maps a seed to a p50."""
        out = []
        for sd in range(n):
            for tree, f in (("parent", parent), ("change", change),
                            ("parent2", parent2)):
                out.append({"workload": "w", "seed": sd, "tree": tree,
                            "op_p50_ms": f(sd), "op_p90_ms": 10.0,
                            "setup_s": 0.02, "failed": 0, "attempted": 100,
                            "correct": True})
        return out

    def p50_row(runs):
        return summarize({"runs": runs}, bounds)["e2e"]["w"]["metrics"]["op_p50_ms"]

    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)

    # A clear gain: the change wins 10 of 10 by more than the parent's spread.
    gain = runs_of(lambda sd: 9.0 + 0.01 * sd, lambda sd: 8.5 + 0.01 * sd,
                   lambda sd: 9.02 + 0.01 * sd)
    row = p50_row(gain)
    assert row["wins"] == 10 and row["pairs"] == 10 and row["losses"] == 0, row
    assert abs(row["delta"] + 0.5) < 1e-9 and row["verdict"] == "gain", row
    assert abs(row["aa_gap"] - 0.02) < 1e-9, row
    assert abs(row["parent"]["median"] - 9.045) < 1e-9, row
    p90 = summarize({"runs": gain}, bounds)["e2e"]["w"]["metrics"]["op_p90_ms"]
    assert p90["wins"] == 0 and p90["losses"] == 0 and p90["verdict"] == "no worse"

    # Fewer than ten pairs decide nothing, however clear.
    row = p50_row([r for r in gain if r["seed"] < 9])
    assert row["wins"] == 9 and row["verdict"] == "no worse", row

    # Ties count for neither side; 8 of 10 wins is below 9/10: no gain.
    ties = runs_of(lambda sd: 9.0 + 0.01 * sd,
                   lambda sd: 9.0 + 0.01 * sd if sd < 2 else 8.5 + 0.01 * sd,
                   lambda sd: 9.02 + 0.01 * sd)
    row = p50_row(ties)
    assert row["wins"] == 8 and row["losses"] == 0, row
    assert row["verdict"] == "no worse", row

    # Flags: failed > 0, correct false, p90 over 1.25x the set's median. They
    # list the runs and change no statistic: every run counts.
    gain[0]["failed"] = 5
    gain[0]["op_p50_ms"] = 9.9
    gain[3]["correct"] = False
    gain[6]["op_p90_ms"] = 12.6
    s = summarize({"runs": gain}, bounds)
    assert [(f["tree"], f["seed"]) for f in s["flagged"]] == [
        ("parent", 0), ("parent", 1), ("parent", 2)], s["flagged"]
    assert "failed" in s["flagged"][0]["flags"]
    assert "incorrect" in s["flagged"][1]["flags"]
    assert s["flagged"][2]["flags"][0].startswith("p90 > 1.25x"), s["flagged"]
    row = s["e2e"]["w"]["metrics"]["op_p50_ms"]
    assert row["parent"]["n"] == 10 and row["change"]["n"] == 10, row
    assert abs(row["parent"]["median"] - 9.055) < 1e-9, row
    assert abs(row["parent"]["q3"] - 9.0775) < 1e-9, row
    assert row["pairs"] == 10 and row["wins"] == 10, row
    row = s["e2e"]["w"]["metrics"]["op_p90_ms"]
    assert row["parent"]["n"] == 10 and row["losses"] == 0, row
    assert s["e2e"]["w"]["failed_share"]["parent"] == 5 / 1000

    # A gain with a larger failed share than the parent's is not a gain.
    gain[1]["failed"] = 7
    s = summarize({"runs": gain}, bounds)
    assert s["e2e"]["w"]["failed_share"]["change"] == 7 / 1000
    assert s["e2e"]["w"]["metrics"]["op_p50_ms"]["verdict"] == "unresolved"

    # Spread wider than the bound: unresolved, unless every change run beats
    # every parent run. A narrow spread and a shift past the bound: worse.
    wide = runs_of(lambda sd: 9.0 + 0.1 * sd, lambda sd: 9.05 + 0.1 * sd,
                   lambda sd: 9.0 + 0.1 * sd)
    row = p50_row(wide)
    assert row["parent_iqr"] > 0.2 and row["verdict"] == "unresolved", row
    apart = runs_of(lambda sd: 9.0 + 0.1 * sd, lambda sd: 8.0 + 0.01 * sd,
                    lambda sd: 9.0 + 0.1 * sd)
    apart[-2]["op_p50_ms"] = 10.0  # seed 9: one loss still leaves 9 of 10
    row = p50_row(apart)
    assert row["wins"] == 9 and row["verdict"] == "gain", row
    apart[-5]["op_p50_ms"] = 9.85  # seed 8: a second loss, and the spread
    row = p50_row(apart)           # is wider than the bound
    assert row["wins"] == 8 and row["verdict"] == "unresolved", row
    worse = runs_of(lambda sd: 9.0 + 0.01 * sd, lambda sd: 9.5 + 0.01 * sd,
                    lambda sd: 9.01 + 0.01 * sd)
    row = p50_row(worse)
    assert row["verdict"] == "worse" and row["losses"] == 10, row
    # The A/A gap counts as spread: parent2 0.6 ms off the parent.
    for r in worse:
        if r["tree"] == "parent2":
            r["op_p50_ms"] += 0.6
    row = p50_row(worse)
    assert row["aa_gap"] > 0.2 and row["verdict"] == "unresolved", row

    # Traced pairs: hop transit is derived from rotation and dwell, and
    # token hops per second count higher as better.
    rec = record({"workload": "u", "seed": 1, "tree": "parent"},
                 {"correct": True, "failed": 0, "attempted": 10,
                  "metrics": {"session.rotation_p50_ms": 8.6,
                              "session.eating_dwell_p50_ms": 2.0,
                              "session.token_hops_per_s": 400.0}}, 1)
    assert abs(rec["metrics"]["hop_transit_us"] - 150.0) < 1e-9, rec
    rec2 = json.loads(json.dumps(rec))
    rec2["tree"] = "change"
    rec2["metrics"]["session.token_hops_per_s"] = 410.0
    tr = summarize({"runs": [rec, rec2]}, bounds)["traced"]["u"]
    assert tr["session.token_hops_per_s"]["wins"] == 1, tr
    assert tr["hop_transit_us"]["wins"] == 0, tr
    assert parse_seeds("1000-1002") == [1000, 1001, 1002] and parse_seeds("7") == [7]

    # export() reuses its own export of the same commit and never deletes a
    # directory it did not make.
    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = os.path.join(tmp, "mine"), os.path.join(tmp, "theirs")
        os.makedirs(mine)
        with open(os.path.join(mine, ".ab_rev"), "w") as f:
            f.write("abc\n")
        export("abc", mine)
        assert os.listdir(mine) == [".ab_rev"]
        os.makedirs(theirs)
        with open(os.path.join(theirs, "keep"), "w") as f:
            f.write("x")
        try:
            export("abc", theirs)
            raise AssertionError("export replaced a directory it did not make")
        except SystemExit:
            pass
        assert os.listdir(theirs) == ["keep"]
    print("ab_perfbench selftest OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--summarize", metavar="FILE")
    ap.add_argument("--out")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default="worktree")
    ap.add_argument("--seeds", default="1000-1009")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--scratch")
    a = ap.parse_args()
    if a.selftest:
        return selftest()
    if a.summarize:
        with open(a.summarize) as f:
            doc = json.load(f)
        doc["summary"] = summarize(doc, load_benchmark()[2])
        with open(a.summarize, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print_summary(doc["summary"])
        return 0
    if not a.out:
        ap.error("--out is required for runs")
    return main_runs(a)


if __name__ == "__main__":
    sys.exit(main())
