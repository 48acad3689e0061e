"""Steadiness check: run the benchmark on several seeds per workload.

    python3 e2ebench/prove.py --seeds 10 [--repeats 1] [--workloads a,b]
                              [--out FILE]

It runs ``run.py`` once per seed and workload (``--trace 0``,
``run_seconds`` from BENCHMARK.json), seeds in the outer loop and
workloads in the inner one, then ``--repeats`` more times on the first
seed.  Per end-to-end metric it prints the median over the seeds and
the spread — the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median — next
to the metric's bound, and how far each repeat of the first seed lies
from its first run: host drift, apart from any seed effect.
``--out`` writes the medians, spreads, every run's values and the host
facts as JSON.  Exits 1 if a run fails or is not correct, if the runs
of the first seed disagree on ``sim_digest``, or if a spread other than
``setup_s``'s reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest"))
    return json.loads(lines[-1]), digest


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1,
                        help="extra runs of the first seed, after the rest")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    sys.path.insert(0, str(HERE))
    import run   # host facts only; importing runs no benchmark
    report = {"host": run.host_facts(),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    runs = {name: [] for name in names}
    ok = True
    # seeds in the outer loop, workloads in the inner one, so a slow or
    # fast period of the host spreads over every workload and seed
    # instead of landing on a run of consecutive seeds
    for seed in seeds + [args.first_seed] * args.repeats:
        for name in names:
            result, digest = run_once(name, seed, bench["run_seconds"])
            ok &= result["correct"] and result["failed"] == 0
            runs[name].append({"seed": seed, "sim_digest": digest,
                               "correct": result["correct"],
                               "attempted": result["attempted"],
                               "failed": result["failed"],
                               "metrics": {m: v["value"] for m, v
                                           in result["metrics"].items()}})
            print("%s seed %d: correct=%s failed=%d/%d %s"
                  % (name, seed, result["correct"], result["failed"],
                     result["attempted"], json.dumps(runs[name][-1]["metrics"])),
                  flush=True)
    for name in names:
        seeded = runs[name][:len(seeds)]
        repeats = runs[name][len(seeds):]
        digests = {r["sim_digest"] for r in runs[name]
                   if r["seed"] == args.first_seed}
        if len(digests) != 1:
            ok = False
            print("  %s: seed %d gave sim_digests %s"
                  % (name, args.first_seed, sorted(digests)), flush=True)
        print("%s:" % name, flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in seeded]
            s = spread(values)
            # the same seed run again later: how far the host drifted
            again = [abs(r["metrics"][metric] / seeded[0]["metrics"][metric]
                         - 1.0) for r in repeats]
            summary[metric] = {"median": statistics.median(values),
                               "spread": s, "bound": bound,
                               "repeat_drift": again}
            steady = metric == "setup_s" or s < bound / 3
            ok &= steady
            print("  %-14s median %-12.6g spread %.4f bound %.2f "
                  "repeat drift %s %s"
                  % (metric, statistics.median(values), s, bound,
                     " ".join("%.4f" % d for d in again),
                     "" if steady else "NOT STEADY"), flush=True)
        report["workloads"][name] = {"summary": summary, "runs": runs[name]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2,
                                             sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
