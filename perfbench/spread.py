"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads certify cost lsmc --seeds 10 \
        --seconds 28 --out .bench_out/spread.json

Runs run.py once per (workload, seed), one after another, for seeds
``--first-seed`` .. ``--first-seed`` + N - 1, and reports for
every metric the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  baseline.json
beside this file is this script's output on the commit it names.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return dict(median=med, q1=q1, q3=q3,
                spread=(q3 - q1) / abs(med) if med else None, values=values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["certify", "cost", "lsmc"])
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds N")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    doc = dict(seconds=args.seconds, trace=args.trace, first_seed=args.first_seed,
               workloads={})
    for name in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            env = next(json.loads(line.split(": ", 1)[1]) for line in lines
                       if line.startswith("environment: "))
            res = json.loads(lines[-1])
            runs.append(dict(seed=seed, **res))
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            metrics[key] = dict(unit=first["unit"],
                                **summarise([r["metrics"][key]["value"] for r in runs]))
        doc["workloads"][name] = dict(
            correct=all(r["correct"] for r in runs),
            attempted=sum(r["attempted"] for r in runs),
            failed=sum(r["failed"] for r in runs),
            metrics=metrics)
        doc["environment"] = env
        for key, m in metrics.items():
            print(f"  {name:<8} {key:<40} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
