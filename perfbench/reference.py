"""Recompute reference.json: the cost check's reference mean, or the yardstick's times.

    python3 perfbench/reference.py cost
    python3 perfbench/reference.py yardstick

``cost`` pools 8 ensembles of 8192 paths drawn from master seeds
1000000..1000007, seeds that the benchmark's own runs are not expected to
use, and records the mean cost of the cost workload's model and control with
its standard error.  Takes under a minute on a two-core x86-64 machine.

``yardstick`` runs each workload on the yardstick package alone, for seeds
0..2: an untimed warm-up set-up and operation, the workload's set-ups, then
checked operations for 12 seconds.  Per workload it records the medians over
the seeds of the median operation time, of the median path steps per
second, of the median set-up time and of the time to a standard error of
0.001.  run.py multiplies these by the checkout-to-yardstick ratios it
measures, so they fix the scale of every time the benchmark reports; change
them only together with the baseline.  Takes about five minutes on a
two-core x86-64 machine.
"""

import argparse
import datetime
import json
import statistics
import sys
import time

import run

BLOCKS = 8
FIRST_SEED = 1_000_000
YARDSTICK_SEEDS = 3
YARDSTICK_SECONDS = 12.0


def cost_reference():
    import numpy as np

    from tcfbsde.fbsde import ConstantControl, build_model, evaluate_cost, make_ensemble
    from workloads import Cost

    model, jump, sub, p = build_model(Cost.MODEL)
    values = []
    for b in range(BLOCKS):
        bundles = make_ensemble(sub, jump, p["horizon"], p["step"], Cost.ENSEMBLE,
                                FIRST_SEED + b)
        values.append(evaluate_cost(model, ConstantControl(Cost.CONTROL), bundles).per_path)
        print(f"block {b}: mean {values[-1].mean():.6f}", file=sys.stderr)
    values = np.concatenate(values)
    return dict(
        model=Cost.MODEL, control=Cost.CONTROL, paths=int(values.size),
        seeds=[FIRST_SEED, FIRST_SEED + BLOCKS - 1],
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(values.size)))


def yardstick_reference():
    import workloads

    pkg = run.package("yardstick")
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        per_seed = []
        for seed in range(YARDSTICK_SEEDS):
            work = cls(seed, pkg)
            work.setup(0)
            work.run(0)
            setups = [run.timed(work.setup, r)[0] for r in range(cls.SETUPS)]
            times = []
            deadline = time.perf_counter() + YARDSTICK_SECONDS
            while len(times) < run.MIN_PAIRS or time.perf_counter() < deadline:
                i = len(times) + 1
                t, result = run.timed(work.run, i)
                times.append((i, t))
                work.check(i, result)
            op_s = statistics.median(t for _, t in times)
            per_seed.append(dict(
                op_s=op_s,
                time_to_se=op_s * work.se_squared([i for i, _ in times]) / 1e-6,
                path_steps_per_s=statistics.median(work.steps(i) / t for i, t in times),
                setup_s=statistics.median(setups)))
            print(f"{name} seed {seed}: {per_seed[-1]}", file=sys.stderr)
        out[name] = {key: statistics.median(s[key] for s in per_seed)
                     for key in ("op_s", "path_steps_per_s", "setup_s")}
        out[name]["time_to_se1e-3_s"] = statistics.median(s["time_to_se"] for s in per_seed)
    env = run.environment()
    return dict(seeds=[0, YARDSTICK_SEEDS - 1], seconds=YARDSTICK_SECONDS,
                date=datetime.date.today().isoformat(),
                machine=f"{env['nproc']}-core {env['machine']}, one BLAS thread",
                workloads=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("part", choices=("cost", "yardstick"))
    args = ap.parse_args(argv)
    run.load_package()
    from workloads import HERE

    path = HERE / "reference.json"
    doc = json.loads(path.read_text())
    doc[args.part] = cost_reference() if args.part == "cost" else yardstick_reference()
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc[args.part], indent=2))


if __name__ == "__main__":
    main()
