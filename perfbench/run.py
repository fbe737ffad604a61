"""Benchmark of the tcfbsde package: one workload per run.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 28 --trace 0

Run from the repository root.  ``--workload all`` runs every workload, each
in its own process so that peak RSS stays per workload.  With ``--trace 0``
the run times each operation of the checkout's code next to the same
operation of the yardstick, a frozen copy of the package beside this file,
and prints the end-to-end metrics; with ``--trace 1`` it times untraced and
traced operations of the checkout's code for half the seconds each and
prints the per-layer metrics.  Every run checks the answers, prints a table
of metrics with units and the environment, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md beside this file for the workloads and what each metric means.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("certify", "cost", "lsmc")
# one operation runs at a time, in this process or a worker forked from it;
# one BLAS thread keeps that within nproc and keeps a shared two-core machine
# from adding thread contention
BLAS_THREADS = "1"
# a run times at least this many pairs of operations, however short --seconds
MIN_PAIRS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_package():
    """Import tcfbsde from this checkout's sources and nowhere else."""
    if not (SRC / "tcfbsde" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC / 'tcfbsde'}; "
                 "run from the root of a tcfbsde checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # numpy asks for transparent huge pages for large arrays; whether a
    # process gets them depends on the state of the machine's memory, so the
    # two halves of a pair could run on differently backed memory
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    import tcfbsde

    if Path(tcfbsde.__file__).resolve().parent != (SRC / "tcfbsde").resolve():
        sys.exit(f"error: imported tcfbsde from {tcfbsde.__file__}, not from {SRC}")


def package(name):
    """The cash and fbsde modules of ``tcfbsde`` or of the ``yardstick`` copy."""
    return types.SimpleNamespace(**{mod: importlib.import_module(f"{name}.{mod}")
                                    for mod in ("cash", "fbsde")})


def reference(name):
    """The yardstick's times on the reference machine, from reference.json."""
    doc = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    return doc["yardstick"]["workloads"][name]


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(python=platform.python_version(), numpy=np.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}",
                blas_threads=blas_threads(), blas_threads_env=BLAS_THREADS,
                nproc=len(os.sched_getaffinity(0)), machine=platform.machine(),
                commit=git_commit())


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def attempt(label, work, i, root=contextlib.nullcontext):
    """Run and time operation i, inside ``root()``, and check it.
    Returns (seconds, problems); seconds is None if the operation raised."""
    try:
        t0 = time.perf_counter()
        with root():
            out = work.run(i)
        t = time.perf_counter() - t0
        problems = work.check(i, out)
    except Exception:
        traceback.print_exc()
        t, problems = None, ["raised"]
    if problems:
        print(f"{label} operation {i} failed: {'; '.join(problems)}", flush=True)
    return t, problems


def run_ops(work, seconds, min_ops, root=contextlib.nullcontext):
    """Run checked operations 0, 1, ... until ``seconds`` have passed and at
    least ``min_ops`` ran.  Returns [(index, seconds)] of the operations that
    did not raise, the count that raised or failed a check, and the count run."""
    times, failed = [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        t, problems = attempt("checkout", work, i, root=root)
        if t is not None:
            times.append((i, t))
        failed += bool(problems)
        i += 1
    return times, failed, i


def worker(conn, pkg_name, name, seed):
    """One side of the pairs, in a process of its own: sets up and runs the
    workload on package ``pkg_name`` as the commands on ``conn`` say."""
    import workloads

    work = workloads.WORKLOADS[name](seed, package(pkg_name))
    for cmd, arg in iter(conn.recv, ("stop", None)):
        if cmd == "setup":
            conn.send(timed(work.setup, arg)[0])
        elif cmd == "op":
            conn.send(attempt(pkg_name, work, arg) + (work.steps(arg),))
        elif cmd == "pin":
            os.sched_setaffinity(0, {arg})
            conn.send(None)
        elif cmd == "stats":
            conn.send((work.se_squared(arg),
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


@contextlib.contextmanager
def sides(name, seed):
    """Fork one worker process per package; yields {label: connection} and
    stops and waits for both workers on the way out."""
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], {}
    try:
        for label, pkg_name in (("checkout", "tcfbsde"), ("yardstick", "yardstick")):
            conns[label], child = ctx.Pipe()
            procs.append(ctx.Process(target=worker, args=(child, pkg_name, name, seed)))
            procs[-1].start()
            child.close()
        yield conns
    finally:
        for conn in conns.values():
            with contextlib.suppress(OSError):
                conn.send(("stop", None))
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()


def ask(conn, cmd, arg):
    conn.send((cmd, arg))
    return conn.recv()


def end_to_end(name, seed, seconds):
    """Time the checkout's code against the yardstick, pair by pair.

    Each package runs in a worker process of its own, and both workers go
    through the same steps, so that neither side's data sits in memory the
    other side allocated first.  They first set up and run one checked
    operation at the same time, untimed, because the first set-up and the
    first operation in a process also pay for growing the heap.  Then both
    are pinned to one vCPU, and timed pairs follow, first of set-ups and
    then of operations: the checkout's and the yardstick's, one after the
    other on the same inputs, the order alternating from pair to pair.
    Operation pairs run until ``seconds`` have passed.  The metrics report
    the median of t_checkout / t_yardstick over the pairs, times the
    yardstick's time on the reference machine: a slow or fast spell of a
    shared machine hits both halves of a pair alike.
    """
    import workloads

    with sides(name, seed) as side:
        for cmd in ("setup", "op"):
            for conn in side.values():
                conn.send((cmd, 0))
            warm = [conn.recv() for conn in side.values()]
        attempted, failed = len(warm), sum(bool(problems) for _, problems, _ in warm)
        # The two vCPUs of a shared machine run at different speeds, and a
        # process tends to stay on the vCPU it ran on, so from here on both
        # workers run on the same one.
        cpu = max(os.sched_getaffinity(0))
        for conn in side.values():
            ask(conn, "pin", cpu)
        setups = []
        for r in range(workloads.WORKLOADS[name].SETUPS):
            order = ("yardstick", "checkout") if r % 2 else ("checkout", "yardstick")
            t = {label: ask(side[label], "setup", r) for label in order}
            setups.append((t["checkout"], t["yardstick"]))

        pairs = []
        deadline = time.perf_counter() + seconds
        i, last = 1, 0.0
        while i <= MIN_PAIRS or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            order = ("yardstick", "checkout") if i % 2 else ("checkout", "yardstick")
            t = {label: ask(side[label], "op", i) for label in order}
            attempted += len(t)
            failed += sum(bool(problems) for _, problems, _ in t.values())
            if None not in (t["checkout"][0], t["yardstick"][0]):
                pairs.append((i, t["checkout"][0], t["yardstick"][0], t["checkout"][2]))
            last = time.perf_counter() - t0
            i += 1
        if not pairs:
            sys.exit("error: every pair of operations raised")
        ops = [i for i, *_ in pairs]
        (se2, peak_rss_mb), (yard_se2, _) = (ask(side[label], "stats", ops)
                                             for label in ("checkout", "yardstick"))

    ref = reference(name)
    ratio = statistics.median(tw / ty for _, tw, ty, _ in pairs)
    setup_ratio = statistics.median(tw / ty for tw, ty in setups)
    se2_ratio = se2 / yard_se2
    metrics = {
        "op_s": (ref["op_s"] * ratio, "s"),
        "path_steps_per_s": (ref["path_steps_per_s"] / ratio, "1/s"),
        "time_to_se1e-3_s": (ref["time_to_se1e-3_s"] * ratio * se2_ratio, "s"),
        "setup_s": (ref["setup_s"] * setup_ratio, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = [tw for _, tw, _, _ in pairs]
    notes = dict(
        pairs=len(pairs), time_ratio=ratio, setup_ratio=setup_ratio,
        se_squared_ratio=se2_ratio,
        checkout_op_times_s=[round(t, 4) for t in wall],
        yardstick_op_times_s=[round(ty, 4) for _, _, ty, _ in pairs],
        checkout_setups_s=[round(tw, 4) for tw, _ in setups],
        yardstick_setups_s=[round(ty, 4) for _, ty in setups],
        wall_op_s=statistics.median(wall),
        wall_path_steps_per_s=statistics.median(k / tw for _, tw, _, k in pairs),
        wall_setup_s=statistics.median(tw for tw, _ in setups),
        wall_time_to_se1e_3_s=statistics.median(wall) * se2 / 1e-6)
    return metrics, attempted, failed, notes, []


def per_layer(work, seconds, seed):
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root(tracing.SETUP):
        work.setup(0)
    # untimed: the first operation in a process also pays for growing the heap
    _, problems = attempt("checkout", work, 0)
    failed_w = int(bool(problems))
    plain, failed_a, n_a = run_ops(work, seconds / 2, min_ops=1)
    with tracer.installed():
        traced, failed_b, n_b = run_ops(work, seconds / 2, min_ops=1,
                                        root=lambda: tracer.root(tracing.OP))
    layers, self_sum, root_sum = tracer.summary(n_b)
    units = {"calls": "count", "steps_sampled": "count", "jump_events": "count",
             "padded_cells": "count", "padding_efficiency": "ratio"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "s"))
               for name, value in layers.items()}
    # operations with the same index have the same inputs
    untraced = dict(plain)
    overhead = statistics.median(t - untraced[i] for i, t in traced if i in untraced)
    metrics["trace_overhead_s"] = (overhead, "s")
    problems = []
    if abs(self_sum - root_sum) > 1e-9 * root_sum:
        problems.append(f"self times sum to {self_sum!r}, traced operations "
                        f"took {root_sum!r}")
    path = ROOT / ".bench_out" / f"trace-{work.name}-seed{seed}.json.gz"
    tracer.write(path, dict(workload=work.name, seed=seed, operations=n_b,
                            environment=environment()))
    notes = dict(untraced_operations=len(plain), traced_operations=len(traced),
                 absent=tracer.absent, broken_counters=sorted(tracer.broken_counters),
                 self_time_sum_s=self_sum, traced_duration_s=root_sum,
                 trace_file=str(path.relative_to(ROOT)))
    return metrics, 1 + n_a + n_b, failed_w + failed_a + failed_b, notes, problems


def report(name, metrics, attempted, failed, notes, problems):
    print(f"workload {name}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")
    print(f"  {'fail_rate':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print("environment: " + json.dumps(environment()))
    for problem in problems:
        print(f"trace problem: {problem}")
    result = dict(correct=failed == 0 and not problems, attempted=attempted,
                  failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result), flush=True)


def run_all(args):
    """Each workload in a child process; the last line sums their results."""
    total = dict(correct=True, attempted=0, failed=0, metrics={})
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total), flush=True)


def main(argv=None):
    args = parse_args(argv)
    load_package()
    if args.workload == "all":
        run_all(args)
        return
    if args.trace:
        import workloads

        work = workloads.WORKLOADS[args.workload](args.seed, package("tcfbsde"))
        out = per_layer(work, args.seconds, args.seed)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    report(args.workload, *out)


if __name__ == "__main__":
    main()
