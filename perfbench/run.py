"""gripsense benchmark runner.

    python3 perfbench/run.py --workload {collect,train,control} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. With
--trace 0 the workload's set-up runs several times (setup_s is their
median), then measured rounds repeat until S seconds have passed and the
workload's minimum number of rounds ran, and the end-to-end metrics are
printed. With --trace 1 the
set-up runs once, traced, then untraced and traced rounds alternate
likewise; the per-layer metrics come from the spans of the traced rounds
(a per-call timing that no round has comes from the traced set-up), and the
traced rounds must reproduce the untraced rounds' output digests.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it are a readable table. The full result, with the
machine description, goes to .perfbench/ under the working directory, and
the spans of the latest traced run of a workload to
.perfbench/spans-<workload>.json and, for its set-up,
.perfbench/spans-<workload>-setup.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = Path(".perfbench")
# One BLAS thread. On a host whose cores are shared, a second OpenBLAS
# thread made small matmuls up to twice as slow and bimodal from run to
# run. A value already set in the environment wins and is recorded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    src = Path.cwd() / "src"
    if not (src / "gripsense").is_dir():
        raise SystemExit(f"error: no gripsense sources under {src}; run from "
                         "the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def git_commit() -> str:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    ref_file = Path(".git") / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = Path(".git") / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_untraced(workload, work: Path, seconds: float, tally):
    import reference
    from workloads import stage_rate
    setups, host_setups = [], []
    for _ in range(workload.sizes.setup_repeats):
        mark = len(reference.samples)
        t0 = time.perf_counter()
        workload.setup(work, tally)
        host_setups.append(time.perf_counter() - t0)
        setups.append(host_setups[-1] * reference.correction(mark))
    workload.warm_up(work, tally)
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - t0 < seconds:
        mark = len(reference.samples)
        rounds.append(workload.run_round(work, tally))
        rounds[-1].correction = reference.correction(mark)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(setups), "s",
                           f"median of {len(setups)} set-ups, in reference s"),
               "peak_rss_mb": (rss_mb, "MiB", "ru_maxrss of this process")}
    for generic, stage, units, _ in workload.stages:
        metrics[generic] = (stage_rate(rounds, units, stage), "1/s",
                            f"{units} per reference s of {stage}, "
                            f"over {len(rounds)} rounds")
    return metrics, rounds, {"setup_s": setups, "setup_host_s": host_setups}, []


def run_traced(workload, work: Path, seconds: float, tally, spans_path: Path):
    from layers import layer_table, per_layer_metrics
    from spans import Tracer
    tracer, setup_tracer = Tracer(), Tracer()
    # The set-up is traced on its own: a layer that only the set-up runs
    # (training, in control) still gets per-call timings.
    with setup_tracer.installed():
        workload.setup(work, tally)
    workload.warm_up(work, tally)
    plain, traced, walls = [], [], ([], [])
    t0 = time.perf_counter()
    order = (True, False)
    while len(traced) < workload.min_rounds or time.perf_counter() - t0 < seconds:
        # The traced round goes first in the first pair: a first round after
        # set-up runs slower, and this way that bias can only raise overhead.
        for is_traced in order:
            t = time.perf_counter()
            if is_traced:
                with tracer.installed():
                    traced.append(workload.run_round(work, tally, tracer))
            else:
                plain.append(workload.run_round(work, tally))
            walls[is_traced].append(time.perf_counter() - t)
        order = order[::-1]
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            tally.flag(f"traced digest {b.digest} differs from untraced {a.digest}")
    tracer.write(spans_path)
    setup_tracer.write(spans_path.with_name(f"{spans_path.stem}-setup.json"))
    overhead = statistics.median(walls[1]) / statistics.median(walls[0])
    metrics = per_layer_metrics(tracer, len(traced), traced,
                                work / "data", overhead, setup_tracer)
    table = [f"# span {name:30s} calls {calls:7d}  total {total_ms:10.1f} ms  "
             f"self {self_ms:10.1f} ms"
             for name, calls, total_ms, self_ms in layer_table(tracer.spans)]
    return metrics, plain + traced, {"untraced_round_s": walls[0],
                                     "traced_round_s": walls[1]}, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    _import_program()
    from layers import describe
    from workloads import FULL, WORKLOADS, Tally
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, FULL)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}"
    tally = Tally()
    try:
        if args.trace:
            metrics, rounds, timings, table = run_traced(
                workload, work, args.seconds, tally,
                OUT_DIR / f"spans-{args.workload}.json")
            named = {}
        else:
            metrics, rounds, timings, table = run_untraced(workload, work, args.seconds,
                                                           tally)
            named = workload.named_metrics(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = sorted({r.digest for r in rounds})
    if len(digests) != 1:
        tally.flag(f"rounds gave {len(digests)} different digests")
    correct = tally.failed == 0

    info = machine()
    print(f"# machine: {json.dumps(info, sort_keys=True, default=str)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds, digest {','.join(digests)}")
    for line in table:
        print(line)
    for name, (value, unit, note) in {**named, **metrics}.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    for stage, values in sorted(_op_latencies(rounds).items()):
        print(f"# op {stage}_ms: {describe(values)}")
    for error in tally.errors[:20]:
        print(f"# FAILED: {error}")

    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps({
        **result, "named_metrics": {k: {"value": v, "unit": u, "note": n}
                                    for k, (v, u, n) in named.items()},
        "digests": digests, "machine": info, "timings": timings,
        "rounds": [{"stage_s": r.stage_s, "units": r.units,
                    "correction": r.correction} for r in rounds],
        "errors": tally.errors}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def _op_latencies(rounds) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in rounds:
        for stage, values in r.op_ms.items():
            out.setdefault(stage, []).extend(values)
    return out


if __name__ == "__main__":
    sys.exit(main())
