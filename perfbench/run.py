"""Benchmark for crossmodal: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload train-desk --seed 3 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead. The line before it is a fuller report (metric
names as the workload describes them, output checks, environment, tracing
overhead); the same report is written under ``perfbench/_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# The paper's system runs on one core. Pin BLAS threads before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_DIR = BENCH / "_run"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5


def _import_program():
    if not (ROOT / "src" / "crossmodal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no crossmodal sources under {ROOT / 'src'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def compare(record, expected, rtol: float, atol: float) -> tuple[bool, bool]:
    """(within tolerance, bitwise equal). Hash fields count only for the
    bitwise verdict; every other number is compared within tolerance."""
    from workloads import flatten
    got, want = flatten(record), flatten(expected)
    if got.keys() != want.keys():
        return False, False
    ok = True
    for key, value in got.items():
        ref = want[key]
        if key.endswith("sha256"):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and isinstance(ref, (int, float)) and not isinstance(ref, bool):
            ok &= abs(value - ref) <= atol + rtol * abs(ref)
        else:
            ok &= value == ref
    return bool(ok), got == want


def end_to_end(workload, durations: dict[str, list[float]],
               samples: dict[str, int]) -> dict[str, float]:
    """Round time, sound and text times, and throughput, from op means.

    Each kind's time is the mean of every operation of that kind in the run,
    and a round is the sum of those means over ``round_kinds``. On a shared
    machine whose speed shifts between phases for seconds at a time, a mean
    follows the share of the run spent in each phase smoothly, where a median
    jumps from one phase to the other.
    """
    mean = {k: statistics.fmean(v) for k, v in durations.items()}
    counted = [k for k in durations if samples[k]]
    return {
        "round_s_mean": sum(mean[k] for k in workload.round_kinds),
        "sound_ms_mean": mean[workload.sound_kind] * 1e3,
        "text_ms_mean": mean[workload.text_kind] * 1e3,
        "samples_per_s": sum(samples[k] for k in counted)
        / sum(sum(durations[k]) for k in counted),
    }


def op_p90_ms(durations) -> tuple[float, int]:
    every = [t for v in durations.values() for t in v]
    return statistics.quantiles(every, n=10)[-1] * 1e3, len(every)


def speed_probe_ms() -> float:
    """Median time of a fixed numpy and Python kernel that runs no crossmodal
    code. Across runs it shows the machine itself running slower."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 64, 500))
    w = rng.standard_normal((64, 64))
    a = rng.standard_normal((200, 200))
    times = []
    for _ in range(7):  # the median drops the first, cold repetition
        start = time.perf_counter()
        np.einsum("bcl,fc->bfl", x, w)
        acc = a @ a
        for row in a:
            acc = acc + row
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment(stage: str, env: dict) -> None:
    import numpy as np
    env[f"loadavg_{stage}"] = list(os.getloadavg())
    env[f"speed_probe_ms_{stage}"] = speed_probe_ms()
    if stage == "start":
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        env.update({
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": _commit(),
            "python": sys.version.split()[0],
        })


def _commit() -> str | None:
    """The checked-out commit, read from .git if there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def timed(fn, tracer, name: str):
    """Call fn and return (its result or the exception it raised, seconds).
    With a tracer, the call runs with every wrapper installed, under a root
    span called name."""
    with tracer.root(name) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        return result, time.perf_counter() - start


def run(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict, dict]:
    import layertrace as tr
    from workloads import VARIANTS, WORKLOADS

    reference = load_reference()
    tol = reference["tolerance"]
    expected = reference[name]
    env: dict = {}
    environment("start", env)
    tracer = tr.Tracer() if traced else None

    workload = WORKLOADS[name](seed % VARIANTS, RUN_DIR / f"work-{name}-{os.getpid()}")
    setups = []
    try:
        for index in range(SETUP_REPEATS):
            if index:
                workload.discard()
            error, elapsed = timed(lambda: workload.setup(index), tracer, "setup")
            if isinstance(error, Exception):
                raise error
            setups.append(elapsed)

        # In a traced run, even rounds are traced and odd rounds are not; the
        # difference between the two halves is the tracing overhead. It makes
        # one round more than the minimum, so that both halves exist.
        durations = {mode: {k: [] for k in workload.kinds} for mode in ("plain", "traced")}
        samples = {mode: dict.fromkeys(workload.kinds, 0) for mode in ("plain", "traced")}
        attempted = failed = bitwise = 0
        failures: list[str] = []
        ops = workload.operations()
        began = time.perf_counter()
        rounds = 0
        while rounds < workload.min_rounds + traced or time.perf_counter() - began < seconds:
            mode = "traced" if traced and rounds % 2 == 0 else "plain"
            for _ in workload.kinds:
                op = next(ops)
                attempted += 1
                record, elapsed = timed(op.fn, tracer if mode == "traced" else None,
                                        f"op.{op.kind}")
                durations[mode][op.kind].append(elapsed)
                samples[mode][op.kind] += op.samples
                if isinstance(record, Exception):
                    failed += 1
                    failures.append(f"{op.key}: " + "".join(traceback.format_exception(record)))
                    continue
                ok, same = compare(record, expected[op.key], tol["rtol"], tol["atol"]) \
                    if op.key in expected else (False, False)
                bitwise += same
                if not ok:
                    failed += 1
                    failures.append(f"{op.key}: output differs from reference")
            rounds += 1
    finally:
        workload.close()
    environment("end", env)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {"workload": name, "seed": seed, "variant": workload.variant,
              "seconds": seconds, "trace": int(traced), "rounds": rounds,
              "attempted": attempted, "failed": failed,
              "failed_op_share": failed / attempted,
              "outputs_bitwise_equal_reference": bitwise == attempted,
              "tolerance": tol, "failures": failures[:5], "environment": env}
    main_mode = "traced" if traced else "plain"
    e2e = end_to_end(workload, durations[main_mode], samples[main_mode])
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = peak_rss_mb
    report["setup_runs_s"] = setups
    report["samples"] = {k: len(v) for k, v in durations[main_mode].items()}
    report["op_ms_p50"] = {k: statistics.median(v) * 1e3
                           for k, v in durations[main_mode].items()}
    report["end_to_end"] = e2e
    report["as_described"] = {alias: e2e[metric] for alias, metric in workload.aliases.items()}
    if workload.p90_name:
        p90, count = op_p90_ms(durations[main_mode])
        report["as_described"][workload.p90_name] = p90
        report["as_described"][f"{workload.p90_name}_samples"] = count

    metrics = {m["name"]: (e2e[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    if traced:
        plain = end_to_end(workload, durations["plain"], samples["plain"])
        report["tracing_overhead"] = {k: e2e[k] - plain[k] for k in plain}
        layers = tr.layer_metrics(tracer.spans)
        layers["trace.overhead_pct"] = (
            (e2e["round_s_mean"] / plain["round_s_mean"] - 1) * 100, "%")
        report["step_accounting_ms"] = tr.step_accounting(tracer.spans)
        report["per_layer"] = {k: v for k, (v, _) in layers.items()}
        metrics = layers
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(RUN_DIR / f"spans-{name}-seed{seed}.jsonl")
    return report, metrics, durations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    report, metrics, durations = run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    out = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**report, "durations_s": durations}, indent=1) + "\n",
                   encoding="utf-8")
    for line in report["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
