"""Closed-loop benchmark of the out-of-core compiler, runtime and job service.

One timed run of one workload::

    python3 perfbench/run.py --workload exec_chain --seed 1 --seconds 50 --trace 0

prints every end-to-end metric of ``BENCHMARK.json`` with its unit, then, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` is the separate traced run instead: spans around
each layer, a cProfile of the request path and the probes, reported as the
per-layer metrics, plus a Chrome trace-event file and a profile table under
``.perfbench/trace/``.

Every workload ``BENCHMARK.json`` lists, timed and traced, with a cross-run
exactness check (``compile_cold`` is not listed; name it to run it)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Steadiness report (k timed runs per workload on k seeds, then two seeds
repeated; median, quartiles and spread against each metric's bound)::

    python3 perfbench/run.py --workload all --steadiness 10 --seconds 50

A run exits non-zero on any failed output check, cache-state guard or
exactness check.  Run it from the repository root; it reads and writes only
inside the repository (scratch under ``.perfbench/``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: A timed run keeps going past ``--seconds`` until it has this many requests,
#: so at least ten latency samples lie beyond the p90.
MIN_REQUESTS = 100
#: Fresh interpreters timed from start to ready for ``setup_s``.
SETUP_REPEATS = 3
#: No run may measure for longer than this, whatever MIN_REQUESTS says.
HARD_CAP_S = 120.0
#: Traced run: interleaved untraced/traced requests for this share of the
#: seconds, the profiled requests for the rest.
TRACED_SHARE = 2 / 3
PROFILE_MIN_REQUESTS = 6


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------
def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: BLAS runs single-threaded unless the caller says otherwise: on a small
#: box its worker threads spin-wait against the interpreter and the service's
#: worker threads, which costs CPU and turns host noise into latency noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Make ``src/`` importable, pin BLAS threads, keep temporary files local.

    Runs before numpy is imported; child processes inherit the environment.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {SRC}; run from a "
                         "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = str(tmp)


def make_workdir(tag: str) -> Path:
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> Dict[str, str]:
    import numpy as np

    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    threads = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    return {"library": name, "threads": threads, "numpy": np.__version__}


def environment(seed: int, load_start: float) -> Dict[str, object]:
    cpus = os.cpu_count() or 1
    load_end = os.getloadavg()[0]
    return {
        "cpu_count": cpus,
        "load_avg_1m_start": load_start,
        "load_avg_1m_end": load_end,
        "load_above_cpu_count": max(load_start, load_end) > cpus,
        "blas": blas_info(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


class Outcome:
    __slots__ = ("index", "start", "end", "sample", "error")

    def __init__(self, index, start, end, sample, error):
        self.index, self.start, self.end = index, start, end
        self.sample, self.error = sample, error

    @property
    def latency(self) -> float:
        return self.end - self.start


def closed_loop(request: Callable, clients: int, seconds: float, min_requests: int,
                first_index: int = 0) -> tuple:
    """Run ``request(index)`` in a closed loop; returns (outcomes, window_s).

    Each client sends its next request only when the previous one returned.
    The loop stops once ``seconds`` have passed and ``min_requests`` were
    issued (or at HARD_CAP_S); requests in flight then complete.
    """
    from workloads import CheckFailed

    lock = threading.Lock()
    outcomes: List[Outcome] = []
    issued = [first_index]
    begin = time.perf_counter()
    stop_at, cap_at = begin + seconds, begin + HARD_CAP_S

    def client() -> None:
        while True:
            now = time.perf_counter()
            with lock:
                done = now >= stop_at and issued[0] - first_index >= min_requests
                if done or now >= cap_at:
                    return
                index = issued[0]
                issued[0] += 1
            start = time.perf_counter()
            sample, error = None, None
            try:
                sample = request(index)
                sample.index = index
            except CheckFailed as exc:
                error = str(exc)
            except Exception as exc:  # any other failure is counted, not fatal
                error = f"request {index}: {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            with lock:
                outcomes.append(Outcome(index, start, end, sample, error))

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    window = max((o.end for o in outcomes), default=begin) - begin
    return sorted(outcomes, key=lambda o: o.index), window


def exact_block(outcomes: Sequence[Outcome], prefix_length: int) -> Dict[str, object]:
    """Means over the first requests of the seeded sequence.

    The exact metrics (charged seconds and bytes, I/O counts, candidates)
    cover the workload's ``exact_prefix`` requests, so they depend on the seed
    alone, never on how many requests a run completed.
    """
    from workloads import CHARGED

    prefix = [o.sample for o in outcomes[:prefix_length] if o.sample is not None]
    block: Dict[str, object] = {"requests": len(prefix)}
    for field in CHARGED:
        block[field] = math.fsum(s.charges[field] for s in prefix) / max(len(prefix), 1)
    for field in ("candidates", "findings"):
        values = [getattr(s, field) for s in prefix if getattr(s, field) is not None]
        block[field] = sum(values) / len(values) if values else 0.0
    return block


def percentile_90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
         names: Sequence[Dict]) -> None:
    """Print each metric with its unit, then the result line."""
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    for name, entry in out.items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def report_failures(outcomes: Sequence[Outcome], problems: List[str]) -> int:
    failed = [o for o in outcomes if o.error is not None]
    for outcome in failed[:10]:
        print(f"FAILED: {outcome.error}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return len(failed)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``setup_s``: set up, say ``ready``, tear down."""
    from workloads import WORKLOADS

    work = make_workdir(f"setup-{workload}")
    bench = WORKLOADS[workload](seed, work)
    try:
        bench.setup()
        print("ready", flush=True)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    return 0


def time_setup(workload: str, seed: int) -> float:
    """Process start to ready, in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=str(ROOT))
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=60)
    finally:
        child.stdout.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or line.strip() != b"ready":
        raise SystemExit(f"perfbench: set-up probe of {workload} failed "
                         f"(exit {child.returncode}, said {line!r})")
    return elapsed


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------
def timed_run(args, spec: Dict) -> int:
    from workloads import WORKLOADS

    load_start = os.getloadavg()[0]
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    work = make_workdir(args.workload)
    bench = WORKLOADS[args.workload](args.seed, work)
    try:
        bench.setup()
        cpu0 = bench.cpu_seconds()
        outcomes, window = closed_loop(bench.request, bench.clients, args.seconds,
                                       MIN_REQUESTS)
        cpu = bench.cpu_seconds() - cpu0
        rss = bench.peak_rss_mb()
        problems = bench.finish([o.sample for o in outcomes if o.sample is not None])
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = report_failures(outcomes, problems)
    done = [o for o in outcomes if o.error is None]
    latencies = [o.latency for o in done]
    exact = exact_block(outcomes, bench.exact_prefix)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(latencies) if latencies else float("nan"),
        "latency_p90_s": percentile_90(latencies) if len(latencies) > 1 else float("nan"),
        "requests_per_s": len(done) / window if window > 0 else 0.0,
        "cpu_s_per_request": cpu / max(len(done), 1),
        "peak_rss_mb": rss,
        "charged_sim_s": exact["simulated_seconds"],
        "charged_io_mb_per_proc": (exact["io_read_bytes_per_proc"]
                                   + exact["io_write_bytes_per_proc"]) / 1e6,
        "success_rate": (len(outcomes) - failed) / max(len(outcomes), 1),
    }
    env = environment(args.seed, load_start)
    env.update(workload=args.workload, requests=len(outcomes), clients=bench.clients,
               window_s=window, setup_samples_s=setups)
    correct = failed == 0 and not problems and len(done) >= MIN_REQUESTS
    print(f"{args.workload}: {len(outcomes)} requests ({len(done)} ok) in {window:.2f} s, "
          f"{bench.clients} closed-loop client(s); error_rate "
          f"{failed / max(len(outcomes), 1):.4f}; latency samples {len(latencies)}")
    print("# exact: " + json.dumps(exact))
    print("# env: " + json.dumps(env))
    emit(correct, len(outcomes), failed, metrics, spec["end_to_end"])
    return 0 if correct else 1


def overhead_ratio(traced: Sequence[Outcome], untraced: Sequence[Outcome]) -> float:
    """Median over request groups of traced p50 / untraced p50 latency."""
    groups: Dict[str, tuple] = {}
    for parity, outcomes in enumerate((untraced, traced)):
        for outcome in outcomes:
            groups.setdefault(outcome.sample.group, ([], []))[parity].append(outcome.latency)
    ratios = [statistics.median(t) / statistics.median(u) for u, t in groups.values()
              if u and t]
    return statistics.median(ratios) if ratios else float("nan")


SPAN_METRICS = (
    "hpf.parse_s", "hpf.lower_s", "core.compile_s", "check.verify_s", "runtime.vm_s",
    "runtime.inputs_s", "runtime.execute_s", "runtime.oracle_s", "runtime.estimate_s",
    "api.compile_hit_s", "service.submit_s", "service.job_execute_p50_s",
    "service.job_estimate_p50_s",
)


def traced_run(args, spec: Dict) -> int:
    from tracing import Tracer, layer_shares, write_profile_table

    from workloads import WORKLOADS

    load_start = os.getloadavg()[0]
    tracer = Tracer()
    work = make_workdir(f"{args.workload}-traced")
    bench = WORKLOADS[args.workload](args.seed, work)

    def interleaved(index: int):
        if index % 2 == 0:
            return bench.request(index)
        with tracer.span("request", index):
            return bench.traced_request(index, tracer)

    try:
        bench.setup()
        outcomes, _ = closed_loop(interleaved, bench.clients,
                                  args.seconds * TRACED_SHARE, 2 * bench.exact_prefix)
        problems = bench.finish([o.sample for o in outcomes if o.sample is not None])
        counters = bench.counters()
        probes = bench.probes(tracer, itertools.count(-1, -1))
        profiled: List[Outcome] = []

        def run_phase(request) -> None:
            phase, _ = closed_loop(request, bench.clients,
                                   args.seconds * (1 - TRACED_SHARE),
                                   PROFILE_MIN_REQUESTS, first_index=len(outcomes))
            profiled.extend(phase)

        stats = bench.profile(run_phase)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = report_failures(outcomes + profiled, problems)
    shares = layer_shares(stats)
    traced = [o for o in outcomes if o.index % 2 and o.error is None]
    untraced = [o for o in outcomes if o.index % 2 == 0 and o.error is None]
    traced_ids = [o.index for o in outcomes if o.index % 2]
    exact = exact_block(outcomes, bench.exact_prefix)

    # A layer on the workload's request path is timed there; any other layer
    # by the probes on the workload's own points (negative request ids).
    probe_ids = sorted({span.request for span in tracer.spans if span.request < 0})
    metrics: Dict[str, float] = {
        name: tracer.median(name, traced_ids) or tracer.median(name, probe_ids)
        for name in SPAN_METRICS}
    metrics.update(probes)
    metrics.update(counters)
    metrics.update({
        "runtime.io_requests_per_proc": exact["io_requests_per_proc"],
        "runtime.bytes_read_per_proc": exact["io_read_bytes_per_proc"],
        "runtime.bytes_written_per_proc": exact["io_write_bytes_per_proc"],
        "machine.sim_io_s": exact["io_time"],
        "machine.sim_compute_s": exact["compute_time"],
        "machine.sim_comm_s": exact["comm_time"],
        "planner.candidates": exact["candidates"],
        "check.findings": exact["findings"],
        "trace.overhead_ratio": overhead_ratio(traced, untraced),
    })
    metrics.update({f"prof.{layer}.share": share for layer, share in shares.items()})

    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{args.workload}-seed{args.seed}"
    tracer.write_chrome_trace(stem.with_suffix(".trace.json"))
    write_profile_table(stats, shares, stem.with_suffix(".profile.txt"),
                        f"{args.workload}, seed {args.seed}: {len(profiled)} profiled "
                        "requests")
    env = environment(args.seed, load_start)
    env.update(workload=args.workload, requests=len(outcomes) + len(profiled),
               traced_requests=len(traced), untraced_requests=len(untraced),
               profiled_requests=len(profiled))
    correct = failed == 0 and not problems
    print(f"{args.workload} traced run: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(profiled)} profiled requests; spans cover "
          f"{tracer.coverage() * 100:.1f}% of a traced request (median)")
    print(f"  tracing overhead {metrics['trace.overhead_ratio']:.3f}x (traced p50 / "
          "untraced p50, same-work groups); prof.* shares are cProfile self time, "
          "inflated for layers of many small calls; layers off this workload's "
          "request path are timed by probes on its own points")
    print(f"  wrote {stem.with_suffix('.trace.json')} and {stem.with_suffix('.profile.txt')}")
    print("# exact: " + json.dumps(exact))
    print("# env: " + json.dumps(env))
    emit(correct, len(outcomes) + len(profiled), failed, metrics, spec["per_layer"])
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads, steadiness
# ---------------------------------------------------------------------------
def child_run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One run in a fresh interpreter; returns its result, exact block and env."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    run: Dict = {"workload": workload, "seed": seed, "trace": trace,
                 "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for line in lines:
        if line.startswith("# exact: "):
            run["exact"] = json.loads(line[len("# exact: "):])
        elif line.startswith("# env: "):
            run["env"] = json.loads(line[len("# env: "):])
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    return run


def run_ok(run: Dict) -> bool:
    if run["exit"] == 0 and run.get("result", {}).get("correct"):
        return True
    print(f"FAILED: {run['workload']} seed {run['seed']} trace {run['trace']} "
          f"exited {run['exit']}")
    print(run["stdout"][-3000:] + run["stderr"][-3000:])
    return False


def run_all(args, spec: Dict) -> int:
    ok = True
    for workload in selected(args, spec):
        timed = child_run(workload, args.seed, args.seconds, 0)
        traced = child_run(workload, args.seed, args.seconds, 1)
        for run in (timed, traced):
            ok &= run_ok(run)
            if "result" not in run:
                continue
            env = run.get("env", {})
            print(f"\n== {workload} ({'traced' if run['trace'] else 'timed'}, seed "
                  f"{args.seed}, {env.get('requests')} requests, load "
                  f"{env.get('load_avg_1m_start')}->{env.get('load_avg_1m_end')} on "
                  f"{env.get('cpu_count')} CPUs)")
            for name, entry in run["result"]["metrics"].items():
                print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
        if timed.get("exact") != traced.get("exact"):
            ok = False
            print(f"FAILED: {workload} exactness: the timed and traced runs of seed "
                  f"{args.seed} charged differently:\n  {timed.get('exact')}\n  "
                  f"{traced.get('exact')}")
        else:
            print(f"  exact metrics identical across the timed and traced runs of seed "
                  f"{args.seed}")
    return 0 if ok else 1


def spread(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def steadiness(args, spec: Dict) -> int:
    ok = True
    report = {}
    for workload in selected(args, spec):
        seeds = [args.seed + k for k in range(args.steadiness)]
        runs = [child_run(workload, seed, args.seconds, 0) for seed in seeds]
        repeats = [child_run(workload, seed, args.seconds, 0) for seed in seeds[:2]]
        ok &= all([run_ok(run) for run in runs + repeats])
        good = [run for run in runs if "result" in run]
        print(f"\n== {workload}: {len(good)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{args.seconds} s each; requests "
              f"{[run.get('env', {}).get('requests') for run in good]}")
        print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run["result"]["metrics"][name]["value"] for run in good]
            if len(values) < 2:
                continue
            row = spread(values)
            row["values"] = values
            rows[name] = row
            verdict = ("ok" if row["spread"] <= metric["bound"] / 3 else
                       "over 1/3 bound" if row["spread"] <= metric["bound"] else
                       "OVER BOUND")
            if name != "setup_s" and row["spread"] > metric["bound"]:
                ok = False
            print(f"  {name:<26} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.4f} {metric['bound']:>6} "
                  f"{verdict}")
        for first, again in zip(runs[:2], repeats, strict=True):
            same = first.get("exact") is not None and first.get("exact") == again.get("exact")
            ok &= same
            print(f"  exactness, seed {first['seed']} run twice: "
                  f"{'identical' if same else 'DIFFERENT'}")
        report[workload] = rows
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=2))
    return 0 if ok else 1


def selected(args, spec: Dict) -> List[str]:
    """``all`` means the workloads ``BENCHMARK.json`` lists."""
    if args.workload == "all":
        return [workload["name"] for workload in spec["workloads"]]
    return [args.workload]


def serve_profiled(out: str, service_args: List[str]) -> int:
    """``python -m repro.service`` with every thread under cProfile."""
    from tracing import ThreadProfiles

    from repro.service.__main__ import main as serve

    profiles = ThreadProfiles()
    profiles.start()
    try:
        return serve(service_args)
    finally:
        profiles.stop().dump_stats(out)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "exec_chain", "compile_cold", "service_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long one run measures (default 50)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting the per-layer metrics")
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run each workload K times and report the spreads")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve-profiled", default=None, help=argparse.SUPPRESS)
    return parser.parse_known_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args, rest = parse_args(argv)
    bootstrap()
    if args.serve_profiled is not None:
        return serve_profiled(args.serve_profiled, [a for a in rest if a != "--"])
    if rest:
        raise SystemExit(f"perfbench: unknown arguments {rest}")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    spec = load_spec()
    if args.steadiness:
        return steadiness(args, spec)
    if args.workload == "all":
        return run_all(args, spec)
    return traced_run(args, spec) if args.trace else timed_run(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
