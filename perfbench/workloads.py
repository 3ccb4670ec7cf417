"""The benchmark's three closed-loop workloads.

Each workload owns its set-up (everything before the first timed request),
one untraced request, one traced request that makes the same calls through
the library's public functions with a span around each layer, its cache-state
guards, and the probes of the traced run.  The probes time, on the workload's
own points, the layers its requests do not pass through, so every per-layer
metric is measured on every workload.  Requests raise :class:`CheckFailed`
when an output check fails; the runner counts that request as failed.

Why each workload exists (see README.md for the measurements behind them):

* ``exec_chain`` -- the run layers do the work, the compile layers nothing:
  a compile optimization must leave it unchanged.
* ``compile_cold`` -- the compile layers do the work, with no LAF I/O and no
  kernels: an I/O or kernel optimization must leave it unchanged.  It is run
  by name only and not listed in ``BENCHMARK.json``: its p50 follows the
  shared host's speed too closely to hold a 25 % bound (README.md).
* ``service_mix`` -- the only path through HTTP, JSON, admission, the FIFO
  scheduler and worker threads, where GIL-holding compiles contend with
  GIL-releasing I/O and BLAS.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

NPROCS = 4

#: BENCH_planner's three-statement chain: a reduction, then two elementwise
#: statements whose shared edge (``u``) the fusion dimension can elide.
CHAIN_TEMPLATE = """
program chain
  parameter (n = {n}, nprocs = {nprocs})
  real a(n, n), b(n, n), t(n, n), d(n, n), u(n, n), e(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align t(*, :) with tmpl
!hpf$ align d(*, :) with tmpl
!hpf$ align u(*, :) with tmpl
!hpf$ align e(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
!hpf$ align b(:, *) with tmpl
  do j = 1, n
    forall (k = 1 : n)
      t(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
  u(:, :) = add(t(:, :), d(:, :))
  c(:, :) = multiply(u(:, :), e(:, :))
end program
"""

#: Node memory budgets of the N=256 chain that ``compile_cold`` and the
#: service's ESTIMATE jobs draw from without replacement: 88-104 KiB in 16 B
#: steps (1025 budgets; every one compiles to a checked plan).  Warm-up and
#: probe budgets lie outside this grid, so no timed request can hit a cache.
#: The band is narrow on purpose: across it a request costs about the same
#: host time (budgets below ~50 KiB cost twice as much), so the latency
#: distribution has one peak and its p50 does not jump with the mix.
GRID_LOW = 88 * 1024
GRID_STEP = 16
BUDGET_GRID = tuple(GRID_LOW + GRID_STEP * k for k in range(1025))
WARMUP_BUDGETS = tuple(GRID_LOW - GRID_STEP * (k + 1) for k in range(4))
PROBE_BUDGETS = tuple(BUDGET_GRID[-1] + GRID_STEP * (k + 1) for k in range(64))
#: The grid is cut into STRATA contiguous strata of 41 budgets.  Budgets are
#: drawn in rounds that take one budget from every stratum, so each round of
#: STRATA requests covers the whole grid the same way whatever the seed: the
#: seed moves which budget of a stratum is drawn and the order, not the mix.
STRATA = 25


def budget_rounds(rng: random.Random) -> List[int]:
    """Every grid budget once, in seeded rounds of one budget per stratum."""
    size = len(BUDGET_GRID) // STRATA
    strata = [rng.sample(BUDGET_GRID[k * size:(k + 1) * size], size)
              for k in range(STRATA)]
    budgets: List[int] = []
    for draw in range(size):
        budgets.extend(strata[k][draw] for k in rng.sample(range(STRATA), STRATA))
    return budgets


#: The charged fields of a record: every one must agree bit for bit between
#: ESTIMATE and EXECUTE, between served and direct runs, and across repeats.
CHARGED = ("simulated_seconds", "io_time", "compute_time", "comm_time",
           "io_requests_per_proc", "io_read_bytes_per_proc", "io_write_bytes_per_proc")
STATEMENT_FIELDS = ("seconds", "io", "compute", "comm", "io_requests_per_proc",
                    "bytes_read_per_proc", "bytes_written_per_proc")


class CheckFailed(Exception):
    """An output check, cache-state guard or parity check failed."""


@dataclasses.dataclass
class Sample:
    """What one request produced: its charges and plan facts."""

    kind: str
    charges: Dict[str, float]
    candidates: Optional[float] = None
    findings: Optional[float] = None
    traced: bool = False
    record: object = None
    index: int = -1
    #: requests of one group do the same work (the tracing overhead compares
    #: traced and untraced latency within a group)
    group: str = ""


def chain_source(n: int) -> str:
    return CHAIN_TEMPLATE.format(n=n, nprocs=NPROCS)


def chain_point(n: int, budget: int):
    from repro.api import WorkloadPoint

    return WorkloadPoint("hpf", optimize="greedy", options={
        "source": chain_source(n), "memory_budget_bytes": budget, "fusion": "on"})


def record_charges(record) -> Dict[str, float]:
    return {field: getattr(record, field) for field in CHARGED}


def result_charges(result) -> Dict[str, float]:
    """The charged fields of an executor ``ExecutionResult``."""
    io = result.io_statistics
    return {
        "simulated_seconds": result.simulated_seconds,
        "io_time": result.time_breakdown.get("io", 0.0),
        "compute_time": result.time_breakdown.get("compute", 0.0),
        "comm_time": result.time_breakdown.get("comm", 0.0),
        "io_requests_per_proc": io.get("io_requests_per_proc", 0.0),
        "io_read_bytes_per_proc": io.get("bytes_read_per_proc", 0.0),
        "io_write_bytes_per_proc": io.get("bytes_written_per_proc", 0.0),
    }


def charge_drift(expected: Dict[str, float], actual: Dict[str, float]) -> List[str]:
    return [f"{field}: {expected[field]!r} != {actual[field]!r}"
            for field in CHARGED if expected[field] != actual[field]]


def findings_of(summary) -> float:
    return float(summary["errors"] + summary["warnings"])


def check_plan(plan, label: str) -> None:
    """compile_cold's plan checks: verified clean, no worse than the even split."""
    summary = plan.get("check")
    if summary is None or not summary["ok"]:
        raise CheckFailed(f"{label}: static plan check not ok: {summary!r}")
    if plan["predicted_seconds"] > plan["even_predicted_seconds"]:
        raise CheckFailed(f"{label}: predicted {plan['predicted_seconds']!r} s exceeds "
                          f"the even split's {plan['even_predicted_seconds']!r} s")


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cache_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key]
            for key in ("hits", "misses", "planner_hits", "planner_misses")}


def rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ---------------------------------------------------------------------------
# the layers, as public calls with a span around each
# ---------------------------------------------------------------------------
#: Probe requests per layer in the traced run.
PROBE_REPEATS = 3


def traced_compile(tracer, rid: int, source: str, budget: int, params):
    """Parse, lower, compile (greedy, fresh plan cache) and statically check."""
    from repro.check import check_compiled
    from repro.core.pipeline import compile_program
    from repro.hpf.frontend import frontend_to_ir
    from repro.hpf.parser import parse_program
    from repro.planner.plan_cache import PlanCache

    with tracer.span("hpf.parse_s", rid):
        ast = parse_program(source)
    with tracer.span("hpf.lower_s", rid):
        ir = frontend_to_ir(ast)
    with tracer.span("core.compile_s", rid):
        program = compile_program(ir, params, memory_budget_bytes=budget,
                                  optimizer="greedy", fusion="on", plan_cache=PlanCache())
    with tracer.span("check.verify_s", rid):
        report = check_compiled(program)
    return program, report


def traced_estimate(tracer, rid: int, program, config):
    """The ESTIMATE charge walk on a fresh virtual machine."""
    from repro.config import ExecutionMode
    from repro.runtime.executor import ProgramExecutor
    from repro.runtime.vm import VirtualMachine

    with tracer.span("runtime.vm_s", rid):
        vm = VirtualMachine(program.nprocs, program.params,
                            config.with_mode(ExecutionMode.ESTIMATE))
    try:
        with tracer.span("runtime.estimate_s", rid):
            return ProgramExecutor(program).estimate(vm)
    finally:
        with tracer.span("runtime.vm_s", rid):
            vm.cleanup()


def traced_execute(tracer, rid: int, session, point):
    """``Session.run(point, mode="execute", verify=True)`` as its public calls."""
    import numpy as np

    from repro.config import ExecutionMode
    from repro.runtime.executor import ProgramExecutor, program_reference
    from repro.runtime.vm import VirtualMachine

    with tracer.span("api.compile_hit_s", rid):
        compiled = session.compile(point)
    config = session.config.with_mode(ExecutionMode.EXECUTE)
    with tracer.span("runtime.vm_s", rid):
        vm = VirtualMachine(compiled.nprocs, compiled.params, config)
    try:
        with tracer.span("runtime.inputs_s", rid):
            inputs = compiled.workload.generate_inputs(compiled, config.seed)
        with tracer.span("runtime.execute_s", rid):
            result = ProgramExecutor(compiled.program).execute(
                vm, inputs, verify=False, collect_outputs=True)
        with tracer.span("runtime.oracle_s", rid):
            reference = program_reference(compiled.program.program, inputs)
            for name, output in result.outputs.items():
                expected = reference[name]
                error = float(np.max(np.abs(output.astype(np.float64) - expected)))
                if error > 1e-3 * (float(np.max(np.abs(expected))) or 1.0):
                    raise CheckFailed(f"request {rid}: {name} differs from the NumPy "
                                      f"oracle by {error:.3g}")
    finally:
        with tracer.span("runtime.vm_s", rid):
            vm.cleanup()
    return result


def compile_probes(source: str, budgets: Iterator[int], params) -> Dict[str, float]:
    """The plan search alone, and one even-split compile with no search."""
    from repro.core.pipeline import compile_program
    from repro.hpf.frontend import frontend_to_ir
    from repro.hpf.parser import parse_program
    from repro.planner.plan_cache import PlanCache
    from repro.planner.search import plan_whole_program

    ir = frontend_to_ir(parse_program(source))
    return {
        "planner.search_s": median_time(lambda: plan_whole_program(
            ir, params, next(budgets), optimizer="greedy", plan_cache=PlanCache(),
            fusion="on"), PROBE_REPEATS),
        "core.compile_even_s": median_time(lambda: compile_program(
            ir, params, memory_budget_bytes=next(budgets), optimizer="none",
            fusion="on"), PROBE_REPEATS),
    }


# ---------------------------------------------------------------------------
# the job service, client side
# ---------------------------------------------------------------------------
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: A job that has not ended by then counts as failed (a run must end in 180 s).
CLIENT_TIMEOUT_S = 60.0


@dataclasses.dataclass(frozen=True)
class Job:
    kind: str  # "execute" | "estimate"
    tenant: str
    point_index: int = -1  # into the runner's EXECUTE points
    budget: int = 0  # for ESTIMATE jobs


class JobRunner:
    """Submits jobs over HTTP and follows each stream to its terminal event.

    EXECUTE jobs run one of ``points``; ESTIMATE jobs are the ``{"source":
    ...}`` shorthand of ``source`` under a job's budget.
    """

    def __init__(self, port: int, points, source: str):
        from repro.service import ServiceClient

        self.client = ServiceClient(port=port, timeout=CLIENT_TIMEOUT_S)
        self.points = points
        self.source = source

    def submit(self, job: Job) -> int:
        from repro.service import JobSpec

        if job.kind == "execute":
            spec = JobSpec(points=(self.points[job.point_index],), tenant=job.tenant)
            return self.client.submit(spec)["id"]
        return self.client.submit_source(self.source, tenant=job.tenant, mode="estimate",
                                         memory_budget_bytes=job.budget)["id"]

    def follow(self, job_id: int, job: Job, index: int) -> Sample:
        from repro.api.records import RunRecord

        records = []
        final = None
        for event in self.client.stream(job_id):
            if "record" in event:
                records.append(RunRecord.from_json_dict(event["record"]))
            else:
                final = event
        label = f"job {index} ({job.kind})"
        if final is None or final["state"] != "done" or len(records) != 1:
            raise CheckFailed(f"{label}: ended {final!r} with {len(records)} records")
        record = records[0]
        if job.kind == "execute":
            if record.verified is not True:
                raise CheckFailed(f"{label}: verified={record.verified!r}")
            return Sample("execute", record_charges(record), record=record,
                          group=f"execute-{job.point_index}")
        if record.plan.get("planner_cache") != "miss":
            raise CheckFailed(f"{label}: planner cache {record.plan.get('planner_cache')!r}")
        check_plan(record.plan, label)
        return Sample("estimate", record_charges(record),
                      candidates=float(record.plan["candidates_evaluated"]),
                      findings=findings_of(record.plan["check"]), record=record,
                      group="estimate")

    def run(self, job: Job, index: int) -> Sample:
        return self.follow(self.submit(job), job, index)

    def traced(self, tracer, job: Job, index: int) -> Sample:
        with tracer.span(f"service.job_{job.kind}_p50_s", index):
            with tracer.span("service.submit_s", index):
                job_id = self.submit(job)
            with tracer.span("service.stream_s", index):
                sample = self.follow(job_id, job, index)
        sample.traced = True
        return sample

    def warm_up(self) -> None:
        """Compile every EXECUTE point once, so later jobs hit the compile LRU."""
        for index in range(len(self.points)):
            self.run(Job("execute", TENANTS[0], point_index=index), -1)


def service_probes(tracer, runner: JobRunner, direct, budgets: Iterator[int],
                   ids: Iterator[int]) -> Dict[str, float]:
    """Served jobs of a workload's own points, and their cost over direct runs.

    ``service.overhead_s`` is served minus direct ``Session.run`` latency of
    the same EXECUTE job, both sides warm, with no other load.
    """
    for point in runner.points:
        direct.run(point, mode="execute")
    runner.warm_up()
    overhead = []
    for _ in range(PROBE_REPEATS):
        for index, point in enumerate(runner.points):
            start = time.perf_counter()
            runner.traced(tracer, Job("execute", TENANTS[0], point_index=index), next(ids))
            served = time.perf_counter() - start
            overhead.append(served - median_time(
                lambda point=point: direct.run(point, mode="execute"), 1))
        runner.traced(tracer, Job("estimate", TENANTS[0], budget=next(budgets)), next(ids))
    metrics = runner.client.metrics()
    return {
        "service.overhead_s": statistics.median(overhead),
        "service.admission_deferrals": float(metrics["admission"]["deferrals"]),
        "service.admission_rejections": float(metrics["admission"]["rejections"]),
        "service.jobs_failed": float(metrics["jobs"]["failed"]),
    }


@contextlib.contextmanager
def local_service(workdir: Path) -> Iterator[int]:
    """A two-worker job service on a thread of this process; yields its port."""
    from repro.config import RunConfig
    from repro.service import JobService, serve_in_thread

    service = JobService(config=RunConfig(scratch_dir=workdir / "probe-service"),
                         workers=2)
    handle = serve_in_thread(service)
    try:
        yield handle.port
    finally:
        handle.close()


# ---------------------------------------------------------------------------
# exec_chain and compile_cold: one client driving a Session in-process
# ---------------------------------------------------------------------------
class InProcess:
    """Shared parts of the two workloads that drive a Session in-process."""

    clients = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.session = None
        self.info0: Dict[str, int] = {}

    def open_session(self):
        from repro.api import Session
        from repro.config import RunConfig

        self.session = Session(config=RunConfig(scratch_dir=self.workdir / "scratch",
                                                seed=self.seed))
        return self.session

    def counters(self) -> Dict[str, float]:
        info = self.session.cache_info()
        return {
            "api.compile_cache_hit_rate": rate(info["hits"], info["misses"]),
            "planner.cache_hit_rate": rate(info["planner_hits"], info["planner_misses"]),
        }

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(os.getpid())

    def profile(self, run_phase):
        import cProfile
        import pstats

        profile = cProfile.Profile()
        profile.enable()
        try:
            run_phase(self.request)
        finally:
            profile.disable()
        return pstats.Stats(profile)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class ExecChain(InProcess):
    """``Session.run(point, mode="execute", verify=True)`` on one fixed point."""

    name = "exec_chain"
    exact_prefix = 20
    N = 512
    BUDGET = 768 * 1024

    def setup(self) -> None:
        session = self.open_session()
        self.point = chain_point(self.N, self.BUDGET)
        self.compiled = session.compile(self.point)
        self.estimate = record_charges(session.run(self.point, mode="estimate"))
        self.request(-1)  # warm-up: first LAF files, page cache
        self.info0 = session.cache_info()

    def _sample(self, charges, traced: bool) -> Sample:
        drift = charge_drift(self.estimate, charges)
        if drift:
            raise CheckFailed("exec_chain: EXECUTE charged differently from ESTIMATE: "
                              + "; ".join(drift))
        plan = self.compiled.program.planner
        return Sample("execute", charges, candidates=float(plan.candidates_evaluated),
                      findings=findings_of(self.compiled.check.summary()), traced=traced)

    def request(self, index: int) -> Sample:
        record = self.session.run(self.point, mode="execute", verify=True)
        if record.verified is not True:
            raise CheckFailed(f"exec_chain request {index}: verified={record.verified!r} "
                              "against the NumPy oracle")
        return self._sample(record_charges(record), traced=False)

    def traced_request(self, index: int, tracer) -> Sample:
        result = traced_execute(tracer, index, self.session, self.point)
        return self._sample(result_charges(result), traced=True)

    def finish(self, samples: Sequence[Sample]) -> List[str]:
        delta = cache_delta(self.info0, self.session.cache_info())
        if delta["hits"] != len(samples) or delta["misses"]:
            return [f"exec_chain guard: {len(samples)} requests but {delta['hits']} "
                    f"compile-LRU hits and {delta['misses']} misses"]
        return []

    def probes(self, tracer, ids: Iterator[int]) -> Dict[str, float]:
        source, params = chain_source(self.N), self.compiled.params
        for _ in range(PROBE_REPEATS):
            traced_compile(tracer, next(ids), source, self.BUDGET, params)
            traced_estimate(tracer, next(ids), self.compiled.program, self.session.config)
        probes = compile_probes(source, itertools.repeat(self.BUDGET), params)
        fresh = (self.BUDGET + GRID_STEP * k for k in itertools.count(1))
        with local_service(self.workdir) as port:
            runner = JobRunner(port, (self.point,), source)
            probes.update(service_probes(tracer, runner, self.session, fresh, ids))
        return probes


class CompileCold(InProcess):
    """``Session.run(point, mode="estimate")`` with a never-seen budget each time."""

    name = "compile_cold"
    exact_prefix = STRATA
    N = 256

    def setup(self) -> None:
        session = self.open_session()
        self.budgets = budget_rounds(random.Random(self.seed))
        self.source = chain_source(self.N)
        for budget in WARMUP_BUDGETS:
            session.run(chain_point(self.N, budget), mode="estimate")
        self.info0 = session.cache_info()

    def _budget(self, index: int) -> int:
        if index >= len(self.budgets):
            raise CheckFailed(f"compile_cold: request {index} exhausted the "
                              f"{len(self.budgets)}-budget grid")
        return self.budgets[index]

    def request(self, index: int) -> Sample:
        record = self.session.run(chain_point(self.N, self._budget(index)), mode="estimate")
        plan = record.plan
        check_plan(plan, f"compile_cold request {index}")
        if plan["planner_cache"] != "miss":
            raise CheckFailed(f"compile_cold request {index}: planner cache "
                              f"{plan['planner_cache']!r}, expected a miss")
        return Sample("estimate", record_charges(record),
                      candidates=float(plan["candidates_evaluated"]),
                      findings=findings_of(plan["check"]))

    def traced_request(self, index: int, tracer) -> Sample:
        program, report = traced_compile(tracer, index, self.source, self._budget(index),
                                         self.session.params)
        result = traced_estimate(tracer, index, program, self.session.config)
        decision = program.planner
        check_plan({"check": report.summary(),
                    "predicted_seconds": program.predicted_cost.total_time,
                    "even_predicted_seconds": decision.even_total_time},
                   f"compile_cold traced request {index}")
        return Sample("estimate", result_charges(result),
                      candidates=float(decision.candidates_evaluated),
                      findings=findings_of(report.summary()), traced=True)

    def finish(self, samples: Sequence[Sample]) -> List[str]:
        cold = sum(not s.traced for s in samples)
        delta = cache_delta(self.info0, self.session.cache_info())
        if (delta["misses"], delta["planner_misses"], delta["hits"],
                delta["planner_hits"]) != (cold, cold, 0, 0):
            return [f"compile_cold guard: {cold} cold requests but compile "
                    f"misses={delta['misses']} hits={delta['hits']}, planner "
                    f"misses={delta['planner_misses']} hits={delta['planner_hits']}"]
        return []

    def probes(self, tracer, ids: Iterator[int]) -> Dict[str, float]:
        budgets = iter(PROBE_BUDGETS)
        point = chain_point(self.N, next(budgets))
        self.session.run(point, mode="execute")  # compile it once
        for _ in range(PROBE_REPEATS):
            traced_execute(tracer, next(ids), self.session, point)
        probes = compile_probes(self.source, budgets, self.session.params)
        with local_service(self.workdir) as port:
            runner = JobRunner(port, (point,), self.source)
            probes.update(service_probes(tracer, runner, self.session, budgets, ids))
        return probes


# ---------------------------------------------------------------------------
# service_mix: two clients against ``python -m repro.service``
# ---------------------------------------------------------------------------
#: One block: every EXECUTE point twice and five ESTIMATE jobs (2:1), in
#: seeded order.  Five blocks hold one round of ESTIMATE budgets, so the first
#: 75 jobs have the same mix of work for every seed.
SERVICE_PREFIX = 15 * STRATA // 5


def service_exec_points():
    """The fixed N=256 EXECUTE points; each hits the compile LRU after warm-up."""
    from repro.api import WorkloadPoint

    n = 256
    return (
        WorkloadPoint("gaxpy", n=n, nprocs=NPROCS, slab_ratio=0.25, version="column"),
        WorkloadPoint("gaxpy", n=n, nprocs=NPROCS, slab_ratio=0.25, version="row"),
        WorkloadPoint("transpose", n=n, nprocs=NPROCS, slab_ratio=0.25),
        WorkloadPoint("elementwise", n=n, nprocs=NPROCS, slab_ratio=0.25),
        chain_point(n, 48 * 1024),
    )


def service_jobs(seed: int) -> List[Job]:
    """The seeded job list, in blocks of ten EXECUTE and five ESTIMATE jobs."""
    rng = random.Random(seed)
    budgets = iter(budget_rounds(rng))
    jobs: List[Job] = []
    for _ in range(len(BUDGET_GRID) // 5):
        block = [Job("execute", "", point_index=k) for k in range(5)] * 2
        block += [Job("estimate", "", budget=next(budgets)) for _ in range(5)]
        rng.shuffle(block)
        jobs.extend(dataclasses.replace(job, tenant=rng.choice(TENANTS)) for job in block)
    return jobs


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of another process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """``python -m repro.service --workers 2`` as a child process."""

    def __init__(self, workdir: Path, src: Path, tag: str,
                 profile_to: Optional[Path] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "tmp").mkdir(exist_ok=True)
        args = ["--port", "0", "--workers", "2",
                "--scratch-root", str(workdir / "jobs")]
        if profile_to is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("run.py")),
                       "--serve-profiled", str(profile_to), "--", *args]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1",
                   TMPDIR=str(workdir / "tmp"))
        self.log = open(workdir / f"{tag}.log", "wb")
        self.process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                        stderr=self.log, cwd=str(workdir))
        line = self.process.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise CheckFailed(f"service did not start (see {self.log.name}): {line!r}")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class ServiceMix:
    """Two closed-loop clients POSTing jobs and following their streams."""

    name = "service_mix"
    clients = 2
    exact_prefix = SERVICE_PREFIX

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.src = Path(__file__).resolve().parents[1] / "src"
        self.server: Optional[Server] = None
        self.direct = None
        self.metrics0: Dict = {}

    def setup(self) -> None:
        self.jobs = service_jobs(self.seed)
        self.server = Server(self.workdir / "server", self.src, "server")
        self.runner = self._runner(self.server.port)
        self.metrics0 = self.runner.client.metrics()

    def _runner(self, port: int) -> JobRunner:
        runner = JobRunner(port, service_exec_points(), chain_source(256))
        runner.warm_up()
        runner.run(Job("estimate", TENANTS[0], budget=WARMUP_BUDGETS[0]), -1)
        return runner

    def request(self, index: int) -> Sample:
        return self.runner.run(self.jobs[index], index)

    def traced_request(self, index: int, tracer) -> Sample:
        return self.runner.traced(tracer, self.jobs[index], index)

    def _direct_session(self):
        from repro.api import Session
        from repro.config import RunConfig

        if self.direct is None:
            # The server runs RunConfig()'s default seed; so does this session.
            self.direct = Session(config=RunConfig(scratch_dir=self.workdir / "direct"))
        return self.direct

    def _direct(self, job: Job):
        from repro.api import WorkloadPoint

        if job.kind == "execute":
            return self._direct_session().run(self.runner.points[job.point_index],
                                              mode="execute")
        point = WorkloadPoint("hpf", options={"source": self.runner.source,
                                             "memory_budget_bytes": job.budget})
        return self._direct_session().run(point, mode="estimate")

    def finish(self, samples: Sequence[Sample]) -> List[str]:
        problems = []
        metrics = self.runner.client.metrics()
        n_exec = sum(s.kind == "execute" for s in samples)
        n_est = len(samples) - n_exec
        before, after = self.metrics0, metrics
        hits = after["compile_cache"]["hits"] - before["compile_cache"]["hits"]
        misses = after["compile_cache"]["misses"] - before["compile_cache"]["misses"]
        plan_misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
        if (hits, misses, plan_misses) != (n_exec, n_est, n_est):
            problems.append(
                f"service_mix guard: {n_exec} EXECUTE and {n_est} ESTIMATE jobs but "
                f"compile hits={hits} misses={misses}, planner misses={plan_misses}")
        problems.extend(self._parity(samples))
        return problems

    def _parity(self, samples: Sequence[Sample]) -> List[str]:
        """One served job of each kind against a direct ``Session.run``."""
        seen = set()
        problems = []
        for sample in sorted(samples, key=lambda s: s.index):
            index = sample.index
            job = self.jobs[index]
            key = (job.kind, job.point_index)
            if key in seen:
                continue
            seen.add(key)
            direct = self._direct(job)
            drift = charge_drift(record_charges(direct), sample.charges)
            served = sample.record
            if len(direct.statements) != len(served.statements):
                drift.append("statement count")
            else:
                drift.extend(
                    f"statement {k}.{field}"
                    for k, (mine, theirs) in enumerate(
                        zip(direct.statements, served.statements, strict=True))
                    for field in STATEMENT_FIELDS if mine.get(field) != theirs.get(field))
            if drift:
                problems.append(f"service_mix parity, job {index} ({job.kind}): "
                                + "; ".join(drift))
        if len(seen) != len(self.runner.points) + 1:
            problems.append(f"service_mix parity: only {len(seen)} of "
                            f"{len(self.runner.points) + 1} job kinds were served")
        return problems

    def counters(self) -> Dict[str, float]:
        metrics = self.runner.client.metrics()
        admission = metrics["admission"]
        return {
            "api.compile_cache_hit_rate": metrics["compile_cache"]["hit_rate"],
            "planner.cache_hit_rate": metrics["plan_cache"]["hit_rate"],
            "service.admission_deferrals": float(admission["deferrals"]),
            "service.admission_rejections": float(admission["rejections"]),
            "service.jobs_failed": float(metrics["jobs"]["failed"]),
        }

    def cpu_seconds(self) -> float:
        return time.process_time() + process_cpu_seconds(self.server.process.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(os.getpid()) + peak_rss_mb(self.server.process.pid)

    def probes(self, tracer, ids: Iterator[int]) -> Dict[str, float]:
        from repro.machine.parameters import touchstone_delta

        budgets = iter(PROBE_BUDGETS)
        direct = self._direct_session()
        probes = service_probes(tracer, self.runner, direct, budgets, ids)
        for _ in range(PROBE_REPEATS):
            rid = next(ids)
            program, _ = traced_compile(tracer, rid, self.runner.source, next(budgets),
                                        direct.params)
            traced_estimate(tracer, rid, program, direct.config)
            traced_execute(tracer, next(ids), direct, self.runner.points[-1])
        probes.update(compile_probes(self.runner.source, budgets, touchstone_delta()))
        return probes

    def profile(self, run_phase):
        """Run a phase against a second, profiled server and read its profile."""
        import pstats

        out = self.workdir / "profiled-server.pstats"
        main_runner = self.runner
        server = Server(self.workdir / "profiled", self.src, "profiled", profile_to=out)
        try:
            self.runner = self._runner(server.port)
            run_phase(self.request)
        finally:
            self.runner = main_runner
            server.stop()
        return pstats.Stats(str(out))

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.direct is not None:
            self.direct.close()


WORKLOADS = {cls.name: cls for cls in (ExecChain, CompileCold, ServiceMix)}
