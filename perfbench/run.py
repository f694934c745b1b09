"""qmix benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

One client, one process, closed loop: each request is one in-process call
of ``qmix.cli.main(argv)`` writing its report to a file, and the next one
starts when the previous one has been checked by the workload's oracle
(``workloads.py``).  Inputs come from ``--seed`` and are generated before
anything is timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
        end-to-end metrics of BENCHMARK.json, from an untraced run
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
        per-layer metrics, from alternating untraced and traced requests;
        spans go to .perfbench_out/
    python3 perfbench/run.py --workload all --seed N --seconds S
        every workload in turn, then a table of every end-to-end metric
    python3 perfbench/run.py --workload NAME --negative-control
        corrupts two requests in three; the oracle must fail them

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the environment, the tail percentile and its sample
count, and the worst oracle error.  Run from anywhere inside a checkout
of the repository: qmix is imported from its ``src`` directory.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads used by the run and its cold starts; one keeps the
#: small-matrix timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Untimed requests before the measured loop: at least this many, and
#: for at least WARMUP_SECONDS, so scipy's first expm and lazy imports
#: are paid before timing starts.
WARMUP_REQUESTS = 3
WARMUP_SECONDS = 1.0
#: Measured cold starts per run (after one unmeasured one that fills the
#: bytecode and file caches); setup_s is their median.
COLD_STARTS = 7
#: The tail percentile is the highest one with this many samples beyond
#: it, capped at TAIL_CAP: further out, a 20 s run on a shared machine
#: measures the few host preemptions that hit it more than it measures qmix.
TAIL_BEYOND = 10
TAIL_CAP = 95.0
#: Kept failure messages per run.
MAX_MESSAGES = 5


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Client:
    """Sends requests one at a time and checks each report with its oracle."""

    def __init__(self, cli, workload, out: str):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.worst_error = 0.0
        self.messages: list[str] = []

    def request(self, index: int):
        return self.workload.requests[index % len(self.workload.requests)]

    def judge(self, req, code: int, perturb=None) -> float:
        """Oracle error of a finished request; raises if its outcome is wrong."""
        if code != 0:
            raise workloads.OracleFailure(f"exit code {code}, expected 0")
        with open(self.out, encoding="utf-8") as handle:
            report = json.load(handle)
        if perturb is not None:
            perturb(report)
        return req.check(report)

    def record(self, req, code: int, perturb=None) -> None:
        self.attempted += 1
        try:
            self.worst_error = max(self.worst_error, self.judge(req, code, perturb))
        except Exception as exc:  # any malformed or wrong report is a failed request
            self.fail(req, exc)

    def fail(self, req, exc: BaseException) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{req.argv[0]}: {type(exc).__name__}: {exc}")

    def call(self, index: int, tamper: str | None = None) -> float:
        """Run request ``index`` of the pool, check it and return its latency.

        ``tamper`` is the negative control: "output" perturbs the report
        before the oracle reads it, "exit" replaces the exit code by 1.
        """
        req = self.request(index)
        if os.path.exists(self.out):
            os.remove(self.out)
        start = time.perf_counter()
        try:
            code = self.cli.main(req.argv)
        except Exception as exc:  # an escaping exception is a failed request
            elapsed = time.perf_counter() - start
            self.attempted += 1
            self.fail(req, exc)
            return elapsed
        elapsed = time.perf_counter() - start
        if tamper == "exit":
            code = 1
        self.record(req, code, self.workload.perturb if tamper == "output" else None)
        return elapsed

    def oracle_is_live(self, req) -> bool:
        """The last report passes, and fails once perturbed or with exit code 1."""
        try:
            self.judge(req, 0)
        except Exception:  # whatever is wrong with the report, the check is not live
            return False
        for code, perturb in ((0, self.workload.perturb), (1, None)):
            try:
                self.judge(req, code, perturb)
            except workloads.OracleFailure:
                continue
            return False
        return True


def warm_up(client: Client) -> None:
    start, index = time.perf_counter(), 0
    while index < WARMUP_REQUESTS or time.perf_counter() - start < WARMUP_SECONDS:
        client.call(index)
        index += 1


def closed_loop(client: Client, seconds: float, negative_control: bool):
    """Request latencies, and the speed-reference times taken around them."""
    latencies, kernel = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        tamper = (None, "output", "exit")[index % 3] if negative_control else None
        kernel.append(speed.probe())
        latencies.append(client.call(index, tamper))
        index += 1
    kernel.append(speed.probe())
    return latencies, kernel


def cold_starts(client: Client) -> dict:
    """Median cold start over COLD_STARTS fresh interpreters, first request included.

    Each is scaled to nominal machine speed by reference probes taken just
    before and just after it.
    """
    req = client.request(0)
    samples = []
    for attempt in range(COLD_STARTS + 1):
        if os.path.exists(client.out):
            os.remove(client.out)
        before = speed.probe(3)
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), str(SRC), *req.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        scale = speed.NOMINAL_S / statistics.mean([before, speed.probe(3)])
        import_s, first_s, code = proc.stdout.split()
        client.record(req, int(code))
        if attempt:
            samples.append((float(import_s), float(first_s), scale))
    return {
        "setup_s": statistics.median((a + b) * k for a, b, k in samples),
        "wall_setup_s": statistics.median(a + b for a, b, _ in samples),
        "wall_import_s": statistics.median(a for a, _, _ in samples),
        "wall_first_request_s": statistics.median(b for _, b, _ in samples),
        "samples": len(samples),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to TAIL_CAP with
    TAIL_BEYOND samples beyond it, by nearest rank; the median when a
    short run has fewer than 2 * TAIL_BEYOND samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = min(count - TAIL_BEYOND, math.ceil(count * TAIL_CAP / 100))
    rank = max(rank, math.ceil(count / 2))
    return 100.0 * rank / count, ordered[rank - 1]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
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
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(BLAS_THREADS, len(os.sched_getaffinity(0))),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(args, client: Client) -> tuple[dict, dict]:
    """End-to-end metrics from an untraced run, plus report details."""
    setup = cold_starts(client)
    warm_up(client)
    wall, kernel = closed_loop(client, args.seconds, args.negative_control)
    latencies = speed.normalize(wall, kernel)
    percentile, tail_s = tail(latencies)
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "req_per_s": len(latencies) / sum(latencies),
        "setup_s": setup["setup_s"],
        "success_frac": 1.0 - client.failed / client.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "tail_percentile": percentile,
        "tail_samples": len(latencies),
        "speed_factor_p50": statistics.median(kernel) / speed.NOMINAL_S,
        "wall_latency_p50_ms": statistics.median(wall) * 1e3,
        "wall_latency_tail_ms": tail(wall)[1] * 1e3,
        "wall_req_per_s": len(wall) / sum(wall),
        "cold_start": setup,
    }
    return values, details


def measure_traced(args, client: Client) -> tuple[dict, dict]:
    """Per-layer metrics: alternate untraced and traced runs of each request."""
    warm_up(client)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < deadline:
        untraced.append(client.call(index))
        tracer.install()
        tracer.begin_request(len(traced))
        try:
            traced.append(client.call(index))
        finally:
            tracer.uninstall()
        index += 1
    values = tracer.per_request_metrics(len(traced))
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(spans))
    details = {"traced_requests": len(traced), "spans": len(tracer.start),
               "spans_file": str(spans.relative_to(ROOT))}
    return values, details


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import qmix.cli

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, os.path.join(workdir, "out.json"))
        client = Client(qmix.cli, workload, os.path.join(workdir, "out.json"))
        client.call(0)
        oracle_live = client.oracle_is_live(client.request(0))
        if args.trace:
            values, details = measure_traced(args, client)
            declared = spec["per_layer"]
        else:
            values, details = measure(args, client)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "negative_control": args.negative_control,
        "environment": environment(args.seed),
        **details,
        "failed_frac": client.failed / client.attempted,
        "worst_oracle_error": client.worst_error,
        "oracle_self_check": oracle_live,
        "failures": client.messages,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": client.failed == 0 and oracle_live,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table of every end-to-end metric."""
    rows, correct = [], True
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        for name, metric in result["metrics"].items():
            rows.append((workload["name"], name, metric["value"], metric["unit"]))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<18} {'metric':<16} {'value':>12} {'unit':<6} better  bound")
    for workload, name, value, unit in rows:
        print(f"{workload:<18} {name:<16} {value:>12.4f} {unit:<6} "
              f"{bounds[name]['better']:<7} {bounds[name]['bound']}")
    print(f"outputs correct: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured loop (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb one report and fake one exit code in every three")
    args = parser.parse_args(argv)
    if not (SRC / "qmix" / "cli.py").is_file():
        print(f"error: no qmix sources under {SRC}; run inside a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
