"""Benchmark for the pseudoherm library and CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Each workload is one closed-loop client working through a fixed problem
list made from ``--seed``.  A run times whole passes over the list until
``--seconds`` have elapsed; a pass is never cut short, so every run attempts
the same problems.  Every answer is checked against ground truth known by
construction (see workloads.py).  Times are given at a nominal host speed
measured by reference kernels between problems (see reference.py).  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` the per-layer metrics of one untraced
and one traced pass.  Full results and the spans go to
``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
# One BLAS thread in this process and in every subprocess: a single client
# on a shared machine, and the same setting on every commit compared.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
STARTUP_REPEATS = 5


def _prepare_environment():
    if not os.path.isfile(os.path.join(SRC, "pseudoherm", "__init__.py")):
        sys.exit(f"perfbench: no pseudoherm sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def set_up(name, seed, work_dir):
    """Import, generate the list, write its files and warm up once."""
    import numpy as np
    from workloads import WORKLOADS, fresh_dir

    workload = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    fresh_dir(work_dir)
    problems = workload.generate(np.random.default_rng([seed, index]), work_dir)
    workload.warm_up(np.random.default_rng([seed, index, 1]), os.path.join(work_dir, "warm-up"))
    return workload, problems


def _spawn_seconds(argv, repeats, scratch=None, speed=None):
    """Median wall time of fresh interpreters running argv, normalised to
    the nominal host speed when ``speed`` is given; ``scratch`` is removed
    before each one and after the last."""
    times = []
    for _ in range(repeats):
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)
        before = speed.sample() if speed else 0.0
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw = time.perf_counter() - start
        times.append(speed.normalise(raw, before, speed.sample()) if speed else raw)
    if scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    return statistics.median(times)


def setup_seconds(name, seed, repeats):
    from reference import HostSpeed

    probe_dir = os.path.join(WORK, f"{name}-s{seed}-probe")
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--probe-dir", probe_dir]
    return _spawn_seconds(argv, repeats, scratch=probe_dir, speed=HostSpeed("spawn"))


def timed_pass(workload, problems, in_process, keep_answers=False, speed=None):
    """Time each problem, then judge its answer outside the timed region.

    With ``speed``, the host-speed reference runs between problems and the
    normalised times come back as well as the raw ones.  Answers are dropped
    after judging unless kept, so they do not count towards peak memory.
    """
    raw, normalised, verdicts, answers = [], [], [], []
    before = speed.sample() if speed else 0.0
    for problem in problems:
        start = time.perf_counter()
        try:
            answer = workload.run(problem, in_process)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            answer = exc
        raw.append(time.perf_counter() - start)
        if speed:
            after = speed.sample()
            normalised.append(speed.normalise(raw[-1], before, after))
            before = after
        if isinstance(answer, Exception):
            verdicts.append(f"fail:{type(answer).__name__}: {answer}")
        else:
            verdicts.append(workload.check(problem, answer))
        if keep_answers:
            answers.append(answer)
        del answer
    return raw, verdicts, answers, normalised


def summarize(verdicts):
    from workloads import KNOWN_DEFECTS

    known, unexpected = {}, []
    for v in verdicts:
        if v.startswith("known:") and v[6:] in KNOWN_DEFECTS:
            known[v[6:]] = known.get(v[6:], 0) + 1
        elif v != "ok":
            unexpected.append(v)
    return {"attempted": len(verdicts), "ok": verdicts.count("ok"), "known": known,
            "unexpected": len(unexpected), "first_unexpected": unexpected[:5]}


def end_to_end(workload, problems, seconds, setup_s):
    from reference import HostSpeed

    speed = HostSpeed(workload.reference)
    raw, latencies, verdicts = [], [], []
    start = time.perf_counter()
    while True:
        r, ver, _, norm = timed_pass(workload, problems, in_process=False, speed=speed)
        raw += r
        latencies += norm
        verdicts += ver
        if time.perf_counter() - start >= seconds:
            break
    if workload.name == "cli-batch":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "problems_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ops_ok_share": (verdicts.count("ok") / len(verdicts), "share"),
    }
    detail = {"passes": len(verdicts) // len(problems),
              "raw_p50_ms": 1e3 * statistics.median(raw),
              "raw_p90_ms": 1e3 * statistics.quantiles(raw, n=10)[8],
              "raw_latencies_s": raw, "latencies_s": latencies}
    return metrics, verdicts, detail


def _report_bytes(answers):
    total = 0
    for answer in answers:
        report = None if isinstance(answer, Exception) else answer[1]
        if report is not None:
            report = {k: v for k, v in report.items() if k != "generated_at"}
            total += len(json.dumps(report, indent=2))
    return total


def per_layer(workload, problems, spans_path):
    """Run every problem untraced and then traced, back to back, so that the
    tracing overhead is not mixed up with drift over the run."""
    from tracer import Tracer

    in_process = workload.name == "cli-batch"
    tracer = Tracer()
    plain, traced, verdicts, answers = [], [], [], []
    for i, problem in enumerate(problems):
        plain += timed_pass(workload, [problem], in_process)[0]
        tracer.problem = i
        tracer.install()
        try:
            lat, ver, ans, _ = timed_pass(workload, [problem], in_process, keep_answers=in_process)
        finally:
            tracer.uninstall()
        traced += lat
        verdicts += ver
        answers += ans
    tracer.write(spans_path)
    metrics = tracer.per_layer(len(problems))
    startup_ms = report_bytes = 0.0
    if in_process:
        report_bytes = _report_bytes(answers)
        argv = [sys.executable, "-c", "import pseudoherm.cli"]
        startup_ms = 1e3 * _spawn_seconds(argv, STARTUP_REPEATS)
    metrics["io.report_bytes"] = (report_bytes, "bytes")
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    metrics["trace.overhead_ms"] = (1e3 * (sum(traced) - sum(plain)) / len(problems), "ms")
    return metrics, verdicts, {"untraced_s": sum(plain), "traced_s": sum(traced)}


def machine_facts():
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pseudoherm")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(BLAS_THREADS),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def measure(name, seed, seconds, trace, setup_repeats=SETUP_REPEATS, select=None):
    """One benchmark run; returns the full result record.  ``select`` picks
    a sub-list of the generated problems (smoke mode)."""
    work_dir = os.path.join(WORK, f"{name}-s{seed}")
    workload, problems = set_up(name, seed, work_dir)
    if select:
        problems = select(problems)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    if trace:
        spans_path = os.path.join(results, f"{name}-s{seed}-spans.json")
        metrics, verdicts, detail = per_layer(workload, problems, spans_path)
    else:
        setup_s = setup_seconds(name, seed, setup_repeats)
        metrics, verdicts, detail = end_to_end(workload, problems, seconds, setup_s)
    ops = summarize(verdicts)
    record = {"workload": name, "seed": seed, "trace": trace, "problems": len(problems),
              "facts": machine_facts(), "ops": ops, "detail": detail,
              "result": {"correct": ops["unexpected"] == 0, "attempted": ops["attempted"],
                         "failed": ops["unexpected"],
                         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}
    with open(os.path.join(results, f"{name}-s{seed}-t{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def smoke(seed):
    """Tiny list per workload: every metric present, the oracle rejects
    corrupted answers, and ground-truth answers pass it."""
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")

    def one_per_kind(generated):
        kinds = {}
        for p in generated:
            kinds.setdefault(p.kind, p)
        return list(kinds.values())

    for name in names:
        for trace in (0, 1):
            record = measure(name, seed, 0, trace, setup_repeats=1, select=one_per_kind)
            got = {k: m["unit"] for k, m in record["result"]["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                "differ from BENCHMARK.json")
            if record["ops"]["unexpected"]:
                problems.append(f"{name}: unexpected failures {record['ops']['first_unexpected']}")
        workload, generated = set_up(name, seed, os.path.join(WORK, f"{name}-s{seed}"))
        corrupted, tries = set(), {}
        for p in generated:
            tries[p.kind] = tries.get(p.kind, 0) + 1
            if p.kind in corrupted or tries[p.kind] > 5:
                continue
            answer = workload.run(p, in_process=True)
            if workload.check(p, answer) == "ok":
                corrupted.add(p.kind)
                verdict = workload.check(p, workload.corrupt(p, answer))
                if not verdict.startswith("fail:"):
                    problems.append(f"{name}/{p.kind}: corrupted answer judged {verdict!r}")
        if not corrupted:
            problems.append(f"{name}: no correct answer to corrupt")
        print(f"smoke {name}: corrupted answers rejected for {sorted(corrupted)}")
    for line in problems:
        print("smoke FAIL:", line)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dense-solve")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check metric names, units and the oracle on tiny lists")
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.probe_dir:
        set_up(args.workload, args.seed, args.probe_dir)
        return 0
    if args.smoke:
        return smoke(args.seed)
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    print("# facts " + json.dumps(record["facts"]))
    print("# ops " + json.dumps(record["ops"]))
    if not args.trace:
        raw = {k: record["detail"][k] for k in ("passes", "raw_p50_ms", "raw_p90_ms")}
        print("# raw " + json.dumps(raw))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
