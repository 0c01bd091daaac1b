"""dynact benchmark: one workload per call, each in fresh single-threaded processes.

    python3 bench/run.py --workload {verify,sweep,artifacts} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: one closed-loop run (one
client; the next op starts when the previous one returns), with set-up-only
processes before and after it, so ``setup_s`` is a median. ``--trace 1`` runs the
workload's fixed op prefix untraced and then under the outside-in tracer
and reports the per-layer metrics. Human-readable lines go first; the last
line of standard output is the JSON result. Details of the run (environment,
digest, failures) are written to ``.bench_out/`` and spans to
``.bench_out/spans-<workload>-seed<N>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "sweep", "artifacts")
# set-up-only processes started before and after the measured run; with the
# measured run's own set-up, setup_s is the median of 2 * SETUP_EACH_SIDE + 1
# samples spread over the whole run, not taken in one burst
SETUP_EACH_SIDE = 2
# A measured run may take this many times --seconds of wall time, checks
# included, before the child gives up; the timeout adds a margin for
# interpreter start and set-up.
WALL_CAP = 3.0
CHILD_MARGIN_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, args, work: Path, spans: Path | None = None) -> tuple[float, dict]:
    """Start child.py in a fresh interpreter; returns (start time, its JSON result)."""
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work), "--max-wall", str(WALL_CAP * args.seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WALL_CAP * args.seconds + CHILD_MARGIN_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {mode} process for {args.workload} exited {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: shows a slowed-down shared machine
    that the load average, which counts only this machine's processes, does not."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
        "cpu_probe_ms_start": cpu_probe_ms(),
    }


def setup_sample(args, work: Path) -> float:
    started, res = run_child("setup", args, work)
    return res["ready_monotonic"] - started


def end_to_end(args, work: Path, details: dict) -> tuple[dict, int, int, bool]:
    setups = [setup_sample(args, work) for _ in range(SETUP_EACH_SIDE)]
    started, run = run_child("run", args, work)
    setups.append(run["ready_monotonic"] - started)
    setups += [setup_sample(args, work) for _ in range(SETUP_EACH_SIDE)]
    lat = run["latencies_s"]
    attempted, failed = len(lat), len(run["failures"])
    p90 = statistics.quantiles(lat, n=100)[89]
    metrics = {
        "ops_per_s": ((attempted - failed) / run["busy_s"], "1/s", attempted),
        "ok_ops_ratio": ((attempted - failed) / attempted, "ratio", attempted),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", attempted),
        "latency_p90_ms": (p90 * 1e3, "ms", attempted),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    details["env"]["numpy"] = run["numpy"]
    details.update(
        samples_beyond_p90=sum(x > p90 for x in lat),
        op_cpu_p50_ms=statistics.median(run["cpu_s"]) * 1e3,
        setup_samples_s=setups,
        digest=run["digest"],
        failures=run["failures"],
        known_defects=run["known_defects"],
        wrong_outputs=run["wrong"],
    )
    correct = run["wrong"] == 0
    return metrics, attempted, failed, correct


def per_layer(args, work: Path, details: dict) -> tuple[dict, int, int, bool]:
    out = ROOT / ".bench_out"
    _, res = run_child("trace", args, work, spans=out / f"spans-{args.workload}-seed{args.seed}.csv")
    n = res["ops"]
    metrics = {k: (m["value"], m["unit"], n) for k, m in res["metrics"].items()}
    same = res["digest"] == res["traced_digest"]
    details["env"]["numpy"] = res["numpy"]
    details.update(
        digest=res["digest"],
        traced_digest=res["traced_digest"],
        digests_match=same,
        untraced_prefix_s=res["plain_s"],
        traced_prefix_s=res["traced_s"],
        failures=res["failures"],
        traced_failures=res["traced_failures"],
        wrong_outputs=res["wrong"],
    )
    print(f"traced digest {'matches' if same else 'DIFFERS FROM'} untraced")
    failed = len(res["failures"]) + len(res["traced_failures"])
    return metrics, 2 * n, failed, same and res["wrong"] == 0


def declared_metrics(trace: int) -> set[str]:
    """Names BENCHMARK.json declares for this mode: per_layer when traced, else end_to_end."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dynact" / "__init__.py").is_file():
        print(f"bench: no dynact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": environment()}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, correct = measure(args, work, details)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mismatch = set(metrics) ^ declared_metrics(args.trace)
    if mismatch:
        print(f"bench: measured and declared metrics differ: {sorted(mismatch)}", file=sys.stderr)
        return 3
    details["env"]["loadavg_end"] = os.getloadavg()
    details["env"]["cpu_probe_ms_end"] = cpu_probe_ms()
    details["failed_ops_ratio"] = failed / attempted
    details["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}

    for key, value in details["env"].items():
        print(f"env {key}: {value}")
    print(f"output digest (first ops of the run): {details['digest']}")
    for f in details["failures"][:5]:
        print(f"failed op {f['op']} (op seed {f['seed']}): {f['problem']}")
    if "known_defects" in details:
        print("verify ops whose only miss is check_theorem1's finite-difference reference: "
              f"{len(details['known_defects'])}")
        for f in details["known_defects"][:5]:
            print(f"  op {f['op']} (op seed {f['seed']}): {f['miss']}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(f"failed_ops_ratio {failed / attempted:.6g} ratio (n={attempted})")
    if "samples_beyond_p90" in details:
        print(f"latency samples beyond p90: {details['samples_beyond_p90']}")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
