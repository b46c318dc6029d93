"""Benchmark entry point: one workload run, reported by metric name and unit.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 bench/run.py --self-check [--workload W] [--seed S]

Run from the repository root. With ``--trace 0`` it reports the end-to-end
metrics: set-up time is the median over three fresh processes, the rest
come from one closed-loop run of at least ``--seconds`` of op time. Times
are scaled to a reference speed: each process times a fixed calibration
loop (``worker.calibration_loop``) around set-up and between ops, and
every time it measured is multiplied by ``REFERENCE_CALIBRATION_S`` over
the median loop time. That takes out the host's drift in speed, which on a
shared machine moves raw times by tens of percent between runs minutes
apart; the raw figures are kept in the results file. With
``--trace 1`` it reports the per-layer metrics from a traced run (and the
import split from ``python -X importtime``). Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json``. Full results and spans go to ``bench/results/``.

``--self-check`` runs each workload's fixed op count three times, with the
same seed twice and another seed once, and checks that the output digests
repeat for the same seed and differ for the other.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives the median
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
DEADLINE_S = 175  # a run must end within 180 s
# The calibration loop's time on the reference machine, so that scaled
# times read as milliseconds or seconds there.
REFERENCE_CALIBRATION_S = 0.005

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


class RunError(Exception):
    pass


def child_env() -> dict:
    """Environment for a child interpreter that imports prsampling from src/."""
    env = dict(os.environ, BENCH_SRC=str(SRC))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_worker(*args) -> subprocess.Popen:
    """Start bench/worker.py in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    return subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def finish(proc: subprocess.Popen, deadline) -> dict:
    """Wait for a worker (killing it at the deadline) and return its JSON result."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker %s timed out" % " ".join(proc.args[2:])) from None
    if proc.returncode != 0:
        raise RunError("worker %s failed:\n%s" % (" ".join(proc.args[2:]), err))
    return json.loads(out.strip().splitlines()[-1])


def worker(deadline, *args) -> dict:
    return finish(start_worker(*args), deadline)


def import_times(deadline) -> dict[str, float]:
    """Import split from ``-X importtime``: prsampling cumulative, the rest self."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import prsampling"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RunError("import prsampling failed:\n%s" % proc.stderr)
    own = {"scipy": 0, "numpy": 0, "networkx": 0}
    cumulative = 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "prsampling":
            cumulative = int(fields[1])
        top = name.split(".", 1)[0]
        if top in own:
            own[top] += int(fields[0])
    out = {"import.prsampling_s": cumulative / 1e6}
    out.update({"import.%s_s" % k: v / 1e6 for k, v in own.items()})
    return out


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND samples beyond it at min_ops."""
    for p in range(99, 0, -1):
        if min_ops - nearest_rank(p, min_ops) >= TAIL_BEYOND:
            return p
    raise ValueError("%d ops are too few for a tail percentile" % min_ops)


def nearest_rank(p: int, n: int) -> int:
    return -(-p * n // 100)


def git_commit():
    """HEAD of the checkout when it is a git repository (read, not run)."""
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


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "networkx", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "versions": versions,
        "git_commit": git_commit(),
    }


def speed_scale(calibration_s: list[float]) -> float:
    """Factor that turns a process's measured times into reference-speed times."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration_s)


def end_to_end(name: str, seed: int, seconds: int, deadline) -> tuple[dict, dict]:
    wl = workloads.WORKLOADS[name]
    samples = [
        worker(deadline, "--workload", name, "--seed", seed, "--mode", "setup")
        for _ in range(SETUP_SAMPLES - 1)
    ]
    run = worker(deadline, "--workload", name, "--seed", seed, "--mode", "run", "--seconds", seconds)
    samples.append(run)
    setups_raw = [x["setup_s"] for x in samples]
    setups = [x["setup_s"] * speed_scale(x["setup_calibration_s"]) for x in samples]
    scale = speed_scale(run["calibration_s"])
    latencies = sorted(x * scale for xs in run["latencies"].values() for x in xs)
    busy = run["busy_s"] * scale
    n = len(latencies)
    min_ops = wl.min_passes * len(wl.schedule)
    pct = tail_percentile(min_ops)
    rank = nearest_rank(pct, n)
    failed = len(run["failures"]) + len(run["rejected"])

    def measured(value, unit):
        return "measured %.4g %s, scale %.3f" % (value, unit, scale)

    metrics = {
        "setup_s": (
            statistics.median(setups), "s",
            "median of %d processes; measured %.4g s" % (len(setups), statistics.median(setups_raw)),
        ),
        "ops_per_s": (
            n / busy, "ops/s",
            "%d ops in %.2f s of op time at reference speed; %s" % (n, busy, measured(n / run["busy_s"], "ops/s")),
        ),
        "op_p50_ms": (
            statistics.median(latencies) * 1e3, "ms",
            "of %d ops; %s" % (n, measured(statistics.median(latencies) / scale * 1e3, "ms")),
        ),
        "op_tail_ms": (
            latencies[rank - 1] * 1e3, "ms",
            "p%d of %d ops, %d beyond; fixed op count %d; %s" % (
                pct, n, n - rank, min_ops, measured(latencies[rank - 1] / scale * 1e3, "ms")),
        ),
        "failed_ratio": (failed / n, "ratio", "%d failed of %d attempted" % (failed, n)),
        "ok_ratio": ((n - failed) / n, "ratio", "%d ok of %d attempted" % (n - failed, n)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "ru_maxrss of the run process"),
    }
    detail = {
        "setup_samples_s": setups,
        "setup_samples_measured_s": setups_raw,
        "speed_scale": scale,
        "calibration_samples": len(run["calibration_s"]),
        "per_op_p50_ms": {k: statistics.median(v) * scale * 1e3 for k, v in run["latencies"].items()},
        "passes": run["passes"],
        "min_ops": min_ops,
        "digest": run["digest"],
        "digest_ops": run["digest_ops"],
        "failures": run["failures"],
        "rejected": run["rejected"],
        "attempted": n,
        "failed": failed,
        "correct": not run["rejected"],
    }
    return metrics, detail


def per_layer(name: str, seed: int, deadline) -> tuple[dict, dict]:
    """Traced run of the fixed op count, beside an untraced run of the same ops.

    The two workers run at the same time, one per core, so that the
    overhead ratio compares them under the same machine load and a traced
    run costs one pass of the workload's longest op, not two.
    """
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / ("%s-seed%d-spans.jsonl" % (name, seed))
    imports = import_times(deadline)
    procs = [
        start_worker("--workload", name, "--seed", seed, "--mode", "run"),
        start_worker("--workload", name, "--seed", seed, "--mode", "trace", "--spans", spans),
    ]
    try:
        plain, run = (finish(p, deadline) for p in procs)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()
    layers = {k: (v, "s", "python -X importtime") for k, v in imports.items()}
    layers.update((k, (v, unit, "")) for k, (v, unit) in run["layers"].items())
    layers["sampler.res_per_bad"] = layers["sampler.res_per_bad"][:2] + ("base: sampler.bad_events",)
    layers["trace.overhead_ratio"] = (
        plain["busy_s"] / run["busy_s"], "ratio", "traced over untraced ops/s, same ops"
    )
    n = run["ops"]
    failed = len(run["failures"]) + len(run["rejected"])
    same = run["digest"] == plain["digest"]
    detail = {
        "digest": run["digest"],
        "untraced_digest": plain["digest"],
        "digest_ops": run["digest_ops"],
        "traced_equals_untraced": same,
        "spans_file": str(spans.relative_to(ROOT)),
        "failures": run["failures"],
        "rejected": run["rejected"],
        "attempted": n,
        "failed": failed,
        "correct": not run["rejected"] and same,
    }
    return layers, detail


def self_check(names, seed: int) -> int:
    """Same seed, same digest; other seed, other digest; for each workload."""
    ok = True
    for name in names:
        deadline = time.monotonic() + 3 * DEADLINE_S
        digests = [
            worker(deadline, "--workload", name, "--seed", s, "--mode", "run")["digest"]
            for s in (seed, seed, seed + 1)
        ]
        repeat, differ = digests[0] == digests[1], digests[0] != digests[2]
        ok = ok and repeat and differ
        print("%-15s seed %d twice: %s; seed %d: %s  %s" % (
            name, seed, "same" if repeat else "DIFFERENT", seed + 1,
            "different" if differ else "SAME", digests[0]))
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "prsampling" / "__init__.py").is_file():
        print("no prsampling sources at %s; run from a repository checkout" % SRC, file=sys.stderr)
        return 2
    if args.self_check:
        return self_check([args.workload] if args.workload else sorted(workloads.WORKLOADS), args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            rows, detail = per_layer(args.workload, args.seed, deadline)
            wanted = spec["per_layer"]
        else:
            rows, detail = end_to_end(args.workload, args.seed, args.seconds, deadline)
            wanted = spec["end_to_end"]
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 3
    for m in wanted:
        if m["name"] not in rows or rows[m["name"]][1] != m["unit"]:
            print("metric %s (%s) was not measured" % (m["name"], m["unit"]), file=sys.stderr)
            return 3
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in rows.items()},
        **detail,
    }, indent=1, sort_keys=True) + "\n")

    print("%s seed=%d trace=%d python=%s nproc=%s commit=%s" % (
        args.workload, args.seed, args.trace, meta["python"], meta["nproc"], meta["git_commit"]))
    for k in sorted(rows):
        v, u, note = rows[k]
        print("  %-40s %14.6g %-6s %s" % (k, v, u, note))
    print("  digest %s over %d ops; results in %s" % (detail["digest"], detail["digest_ops"], out.relative_to(ROOT)))
    for line in detail["failures"] + detail["rejected"]:
        print("  failed: " + line[:200])
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
