"""One workload process: set up, run passes of ops, check and digest outputs.

Started by ``run.py`` in a fresh interpreter per sample, so that import
cost and peak memory belong to one workload. Prints one JSON object.

    python3 bench/worker.py --workload W --seed S --mode setup|run|trace
                            [--seconds N] [--spans FILE]

* ``setup``: generate inputs, then time import + parse + encode, and exit.
* ``run``: set up, then run whole passes in a closed loop (one op at a time)
  until at least ``min_passes`` passes and ``--seconds`` of op time are done.
* ``trace``: install the tracer right after the import, then set up and run
  exactly ``min_passes`` passes traced. ``run.py`` compares the digest with
  that of an untraced ``run`` of the same passes.

The worker also times a fixed calibration loop, ``SETUP_CALIBRATIONS``
times before and after set-up and, in ``run`` mode, between ops after every
``CALIBRATE_EVERY_S`` of op time, so that ``run.py`` can scale its times
to a reference speed (see ``calibration_loop``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import workloads

CALIBRATE_EVERY_S = 0.2  # op time between two calibration samples
SETUP_CALIBRATIONS = 10  # samples before and after set-up


def calibration_loop() -> int:
    """A fixed pure-Python loop, about 5 ms on the reference machine.

    The host's speed drifts by tens of percent over minutes; the loop's time,
    taken between ops, measures that drift and nothing of prsampling.
    """
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return s


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def run_passes(ops, schedule, min_passes, seconds, tracer=None):
    """Run whole passes; time each op alone; check and digest outside the op.

    Returns latencies (s) by op label, failures, checker rejections, the
    sha256 of the first ``min_passes`` passes' outputs in op order, and the
    calibration loop's times (untraced runs only).
    """
    latencies: dict[str, list[float]] = {label: [] for label in schedule}
    digest = hashlib.sha256()
    prefix = None
    failures: list[str] = []
    rejected: list[str] = []
    calibration: list[float] = []
    busy = 0.0
    last = -CALIBRATE_EVERY_S
    passes = i = 0
    while passes < min_passes or busy < seconds:
        for label in schedule:
            if tracer is None and busy - last >= CALIBRATE_EVERY_S:
                calibration.append(time_calibration())
                last = busy
            op = ops[label]
            if tracer is not None:
                tracer.op = i
            error = None
            start = time.perf_counter()
            try:
                out = op.call(i)
            except Exception as exc:  # any raise is a failed op, counted below
                error = exc
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies[label].append(elapsed)
            if error is not None:
                text = "!%s: %s" % (type(error).__name__, error)
                failures.append("op %d %s raised %s" % (i, label, text[1:]))
            else:
                reason = op.check(out)
                if reason is not None:
                    rejected.append("op %d %s: %s" % (i, label, reason))
                text = op.text(out)
            digest.update(("%d %s %s\n" % (i, label, text)).encode())
            out = error = None
            i += 1
        passes += 1
        if passes == min_passes:
            prefix = digest.hexdigest()
    return {
        "latencies": latencies,
        "busy_s": busy,
        "ops": i,
        "passes": passes,
        "failures": failures,
        "rejected": rejected,
        "digest": prefix,
        "digest_ops": min_passes * len(schedule),
        "calibration_s": calibration,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    inputs = wl.make_inputs(args.seed)
    calibration = [time_calibration() for _ in range(SETUP_CALIBRATIONS)]
    t0 = time.perf_counter()
    import prsampling

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(prsampling)
    ops = wl.setup(inputs, args.seed)
    setup_s = time.perf_counter() - t0
    src = os.path.realpath(os.environ["BENCH_SRC"])
    if os.path.commonpath([src, os.path.realpath(prsampling.__file__)]) != src:
        print("prsampling was imported from %s, not %s" % (prsampling.__file__, src), file=sys.stderr)
        return 2
    calibration += [time_calibration() for _ in range(SETUP_CALIBRATIONS)]
    result = {"setup_s": setup_s, "setup_calibration_s": calibration}
    if args.mode == "run":
        result.update(run_passes(ops, wl.schedule, wl.min_passes, args.seconds))
    elif args.mode == "trace":
        result.update(run_passes(ops, wl.schedule, wl.min_passes, 0.0, tracer))
        tracer.restore()
        tracer.write_spans(args.spans)
        result["layers"] = tracer.metrics()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
