"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {ingest,mixed,fleet_ingest} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs half the
window untraced and half with the layer wrappers installed, and reports the
per-layer metrics.  Every run checks the program's answers; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Metric name -> unit.  BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "freshness_p50_ms": "ms",
    "freshness_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}
WORKLOADS = ("ingest", "mixed", "fleet_ingest")
PER_LAYER = {
    "setup.spawn_to_listen_s": "s",
    "service.build_ms": "ms",
    "store.restore_ms": "ms",
    "wire.decode_batch_us_per_item": "us/item",
    "service.ingest_self_us_per_item": "us/item",
    "store.append_batch_us": "us",
    "store.fsyncs": "1/batch",
    "store.publish_epoch_ms_p50": "ms",
    "store.snapshot_bytes": "B",
    "sketch.insert_batch_us_per_item": "us/item",
    "hashing.encode_us_per_key": "us/key",
    "kernels.intern_us_per_key": "us/key",
    "snapshots.publishes": "count",
    "snapshots.replicate_ms_p50": "ms",
    "snapshots.replicate_ms_max": "ms",
    "sketch.state_snapshot_ms": "ms",
    "sketch.state_restore_ms": "ms",
    "ring.offer_us": "us",
    "ring.evictions": "count",
    "server.answer_ms_p50": "ms",
    "server.wait_ms_p50": "ms",
    "server.wait_ms_p99": "ms",
    "server.reads_behind_publish": "count",
    "service.serve_batch_ms_p50": "ms",
    "sketch.query_batch_us_per_key": "us/key",
    "hashing.murmur_calls_per_read": "count",
    "loadgen.busy_replies": "count",
    "loadgen.lateness_p99_ms": "ms",
    "coordinator.route_us_per_item": "us/item",
    "wire.encode_batch_us_per_item": "us/item",
    "transport.send_blocked_share": "share",
    "coordinator.credit_wait_share": "share",
    "worker.busy_share": "share",
    "worker.idle_share": "share",
    "fleet.bytes_sent_per_item": "B/item",
    "fleet.load_imbalance": "ratio",
    "fleet.collect_ms": "ms",
    "fleet.merge_ms": "ms",
    "fleet.single_node_items_per_s": "items/s",
    "trace.overhead_share": "share",
    "trace.span_coverage_share": "share",
}


def environment(seed: int) -> dict:
    """What a result must be compared on: like machines only."""
    import numpy

    from repro.kernels.dispatch import default_backend_name

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": default_backend_name(),
        "numba": has_numba,
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str/bytes hashing is salted per process, so dict and set layouts,
        # and with them speeds, would differ from run to run.  Fix the salt
        # for this process, the fleet workers it forks and the servers.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import Tally
    from sut import RunContext
    import workload_fleet
    import workload_ingest
    import workload_mixed

    workloads = {
        "ingest": workload_ingest.run,
        "mixed": workload_mixed.run,
        "fleet_ingest": workload_fleet.run,
    }
    scratch_parent = ROOT / ".perfbench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_parent))
    tally = Tally()
    ctx = RunContext(ROOT, scratch, args.seed, args.seconds, bool(args.trace), tally)
    began = time.perf_counter()
    try:
        measured = workloads[args.workload](ctx)
    finally:
        ctx.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        units = PER_LAYER
        # Layers this workload does not pass through read 0.
        metrics = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
    else:
        units = END_TO_END
        metrics = {name: float(measured[name]) for name in END_TO_END}
    report = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - began,
        "environment": environment(args.seed),
        "failed_share": tally.failed / max(1, tally.attempted),
        "failure_reasons": tally.reasons,
        **ctx.report,
    }
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
