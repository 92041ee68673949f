"""polyco benchmark: seeded request streams against the library's public entry points.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run starts one child process (client.py), which is the only client: it
sends the next request only after the previous one returned (a closed loop,
one request in flight).  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it sends a fixed number of rounds in alternating
untraced and traced passes and reports per-layer metrics and the tracing
overhead.  Every output is checked; a request that raises, times out or
gives a wrong answer counts as failed.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
WORKLOADS = ("verify", "decompose-deep", "complexes-wide")

E2E_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("split."):
        return "1"
    return "count"


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "client.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"client for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, raw: dict, trace: int) -> tuple[dict, list[str]]:
    attempted = raw["attempted"]
    failed = len(raw["failures"])
    lines = [f"workload {workload}: {attempted} requests, {failed} failed"]
    lines += [f"  FAILED {f}" for f in raw["failures"][:10]]
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in raw["per_layer"].items()}
    else:
        lat = sorted(raw["latencies_s"])
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
        values = {
            "requests_per_s": (attempted - failed) / raw["service_s"],
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * p90,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
            "setup_s": raw["setup_s"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        beyond = sum(x > p90 for x in lat)
        lines.append(
            f"  {raw['rounds']} rounds, {raw['service_s']:.2f} s of requests; "
            f"latency samples {len(lat)}, {beyond} beyond p90"
        )
        lines.append(f"  {'failed_ratio':<24} {failed / attempted:>14.4f} 1")
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            raw = run_child(name, args.seed, args.seconds, args.trace)
            m, lines = summarize(name, raw, args.trace)
            print("\n".join(lines), flush=True)
            attempted += raw["attempted"]
            failed += len(raw["failures"])
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
