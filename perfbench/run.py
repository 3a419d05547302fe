"""testlens benchmark: seeded workloads driven through ``testlens.cli.run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload tree --seed 1 --seconds 30 --trace 0

The inputs are generated from the seed and written to disk first. Then a
single closed-loop client runs the workload's command sequence in fresh
worker processes, one after another (each worker is one round), until
``--seconds`` have passed, with at least two rounds. The first round's
outputs are checked against the generator's truth, and every later
round's stdout must be byte-identical to the first.

``--trace 0`` reports the end-to-end metrics, each a median over rounds.
Their times are CPU seconds of the worker process scaled to a reference
speed (see ``_scale``); raw CPU and wall times are kept in the detail
line. ``--trace 1`` runs one untraced round and one traced round and
reports the per-layer metrics.
The last line of stdout is the result object; the line before it holds
the detail (all named metrics, input properties, error share).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import generate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170  # every run must end within 180 s
# CPU seconds of one pass of the worker's speed probe at the reference
# speed: about its time on the 2-vCPU machine the benchmark was built on
# when that machine ran at its usual, slower level
PROBE_REF_S = 0.1

# the named metric each workload reports as its gated ``items_per_ref_cpu_s``
ITEMS = {
    "tree": "lint_methods_per_s",
    "lambda-tree": "scan_files_per_s",
    "detect": "detect_pairs_per_s",
    "classify-report": "classify_events_per_s",
}


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up wall seconds and its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _scale(round_: dict) -> float:
    """Factor from a round's CPU seconds to CPU seconds at the reference speed.

    On a shared host the speed of a vCPU moves between levels up to about
    2x apart, in spells from seconds to minutes, and CPU time follows it
    (wall time also takes in the hypervisor's steal time). Each worker
    times a fixed probe, which runs no testlens code, right before and
    right after the workload's commands; the mean of the two says how fast
    the machine ran that round. A change to testlens moves the scaled time
    and not the probe; a change of machine speed moves both.
    """
    return PROBE_REF_S / statistics.fmean(round_["probe_cpu_s"])


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _write_manifest(manifest: dict, work: str, name: str) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return path


def _detail_metrics(workload: str, manifest: dict, rounds: list[dict]) -> dict:
    """Named end-to-end metrics of one workload, each a median over rounds,
    from the scaled CPU seconds of each command."""
    kinds = [c["kind"] for c in manifest["commands"]]

    def seconds(kind):
        return statistics.median(
            _scale(r) * sum(c["cpu_s"] for c, k in zip(r["commands"], kinds) if k == kind)
            for r in rounds)

    props = manifest["properties"]
    m = {}
    if workload in ("tree", "lambda-tree"):
        m["scan_files_per_s"] = (props["files"] / seconds("scan"), "1/s")
    if workload == "tree":
        methods = len(manifest["truth"]["lint"])
        m["lint_methods_per_s"] = (methods / seconds("lint"), "1/s")
    if workload == "detect":
        pairs = len(kinds)
        latencies = [1e3 * _scale(r) * c["cpu_s"] for r in rounds for c in r["commands"]]
        m["detect_pairs_per_s"] = (pairs / seconds("detect"), "1/s")
        m["detect_p50_ms"] = (statistics.median(latencies), "ms")
        m["detect_p95_ms"] = (_pct(latencies, 0.95), "ms")
        m["detect_latency_samples"] = (len(latencies), "count")
    if workload == "classify-report":
        events = props["events"]
        m["classify_events_per_s"] = (events / seconds("classify"), "1/s")
        m["report_s"] = (seconds("report"), "s")
    return m


def _ops(manifest: dict, rounds: list[dict]) -> tuple[int, int, int]:
    """(attempted, failed, known-defect mismatches) over every check.

    Besides the first round's item checks, each command is one check: its
    exit code is the expected one and its stdout is byte-identical in every
    round. The count of checks does not depend on the number of rounds.
    """
    ops = list(map(tuple, rounds[0]["ops"]))
    for i, command in enumerate(manifest["commands"]):
        runs = [r["commands"][i] for r in rounds]
        ops.append((all(c["exit"] in command["exit"] and c["sha256"] == runs[0]["sha256"]
                        for c in runs), False))
    failed = sum(1 for ok, defect in ops if not ok and not defect)
    known = sum(1 for ok, defect in ops if not ok and defect)
    return len(ops), failed, known


def run(args, work: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = os.path.join(work, "inputs")
    gen_start = time.perf_counter()
    manifest = generate.generate(args.workload, args.seed, inputs, SRC)
    manifest["root"] = inputs
    manifest["out_dir"] = OUT
    manifest_path = _write_manifest(manifest, work, "manifest")
    references = []
    if args.trace:
        for other in generate.WORKLOADS:
            if other != args.workload:
                ref = generate.generate(other, args.seed, os.path.join(work, f"ref-{other}"),
                                        SRC, scale="small")
                ref["root"] = os.path.join(work, f"ref-{other}")
                references.append(_write_manifest(ref, work, f"ref-{other}"))
    generate_s = time.perf_counter() - gen_start

    def one_round(mode: str, extra: list[str]) -> tuple[float, dict]:
        round_dir = os.path.join(work, f"round-{len(rounds)}")
        os.makedirs(round_dir)
        return _worker([manifest_path, round_dir, mode, *extra], deadline)

    rounds: list = []
    if args.trace:
        rounds.append(one_round("check", []))
        rounds.append(one_round("trace", references))
    else:
        measure_start = time.monotonic()
        while len(rounds) < 2 or time.monotonic() - measure_start < args.seconds:
            rounds.append(one_round("time" if rounds else "check", []))
    setups = [setup_s for setup_s, _ in rounds]
    rounds = [result for _, result in rounds]

    attempted, failed, known = _ops(manifest, rounds)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rounds": len(rounds),
        "generate_s": generate_s,
        "properties": manifest["properties"],
        "error_share": (failed + known) / attempted,
        "error_samples": attempted,
        "known_defect_mismatches": known,
        "setup_wall_s_per_round": setups,
        "setup_cpu_s_per_round": [r["setup_cpu_s"] for r in rounds],
    }
    if args.trace:
        untraced = _scale(rounds[0]) * sum(c["cpu_s"] for c in rounds[0]["commands"])
        traced_total = _scale(rounds[1]) * sum(c["cpu_s"] for c in rounds[1]["commands"])
        metrics = dict(rounds[1]["layer"])
        metrics["tracing.overhead_s"] = traced_total - untraced
        detail["layers_from_reference"] = rounds[1]["from_reference"]
        detail["spans"] = os.path.relpath(rounds[1]["spans"], ROOT)
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in metrics.items()}
    else:
        named = _detail_metrics(args.workload, manifest, rounds)
        detail["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        detail["wall_s_per_round"] = [r["wall_s"] for r in rounds]
        detail["cpu_s_per_round"] = [r["cpu_s"] for r in rounds]
        detail["probe_cpu_s_per_round"] = [r["probe_cpu_s"] for r in rounds]
        detail["wall_s"] = statistics.median(r["wall_s"] for r in rounds)
        detail["cpu_s"] = statistics.median(r["cpu_s"] for r in rounds)
        metrics = {
            "setup_s": {"value": statistics.median(_scale(r) * r["setup_cpu_s"] for r in rounds),
                        "unit": "s"},
            "ref_cpu_s": {"value": statistics.median(_scale(r) * r["cpu_s"] for r in rounds),
                          "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
            "items_per_ref_cpu_s": {"value": named[ITEMS[args.workload]][0], "unit": "1/s"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "testlens", "cli.py")):
        print(f"error: testlens sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        detail, result = run(args, work)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["metrics"] = result["metrics"]
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
