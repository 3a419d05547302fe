"""One fresh worker process: set up testlens, run a workload's commands.

Usage: worker.py MANIFEST ROUND_DIR MODE [REFERENCE_MANIFEST ...]

MODE is ``time`` (run the commands once), ``check`` (also check the
outputs against the manifest's truth) or ``trace`` (run the commands with
spans, then the reference manifests, and report per-layer metrics).

The worker prints ``ready`` once testlens is imported and a first trivial
command has loaded the bundled data, then one JSON result line. It starts
no threads or processes; commands run one after another.

Times are taken twice: wall time (``time.perf_counter``) and the CPU time
of this process (``time.process_time``, user plus system). On a shared
virtual machine the hypervisor takes the vCPU away for stretches of
seconds (steal time); that lengthens wall time but not CPU time, so the
bounded metrics are built from CPU time. A fixed speed probe is timed
right before and right after the commands, so that ``run.py`` can scale
the CPU time to a reference speed.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

import oracle
import tracing


def _setup(round_dir: str):
    from testlens import cli

    events = os.path.join(round_dir, "setup-events.csv")
    with open(events, "w", encoding="utf-8") as fh:
        fh.write("old_name,new_name,file,commit\ntestParserCache,testParserCaches,,\n")
    for argv in (["pattern", "testReadParserCache", "--catalog"],
                 ["rename", "classify", "--input", events]):
        if cli.run(argv, io.StringIO(), io.StringIO()) != 0:
            raise SystemExit(f"setup command failed: {argv}")
    return cli


def _argv(command: dict, round_dir: str) -> list[str]:
    return [a.replace("@ROUND@", round_dir) for a in command["argv"]]


def run_commands(cli, manifest: dict, round_dir: str, tracer=None) -> list[dict]:
    """Run the command sequence once; per command: exit code, wall and CPU
    seconds, stdout."""
    results = []
    for command in manifest["commands"]:
        out, err = io.StringIO(), io.StringIO()
        argv = _argv(command, round_dir)
        sid = tracer.begin(f"cli.{command['kind']}") if tracer else None
        start, cpu_start = time.perf_counter(), time.process_time()
        code = cli.run(argv, out, err)
        seconds = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        if tracer:
            tracer.end(sid)
        stdout = out.getvalue()
        if "save" in command:
            with open(command["save"].replace("@ROUND@", round_dir), "w", encoding="utf-8") as fh:
                fh.write(stdout)
        results.append({"exit": code, "seconds": seconds, "cpu_s": cpu_s, "stdout": stdout})
    return results


def _check(manifest: dict, results: list[dict]) -> list[tuple[bool, bool]]:
    ops = []
    for index, (command, result) in enumerate(zip(manifest["commands"], results)):
        try:
            ops.extend(oracle.check(command, result["stdout"], manifest, manifest["root"], index))
        except (ValueError, KeyError, TypeError, IndexError):
            ops.append((False, False))  # unparseable or malformed output
    return ops


def _traced(cli, manifests: list[dict], round_dir: str):
    """Run every manifest's commands under one tracer; return the tracer,
    the command results of each manifest and the per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [run_commands(cli, m, round_dir, tracer) for m in manifests]
    finally:
        tracer.uninstall()
    candidates = sum(p["candidates"] for m in manifests for p in m["truth"].get("pairs", ()))
    return tracer, results, tracing.layer_metrics(tracer, candidates, tracing.run_probes(tracer))


def _trace(cli, manifest: dict, round_dir: str, references: list[dict]) -> dict:
    probe_before = _probe()
    tracer, (results,), own = _traced(cli, [manifest], round_dir)
    probe = [probe_before, _probe()]
    _, _, reference = _traced(cli, references, round_dir)
    metrics, from_reference = tracing.merge(own, reference)
    spans_path = os.path.join(manifest["out_dir"], f"spans-{manifest['workload']}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        tracer.dump(fh)
    return {"results": results, "layer": metrics, "from_reference": from_reference,
            "spans": spans_path, "probe_cpu_s": probe}


# The speed probe: fixed work of the program's kind (regex tokenizing into
# small objects, a backward scan over their attributes, camel-case
# splitting, counting) that uses no testlens code, so no change to the
# program moves it. See run.py for how its time scales the round's times.
_PROBE_TEXT = "".join(
    f"    @Test void shouldParseCache{i}() {{ if (a{i} > load(b{i})) {{ run(x -> f(x, {i})); }} }}\n"
    for i in range(400))
_PROBE_TOKEN = re.compile(r"(?P<word>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>[0-9]+)|(?P<op>->|\S)")
_PROBE_CAMEL = re.compile(r"[A-Z]?[a-z]+|[0-9]+")


class _ProbeToken:
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text


def _probe() -> float:
    """CPU seconds of one pass of the speed probe, with the garbage
    collector off so that the program's live objects do not count."""
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(5):
            tokens = [_ProbeToken(m.lastgroup, m.group()) for m in _PROBE_TOKEN.finditer(_PROBE_TEXT)]
            depth = 0
            for i in range(len(tokens) - 1, -1, -1):
                tok = tokens[i]
                if tok.kind == "op" and tok.text in ("<", ">"):
                    depth += 1 if tok.text == ">" else -1
            collections.Counter(w.lower() for tok in tokens if tok.kind == "word"
                                for w in _PROBE_CAMEL.findall(tok.text))
        return time.process_time() - start
    finally:
        gc.enable()


def main(argv: list[str]) -> int:
    manifest_path, round_dir, mode = argv[:3]
    cli = _setup(round_dir)
    # CPU time since the process started: interpreter start, imports, set-up
    setup_cpu_s = time.process_time()
    print("ready", flush=True)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    report: dict = {"setup_cpu_s": setup_cpu_s}
    if mode == "trace":
        references = []
        for path in argv[3:]:
            with open(path, encoding="utf-8") as fh:
                references.append(json.load(fh))
        traced = _trace(cli, manifest, round_dir, references)
        results = traced.pop("results")
        report.update(traced)
    else:
        probe_before = _probe()
        start, cpu_start = time.perf_counter(), time.process_time()
        results = run_commands(cli, manifest, round_dir)
        report["wall_s"] = time.perf_counter() - start
        report["cpu_s"] = time.process_time() - cpu_start
        report["probe_cpu_s"] = [probe_before, _probe()]
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "check":
        report["ops"] = _check(manifest, results)
    report["commands"] = [
        {"exit": r["exit"], "seconds": r["seconds"], "cpu_s": r["cpu_s"],
         "sha256": hashlib.sha256(r["stdout"].encode("utf-8")).hexdigest()}
        for r in results
    ]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
