"""Span recording around calls into testlens layers, and per-layer metrics.

The tracer wraps the public functions of each module from outside: every
global binding in a ``testlens`` module that refers to a wrapped function
is replaced while the tracer is installed, so the calls the CLI makes
(and the calls those functions make to each other) each record a span.
Nothing under ``src/`` changes. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time

# qualified function -> (span name, what its ``count`` field records)
TARGETS = {
    "extraction.tokenize": ("extraction.tokenize", lambda args, res: len(res.tokens)),
    "extraction.extract_methods": ("extraction.extract", lambda args, res: len(res)),
    "splitter.split": ("splitter.split", None),
    "tagger.tag": ("tagger.tag", None),
    "patterns.pattern_of": ("patterns.pattern_of", None),
    "lint.lint": ("lint.lint", lambda args, res: len(res)),
    "rename.classify": ("rename.classify", None),
    "rename.classify_form": ("rename.classify_form", None),
    "rename.classify_semantics": ("rename.classify_semantics", None),
    "rename.term_pairs": ("rename.term_pairs", None),
    "renamedetect.detect_renames": ("renamedetect.detect", lambda args, res: len(res)),
    "renamedetect.body_similarity": ("renamedetect.body_similarity", None),
    "report.accumulate": ("report.accumulate", None),
    "report.render_table": ("report.render_table", None),
}

# results kept for the direct-call probes that run after the CLI calls
CAPTURE = {"lint.lint": lambda args, res: (args[0], args[1]),
           "patterns.pattern_of": lambda args, res: res}

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request", "count", "error")


class Tracer:
    """In-memory spans: (name, start, end, parent id, request id, count, error)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.captured: dict[str, list] = {name: [] for name in CAPTURE}
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        """Open a root span for one request (one CLI call or probe)."""
        self.request += 1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, None, self.request, None, None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int, count=None) -> None:
        self.stack.pop()
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[5] = count

    def _wrap(self, qualname: str, fn):
        name, measure = TARGETS[qualname]
        capture = CAPTURE.get(qualname)
        kept = self.captured.get(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, None, stack[-1] if stack else None, self.request, None, None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                span[6] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if measure is not None:
                span[5] = measure(args, result)
            if capture is not None:
                kept.append(capture(args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "testlens" or name.startswith("testlens.")}
        for qualname in TARGETS:
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(modules[f"testlens.{module_name}"], attr)
            wrapper = self._wrap(qualname, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def dump(self, fh) -> None:
        fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for sid, span in enumerate(self.spans):
            fh.write(json.dumps([sid] + span) + "\n")


def _probe_lint(tracer: Tracer) -> dict[str, float]:
    """Per rule: lint() with a one-rule tuple over every linted method."""
    from testlens import lint

    cases = tracer.captured["lint.lint"]
    out = {}
    for rule in lint.default_rules():
        sid = tracer.begin(f"lint.{rule.id}")
        for method, tagged in cases:
            lint.lint(method, tagged, (rule,))
        tracer.end(sid, len(cases))
        span = tracer.spans[sid]
        out[f"lint.{rule.id}.us_per_method"] = 1e6 * (span[2] - span[1]) / len(cases)
    return out


def _probe_catalog(tracer: Tracer) -> float:
    from testlens import patterns

    found = tracer.captured["patterns.pattern_of"]
    catalog = patterns.default_catalog()
    sid = tracer.begin("patterns.catalog_match")
    for pattern in found:
        patterns.catalog_match(pattern, catalog)
    tracer.end(sid, len(found))
    span = tracer.spans[sid]
    return 1e6 * (span[2] - span[1]) / len(found)


# metric groups: the span whose calls show that a workload reaches the
# group, and the group's metrics; a group the workload never reaches is
# read from the reference runs instead
GROUPS = {
    "extraction": ("extraction.extract", (
        "extraction.tokenize.tokens_per_s", "extraction.tokenize.self_s",
        "extraction.extract.self_s", "extraction.extract.methods_per_s",
        "extraction.partial_parses")),
    "splitter": ("splitter.split", ("splitter.split.calls", "splitter.split.us_per_call")),
    "tagger": ("tagger.tag", ("tagger.tag.calls", "tagger.tag.us_per_call")),
    "patterns": ("patterns.pattern_of", ("patterns.pattern_of.us_per_call",
                                         "patterns.catalog_match.us_per_call")),
    "lint": ("lint.lint", tuple(f"lint.R{i}.us_per_method" for i in range(1, 6))
             + ("lint.findings",)),
    "rename": ("rename.classify", ("rename.classify_form.us_per_event",
                                   "rename.classify_semantics.us_per_event",
                                   "rename.term_pairs.us_per_event",
                                   "rename.classify.us_per_event")),
    "renamedetect": ("renamedetect.detect", ("renamedetect.detect.self_s",
                                             "renamedetect.body_similarity.us_per_call",
                                             "renamedetect.candidate_pairs",
                                             "renamedetect.events_per_candidate")),
    "report": ("report.accumulate", ("report.accumulate.us_per_event",
                                     "report.render_table.ms_per_table")),
    **{f"cli.{kind}": (f"cli.{kind}", (f"cli.{kind}.residual_s",))
       for kind in ("scan", "lint", "detect", "classify", "report")},
}

UNITS = {"calls": "count", "partial_parses": "count", "findings": "count",
         "candidate_pairs": "count", "events_per_candidate": "ratio",
         "tokens_per_s": "1/s", "methods_per_s": "1/s", "self_s": "s", "residual_s": "s",
         "overhead_s": "s", "ms_per_table": "ms"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "us")


def run_probes(tracer: Tracer) -> dict[str, float]:
    """Direct calls the CLI does not make; run after ``uninstall``."""
    probes = {f"lint.R{i}.us_per_method": 0.0 for i in range(1, 6)}
    probes["patterns.catalog_match.us_per_call"] = 0.0
    if tracer.captured["lint.lint"]:
        probes.update(_probe_lint(tracer))
    if tracer.captured["patterns.pattern_of"]:
        probes["patterns.catalog_match.us_per_call"] = _probe_catalog(tracer)
    return probes


def layer_metrics(tracer: Tracer, candidate_pairs: int, probes: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one tracer's spans, and call counts per group."""
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for sid, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(sid)
        if span[3] is not None:
            children.setdefault(span[3], []).append(sid)

    def dur(sid):
        return spans[sid][2] - spans[sid][1]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    def self_time(name, only_prefix=""):
        return sum(dur(s) - sum(dur(c) for c in children.get(s, ())
                                if spans[c][0].startswith(only_prefix))
                   for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def per_call(name, scale=1e6, per=None):
        n = per if per is not None else calls(name)
        return scale * total(name) / n if n else 0.0

    def count_sum(name):
        return sum(spans[s][5] or 0 for s in by_name.get(name, ()))

    def rate(name):
        """Items counted per second spent in ``name``."""
        return count_sum(name) / total(name) if calls(name) else 0.0

    events = calls("rename.classify")
    m = {
        "extraction.tokenize.tokens_per_s": rate("extraction.tokenize"),
        "extraction.tokenize.self_s": self_time("extraction.tokenize"),
        "extraction.extract.self_s": self_time("extraction.extract", "extraction."),
        "extraction.extract.methods_per_s": rate("extraction.extract"),
        "extraction.partial_parses": sum(1 for s in by_name.get("extraction.extract", ())
                                         if spans[s][6] == "PartialParseError"),
        "splitter.split.calls": calls("splitter.split"),
        "splitter.split.us_per_call": per_call("splitter.split"),
        "tagger.tag.calls": calls("tagger.tag"),
        "tagger.tag.us_per_call": per_call("tagger.tag"),
        "patterns.pattern_of.us_per_call": per_call("patterns.pattern_of"),
        "lint.findings": count_sum("lint.lint"),
        "renamedetect.detect.self_s": self_time("renamedetect.detect", "extraction."),
        "renamedetect.body_similarity.us_per_call": per_call("renamedetect.body_similarity"),
        "renamedetect.candidate_pairs": candidate_pairs,
        "renamedetect.events_per_candidate": count_sum("renamedetect.detect") / candidate_pairs
        if candidate_pairs else 0.0,
        "report.accumulate.us_per_event": per_call("report.accumulate"),
        "report.render_table.ms_per_table": per_call("report.render_table", 1e3),
    }
    for name in ("classify_form", "classify_semantics", "term_pairs", "classify"):
        m[f"rename.{name}.us_per_event"] = per_call(f"rename.{name}", per=events)
    for kind in ("scan", "lint", "detect", "classify", "report"):
        m[f"cli.{kind}.residual_s"] = self_time(f"cli.{kind}")
    m.update(probes)
    group_calls = {group: calls(span) for group, (span, _metrics) in GROUPS.items()}
    return m, group_calls


def merge(primary: tuple[dict, dict], reference: tuple[dict, dict]) -> tuple[dict, list[str]]:
    """Take each group from the workload's own spans when it reached the
    group, else from the reference runs; name the groups so filled."""
    (own, own_calls), (ref, _ref_calls) = primary, reference
    out, from_reference = {}, []
    for group, (_span, metrics) in GROUPS.items():
        source = own if own_calls[group] else ref
        if not own_calls[group]:
            from_reference.append(group)
        for metric in metrics:
            out[metric] = source[metric]
    return out, from_reference
