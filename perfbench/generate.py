"""Seeded input generators for the four benchmark workloads.

Each generator writes its inputs to disk and returns a manifest: the
command sequence the worker runs, the ground truth the oracle checks the
outputs against, and the input properties that later optimisations may
depend on. Truth comes from how the inputs were built, never from the
program's output. The same seed always yields byte-identical inputs.

Sizes are fixed multisets (shuffled by the seed) so that runs with
different seeds do the same amount of work; only the content varies.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics

WORKLOADS = ("tree", "lambda-tree", "detect", "classify-report")

REPORT_TABLES = ("full", "pairs", "prefix", "semantic", "terms", "forms", "catalog")

# Per-workload sizes at full scale; the reference runs of the traced mode
# use the small scale.
SIZES = {
    "full": {
        "tree_files": 200,
        "lambda_files": 20,
        "lambda_tail": (200, 300),
        "detect_small_pairs": 60,
        "detect_bulk": (100, 200),
        "events": 1000,
    },
    "small": {
        "tree_files": 6,
        "lambda_files": 4,
        "lambda_tail": (40, 60),
        "detect_small_pairs": 4,
        "detect_bulk": (20,),
        "events": 40,
    },
}

# Lint triggers planted in method names, with a body that satisfies the
# rule and one that violates it (README rule table).
_LINT_TAILS = {
    "R1": (["fails"], 'fail("{v} must not pass");', "assertEquals({v}, {w});"),
    "R2": (["returns", "true"], "assertTrue({v});", "assertEquals({v}, {w});"),
    "R3": (["is", "not", "null"], "assertNotNull({v});", "assertEquals({v}, {w});"),
    "R4": (["for", "all", "items"], "List<String> {v} = load({w}); assertEquals(2, {v}.size());",
           "assertEquals({v}, {w});"),
    "R5": (["throws", "exception"],
           "try {{ {w}.run(); }} catch (IllegalStateException {v}) {{ assertNotNull({v}); }}",
           "{w}.run();"),
}
_LINT_SHARE = 0.25  # share of test methods whose name carries one trigger
_GENERIC_TEST_SHARE = 0.02  # tree files with a `public <T> void` test method
_RECORD_SHARE = 0.05  # lambda-tree files with a nested record declaration
_OVERLOAD_SHARE = 0.05  # small detect pairs with an overloaded rename


def _load_words(src_root: str) -> tuple[list[str], list[str]]:
    """Verbs and nouns of the bundled lexicon that trigger no lint rule."""
    with open(os.path.join(src_root, "testlens", "data", "lexicon.json"), encoding="utf-8") as fh:
        lex = json.load(fh)
    closed = set()
    for key in ("prepositions", "determiners", "conjunctions", "pronouns", "adverbs"):
        closed.update(lex[key])

    def usable(word: str) -> bool:
        return (word.isalpha() and word.islower() and 3 <= len(word) <= 10
                and "fail" not in word and "except" not in word
                and word not in closed
                and word not in {"true", "false", "least", "test", "should"})

    verbs = sorted(w for w in lex["verbs"] if usable(w))
    nouns = sorted(w for w in lex["known_nouns"] if usable(w) and w not in lex["verbs"])
    return verbs, nouns


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n sizes evenly spaced over [lo, hi]."""
    if n == 1:
        return [(lo + hi) // 2]
    return [round(lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def _summary(values: list[float]) -> dict:
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "min": ordered[0],
        "p50": statistics.median(ordered),
        "p95": ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))],
        "max": ordered[-1],
        "mean": round(statistics.fmean(ordered), 3),
    }


class _Names:
    """Fresh identifiers and camel-case names drawn from the lexicon."""

    def __init__(self, rng: random.Random, verbs: list[str], nouns: list[str]):
        self.rng = rng
        self.verbs = verbs
        self.nouns = nouns
        self.counter = 0

    def var(self) -> str:
        self.counter += 1
        return f"{self.rng.choice(self.nouns)}{self.counter}"

    def camel(self, words: list[str]) -> str:
        return words[0] + "".join(w[0].upper() + w[1:] for w in words[1:])

    def test_words(self) -> list[str]:
        """verb + verb + noun + tail, all distinct."""
        while True:
            words = [self.rng.choice(("test", "should")), self.rng.choice(self.verbs),
                     self.rng.choice(self.nouns), self.rng.choice(self.nouns)]
            if len(set(words)) == len(words):
                return words


def _class_name(rng: random.Random, names: _Names, index: int) -> str:
    return f"{rng.choice(names.nouns).capitalize()}{rng.choice(names.nouns).capitalize()}{index}Test"


def _statement(names: _Names) -> str:
    rng = names.rng
    a, b = names.var(), names.var()
    kind = rng.randrange(3)
    if kind == 0:
        return f"int {a} = {names.camel([rng.choice(names.verbs), rng.choice(names.nouns)])}({b});"
    if kind == 1:
        return f"assertEquals({a}, {b});"
    return f"{a}.{names.camel([rng.choice(names.verbs), rng.choice(names.nouns)])}({b}, {names.var()});"


def _method_text(annotations: str, signature: str, body: list[str]) -> str:
    lines = [f"    {annotations}"] if annotations else []
    lines.append(f"    {signature} {{")
    lines.extend(f"        {s}" for s in body)
    lines.append("    }")
    return "\n".join(lines)


def _write(root: str, rel: str, text: str) -> str:
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _lint_case(names: _Names, words: list[str]) -> tuple[list[str], list[str], list[str]]:
    """Maybe plant one lint trigger: (name words, body, expected rule ids)."""
    rng = names.rng
    body = [_statement(names) for _ in range(rng.randint(2, 4))]
    if rng.random() >= _LINT_SHARE:
        return words, body, []
    rule = rng.choice(sorted(_LINT_TAILS))
    tail, good, bad = _LINT_TAILS[rule]
    violated = rng.random() < 0.5
    stmt = (bad if violated else good).format(v=names.var(), w=names.var())
    body.insert(rng.randrange(len(body) + 1), stmt)
    return words[:3] + tail, body, [rule] if violated else []


def _tree(root: str, rng: random.Random, names: _Names, size: dict) -> dict:
    """Plain JUnit 4 tree: 10 test methods and 10 helpers per file."""
    n_files = size["tree_files"]
    generic = set(rng.sample(range(n_files), max(1, round(_GENERIC_TEST_SHARE * n_files))))
    files, lint_truth, all_names, term_counts = {}, {}, [], []
    for f in range(n_files):
        cls = _class_name(rng, names, f)
        rel = f"tree/pkg{f % 12:02d}/{cls}.java"
        methods, chunks, used = [], [], set()
        for i in range(20):
            is_test = i % 2 == 0
            while True:
                if is_test:
                    words, body, rules = _lint_case(names, names.test_words())
                else:
                    words = [rng.choice(names.verbs), rng.choice(names.nouns)]
                    body = [_statement(names) for _ in range(rng.randint(1, 3))] + [f"return {names.var()};"]
                    rules = []
                name = names.camel(words)
                if name not in used:
                    break
            used.add(name)
            defect = is_test and f in generic and i == 0
            if defect:
                # known defect: the type parameter hides @Test from the extractor
                tail, _good, bad = _LINT_TAILS["R1"]
                words = ["should", rng.choice(names.verbs), rng.choice(names.nouns)] + tail
                name = names.camel(words)
                body = [_statement(names), bad.format(v=names.var(), w=names.var())]
                rules = ["R1"]
                chunks.append(_method_text("@Test", f"public <T> void {name}()", body))
            elif is_test:
                chunks.append(_method_text("@Test", f"public void {name}()", body))
            else:
                chunks.append(_method_text("", f"private int {name}(int {names.var()})", body))
            methods.append([name, is_test])
            all_names.append(name)
            term_counts.extend(w.lower() for w in words)
            if is_test:
                lint_truth[f"{rel}::{name}"] = {"rules": rules, "defect": defect}
        text = (f"package pkg{f % 12:02d};\n\nimport org.junit.Test;\n"
                f"import static org.junit.Assert.*;\n\npublic class {cls} {{\n\n"
                + "\n\n".join(chunks) + "\n}\n")
        _write(root, rel, text)
        files[rel] = {"methods": methods, "is_test_file": True, "defect": f in generic}
    target = os.path.join(root, "tree")
    return {
        "commands": [
            {"kind": "scan", "argv": ["scan", target], "exit": [0]},
            {"kind": "lint", "argv": ["lint", target, "--format", "json"],
             "exit": [1] if any(v["rules"] for v in lint_truth.values()) else [0]},
        ],
        "truth": {"files": files, "lint": lint_truth},
        "properties": {
            "files": n_files,
            "methods": len(all_names),
            "methods_per_file": _summary([len(v["methods"]) for v in files.values()]),
            "distinct_name_share": round(len(set(all_names)) / len(all_names), 4),
            "distinct_term_share": round(len(set(term_counts)) / len(term_counts), 4),
            "lambda_share": 0.0,
            "comparison_share": 0.0,
            "lint_finding_share": round(sum(1 for v in lint_truth.values() if v["rules"])
                                        / len(lint_truth), 4),
        },
    }


_LAMBDA_KINDS = ("lambda", "stream", "comparison", "plain")


def _lambda_statement(names: _Names, kind: str, variant: int) -> str:
    rng = names.rng
    call = names.camel([rng.choice(names.verbs), rng.choice(names.nouns)])
    a, b = names.var(), names.var()
    if kind == "lambda":
        return (f"Runnable {a} = () -> {call}({b});",
                f"Function<String, Integer> {a} = s -> {call}(s, {b});")[variant]
    if kind == "stream":
        return f"long {a} = {b}.stream().filter(x -> x.isValid()).map(x -> {call}(x)).count();"
    if kind == "comparison":
        return (f"assertTrue({a} > {call}({b}));",
                f"if ({a} > {call}({b})) {{ {names.var()}.reset(); }}")[variant]
    return f"assertEquals({a}, {call}({b}));"


def _lambda_tree(root: str, rng: random.Random, names: _Names, size: dict) -> dict:
    """JUnit 5 tree with lambda-, stream- and comparison-heavy bodies."""
    n_files = size["lambda_files"]
    n_tail = max(1, round(0.05 * n_files))
    sizes = _spread(15, 60, n_files - n_tail) + _spread(*size["lambda_tail"], n_tail)
    rng.shuffle(sizes)
    records = set(rng.sample(range(n_files), max(1, round(_RECORD_SHARE * n_files))))
    files, all_names, term_counts = {}, [], []
    with_lambda = with_comparison = 0
    for f, n_methods in enumerate(sizes):
        cls = _class_name(rng, names, f)
        rel = f"lambda/mod{f % 6}/{cls}.java"
        methods, chunks, used = [], [], set()
        for i in range(n_methods):
            while True:
                words = names.test_words()
                words[0] = "should"
                name = names.camel(words)
                if name not in used:
                    break
            used.add(name)
            # a fixed rotation of statement kinds, so that every seed yields
            # the same token structure and only the identifiers differ
            body_kinds = [_LAMBDA_KINDS[(i + k) % 4] for k in range(3)]
            with_lambda += any(k in ("lambda", "stream") for k in body_kinds)
            with_comparison += "comparison" in body_kinds
            chunks.append(_method_text("@Test", f"void {name}()",
                                       [_lambda_statement(names, k, (i // 4) % 2) for k in body_kinds]))
            methods.append([name, True])
            all_names.append(name)
            term_counts.extend(words)
            if f in records and i == 0:
                # known defect: a record header is taken for a method
                chunks.append(f"    record {cls}Point(int x, int y) {{ }}")
        text = (f"package mod{f % 6};\n\nimport org.junit.jupiter.api.Test;\n"
                "import java.util.function.Function;\n"
                f"import static org.junit.jupiter.api.Assertions.*;\n\nclass {cls} {{\n\n"
                + "\n\n".join(chunks) + "\n}\n")
        _write(root, rel, text)
        files[rel] = {"methods": methods, "is_test_file": True, "defect": f in records}
    n = len(all_names)
    return {
        "commands": [{"kind": "scan", "argv": ["scan", os.path.join(root, "lambda")], "exit": [0]}],
        "truth": {"files": files, "lint": {}},
        "properties": {
            "files": n_files,
            "methods": n,
            "methods_per_file": _summary(sizes),
            "distinct_name_share": round(len(set(all_names)) / n, 4),
            "distinct_term_share": round(len(set(term_counts)) / len(term_counts), 4),
            "lambda_share": round(with_lambda / n, 4),
            "comparison_share": round(with_comparison / n, 4),
        },
    }


def _detect_file(cls: str, methods: list[tuple[str, str, list[str]]]) -> str:
    chunks = [_method_text("@Test", f"public void {name}({params})", body)
              for name, params, body in methods]
    return (f"import org.junit.Test;\nimport static org.junit.Assert.*;\n\n"
            f"public class {cls} {{\n\n" + "\n\n".join(chunks) + "\n}\n")


def _detect(root: str, rng: random.Random, names: _Names, size: dict) -> dict:
    """File-version pairs: many small pairs with a few renames, and bulk renames."""
    n_small = size["detect_small_pairs"]
    plans = [(n, 1 + i % 3, False) for i, n in enumerate(_spread(10, 40, n_small))]
    rng.shuffle(plans)
    plans += [(n, n, True) for n in size["detect_bulk"]]
    overloads = set(rng.sample(range(n_small), max(1, round(_OVERLOAD_SHARE * n_small))))
    commands, pairs, all_names, term_counts, renames = [], [], [], [], []
    for p, (n_methods, n_renames, bulk) in enumerate(plans):
        cls = _class_name(rng, names, p)
        before, used = [], set()
        while len(before) < n_methods:
            words = names.test_words()
            words[0] = "test"
            name = names.camel(words)
            if name in used:
                continue
            used.add(name)
            before.append((name, "", [_statement(names) for _ in range(rng.randint(3, 5))]))
            term_counts.extend(words)
        after = list(before)
        events = []
        renamed = range(n_methods) if bulk else rng.sample(range(n_methods), n_renames)
        for i in renamed:
            old, params, body = before[i]
            new = ("should" + old[4:]) if bulk else old + rng.choice(names.nouns).capitalize()
            while new in used:
                new += "Again"
            used.add(new)
            after[i] = (new, params, body)
            events.append([old, new])
        defect = p in overloads
        if defect:
            # known defect: two overloads of one name renamed to two names
            old = before[0][0] + "Overload"
            new_a, new_b = old + "Plain", old + "Typed"
            body_a = [_statement(names) for _ in range(4)]
            body_b = [_statement(names) for _ in range(4)]
            before += [(old, "", body_a), (old, "int value", body_b)]
            after += [(new_a, "", body_a), (new_b, "int value", body_b)]
            events += [[old, new_a], [old, new_b]]
        if not bulk:
            # a removed and an added method that are not renames of each other
            before.append((names.camel(["test", rng.choice(names.verbs), "Dropped"]) + str(p), "",
                           [_statement(names) for _ in range(4)]))
            after.append((names.camel(["test", rng.choice(names.verbs), "Fresh"]) + str(p), "",
                          [_statement(names) for _ in range(4)]))
        before_path = _write(root, f"detect/p{p:03d}/before/{cls}.java", _detect_file(cls, before))
        after_path = _write(root, f"detect/p{p:03d}/after/{cls}.java", _detect_file(cls, after))
        after_names = {m[0] for m in after}
        before_names = {m[0] for m in before}
        n_removed = sum(1 for m in before if m[0] not in after_names)
        n_added = sum(1 for m in after if m[0] not in before_names)
        commands.append({"kind": "detect", "argv": ["rename", "detect", "--before", before_path,
                                                    "--after", after_path], "exit": [0]})
        pairs.append({"after": after_path, "events": sorted(events), "defect": defect,
                      "bulk": bulk, "candidates": n_removed * n_added})
        all_names.extend(m[0] for m in before + after)
        renames.append(len(events))
    return {
        "commands": commands,
        "truth": {"pairs": pairs},
        "properties": {
            "pairs": len(plans),
            "bulk_pairs": [n for n, _r, bulk in plans if bulk],
            "methods_per_file": _summary([n for n, _r, _b in plans]),
            "renames_per_pair": _summary(renames),
            "candidate_pairs": sum(p["candidates"] for p in pairs),
            "distinct_name_share": round(len(set(all_names)) / len(all_names), 4),
            "distinct_term_share": round(len(set(term_counts)) / len(term_counts), 4),
            "lambda_share": 0.0,
            "comparison_share": 0.0,
        },
    }


def _rename_event(names: _Names, form: str) -> tuple[str, str, list[list[str]]]:
    """One rename of the given form with its (added, removed) term pairs."""
    rng = names.rng
    while True:
        words = names.test_words()
        if rng.random() < 0.5:
            words = words[:3]
        fresh = [w for w in rng.sample(names.nouns, 4) if w not in words]
        if len(fresh) >= 2:
            break
    old = names.camel(words)
    if form == "formatting":
        new = "_".join(words) if rng.random() < 0.5 else old[0].upper() + old[1:]
        return old, new, []
    if form == "reordering":
        order = list(words)
        while order == words:
            rng.shuffle(order)
        return old, names.camel(order), []
    if form == "simple":
        # one term replaced, added or removed
        i = rng.randrange(1, len(words))
        change = rng.randrange(3)
        if change == 0:
            return old, names.camel(words[:i] + [fresh[0]] + words[i + 1:]), [[fresh[0], words[i]]]
        if change == 1:
            return old, names.camel(words[:i] + [fresh[0]] + words[i:]), []
        return old, names.camel(words[:i] + words[i + 1:]), []
    i, j = sorted(rng.sample(range(1, len(words)), 2))
    new_words = list(words)
    new_words[i], new_words[j] = fresh[0], fresh[1]
    return old, names.camel(new_words), [[a, r] for a in fresh[:2] for r in (words[i], words[j])]


def _terms_of(name: str) -> list[str]:
    """Lowercase words of a generated name (camel case or snake case)."""
    return [w.lower() for w in re.findall(r"[A-Za-z][a-z]*", name)]


def _classify_report(root: str, rng: random.Random, names: _Names, size: dict) -> dict:
    """Rename events in four forms, classified and then tabulated 7 ways."""
    n = size["events"]
    forms = [("formatting", "reordering", "simple", "complex")[i % 4] for i in range(n)]
    rng.shuffle(forms)
    events, rows = [], ["old_name,new_name,file,commit"]
    for i, form in enumerate(forms):
        old, new, pairs = _rename_event(names, form)
        events.append({"old": old, "new": new, "form": form, "pairs": pairs,
                       "terms": _terms_of(old) + _terms_of(new)})
        rows.append(f"{old},{new},src/test/Case{i % 50}Test.java,c{i // 25:04d}")
    events_path = _write(root, "classify/events.csv", "\n".join(rows) + "\n")
    classified = os.path.join("@ROUND@", "classified.json")
    commands = [{"kind": "classify", "argv": ["rename", "classify", "--input", events_path],
                 "exit": [0], "save": classified}]
    commands += [{"kind": "report", "table": t, "exit": [0],
                  "argv": ["report", "--input", classified, "--table", t, "--format", "json"]}
                 for t in REPORT_TABLES]
    all_names = [e["old"] for e in events] + [e["new"] for e in events]
    terms = [w for e in events for w in e.pop("terms")]
    return {
        "commands": commands,
        "truth": {"events": events},
        "properties": {
            "events": n,
            "form_mix": {f: forms.count(f) for f in sorted(set(forms))},
            "distinct_name_share": round(len(set(all_names)) / len(all_names), 4),
            "distinct_term_share": round(len(set(terms)) / len(terms), 4),
            "pairs_per_event": _summary([len(e["pairs"]) for e in events]),
            "lambda_share": 0.0,
            "comparison_share": 0.0,
        },
    }


_GENERATORS = {
    "tree": _tree,
    "lambda-tree": _lambda_tree,
    "detect": _detect,
    "classify-report": _classify_report,
}


def generate(workload: str, seed: int, root: str, src_root: str, scale: str = "full") -> dict:
    """Write the inputs of ``workload`` under ``root``; return its manifest."""
    verbs, nouns = _load_words(src_root)
    rng = random.Random(f"{workload}:{seed}")
    manifest = _GENERATORS[workload](root, rng, _Names(rng, verbs, nouns), SIZES[scale])
    manifest["workload"] = workload
    manifest["seed"] = seed
    manifest["scale"] = scale
    return manifest
