"""Checks of command outputs against the generator's ground truth.

Every check yields operations ``(ok, defect)``: ``defect`` marks an
operation that touches a planted known-defect shape (a generic test
method, a record header, an overloaded rename), so its failure is
expected until the defect is fixed. The program's own output is never
used as the reference.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

Op = tuple[bool, bool]


def _rel(root: str, path: str) -> str:
    return os.path.relpath(path, root)


def check_scan(stdout: str, truth: dict, root: str) -> list[Op]:
    """Per file: method names in order, their test flags, the test-file flag."""
    records = {_rel(root, r["path"]): r for r in json.loads(stdout)["files"]}
    ops = [(set(records) == set(truth["files"]), False)]
    for rel, want in truth["files"].items():
        got = records.get(rel)
        ok = (got is not None
              and [[m["name"], m["is_test_method"]] for m in got["methods"]] == want["methods"]
              and got["is_test_file"] == want["is_test_file"]
              and not got["partial"])
        ops.append((ok, want["defect"]))
    return ops


def check_lint(stdout: str, truth: dict, root: str) -> list[Op]:
    """Per test method: the set of rules that must fire on it."""
    found = defaultdict(set)
    for d in json.loads(stdout):
        found[f"{_rel(root, d['file'])}::{d['method']}"].add(d["rule"])
    lint_truth = truth["lint"]
    ops = [(set(found) <= set(lint_truth), False)]
    for key, want in lint_truth.items():
        ops.append((found.get(key, set()) == set(want["rules"]), want["defect"]))
    return ops


def check_detect(stdout: str, pair: dict) -> list[Op]:
    """One pair: exactly the planted renames, attributed to the new file."""
    events = json.loads(stdout)
    ok = (sorted([e["old_name"], e["new_name"]] for e in events) == pair["events"]
          and all(e["file"] == pair["after"] for e in events))
    return [(ok, pair["defect"])]


def check_classify(stdout: str, truth: dict) -> list[Op]:
    """Per event: form and term pairs by construction; reformatting and
    reordering preserve meaning."""
    rows = json.loads(stdout)
    events = truth["events"]
    ops = [(len(rows) == len(events), False)]
    for row, want in zip(rows, events):
        ok = (row["old_name"] == want["old"] and row["new_name"] == want["new"]
              and row["form"] == want["form"]
              and [[p["added"], p["removed"]] for p in row["pairs"]] == want["pairs"])
        if want["form"] in ("formatting", "reordering"):
            ok = ok and row["semantics"] == "preserve"
        ops.append((ok, False))
    return ops


def check_report(stdout: str, table: str, truth: dict) -> list[Op]:
    """Every section's counts, Others row included, add up to its total."""
    events = len(truth["events"])
    total = sum(len(e["pairs"]) for e in truth["events"]) if table == "terms" else events
    ok = True
    for section in json.loads(stdout):
        columns = section["columns"]
        if columns[-2:] == ["Count", "Percentage"]:
            ok = ok and sum(int(row[-2]) for row in section["rows"]) == total
        else:  # catalog tally: instances count old and new names, preserved events
            for row in section["rows"]:
                instances, preserved = int(row[1]), int(row[2])
                ok = ok and 0 < instances <= 2 * events and 2 * preserved <= instances
    return [(ok, False)]


def check(command: dict, stdout: str, manifest: dict, root: str, index: int) -> list[Op]:
    truth = manifest["truth"]
    kind = command["kind"]
    if kind == "scan":
        return check_scan(stdout, truth, root)
    if kind == "lint":
        return check_lint(stdout, truth, root)
    if kind == "detect":
        return check_detect(stdout, truth["pairs"][index])
    if kind == "classify":
        return check_classify(stdout, truth)
    return check_report(stdout, command["table"], truth)
