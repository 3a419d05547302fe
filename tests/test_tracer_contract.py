"""The benchmark's tracer (``perfbench/tracing.py``) wraps testlens functions
by qualified name: each name it lists must still resolve, a traced CLI run
must record their spans, and uninstalling must restore every binding."""

import importlib
import io
import sys
from pathlib import Path

import pytest

from testlens import cli
from testlens.cli import EXIT_ERROR, EXIT_OK

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracing")


def _bindings() -> dict[str, dict]:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "testlens" or name.startswith("testlens.")}


def test_every_target_resolves(tracing):
    for qualname in tracing.TARGETS:
        module, attr = qualname.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"testlens.{module}"), attr, None)), qualname


def test_traced_run_records_spans_and_uninstall_restores(tracing):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # BrokenTest.java in the tree is a partial parse, hence exit 2
        for argv, expected in ((["scan", str(DATA / "scan_tree")], EXIT_ERROR),
                               (["rename", "classify", "--input",
                                 str(DATA / "corpus_events.json")], EXIT_OK)):
            assert cli.run(argv, io.StringIO(), io.StringIO()) == expected, argv
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert {"extraction.tokenize", "rename.classify"} <= recorded, recorded
    for name, values in before.items():
        module = sys.modules[name]
        changed = [key for key, value in values.items() if vars(module).get(key) is not value]
        assert changed == [], (name, changed)
