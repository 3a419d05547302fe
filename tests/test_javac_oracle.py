"""The JDK's parser as an independent oracle for the extractor: the
Compiler Tree API dumper in ``tests/javac/MethodDump.java`` lists every
method with a body that ``javac`` parses, and on valid Java the extractor
must find the same methods in the same order, with the same body spans
and annotations. Skips without a JDK."""

import importlib
import shutil
import subprocess
from pathlib import Path

import pytest

from testlens.extraction import SourceFile, extract_methods

TESTS = Path(__file__).parent
ROOT = TESTS.parent
JAVAC, JAVA = shutil.which("javac"), shutil.which("java")

pytestmark = pytest.mark.skipif(not (JAVAC and JAVA), reason="no javac and java on PATH")


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """Compiles the dumper once; the function it returns runs it once
    over the given files and gives, per path, the methods javac found as
    (name, body span, annotation texts)."""
    classes = tmp_path_factory.mktemp("javac")
    subprocess.run([JAVAC, "-J-Xmx256m", "-d", str(classes), str(TESTS / "javac" / "MethodDump.java")],
                   check=True, capture_output=True)

    def run(paths: list[Path]) -> dict[str, list[tuple]]:
        out = subprocess.run([JAVA, "-Xmx256m", "-cp", str(classes), "MethodDump", *map(str, paths)],
                             check=True, capture_output=True).stdout.decode("utf-8")
        found: dict[str, list[tuple]] = {str(path): [] for path in paths}
        texts = {str(path): path.read_text(encoding="utf-8") for path in paths}
        for line in out.splitlines():
            path, name, *offsets = line.split("\t")
            start, end, *marks = map(int, offsets)
            text = texts[path]
            annotations = tuple(text[a:b] for a, b in zip(marks[::2], marks[1::2]))
            found[path].append((name, (start, end), annotations))
        return found

    return run


def _extracted(path: Path) -> list[tuple]:
    methods = extract_methods(SourceFile(str(path), path.read_text(encoding="utf-8")))
    return [(m.name, m.body_span, m.annotations) for m in methods]


def test_extractor_agrees_with_javac_on_test_data_and_unusual_shapes(dump):
    # BrokenTest.java misses a '}' on purpose: javac does not parse it whole
    paths = sorted(p for p in (TESTS / "data").rglob("*.java") if p.name != "BrokenTest.java")
    paths.append(TESTS / "javac" / "ArrayShapes.java")
    want = dump(paths)
    # the shapes the extractor once missed are there for javac too
    assert {"arr2", "maps", "arrays", "genericArray", "nested", "legacy", "legacy2"} <= {
        name for name, _, _ in want[str(paths[-1])]}
    for path in paths:
        assert _extracted(path) == want[str(path)], path


def test_extractor_agrees_with_javac_on_benchmark_inputs(dump, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    generate = importlib.import_module("generate")
    for workload in ("tree", "lambda-tree", "detect"):
        generate.generate(workload, 21, str(tmp_path / workload), str(ROOT / "src"), scale="small")
    paths = sorted(tmp_path.rglob("*.java"))
    want = dump(paths)
    assert len(paths) >= 10 and sum(map(len, want.values())) > 200
    for path in paths:
        assert _extracted(path) == want[str(path)], path
