"""The JDK's parser as an independent oracle for the extractor: the
Compiler Tree API dumper in ``tests/javac/MethodDump.java`` lists every
method with a body that ``javac`` parses, and on valid Java the extractor
must find the same methods in the same order, with the same name spans,
body spans and annotations. Skips without a JDK."""

import importlib
import re
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_extraction_properties import planted_test_classes

from testlens.extraction import SourceFile, extract_methods, is_test_method

TESTS = Path(__file__).parent
ROOT = TESTS.parent
JAVAC, JAVA = shutil.which("javac"), shutil.which("java")

pytestmark = pytest.mark.skipif(not (JAVAC and JAVA), reason="no javac and java on PATH")


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """Compiles the dumper once; the function it returns runs it once
    over the given files and gives, per path, the methods javac found as
    (name, name span, body span, annotation texts)."""
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
            name_start, name_end, start, end, *marks = map(int, offsets)
            text = texts[path]
            annotations = tuple(text[a:b] for a, b in zip(marks[::2], marks[1::2]))
            found[path].append((name, (name_start, name_end), (start, end), annotations))
        return found

    return run


def _extracted(path: Path) -> list[tuple]:
    methods = extract_methods(SourceFile(str(path), path.read_text(encoding="utf-8")))
    return [(m.name, m.name_span, m.body_span, m.annotations) for m in methods]


def test_extractor_agrees_with_javac_on_test_data_and_unusual_shapes(dump):
    # BrokenTest.java misses a '}' on purpose: javac does not parse it whole
    paths = sorted(p for p in (TESTS / "data").rglob("*.java") if p.name != "BrokenTest.java")
    paths += [TESTS / "javac" / "ArrayShapes.java", TESTS / "javac" / "DeclarationHeads.java"]
    want = dump(paths)
    # the shapes the extractor once missed or misread are there for javac too
    assert {"arr2", "maps", "arrays", "genericArray", "nested", "legacy", "legacy2"} <= {
        name for name, *_ in want[str(paths[-2])]}
    heads = {name: annotations for name, _, _, annotations in want[str(paths[-1])]}
    assert heads == {"testX": ("@Test",), "dims": (), "dims2": (), "dims3": ()}
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


def _planted_batch(size: int) -> list[tuple[str, list[str]]]:
    """The first ``size`` classes that a derandomized run of the legal-JUnit
    grammar draws, so that one dumper run reads them all."""
    batch = []

    @settings(max_examples=size, derandomize=True, database=None, deadline=None)
    @given(planted_test_classes())
    def draw(generated):
        batch.append(generated)

    draw()
    return batch


def _javac_test_flag(name: str, annotations: tuple[str, ...]) -> bool:
    """The README's test-method rule, read from javac's answer: a `Test`
    annotation, maybe qualified or with arguments, or a `test*` name."""
    return name.lower().startswith("test") or any(
        re.fullmatch(r"@(?:\w+\.)*Test(?:\(.*)?", a, re.DOTALL) for a in annotations)


def test_extractor_agrees_with_javac_on_the_planted_grammar(dump, tmp_path):
    batch = _planted_batch(150)
    paths = []
    for k, (text, _) in enumerate(batch):
        (tmp_path / str(k)).mkdir()
        paths.append(tmp_path / str(k) / "GeneratedTest.java")
        paths[-1].write_text(text, encoding="utf-8")
    want = dump(paths)
    assert sum(map(len, want.values())) > 300
    for path, (text, planted) in zip(paths, batch):
        methods = extract_methods(SourceFile(str(path), text))
        assert [(m.name, m.name_span, m.body_span, m.annotations, is_test_method(m)) for m in methods] == [
            (*found, _javac_test_flag(found[0], found[-1])) for found in want[str(path)]], path
        assert [name for name, *_, annotations in want[str(path)]
                if _javac_test_flag(name, annotations)] == planted, path
