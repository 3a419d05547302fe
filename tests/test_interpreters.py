"""The golden outputs under every other CPython from 3.10 on that is
installed: each golden command of ``tests/test_cli.py`` and each md
``report`` table, run as ``python -B -m testlens`` from ``tests/data``
with ``src`` on ``PYTHONPATH``, must give the golden stdout bytes and exit
code. The other interpreters need no pytest. Skips when it finds none."""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import pytest

from test_cli import DATA, GOLDEN_COMMANDS
from testlens.cli import EXIT_OK
from testlens.report import TABLE_KINDS

SRC = Path(__file__).parent.parent / "src"
_PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:2])"


def _interpreters() -> dict[tuple[int, int], str]:
    """One CPython per minor version from 3.10 on, other than the one that
    runs the tests: ``python3.1x`` on ``PATH`` first, then
    ``~/.pyenv/versions/3.1*/bin/python``. A candidate that fails to start
    (such as a pyenv shim of a version not selected) is passed over."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(map(str, Path.home().glob(".pyenv/versions/3.1*/bin/python")))
    found: dict[tuple[int, int], str] = {}
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", _PROBE], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.split()
        if probe.returncode or len(fields) != 3 or fields[0] != "cpython":
            continue
        version = (int(fields[1]), int(fields[2]))
        if version >= (3, 10) and version != sys.version_info[:2]:
            found.setdefault(version, exe)
    return found


def _run(exe: str, argv: list[str]) -> tuple[bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("TESTLENS_CONFIG", None)
    done = subprocess.run([exe, "-B", "-m", "testlens", *argv], cwd=DATA, env=env,
                          capture_output=True, timeout=120)
    return done.stdout, done.returncode


def test_goldens_under_every_other_installed_cpython():
    interpreters = _interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10 or later found")
    golden = [(argv, ((DATA / name).read_bytes(), code)) for argv, name, code, _ in GOLDEN_COMMANDS.values()]
    # the md tables concatenate to golden_report.md
    tables = [["report", "--input", "golden_classify.json", "--table", table, "--format", "md"]
              for table in TABLE_KINDS]
    for version, exe in sorted(interpreters.items()):
        with ThreadPoolExecutor(max_workers=3) as pool:
            got = list(pool.map(partial(_run, exe), [argv for argv, _ in golden] + tables))
        for (argv, want), out in zip(golden, got):
            assert out == want, (version, argv)
        report = got[len(golden):]
        assert [code for _, code in report] == [EXIT_OK] * len(tables), version
        assert b"".join(out for out, _ in report) == (DATA / "golden_report.md").read_bytes(), version
