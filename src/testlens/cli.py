"""Command-line entry point wiring all analyses together.

Exit codes: 0 success (no lint findings), 1 lint diagnostics present,
2 usage, I/O, or parse errors. Data goes to stdout, diagnostics and
errors to stderr. Output ordering is fully deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import starmap

from . import (_data, _records, extraction, lint as lint_mod, patterns, rename as rename_mod,
               renamedetect, report)
from ._jsonout import BOOL, SLOT, STR, list_of, list_writer, template, write_array
from .config import load_config
from .splitter import split
from .tagger import Lexicon, tag

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testlens",
        description="Analyze unit-test method names: split, tag, match "
                    "grammar patterns, lint name/body consistency, and "
                    "classify renames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="split an identifier into terms")
    p_split.add_argument("name")
    p_split.add_argument("--json", action="store_true", help="emit terms with spans")
    p_split.set_defaults(handler=_cmd_split)

    p_tag = sub.add_parser("tag", help="POS-tag an identifier")
    p_tag.add_argument("name")
    p_tag.add_argument("--lexicon", help="override lexicon JSON file")
    p_tag.set_defaults(handler=_cmd_tag)

    p_pattern = sub.add_parser("pattern", help="grammar pattern of an identifier")
    p_pattern.add_argument("name")
    p_pattern.add_argument("--prefix", type=int, metavar="K", help="emit the K-prefix instead")
    p_pattern.add_argument("--catalog", action="store_true", dest="list_catalog",
                           help="also list matching naming templates")
    p_pattern.set_defaults(handler=_cmd_pattern)

    p_scan = sub.add_parser("scan", help="scan files for test methods")
    p_scan.add_argument("target", help="file or directory")
    p_scan.set_defaults(handler=_cmd_scan)

    p_lint = sub.add_parser("lint", help="lint test names against bodies")
    p_lint.add_argument("target", help="file or directory")
    p_lint.add_argument("--rules", type=lambda raw: tuple(raw.split(",")),
                        help="comma-separated rule ids (default: all)")
    p_lint.add_argument("--format", choices=("text", "json"), default=None)
    p_lint.set_defaults(handler=_cmd_lint)

    p_rename = sub.add_parser("rename", help="rename detection and classification")
    rename_sub = p_rename.add_subparsers(dest="rename_command", required=True)

    p_detect = rename_sub.add_parser("detect", help="detect renames between two versions")
    p_detect.add_argument("--before", required=True)
    p_detect.add_argument("--after", required=True)
    p_detect.add_argument("--threshold", type=float, default=None)
    p_detect.set_defaults(handler=_cmd_rename_detect)

    p_classify = rename_sub.add_parser("classify", help="classify rename events")
    p_classify.add_argument("--input", required=True,
                            help="CSV (old_name,new_name,file,commit) or JSON array")
    p_classify.add_argument("--format", choices=("json", "csv", "md"), default=None)
    p_classify.set_defaults(handler=_cmd_rename_classify)

    p_report = sub.add_parser("report", help="aggregate classified renames into tables")
    p_report.add_argument("--input", required=True, help="classified JSON file")
    p_report.add_argument("--table", choices=report.TABLE_KINDS, default="full")
    p_report.add_argument("--k", type=int, default=5)
    p_report.add_argument("--prefix-len", help="prefix lengths, e.g. 3 or 2..5")
    p_report.add_argument("--format", choices=report.FORMATS, default=None)
    p_report.set_defaults(handler=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` keeps no state between calls."""
    return build_parser()


def _load_lexicon(args) -> Lexicon:
    return Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon.default()


def _load_catalog(args):
    return patterns.load_catalog(args.catalog) if args.catalog else patterns.default_catalog()


def _iter_java_files(target: str, errors: list[str]) -> list[str]:
    """The Java files under ``target``, or ``target`` itself if it is not a
    directory; each directory that cannot be listed is a message in ``errors``."""
    if not os.path.isdir(target):
        if not os.path.exists(target):
            raise CliError(f"no such file or directory: {target}")
        return [target]
    found = []
    for root, _, files in os.walk(
            target, onerror=lambda err: errors.append(f"cannot read {err.filename}: {err}")):
        for name in files:
            if name.endswith(".java"):
                found.append(os.path.join(root, name))
    return sorted(found)


def _cmd_split(args, out, err, problems) -> int:
    seq = split(args.name)
    if args.json:
        out.write(json.dumps([{"surface": t.surface, "start": t.start, "end": t.end}
                              for t in seq.terms], indent=2) + "\n")
    else:
        for term in seq.terms:
            out.write(term.surface + "\n")
    return EXIT_OK


def _cmd_tag(args, out, err, problems) -> int:
    lexicon = _load_lexicon(args)
    tagged = tag(split(args.name), lexicon)
    out.write(" ".join(f"{t}/{g.value}" for t, g in tagged.pairs()) + "\n")
    out.write(tagged.pattern_string() + "\n")
    return EXIT_OK


def _cmd_pattern(args, out, err, problems) -> int:
    lexicon = _load_lexicon(args)
    tagged = tag(split(args.name), lexicon)
    pattern = patterns.pattern_of(tagged)
    if args.prefix is not None:
        if args.prefix < 1:
            raise CliError("--prefix must be >= 1")
        pattern = patterns.prefix(pattern, args.prefix)
    hits = patterns.catalog_match(pattern, _load_catalog(args)) if args.list_catalog else ()
    out.write(str(pattern) + "\n")
    for entry in hits:
        out.write(f"{entry.name} [{entry.template}] ({entry.origin.value})\n")
    return EXIT_OK


def _scan_files(paths: list[str], out_err: list[str]):
    """Yield ``(src, methods, test flags, is_test_file, partial)`` per readable file."""
    for path in paths:
        try:
            src = extraction.SourceFile(path, _data.read_file(path))
        except OSError as read_err:
            out_err.append(str(read_err))
            continue
        methods, perr = extraction.recover_methods(src)
        if perr is not None:
            out_err.append(str(perr))
        flags = [extraction.is_test_method(m) for m in methods]
        is_test_file = any(flags) and extraction.has_junit_import(src)
        yield src, methods, flags, is_test_file, perr is not None


# the layout of ``scan``'s document, ``{"files": [...]}``, and of its file records
_FILES_HEAD, _FILES_TAIL = template({"files": SLOT}, "").split("%s")
_write_files = list_writer("  ", "")
_SCAN_FILE = template({"is_test_file": SLOT, "methods": SLOT, "partial": SLOT, "path": SLOT},
                      " " * 4)
_SCAN_METHODS = list_of(" " * 6)
_SCAN_METHOD = template({"annotations": SLOT, "body_span": [SLOT, SLOT], "is_test_method": SLOT,
                         "name": SLOT, "name_span": [SLOT, SLOT]}, " " * 8)
_SCAN_ANNOTATIONS = list_of(" " * 10)


def _scan_json(src: extraction.SourceFile, methods: list[extraction.TestMethod],
               flags: list[bool], is_test_file: bool, partial: bool) -> str:
    return _SCAN_FILE % (
        BOOL[is_test_file],
        _SCAN_METHODS([_SCAN_METHOD % (_SCAN_ANNOTATIONS([*map(STR, m.annotations)]),
                                       *m.body_span, BOOL[flag], STR(m.name), *m.name_span)
                       for m, flag in zip(methods, flags)]),
        BOOL[partial], STR(src.path))


def _cmd_scan(args, out, err, problems) -> int:
    """Write ``{"files": [...]}`` one file record at a time."""
    paths = _iter_java_files(args.target, problems)
    out.write(_FILES_HEAD)
    _write_files(starmap(_scan_json, _scan_files(paths, problems)), out.write)
    out.write(_FILES_TAIL + "\n")
    return EXIT_OK


# an item of the array ``lint --format json`` writes
_DIAGNOSTIC = template({"file": SLOT, "message": SLOT, "method": SLOT, "name_span": [SLOT, SLOT],
                        "rule": SLOT, "severity": SLOT}, " " * 2)


def _diagnostic_json(d: lint_mod.Diagnostic) -> str:
    return _DIAGNOSTIC % (STR(d.file), STR(d.message), STR(d.method_name), *d.name_span,
                          STR(d.rule_id), STR(d.severity))


def _cmd_lint(args, out, err, problems) -> int:
    lexicon = _load_lexicon(args)
    rules = lint_mod.default_rules(args.collection_vocabulary, args.not_rule_boolean_asserts)
    if args.rules is not None:
        known = {r.id for r in rules}
        unknown = [r for r in args.rules if r not in known]
        if unknown:
            raise CliError(f"unknown rule id(s): {', '.join(map(repr, unknown))}")
        rules = tuple(r for r in rules if r.id in args.rules)
    cued = lint_mod.cue_filter(rules)

    paths = _iter_java_files(args.target, problems)
    fmt = args.format or "text"
    if fmt not in ("json", "text"):
        raise CliError(f"unsupported lint format {fmt!r}")
    diagnostics: list[lint_mod.Diagnostic] = []
    for src, methods, flags, is_test_file, _ in _scan_files(paths, problems):
        if not is_test_file:
            continue
        for method, flag in zip(methods, flags):
            if not flag or not cued(method.name):
                continue
            # every rule's cue holds a letter, so a cued name splits into terms
            tagged = tag(split(method.name), lexicon)
            diagnostics.extend(lint_mod.lint(method, tagged, rules, file=src.path))

    if fmt == "json":
        write_array(map(_diagnostic_json, diagnostics), out.write)
    else:
        for d in diagnostics:
            err.write(
                f"{d.file}:{d.name_span[0]}-{d.name_span[1]}: "
                f"{d.severity} {d.rule_id}: {d.method_name}: {d.message}\n"
            )
    return EXIT_FINDINGS if diagnostics else EXIT_OK


def _cmd_rename_detect(args, out, err, problems) -> int:
    pair = renamedetect.FileVersionPair(*(extraction.SourceFile(path, _data.read_file(path))
                                          for path in (args.before, args.after)))
    events = renamedetect.detect_renames(pair, args.threshold, problems)
    _records.write_events(events, out)
    return EXIT_OK


def _cmd_rename_classify(args, out, err, problems) -> int:
    events = _records.read_events(args.input)
    lexicon = _load_lexicon(args)
    # one pass, so no classification outlives its output row
    _records.write_classified((rename_mod.classify(e, lexicon) for e in events),
                              args.format or "json", out)
    return EXIT_OK


def _parse_prefix_lens(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    try:
        if ".." in raw:
            lo_text, _, hi_text = raw.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if lo < 1 or hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        value = int(raw)
        if value < 1:
            raise ValueError
        return (value,)
    except ValueError:
        raise CliError(f"invalid --prefix-len {raw!r}; use N or N..M") from None


def _cmd_report(args, out, err, problems) -> int:
    rows = _records.load_classified(args.input)  # reads the file now: its errors come first
    catalog = _load_catalog(args) if args.table == "catalog" else None
    prefix_lens = (report.PREFIX_LENGTHS if args.prefix_len is None
                   else _parse_prefix_lens(args.prefix_len))
    if args.k < 1:
        raise CliError("--k must be >= 1")
    stats = _records.count_renames(args.input, rows)
    fmt = args.format or "md"
    out.write(report.render_table(stats, args.table, fmt, args.k, prefix_lens, catalog))
    return EXIT_OK


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exit_err:
        return EXIT_ERROR if exit_err.code not in (0, None) else EXIT_OK
    # files skipped or cut short: written after the command's output, they make the exit 2
    problems: list[str] = []
    try:
        for key, value in load_config()._asdict().items():  # a flag wins over the config file
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        code = args.handler(args, out, err, problems)
        err.writelines(message + "\n" for message in problems)
    except BrokenPipeError:
        # the reader closed the output early: it wants no more, not an error line
        return EXIT_ERROR
    except (CliError, ValueError, OSError) as known:
        err.write(f"error: {known}\n")
        return EXIT_ERROR
    return EXIT_ERROR if problems else code


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left goes nowhere, so that the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)
