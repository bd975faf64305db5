#!/usr/bin/env python3
"""Diff two BENCH_*.json baselines and flag regressions.

Compares the schema-v1 documents the bench binaries emit (see README):

* scenario/section *summary* metrics (geomeans, MAPEs, violation counts, ...)
  are deterministic simulator outputs, so any relative change beyond
  --tolerance counts as a regression, in either direction;
* microbench *timing rows* (sections whose columns contain real_time /
  cpu_time) are noisy, so only slowdowns beyond --time-tolerance count;
  speedups are reported as improvements. With --time-warn-only, timing
  slowdowns are printed but never fail the diff — the mode CI uses to gate
  hard on summaries while tolerating hosted-runner hardware variance.
  Only gb_microbench carries timing rows; end-to-end replay timing belongs
  to perfbench, not to these documents.

Inputs are two files, or two directories holding BENCH_*.json documents
(matched by file name). Scenarios are matched by name, sections by title
within their scenario (an ordinal tells repeated titles apart) and rows by
label. Anything present on only one side is reported as a structural note,
not a regression, so adding or removing a benchmark never fails the diff.

Exit codes: 0 = no regression, 1 = regression beyond tolerance, 2 = usage or
input error.

Examples:
  tools/bench_diff.py BENCH_fig9_problem1.json fresh/BENCH_fig9_problem1.json
  tools/bench_diff.py . bench-json --time-tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

TIME_COLUMNS = {"real_time", "cpu_time"}


def fail(message: str):
    print(f"bench_diff: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")
    # A truncated or hand-mangled baseline can still be valid JSON (a bare
    # string, a list, a scenario object missing its wrapper). Validate the
    # schema-v1 shape here so the failure is one clear message instead of an
    # AttributeError traceback from deep inside the comparison.
    if not isinstance(document, dict):
        fail(f"{path}: not a BENCH_*.json document (top level is "
             f"{type(document).__name__}, expected an object) — truncated "
             "or corrupt baseline?")
    scenarios = document.get("scenarios", [])
    if not isinstance(scenarios, list):
        fail(f"{path}: 'scenarios' must be a list — truncated or corrupt "
             "baseline?")
    for scenario in scenarios:
        if not isinstance(scenario, dict):
            fail(f"{path}: scenario entries must be objects — truncated or "
                 "corrupt baseline?")
        sections = scenario.get("sections", [])
        if not isinstance(sections, list) or any(
                not isinstance(section, dict) for section in sections):
            fail(f"{path}: scenario '{scenario.get('name', '?')}' has a "
                 "malformed 'sections' list — truncated or corrupt baseline?")
    return document


def numeric(value) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def rel_delta(old: float, new: float) -> float:
    if old == new:
        return 0.0
    denominator = max(abs(old), abs(new), 1e-300)
    return (new - old) / denominator


class Report:
    def __init__(self, time_warn_only: bool = False) -> None:
        self.regressions: list[str] = []
        self.timing_warnings: list[str] = []
        self.improvements: list[str] = []
        self.notes: list[str] = []
        self.time_warn_only = time_warn_only

    def add_timing_regression(self, line: str) -> None:
        if self.time_warn_only:
            self.timing_warnings.append(line)
        else:
            self.regressions.append(line)

    def print(self) -> None:
        for line in self.notes:
            print(f"  note: {line}")
        for line in self.improvements:
            print(f"  improvement: {line}")
        for line in self.timing_warnings:
            print(f"  timing warning: {line}")
        for line in self.regressions:
            print(f"  REGRESSION: {line}")


SectionKey = tuple[str, str, int]


def iter_sections(document: dict) -> Iterator[tuple[SectionKey, dict]]:
    """Yields ((scenario, title, ordinal), section). The ordinal counts
    earlier sections of the same scenario with the same title, so removing a
    section never shifts the key of any other."""
    for scenario in document.get("scenarios", []):
        name = scenario.get("name", "?")
        seen: dict[str, int] = {}
        for section in scenario.get("sections", []):
            title = str(section.get("title", ""))
            ordinal = seen.get(title, 0)
            seen[title] = ordinal + 1
            yield (name, title, ordinal), section


def section_name(key: SectionKey) -> str:
    scenario, title, ordinal = key
    return (scenario + (f" ({title})" if title else "") +
            (f" #{ordinal + 1}" if ordinal else ""))


def compare_summaries(where: str, old: dict, new: dict, tolerance: float,
                      report: Report) -> None:
    old_summary = old.get("summary", {})
    new_summary = new.get("summary", {})
    for key, old_value in old_summary.items():
        if key not in new_summary:
            report.notes.append(f"{where}: summary '{key}' missing in new run")
            continue
        old_num = numeric(old_value)
        new_num = numeric(new_summary[key])
        if old_num is None or new_num is None:
            if old_value != new_summary[key]:
                report.regressions.append(
                    f"{where}: summary '{key}' changed "
                    f"{old_value!r} -> {new_summary[key]!r}")
            continue
        delta = rel_delta(old_num, new_num)
        if abs(delta) > tolerance:
            report.regressions.append(
                f"{where}: summary '{key}' moved {old_num:.6g} -> {new_num:.6g} "
                f"({delta:+.2%}, tolerance {tolerance:.2%})")
    for key in new_summary:
        if key not in old_summary:
            report.notes.append(f"{where}: new summary metric '{key}'")


def compare_timing_rows(where: str, old: dict, new: dict, time_tolerance: float,
                        report: Report) -> None:
    columns = old.get("columns", [])
    time_cols = [c for c in columns if c in TIME_COLUMNS]
    if not time_cols:
        return

    def label_of(row: dict) -> str:
        # Schema v1 rows: {<label_header>: <label>, "values": {...}}.
        for key in row:
            if key != "values":
                return str(row[key])
        return ""

    new_by_label = {label_of(row): row for row in new.get("rows", [])}

    for row in old.get("rows", []):
        label = label_of(row)
        if label not in new_by_label:
            report.notes.append(f"{where}: row '{label}' missing in new run")
            continue
        old_values = row.get("values", {})
        new_values = new_by_label[label].get("values", {})
        old_unit = old_values.get("time_unit")
        new_unit = new_values.get("time_unit")
        if old_unit != new_unit:
            report.notes.append(
                f"{where}: '{label}' time unit changed {old_unit} -> {new_unit} "
                "— not comparable")
            continue
        for column in time_cols:
            old_num = numeric(old_values.get(column))
            new_num = numeric(new_values.get(column))
            if old_num is None or new_num is None or old_num <= 0.0:
                continue
            ratio = new_num / old_num
            if ratio > 1.0 + time_tolerance:
                report.add_timing_regression(
                    f"{where}: '{label}' {column} slowed {old_num:.1f} -> "
                    f"{new_num:.1f} {old_unit} ({ratio:.2f}x, tolerance "
                    f"{1.0 + time_tolerance:.2f}x)")
            elif ratio < 1.0 / (1.0 + time_tolerance):
                report.improvements.append(
                    f"{where}: '{label}' {column} sped up {old_num:.1f} -> "
                    f"{new_num:.1f} {old_unit} ({old_num / new_num:.2f}x)")
    for label in new_by_label:
        if all(label_of(row) != label for row in old.get("rows", [])):
            report.notes.append(f"{where}: new row '{label}'")


def compare_documents(name: str, old: dict, new: dict, tolerance: float,
                      time_tolerance: float, report: Report) -> None:
    old_sections = dict(iter_sections(old))
    new_sections = dict(iter_sections(new))
    for key, old_section in old_sections.items():
        where = f"{name}: {section_name(key)}"
        if key not in new_sections:
            report.notes.append(f"{where}: section missing in new run")
            continue
        new_section = new_sections[key]
        compare_summaries(where, old_section, new_section, tolerance, report)
        compare_timing_rows(where, old_section, new_section, time_tolerance,
                            report)
    for key in new_sections:
        if key not in old_sections:
            report.notes.append(f"{name}: new section {section_name(key)}")


def collect_files(path: str) -> dict[str, str]:
    if os.path.isdir(path):
        return {
            entry: os.path.join(path, entry)
            for entry in sorted(os.listdir(path))
            if entry.startswith("BENCH_") and entry.endswith(".json")
        }
    if os.path.isfile(path):
        return {os.path.basename(path): path}
    fail(f"{path} is neither a file nor a directory")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    parser.add_argument("fresh", help="new BENCH_*.json file or directory")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="relative tolerance for summary metrics "
                             "(deterministic; default %(default)s)")
    parser.add_argument("--time-tolerance", type=float, default=0.30,
                        help="allowed fractional slowdown for microbench "
                             "timings (default %(default)s = 30%%)")
    parser.add_argument("--time-warn-only", action="store_true",
                        help="report timing slowdowns as warnings instead of "
                             "regressions (summary mismatches still fail)")
    args = parser.parse_args()
    if args.tolerance < 0.0 or args.time_tolerance < 0.0:
        fail("tolerances must be non-negative")

    if os.path.isfile(args.baseline) and os.path.isfile(args.fresh):
        # Two explicit files compare directly, whatever their names.
        baseline_files = {"<baseline>": args.baseline}
        fresh_files = {"<baseline>": args.fresh}
    else:
        baseline_files = collect_files(args.baseline)
        fresh_files = collect_files(args.fresh)
    if not baseline_files:
        fail(f"no BENCH_*.json documents under {args.baseline}")

    report = Report(time_warn_only=args.time_warn_only)
    compared = 0
    for name, baseline_path in baseline_files.items():
        if name not in fresh_files:
            report.notes.append(f"{name}: no counterpart in {args.fresh}")
            continue
        old = load_document(baseline_path)
        new = load_document(fresh_files[name])
        compare_documents(name, old, new, args.tolerance, args.time_tolerance,
                          report)
        compared += 1
    for name in fresh_files:
        if name not in baseline_files:
            report.notes.append(f"{name}: new document (no baseline)")

    if compared == 0:
        fail("no document names in common between the two inputs")

    print(f"bench_diff: compared {compared} document(s): "
          f"{len(report.regressions)} regression(s), "
          f"{len(report.timing_warnings)} timing warning(s), "
          f"{len(report.improvements)} improvement(s), "
          f"{len(report.notes)} note(s)")
    report.print()
    return 1 if report.regressions else 0


if __name__ == "__main__":
    sys.exit(main())
