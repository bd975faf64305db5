#!/usr/bin/env python3
"""Checks for tools/bench_diff.py's input handling and gating.

pytest-style test functions, but runnable with no test framework installed:
`python3 tools/test_bench_diff.py` executes every test_* function and exits
non-zero on the first failure (registered as the `tools` ctest).

The focus is the failure path: a missing or truncated baseline must exit 2
with one clear diagnostic on stderr — never an AttributeError traceback —
while the happy path and the summary gate keep working, and sections are
matched by title, not position.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def run_diff(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, BENCH_DIFF, *argv],
                          capture_output=True, text=True)


def document(summary_value: float = 1.0) -> dict:
    return {
        "schema_version": 1,
        "bench": "toy",
        "scenarios": [{
            "name": "toy",
            "sections": [{
                "title": "section",
                "columns": ["metric"],
                "rows": [],
                "summary": {"metric": summary_value},
            }],
        }],
    }


def write(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(payload, str):
            handle.write(payload)
        else:
            json.dump(payload, handle)
    return path


def test_missing_baseline_fails_cleanly():
    with tempfile.TemporaryDirectory() as tmp:
        fresh = write(os.path.join(tmp, "fresh.json"), document())
        result = run_diff(os.path.join(tmp, "no_such_file.json"), fresh)
        assert result.returncode == 2, result.stderr
        assert "neither a file nor a directory" in result.stderr
        assert "Traceback" not in result.stderr


def test_truncated_baseline_fails_cleanly():
    # json.load accepts a bare list/string — the classic shape of a baseline
    # truncated mid-write and "repaired" by an editor. Must not traceback.
    with tempfile.TemporaryDirectory() as tmp:
        fresh = write(os.path.join(tmp, "fresh.json"), document())
        for stub in (["not", "a", "document"], "just a string", 42):
            broken = write(os.path.join(tmp, "broken.json"), json.dumps(stub))
            result = run_diff(broken, fresh)
            assert result.returncode == 2, (stub, result.stderr)
            assert "truncated or corrupt" in result.stderr, result.stderr
            assert "Traceback" not in result.stderr, result.stderr


def test_half_truncated_json_fails_cleanly():
    with tempfile.TemporaryDirectory() as tmp:
        fresh = write(os.path.join(tmp, "fresh.json"), document())
        broken = write(os.path.join(tmp, "broken.json"),
                       json.dumps(document())[:40])
        result = run_diff(broken, fresh)
        assert result.returncode == 2, result.stderr
        assert "cannot read" in result.stderr
        assert "Traceback" not in result.stderr


def test_malformed_scenarios_fail_cleanly():
    with tempfile.TemporaryDirectory() as tmp:
        fresh = write(os.path.join(tmp, "fresh.json"), document())
        for broken_doc in ({"scenarios": "oops"},
                           {"scenarios": [17]},
                           {"scenarios": [{"name": "x", "sections": [3]}]}):
            broken = write(os.path.join(tmp, "broken.json"), broken_doc)
            result = run_diff(broken, fresh)
            assert result.returncode == 2, (broken_doc, result.stderr)
            assert "truncated or corrupt" in result.stderr, result.stderr
            assert "Traceback" not in result.stderr, result.stderr


def test_identical_documents_pass():
    with tempfile.TemporaryDirectory() as tmp:
        old = write(os.path.join(tmp, "old.json"), document())
        new = write(os.path.join(tmp, "new.json"), document())
        result = run_diff(old, new)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 regression(s)" in result.stdout


def test_summary_change_is_a_regression():
    with tempfile.TemporaryDirectory() as tmp:
        old = write(os.path.join(tmp, "old.json"), document(1.0))
        new = write(os.path.join(tmp, "new.json"), document(2.0))
        result = run_diff(old, new)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "REGRESSION" in result.stdout


def three_sections(last_value: float = 3.0, drop_middle: bool = False) -> dict:
    sections = [{"title": title, "columns": [], "rows": [],
                 "summary": {"metric": value}}
                for title, value in (("first", 1.0), ("middle", 2.0),
                                     ("last", last_value))]
    if drop_middle:
        del sections[1]
    return {"schema_version": 1, "bench": "toy",
            "scenarios": [{"name": "toy", "sections": sections}]}


def test_removed_middle_section_is_a_note():
    # Sections are matched by title, so a gap never pairs "last" with
    # "middle" (which would report a false regression).
    with tempfile.TemporaryDirectory() as tmp:
        old = write(os.path.join(tmp, "old.json"), three_sections())
        new = write(os.path.join(tmp, "new.json"),
                    three_sections(drop_middle=True))
        result = run_diff(old, new, "--tolerance", "0")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "toy (middle): section missing in new run" in result.stdout, \
            result.stdout
        assert "REGRESSION" not in result.stdout, result.stdout


def test_change_after_removed_section_is_a_regression():
    with tempfile.TemporaryDirectory() as tmp:
        old = write(os.path.join(tmp, "old.json"), three_sections())
        new = write(os.path.join(tmp, "new.json"),
                    three_sections(last_value=4.0, drop_middle=True))
        result = run_diff(old, new, "--tolerance", "0")
        assert result.returncode == 1, result.stdout + result.stderr
        assert "REGRESSION: <baseline>: toy (last): summary 'metric'" in \
            result.stdout, result.stdout


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    for test in tests:
        test()
        print(f"ok: {test.__name__}")
    print(f"{len(tests)} bench_diff check(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
