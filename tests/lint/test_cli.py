"""CLI behavior and the self-check: the committed tree lints clean."""

from __future__ import annotations

import json
import os

from repro.lint.cli import main, split_exempt
from repro.lint.diagnostics import Diagnostic
from repro.lint.sarif import SARIF_VERSION

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
SRC = os.path.join(HERE, "..", "..", "src")


def test_self_check_committed_tree_is_clean(capsys):
    """`python -m repro.lint src/` exits 0 with zero findings, no baseline."""
    code = main([SRC, "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["findings"] == []
    assert payload["checked_files"] > 60


def test_bad_fixture_fails_with_exit_1(capsys):
    code = main([os.path.join(FIXTURES, "wp103_bad.py"), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "WP103" in out
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("FAIL: ") and summary.endswith("file(s)")


def test_json_format_shape(capsys):
    code = main(
        [
            os.path.join(FIXTURES, "wp104_bad.py"),
            "--no-baseline",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(payload) == {
        "version",
        "checked_files",
        "suppressed",
        "exempted",
        "baselined",
        "stale_baseline_entries",
        "findings",
    }
    assert {f["code"] for f in payload["findings"]} == {"WP104"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message", "fingerprint"}


def test_sarif_format_from_the_cli(capsys):
    code = main(
        [
            os.path.join(FIXTURES, "wp104_bad.py"),
            "--no-baseline",
            "--format",
            "sarif",
        ]
    )
    log = json.loads(capsys.readouterr().out)
    assert code == 1
    assert log["version"] == SARIF_VERSION
    results = log["runs"][0]["results"]
    assert results and all(r["ruleId"] == "WP104" for r in results)


def test_write_baseline_then_clean(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    bad = os.path.join(FIXTURES, "wp102_bad.py")
    assert main([bad, "--baseline", baseline, "--write-baseline"]) == 0
    capsys.readouterr()
    # Same findings, now grandfathered: exit 0, reported as baselined.
    code = main([bad, "--baseline", baseline, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["findings"] == []
    assert len(payload["baselined"]) > 0


def test_stale_baseline_entries_surface(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    bad = os.path.join(FIXTURES, "wp104_bad.py")
    good = os.path.join(FIXTURES, "wp104_good.py")
    main([bad, "--baseline", baseline, "--write-baseline"])
    capsys.readouterr()
    code = main([good, "--baseline", baseline])
    out = capsys.readouterr().out
    assert code == 0
    assert "stale baseline entry" in out


def test_undecodable_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.py"
    bad.write_bytes(b"name = '\xe9t\xe9'\n")
    code = main([str(bad), "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    [finding] = payload["findings"]
    assert finding["code"] == "WP100"
    assert finding["message"] == "file does not parse: file is not valid UTF-8"
    assert (finding["line"], finding["col"]) == (1, 0)


def test_missing_path_is_a_usage_error(capsys):
    assert main(["definitely/not/a/path.py"]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("WP101", "WP102", "WP103", "WP104", "WP105"):
        assert code in out


class TestExemptionMap:
    EXEMPT = {"benchmarks/bench.py": frozenset({"WP103"}), "examples": frozenset({"WP111"})}

    def _diag(self, path, code):
        return Diagnostic(path=path, line=1, col=0, code=code, message="m")

    def test_exact_path_and_code_match_is_dropped(self):
        kept, dropped = split_exempt(
            [self._diag("benchmarks/bench.py", "WP103")], self.EXEMPT
        )
        assert kept == [] and len(dropped) == 1

    def test_other_codes_under_the_same_path_are_kept(self):
        kept, dropped = split_exempt(
            [self._diag("benchmarks/bench.py", "WP104")], self.EXEMPT
        )
        assert len(kept) == 1 and dropped == []

    def test_directory_prefix_covers_children_not_siblings(self):
        kept, dropped = split_exempt(
            [
                self._diag("examples/demo.py", "WP111"),
                self._diag("examples_extra/demo.py", "WP111"),
            ],
            self.EXEMPT,
        )
        assert [d.path for d in dropped] == ["examples/demo.py"]
        assert [d.path for d in kept] == ["examples_extra/demo.py"]
