"""Framework-level tests: noqa policy, selection, file walking, and the
committed tree staying lint-clean."""

import os

import pytest

from repro.lint import LintError, build_rules, lint_paths, lint_source

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

BAD_EXCEPT = "try:\n    f()\nexcept:\n    g()\n"


class TestNoqaPolicy:
    def test_justified_noqa_suppresses(self):
        text = (
            "try:\n"
            "    f()\n"
            "except:  # repro: noqa[bare-except] — demo fixture needs it\n"
            "    g()\n"
        )
        assert lint_source(text, select=["bare-except"]) == []

    def test_ascii_separators_accepted(self):
        for sep in ("--", "-", ":"):
            text = (
                "try:\n"
                "    f()\n"
                f"except:  # repro: noqa[bare-except] {sep} fixture\n"
                "    g()\n"
            )
            assert lint_source(text, select=["bare-except"]) == []

    def test_noqa_without_reason_is_a_finding(self):
        text = (
            "try:\n"
            "    f()\n"
            "except:  # repro: noqa[bare-except]\n"
            "    g()\n"
        )
        findings = lint_source(text, select=["bare-except"])
        # An unjustified noqa does not suppress: the original finding
        # survives AND the missing justification is itself reported.
        assert sorted(f.rule_id for f in findings) == [
            "bare-except", "noqa-justification"
        ]

    def test_noqa_for_unknown_rule_is_a_finding(self):
        text = "x = 1  # repro: noqa[no-such-rule] — whatever\n"
        findings = lint_source(text)
        assert any(f.rule_id == "noqa-justification" and
                   "no-such-rule" in f.message for f in findings)

    def test_noqa_only_suppresses_named_rule(self):
        text = (
            "try:\n"
            "    f()\n"
            "except:  # repro: noqa[hot-loop] — wrong rule named\n"
            "    g()\n"
        )
        findings = lint_source(text, select=["bare-except", "hot-loop"])
        assert [f.rule_id for f in findings] == ["bare-except"]

    def test_multi_rule_noqa(self):
        text = (
            "try:\n"
            "    f()\n"
            "except:  # repro: noqa[bare-except, hot-loop] — fixture\n"
            "    g()\n"
        )
        assert lint_source(text, select=["bare-except"]) == []


class TestSelection:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError, match="no-such-rule"):
            build_rules(["no-such-rule"])

    def test_select_limits_rules(self):
        text = BAD_EXCEPT + "def public():\n    return 1\n"
        all_ids = {f.rule_id for f in lint_source(text)}
        assert {"bare-except", "missing-all"} <= all_ids
        only = {f.rule_id for f in lint_source(text, select=["bare-except"])}
        assert only == {"bare-except"}

    def test_findings_carry_location(self):
        findings = lint_source(BAD_EXCEPT, path="pkg/mod.py",
                               select=["bare-except"])
        f = findings[0]
        assert f.path == "pkg/mod.py"
        assert f.line == 3
        assert f.location.startswith("pkg/mod.py:3:")
        assert f.to_dict()["rule"] == "bare-except"


class TestLintPaths:
    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no-such-dir"):
            lint_paths(["no-such-dir"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([str(tmp_path)])
        assert [f.rule_id for f in findings] == ["syntax-error"]

    def test_walks_directories_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text(BAD_EXCEPT)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.py").write_text(BAD_EXCEPT)
        findings = lint_paths([str(tmp_path)], select=["bare-except"])
        assert [os.path.basename(f.path) for f in findings] == ["b.py", "a.py"]


class TestCommittedTree:
    def test_repo_package_is_lint_clean(self):
        """Every registered rule, call-graph checks included: the bar is
        0 findings on the real tree."""
        findings = lint_paths([REPO_SRC], deep=True)
        assert findings == [], "\n".join(
            f"{f.location}: [{f.rule_id}] {f.message}" for f in findings
        )
