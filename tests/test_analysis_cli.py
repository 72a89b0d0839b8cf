"""CLI tests for ``repro lint``: SARIF output, exit codes, unparsable
files under ``--deep``, and the policy self-verification check."""

import json
import os

import pytest

from repro.cli import main
from repro.lint.policy import all_policy_relpaths, verify_policy

BAD_LOCK_MODULE = (
    "import threading\n\n"
    '__all__ = ["Pool"]\n\n'
    "class Pool:\n"
    "    def __init__(self):\n"
    "        self.alpha = threading.Lock()\n"
    "        self.beta = threading.Lock()\n\n"
    "    def forward(self):\n"
    "        with self.alpha:\n"
    "            with self.beta:\n"
    "                pass\n\n"
    "    def backward(self):\n"
    "        with self.beta:\n"
    "            with self.alpha:\n"
    "                pass\n"
)


@pytest.fixture
def defect_tree(tmp_path):
    """A package tree with one call-graph finding (cyclic lock order)."""
    pkg = tmp_path / "repro" / "runtime"
    pkg.mkdir(parents=True)
    (pkg / "pool.py").write_text(BAD_LOCK_MODULE)
    return tmp_path / "repro"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("__all__ = []\n")
        assert main(["lint", "--deep", str(tmp_path)]) == 0

    def test_findings_exit_one(self, defect_tree, tmp_path, capsys):
        assert main(["lint", "--deep", str(defect_tree)]) == 1
        out = capsys.readouterr().out
        assert "lock-order" in out

    def test_usage_error_exits_two(self, tmp_path, capsys):
        assert main(["lint", "--deep", "--select", "bogus",
                     str(tmp_path)]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "--deep", "does/not/exist"]) == 2

    def test_unparsable_file_is_one_finding_under_deep(
        self, tmp_path, capsys
    ):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main(["lint", "--deep", "--format", "json",
                     str(tmp_path)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["syntax-error"]


class TestSarif:
    def test_sarif_schema_fields(self, defect_tree, tmp_path, capsys):
        code = main(["lint", "--deep", "--format", "sarif",
                     str(defect_tree)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {r["id"] for r in driver["rules"]}
        # the full rule catalogue rides along
        assert {"lock-order", "seed-flow", "async-discipline",
                "wire-format", "mutable-default"} <= rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning"
            )
        (result,) = [
            r for r in run["results"] if r["ruleId"] == "lock-order"
        ]
        assert result["level"] == "error"
        assert "lock-order cycle" in result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("pool.py")
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1  # SARIF is 1-based

    def test_shallow_sarif_works_too(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        code = main(["lint", "--format", "sarif", str(bad)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert any(
            r["ruleId"] == "mutable-default"
            for r in doc["runs"][0]["results"]
        )

    def test_clean_sarif_has_empty_results(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("__all__ = []\n")
        assert main(["lint", "--format", "sarif", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestCommittedBaseline:
    def test_repo_baseline_exists_and_is_exhausted(self):
        """The baseline the committed tree is held to is the empty one:
        ``repro lint --deep src/`` run from the repo root exits 0, with
        every rule (call-graph checks included) and the policy
        self-check."""
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        cwd = os.getcwd()
        os.chdir(root)
        try:
            assert main(["lint", "--deep",
                         os.path.join(root, "src")]) == 0
        finally:
            os.chdir(cwd)


class TestPolicySelfVerification:
    def test_real_policy_names_only_existing_files(self):
        assert verify_policy() == []

    def test_missing_module_is_detected(self, tmp_path):
        missing = verify_policy(str(tmp_path))
        assert set(missing) == set(all_policy_relpaths())
        assert "runtime/aio.py" in missing

    def test_lint_refuses_to_run_with_stale_policy(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.lint.policy as policy

        monkeypatch.setattr(
            policy, "WIRE_MODULES",
            frozenset({"core/serialization.py", "core/renamed_away.py"}),
        )
        (tmp_path / "ok.py").write_text("__all__ = []\n")
        assert main(["lint", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "renamed_away" in err
