"""Self-check of the benchmark itself: ``python -m pytest benchmarks/e2e -q``.

Runs the ``--quick`` all-workload mode once and holds its ledger and
span files against ``BENCHMARK.json`` and the rules in the README.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "ledger.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=REPO,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as f:
        return str(out), json.load(f), done.stdout


def test_manifest_matches_the_metric_table(manifest):
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in manifest["end_to_end"])
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in manifest[section]:
            assert NAME.match(item["name"]), item["name"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])


def test_every_named_metric_is_emitted_with_its_unit(manifest, quick):
    _, book, stdout = quick
    assert sorted(book["workloads"]) == sorted(
        w["name"] for w in manifest["workloads"])
    for name, entry in book["workloads"].items():
        assert entry["failures"] == [], (name, entry["failures"])
        assert entry["failed"] == 0 and entry["attempted"] > 0
        for m in manifest["end_to_end"]:
            row = entry["end_to_end"][m["name"]]
            assert row["unit"] == m["unit"] and row["n"] >= 1
            assert row["median"] > 0, (name, m["name"])
        for m in manifest["per_layer"]:
            row = entry["per_layer"][m["name"]]
            assert row["unit"] == m["unit"] and "n" in row
            assert m["name"] in stdout
        assert "trainer.trace_overhead_share" in entry["per_layer"]
    assert book["env"]["pins"]["OPENBLAS_NUM_THREADS"] == "1"


def test_spans_nest_and_give_the_residual(quick):
    _, book, _ = quick
    for name, entry in book["workloads"].items():
        path = os.path.join(HERE, "out", f"spans-{name}-s{book['seed']}.json")
        with open(path) as f:
            spans = json.load(f)["spans"]
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["trainer.train"]
        for s in spans:
            assert s["end"] >= s["start"] and s["run"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"]
                assert s["end"] <= parent["end"], (s, parent)
        # residual_share recomputed from the span file alone
        containers = {s["id"] for s in spans if s["name"] in
                      ("trainer.train", "trainer.round", "trainer.drain")}
        tiled = sum(s["end"] - s["start"] for s in spans
                    if s["id"] not in containers
                    and s["parent"] in containers)
        wall = roots[0]["end"] - roots[0]["start"]
        assert wall == pytest.approx(
            entry["per_layer"]["trainer.traced_wall_s"]["value"], rel=1e-3)
        assert 1.0 - tiled / wall == pytest.approx(
            entry["per_layer"]["trainer.residual_share"]["value"], abs=2e-3)
        rounds = [s for s in spans if s["name"] == "trainer.round"]
        assert len(rounds) == entry["per_layer"]["trainer.rounds"]["value"]


def test_tail_percentile_rule():
    assert metrics.tail_percentile(50) == pytest.approx(80.0)
    assert metrics.tail_percentile(400) == pytest.approx(97.5)
    assert metrics.tail_percentile(19) is None
    assert metrics.percentile(range(101), 97.5) == pytest.approx(97.5)
    assert metrics.median([3, 1, 2]) == 2 and metrics.median([1, 2]) == 1.5


def test_compare_with_itself_is_all_same(quick, capsys):
    path, _, _ = quick
    assert ledger.compare(path, path) == 0
    rows = [line.rsplit(None, 1)[-1]
            for line in capsys.readouterr().out.splitlines()[2:-1]]
    assert rows and set(rows) == {"same"}


def test_compare_verdicts():
    wall = next(m for m in metrics.END_TO_END if m.name == "train_wall_s")

    def side(median, spread=0.0):
        return {"median": median, "min": median - spread / 2,
                "max": median + spread / 2}

    step = 10.0 * wall.bound
    assert ledger.verdict(wall, side(10.0), side(10.0 + step / 2)) == "same"
    assert ledger.verdict(wall, side(10.0), side(10.0 + 2 * step)) == "worse"
    assert ledger.verdict(wall, side(10.0), side(10.0 - 2 * step)) == "better"
    assert ledger.verdict(
        wall, side(10.0, 2 * step), side(10.0)) == "unresolved"
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    # 0.04 s on a 0.1 s set-up is 40 %, but under the 0.05 s floor
    assert ledger.verdict(setup, side(0.10), side(0.14)) == "same"
