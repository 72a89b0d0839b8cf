"""Smoke tests for the ``repro.perf`` benchmark harness and CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.perf import BenchResult, run_suite, time_kernel, write_results
from repro.perf.suite import results_to_json

EXPECTED_KERNELS = {
    "quantizer_fit",
    "minmax_insert",
    "minmax_query",
    "delta_encode",
    "delta_decode",
    "keys_encode_v2",
    "keys_decode_v2",
    "e2e_compress",
    "e2e_decompress",
    "adam_step",
    "batch_gradient",
}

#: serialization kernels timed by the wire bench (repro.perf.wire_bench)
WIRE_KERNELS = {
    "wire_encode_v1",
    "wire_encode_v2",
    "wire_decode_v1",
    "wire_decode_v2",
    "wire_stream_v2",
    "wire_encode_v1_sketch",
    "wire_encode_v2_sketch",
    "wire_decode_v1_sketch",
    "wire_decode_v2_sketch",
}


def test_time_kernel_reports_median_of_repeats():
    calls = []
    result = time_kernel(
        "noop",
        lambda: calls.append(None),
        elements=1000,
        bytes_processed=8000,
        warmup=2,
        repeats=5,
    )
    assert len(calls) == 7  # warmup + repeats
    assert len(result.samples) == 5
    assert result.seconds == sorted(result.samples)[2]
    assert result.ns_per_element == result.seconds * 1e9 / 1000
    assert result.mb_per_s == pytest.approx(8000 / result.seconds / 1e6)


def test_time_kernel_rejects_bad_repeat_counts():
    with pytest.raises(ValueError):
        time_kernel("bad", lambda: None, elements=1, bytes_processed=1, repeats=0)


def test_zero_division_guards():
    result = BenchResult(
        name="degenerate", elements=0, bytes_processed=0, seconds=0.0, samples=[0.0]
    )
    assert result.ns_per_element == 0.0
    assert result.mb_per_s == 0.0


def test_run_suite_quick_covers_every_kernel():
    results = run_suite(sizes=[512], warmup=0, repeats=1)
    names = {r.name for r in results}
    assert names == {f"{k}/512" for k in EXPECTED_KERNELS}
    for r in results:
        assert r.seconds > 0
        assert r.elements > 0


def test_write_results_schema(tmp_path):
    results = run_suite(sizes=[512], warmup=0, repeats=1)
    out = tmp_path / "bench.json"
    write_results(results, str(out))
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro-bench-codec/1"
    assert payload["platform"]["numpy"] == np.__version__
    assert set(payload["kernels"]) == {r.name for r in results}
    sample = payload["kernels"]["e2e_compress/512"]
    assert set(sample) == {
        "elements", "bytes", "median_ms", "ns_per_element", "mb_per_s", "repeats",
    }
    assert sample["elements"] == 512
    # round-trip sanity: the JSON view reflects the in-memory results
    assert payload == results_to_json(results)


def test_cli_perf_quick(tmp_path, capsys):
    out = tmp_path / "BENCH_codec.json"
    code = main(["perf", "--quick", "--sizes", "512", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "e2e_compress/512" in captured
    payload = json.loads(out.read_text())
    codec_names = {f"{k}/512" for k in EXPECTED_KERNELS | WIRE_KERNELS}
    # Quick mode also times the in-process (sim) transport echo path.
    transport_names = {
        n for n in payload["kernels"] if n.startswith("transport_echo/sim/")
    }
    assert transport_names
    assert set(payload["kernels"]) == codec_names | transport_names
    # The wire bench also writes its bytes-on-wire summary section.
    wire = payload["wire"]
    assert wire["schema"] == "repro-bench-wire/1"
    row = wire["sizes"]["512"]
    assert row["v2_bytes"] <= row["v1_bytes"]
    assert row["entropy"]["coded_bytes"] <= row["entropy"]["plain_bytes"]


def test_cli_perf_no_output_file(capsys):
    code = main(["perf", "--quick", "--sizes", "512", "--out", "-"])
    assert code == 0
    assert "wrote" not in capsys.readouterr().out


def test_cli_perf_transports_none_skips_transport_bench(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["perf", "--quick", "--sizes", "512", "--transports",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert not any(
        n.startswith("transport_echo/") for n in payload["kernels"]
    )


class TestWireBench:
    def test_measures_both_versions_and_counters(self):
        from repro.perf import run_wire_bench

        results, section = run_wire_bench(sizes=[2048], warmup=0, repeats=1)
        assert {r.name for r in results} == {
            f"{k}/2048" for k in WIRE_KERNELS
        }
        row = section["sizes"]["2048"]
        # The encoder only swaps in the dense block when it is strictly
        # smaller, so v2 can never be larger than v1 — and the
        # telemetry counters must agree with that choice.
        assert 0 < row["v2_bytes"] <= row["v1_bytes"]
        assert row["entropy"]["plain_bytes"] > 0
        assert row["entropy"]["coded_bytes"] <= row["entropy"]["plain_bytes"]
        assert row["entropy"]["saved_bytes"] == (
            row["entropy"]["plain_bytes"] - row["entropy"]["coded_bytes"]
        )
        # Full SketchML: v2 drops the splits and radix-codes the cells.
        assert 0 < row["sketch"]["v2_bytes"] < row["sketch"]["v1_bytes"]

    def test_probe_does_not_leak_recorder(self):
        from repro import telemetry
        from repro.perf import run_wire_bench

        assert not telemetry.enabled()
        run_wire_bench(sizes=[512], warmup=0, repeats=1)
        assert not telemetry.enabled()

    def test_extra_section_round_trips_through_write_results(self, tmp_path):
        from repro.perf import run_wire_bench

        results, section = run_wire_bench(sizes=[512], warmup=0, repeats=1)
        out = tmp_path / "bench.json"
        write_results(results, str(out), extra={"wire": section})
        payload = json.loads(out.read_text())
        assert payload["wire"] == section
        with pytest.raises(ValueError, match="clash"):
            results_to_json(results, extra={"kernels": {}})


class TestTransportBench:
    def test_sim_rows_record_messages_and_bytes(self):
        from repro.perf import run_transport_bench

        results = run_transport_bench(
            ["sim"], payload_sizes=[1024], warmup=0, repeats=2
        )
        assert [r.name for r in results] == ["transport_echo/sim/1024"]
        record = results[0].to_json()
        assert record["bytes_per_message"] > 1024  # payload + frame header
        assert record["messages_per_s"] > 0
        assert record["repeats"] == 2

    def test_unknown_backend_rejected(self):
        from repro.perf import run_transport_bench

        with pytest.raises(ValueError, match="unknown transport backend"):
            run_transport_bench(["udp"])

    def test_mp_backend_round_trips(self):
        from repro.perf import run_transport_bench

        results = run_transport_bench(
            ["mp"], payload_sizes=[1024], warmup=0, repeats=1
        )
        assert results[0].seconds > 0
        assert results[0].to_json()["messages_per_s"] > 0
