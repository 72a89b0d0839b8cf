"""Per-rule fixture tests: each rule fires on a bad snippet, stays
quiet on the idiomatic version of the same code."""

import pytest

from repro.lint import all_rule_ids, lint_source


def ids_for(text, relpath, select=None):
    return sorted({f.rule_id for f in lint_source(text, relpath=relpath,
                                                  select=select)})


class TestHotLoop:
    def test_fires_on_container_loop(self):
        bad = (
            "def pack(arrays):\n"
            "    total = 0\n"
            "    for arr in arrays:\n"
            "        total += arr.sum()\n"
            "    return total\n"
        )
        findings = lint_source(bad, relpath="core/bitpack.py",
                               select=["hot-loop"])
        assert [f.rule_id for f in findings] == ["hot-loop"]
        assert findings[0].line == 3

    def test_fires_on_zip_and_while(self):
        bad = (
            "def pack(a, b):\n"
            "    for x, y in zip(a, b):\n"
            "        use(x, y)\n"
            "    while a:\n"
            "        a = a[1:]\n"
        )
        findings = lint_source(bad, relpath="core/bitpack.py",
                               select=["hot-loop"])
        assert len(findings) == 2

    def test_range_loops_allowed(self):
        good = (
            "def pack(groups):\n"
            "    for g in range(len(groups)):\n"
            "        emit(g)\n"
            "    for i, g in enumerate(groups):\n"
            "        emit(i)\n"
        )
        assert ids_for(good, "core/bitpack.py", ["hot-loop"]) == []

    def test_fires_inside_a_branch(self):
        bad = (
            "def pack(arrays, slow):\n"
            "    if slow:\n"
            "        for arr in arrays:\n"
            "            use(arr)\n"
            "        return\n"
            "    fast(arrays)\n"
        )
        findings = lint_source(bad, relpath="core/bitpack.py",
                               select=["hot-loop"])
        assert [f.line for f in findings] == [3]

    def test_ignores_non_vectorised_modules(self):
        bad = "def f(xs):\n    for x in xs:\n        use(x)\n"
        assert ids_for(bad, "core/compressor.py", ["hot-loop"]) == []


class TestRngDiscipline:
    def test_fires_on_unseeded_default_rng(self):
        bad = (
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.default_rng().random()\n"
        )
        assert ids_for(bad, "core/x.py", ["rng-discipline"]) == [
            "rng-discipline"
        ]

    def test_fires_on_legacy_global_state(self):
        bad = "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n"
        findings = lint_source(bad, relpath="core/x.py",
                               select=["rng-discipline"])
        assert len(findings) == 2

    def test_fires_on_stdlib_random_and_wall_clock(self):
        bad = (
            "import random\n"
            "import time\n"
            "def f():\n"
            "    return random.random() + time.time()\n"
        )
        findings = lint_source(bad, relpath="core/x.py",
                               select=["rng-discipline"])
        assert len(findings) == 2

    def test_seeded_generator_clean(self):
        good = (
            "import numpy as np\n"
            "import time\n"
            "def draw(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    t = time.perf_counter()\n"
            "    return rng.random(), t\n"
        )
        assert ids_for(good, "core/x.py", ["rng-discipline"]) == []

    def test_parameter_named_random_clean(self):
        good = "def f(random):\n    return random.choice([1, 2])\n"
        assert ids_for(good, "core/x.py", ["rng-discipline"]) == []


class TestDtypeDiscipline:
    def test_fires_on_dtypeless_constructor_in_strict_module(self):
        bad = "import numpy as np\ndef f(xs):\n    return np.asarray(xs)\n"
        assert ids_for(bad, "core/bitpack.py", ["dtype-discipline"]) == [
            "dtype-discipline"
        ]

    def test_explicit_dtype_clean(self):
        good = (
            "import numpy as np\n"
            "def f(xs):\n"
            "    a = np.asarray(xs, dtype=np.int64)\n"
            "    b = np.zeros(4, np.uint64)\n"
            "    return a, b\n"
        )
        assert ids_for(good, "core/bitpack.py", ["dtype-discipline"]) == []

    def test_fires_on_float_object_dtype_anywhere_in_core(self):
        bad = (
            "import numpy as np\n"
            "def f(xs):\n"
            "    return xs.astype(float), np.zeros(3, dtype=object)\n"
        )
        findings = lint_source(bad, relpath="core/compressor.py",
                               select=["dtype-discipline"])
        assert len(findings) == 2

    def test_dtypeless_allowed_outside_strict_modules(self):
        good = "import numpy as np\ndef f(xs):\n    return np.asarray(xs)\n"
        assert ids_for(good, "core/compressor.py", ["dtype-discipline"]) == []
        assert ids_for(good, "bench/runner.py", ["dtype-discipline"]) == []


class TestWireFormat:
    def test_fires_outside_serialization_modules(self):
        bad = (
            "import struct\n"
            "import numpy as np\n"
            "def f(buf, arr):\n"
            "    n = struct.unpack('<I', buf[:4])[0]\n"
            "    raw = arr.tobytes()\n"
            "    return np.frombuffer(buf, dtype=np.uint8), n, raw\n"
        )
        findings = lint_source(bad, relpath="core/compressor.py",
                               select=["wire-format"])
        assert len(findings) == 4  # import, unpack, tobytes, frombuffer

    def test_allowed_in_wire_modules(self):
        good = (
            "import struct\n"
            "import numpy as np\n"
            "def f(buf, arr):\n"
            "    return struct.pack('<I', 1) + arr.tobytes()\n"
        )
        assert ids_for(good, "core/serialization.py", ["wire-format"]) == []
        assert ids_for(good, "core/bitpack.py", ["wire-format"]) == []


class TestBareExcept:
    def test_fires_on_bare_except(self):
        bad = "try:\n    f()\nexcept:\n    g()\n"
        assert ids_for(bad, "core/x.py", ["bare-except"]) == ["bare-except"]

    def test_fires_on_swallowed_exception(self):
        bad = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert ids_for(bad, "core/x.py", ["bare-except"]) == ["bare-except"]

    def test_typed_handler_clean(self):
        good = (
            "try:\n"
            "    f()\n"
            "except ValueError:\n"
            "    pass\n"
            "except Exception as exc:\n"
            "    log(exc)\n"
            "    raise\n"
        )
        assert ids_for(good, "core/x.py", ["bare-except"]) == []


class TestMutableDefault:
    def test_fires_on_literal_and_call_defaults(self):
        bad = (
            "import numpy as np\n"
            "def f(a=[], b={}, c=set(), d=np.zeros(3)):\n"
            "    return a, b, c, d\n"
        )
        findings = lint_source(bad, relpath="core/x.py",
                               select=["mutable-default"])
        assert len(findings) == 4

    def test_none_default_clean(self):
        good = (
            "def f(a=None, b=(), c='x', *, d=None):\n"
            "    a = [] if a is None else a\n"
            "    return a, b, c, d\n"
        )
        assert ids_for(good, "core/x.py", ["mutable-default"]) == []


class TestMissingAll:
    def test_fires_on_public_module_without_all(self):
        bad = "def encode(x):\n    return x\n\nLIMIT = 4\n"
        findings = lint_source(bad, relpath="core/x.py",
                               select=["missing-all"])
        assert [f.rule_id for f in findings] == ["missing-all"]
        assert findings[0].severity == "warning"

    def test_clean_with_all(self):
        good = "__all__ = ['encode']\n\ndef encode(x):\n    return x\n"
        assert ids_for(good, "core/x.py", ["missing-all"]) == []

    def test_private_only_module_clean(self):
        good = "def _helper(x):\n    return x\n_CACHE = {}\n"
        assert ids_for(good, "core/x.py", ["missing-all"]) == []


class TestWireEndianness:
    WIRE = "core/serialization.py"

    def test_fires_on_frombuffer_numpy_attr_dtype(self):
        bad = (
            "import numpy as np\n"
            "def read(blob):\n"
            "    return np.frombuffer(blob[:4], dtype=np.uint32)\n"
        )
        findings = lint_source(bad, relpath=self.WIRE,
                               select=["wire-endianness"])
        assert [f.rule_id for f in findings] == ["wire-endianness"]
        assert "uint32" in findings[0].message

    def test_fires_on_scalar_tobytes(self):
        bad = (
            "import numpy as np\n"
            "def header(n):\n"
            "    return np.uint32(n).tobytes()\n"
        )
        assert ids_for(bad, self.WIRE, ["wire-endianness"]) == [
            "wire-endianness"
        ]

    def test_fires_on_cast_chained_to_tobytes(self):
        bad = (
            "import numpy as np\n"
            "def emit(x):\n"
            "    return np.asarray(x, dtype=np.float64).tobytes()\n"
        )
        assert ids_for(bad, self.WIRE, ["wire-endianness"]) == [
            "wire-endianness"
        ]

    def test_fires_on_unpinned_dtype_string(self):
        bad = (
            "import numpy as np\n"
            "def read(blob):\n"
            '    return np.frombuffer(blob, dtype="f8")\n'
        )
        assert ids_for(bad, self.WIRE, ["wire-endianness"]) == [
            "wire-endianness"
        ]

    def test_fires_on_big_endian_string(self):
        bad = (
            "import numpy as np\n"
            "def read(blob):\n"
            '    return np.frombuffer(blob, dtype=">u4")\n'
        )
        assert ids_for(bad, self.WIRE, ["wire-endianness"]) == [
            "wire-endianness"
        ]

    def test_fires_on_unpinned_dtype_constant(self):
        bad = 'HEADER_DTYPE = "u4"\n'
        assert ids_for(bad, self.WIRE, ["wire-endianness"]) == [
            "wire-endianness"
        ]

    def test_clean_on_pinned_little_endian_strings(self):
        good = (
            "import numpy as np\n"
            "def read(blob):\n"
            '    head = np.frombuffer(blob[:4], dtype="<u4")\n'
            '    return np.frombuffer(blob[4:], dtype="<f8")\n'
            "def emit(x):\n"
            '    return np.asarray(x, dtype="<u4").tobytes()\n'
        )
        assert ids_for(good, self.WIRE, ["wire-endianness"]) == []

    def test_clean_on_single_byte_dtypes(self):
        good = (
            "import numpy as np\n"
            "def read(blob):\n"
            '    return np.frombuffer(blob, dtype="u1")\n'
        )
        assert ids_for(good, self.WIRE, ["wire-endianness"]) == []

    def test_in_memory_numpy_attr_dtypes_stay_legal(self):
        # Scratch buffers never cross the wire; only frombuffer /
        # tobytes chains and dtype string literals are byte-crossing.
        good = (
            "import numpy as np\n"
            "def scatter(n):\n"
            "    return np.empty(n, dtype=np.uint64)\n"
        )
        assert ids_for(good, self.WIRE, ["wire-endianness"]) == []

    def test_silent_outside_wire_modules(self):
        bad = (
            "import numpy as np\n"
            "def read(blob):\n"
            "    return np.frombuffer(blob, dtype=np.uint32)\n"
        )
        assert ids_for(bad, "distributed/worker.py",
                       ["wire-endianness"]) == []

    def test_repo_wire_modules_are_clean(self):
        import os

        from repro.lint.policy import WIRE_MODULES

        src_root = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro"
        )
        for relpath in sorted(WIRE_MODULES):
            with open(os.path.join(src_root, relpath)) as f:
                text = f.read()
            assert ids_for(text, relpath, ["wire-endianness"]) == [], relpath


class TestWireEndiannessTelemetryScope:
    """Satellite: the endianness rule also covers the telemetry package,
    whose flight-recorder files are merged across machines."""

    def test_fires_inside_telemetry_package(self):
        bad = (
            "import numpy as np\n"
            "def read(blob):\n"
            '    return np.frombuffer(blob, dtype="u4")\n'
        )
        assert ids_for(bad, "telemetry/recorder.py",
                       ["wire-endianness"]) == ["wire-endianness"]

    def test_repo_telemetry_modules_are_clean(self):
        import glob
        import os

        src_root = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro"
        )
        paths = sorted(glob.glob(os.path.join(src_root, "telemetry", "*.py")))
        assert paths, "telemetry package not found"
        for path in paths:
            relpath = "telemetry/" + os.path.basename(path)
            with open(path) as f:
                text = f.read()
            assert ids_for(text, relpath,
                           ["wire-endianness", "wire-format"]) == [], relpath


class TestTelemetryDiscipline:
    HOT = "runtime/transport.py"

    def test_fires_on_print_in_hot_path(self):
        bad = (
            "def send(frame):\n"
            '    print("sending", len(frame))\n'
        )
        findings = lint_source(bad, relpath=self.HOT,
                               select=["telemetry-discipline"])
        assert [f.rule_id for f in findings] == ["telemetry-discipline"]
        assert "print()" in findings[0].message

    def test_fires_on_logging_import_in_hot_path(self):
        for bad in ("import logging\n", "from logging import getLogger\n",
                    "import logging.handlers\n"):
            assert ids_for(bad, self.HOT, ["telemetry-discipline"]) == [
                "telemetry-discipline"
            ], bad

    def test_print_and_logging_allowed_outside_hot_paths(self):
        ok = (
            "import logging\n"
            "def report(rows):\n"
            "    print(rows)\n"
        )
        for relpath in ("cli.py", "bench/tables.py", "lint/framework.py"):
            assert ids_for(ok, relpath, ["telemetry-discipline"]) == []

    def test_fires_on_span_not_used_as_context_manager(self):
        bad = (
            "from .. import telemetry\n"
            "def step():\n"
            '    span = telemetry.span("worker.step")\n'
            "    work()\n"
        )
        findings = lint_source(bad, relpath=self.HOT,
                               select=["telemetry-discipline"])
        assert [f.rule_id for f in findings] == ["telemetry-discipline"]
        assert "context" in findings[0].message or "with" in findings[0].message

    def test_bare_span_flagged_everywhere_not_just_hot_paths(self):
        bad = (
            "from repro import telemetry\n"
            "def probe():\n"
            '    telemetry.span("x")\n'
        )
        assert ids_for(bad, "bench/runner.py",
                       ["telemetry-discipline"]) == ["telemetry-discipline"]

    def test_span_as_with_item_clean(self):
        good = (
            "from .. import telemetry\n"
            "def step():\n"
            '    with telemetry.span("worker.step"):\n'
            "        work()\n"
            '    with telemetry.context(phase="x"), telemetry.span("a"):\n'
            "        more()\n"
        )
        assert ids_for(good, self.HOT, ["telemetry-discipline"]) == []

    def test_direct_span_import_spelling_matched(self):
        bad = (
            "from repro.telemetry import span\n"
            "def step():\n"
            '    span("worker.step")\n'
        )
        assert ids_for(bad, self.HOT, ["telemetry-discipline"]) == [
            "telemetry-discipline"
        ]

    def test_repo_hot_paths_are_clean(self):
        import os

        from repro.lint.framework import iter_python_files
        from repro.lint.policy import HOT_PATH_PREFIXES

        src_root = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro"
        )
        checked = 0
        for prefix in HOT_PATH_PREFIXES:
            package = os.path.join(src_root, prefix.rstrip("/"))
            for path in iter_python_files([package]):
                relpath = prefix + os.path.basename(path)
                with open(path) as f:
                    text = f.read()
                assert ids_for(text, relpath,
                               ["telemetry-discipline"]) == [], relpath
                checked += 1
        assert checked >= 10


class TestAsyncDiscipline:
    """Reactor modules may only wait in selector.select."""

    AIO = "runtime/aio.py"

    def test_fires_on_time_sleep(self):
        bad = (
            "import time\n"
            "def pump():\n"
            "    time.sleep(0.5)\n"
        )
        findings = lint_source(bad, relpath=self.AIO,
                               select=["async-discipline"])
        assert [f.rule_id for f in findings] == ["async-discipline"]
        assert findings[0].line == 3

    def test_fires_on_blocking_socket_methods(self):
        bad = (
            "def pump(sock):\n"
            "    sock.settimeout(5.0)\n"
            "    data = sock.recv(4096)\n"
            "    sock.sendall(data)\n"
        )
        findings = lint_source(bad, relpath=self.AIO,
                               select=["async-discipline"])
        assert len(findings) == 3
        assert sorted(f.line for f in findings) == [2, 3, 4]

    def test_fires_on_queue_import_and_blocking_connect(self):
        bad = (
            "import queue\n"
            "import socket\n"
            "def dial(addr):\n"
            "    return socket.create_connection(addr)\n"
        )
        assert ids_for(bad, self.AIO, ["async-discipline"]) == [
            "async-discipline"
        ]

    def test_clean_on_nonblocking_reactor_idiom(self):
        good = (
            "import selectors\n"
            "def pump(sel, conn, view):\n"
            "    events = sel.select(0.1)\n"
            "    try:\n"
            "        n = conn.sock.recv_into(view)\n"
            "    except BlockingIOError:\n"
            "        return\n"
            "    conn.sock.sendmsg([view[:n]])\n"
            "    conn.sock.setblocking(False)\n"
        )
        assert ids_for(good, self.AIO, ["async-discipline"]) == []

    def test_out_of_scope_modules_may_block(self):
        bad = "import time\ndef f():\n    time.sleep(1)\n"
        assert ids_for(bad, "runtime/transport.py",
                       ["async-discipline"]) == []

    def test_noqa_with_reason_suppresses(self):
        src = (
            "import time\n"
            "def pump():\n"
            "    time.sleep(0.5)"
            "  # repro: noqa[async-discipline] — startup settle\n"
        )
        assert ids_for(src, self.AIO, ["async-discipline"]) == []

    def test_real_aio_module_is_clean(self):
        import pathlib

        import repro.runtime.aio as aio_mod

        text = pathlib.Path(aio_mod.__file__).read_text()
        assert ids_for(text, self.AIO, ["async-discipline"]) == []


class TestRuleInventory:
    def test_at_least_eight_rules_registered(self):
        ids = all_rule_ids()
        assert len([r for r in ids if r != "noqa-justification"]) >= 8
        for required in [
            "rng-discipline", "dtype-discipline", "hot-loop",
            "wire-format", "bare-except", "mutable-default",
            "missing-all", "noqa-justification",
            "wire-endianness", "telemetry-discipline",
            "async-discipline",
        ]:
            assert required in ids
