"""Seeded-defect fixtures for the call-graph checks (``--deep``).

Each check gets a seeded defect — a transitively-blocking reactor call,
a wire-primitive escape via helper, an unseeded RNG flowing into
runtime code, a cyclic lock order — plus a negative twin showing the
sanctioned idiom stays silent, so the rules pin behaviour in both
directions.
"""

import os

import pytest

from repro.lint import build_rules, lint_paths, lint_tree
from repro.lint.callgraph import build_project_from_sources


def run_rule(sources, rule_id):
    """One rule's findings over an in-memory tree, both passes."""
    project = build_project_from_sources(sources)
    (rule,) = build_rules([rule_id])
    findings = [
        f for module in project.modules.values() for f in rule.check(module)
    ]
    return findings + list(rule.check_project(project))


def deep_lint(tmp_path, sources, rule_id):
    """``repro lint --deep --select rule_id`` over a written package."""
    root = tmp_path / "repro"
    for relpath, text in sources.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return lint_paths([str(root)], select=[rule_id], deep=True)


class TestReactorReachability:
    def test_transitively_blocking_call_found(self):
        findings = run_rule({
            "runtime/aio.py": (
                "from ..util import backoff\n\n"
                "class AioTransport:\n"
                "    def _pump(self):\n"
                "        backoff()\n"
            ),
            "util.py": (
                "import time\n\n"
                "def backoff():\n"
                "    time.sleep(0.1)\n"
            ),
        }, "async-discipline")
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message
        # the message names the chain from the reactor entry point
        assert "runtime.aio.AioTransport._pump -> util.backoff" in (
            findings[0].message
        )
        assert findings[0].path.endswith("util.py")

    def test_two_hop_chain(self):
        findings = run_rule({
            "runtime/aio.py": (
                "from ..util import a\n\n"
                "def pump():\n    a()\n"
            ),
            "util.py": (
                "import subprocess\n\n"
                "def a():\n    b()\n\n"
                "def b():\n    subprocess.run(['x'])\n"
            ),
        }, "async-discipline")
        assert len(findings) == 1
        assert "subprocess.run" in findings[0].message

    def test_unreached_blocking_code_is_silent(self):
        findings = run_rule({
            "runtime/aio.py": "def pump():\n    pass\n",
            "util.py": (
                "import time\n\ndef backoff():\n    time.sleep(0.1)\n"
            ),
        }, "async-discipline")
        assert findings == []

    def test_finding_inside_async_module_left_to_shallow_rule(self):
        findings = run_rule({
            "runtime/aio.py": (
                "import time\n\ndef pump():\n    time.sleep(0.1)\n"
            ),
        }, "async-discipline")
        # the per-module pass reports it; the call-graph pass does not
        # report it again
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_blocking_waits_written_in_reactor_are_reported(self, tmp_path):
        findings = deep_lint(tmp_path, {
            "runtime/aio.py": (
                "import os\nimport subprocess\n\n"
                "def pump(pid):\n"
                "    subprocess.run(['x'])\n"
                "    os.waitpid(pid, 0)\n"
            ),
        }, "async-discipline")
        assert [(f.line, f.message.split("(")[0]) for f in findings] == [
            (5, "subprocess.run"), (6, "os.waitpid"),
        ]

    def test_sleep_in_reactor_reported_once(self, tmp_path):
        findings = deep_lint(tmp_path, {
            "runtime/aio.py": (
                "import time\n\n"
                "class AioTransport:\n"
                "    def _pump(self):\n"
                "        self._settle()\n\n"
                "    def _settle(self):\n"
                "        time.sleep(0.1)\n"
            ),
        }, "async-discipline")
        assert [(f.line, f.rule_id) for f in findings] == [
            (8, "async-discipline")
        ]

    def test_subprocess_one_helper_away_reported_once(self, tmp_path):
        findings = deep_lint(tmp_path, {
            "runtime/aio.py": (
                "from ..util import spawn\n\n"
                "def pump():\n    spawn()\n"
            ),
            "util.py": (
                "import subprocess\n\n"
                "def spawn():\n    subprocess.run(['x'])\n"
            ),
        }, "async-discipline")
        assert len(findings) == 1
        assert findings[0].path.endswith("util.py")
        assert "runtime.aio.pump -> util.spawn" in findings[0].message


class TestWireEscape:
    def test_escape_via_helper_flagged_at_caller(self):
        findings = run_rule({
            "util.py": (
                "import struct\n\n"
                "def pack_header(x):\n"
                "    return struct.pack('<I', x)\n"
            ),
            "trainer.py": (
                "from .util import pack_header\n\n"
                "def send(x):\n"
                "    return pack_header(x)\n"
            ),
        }, "wire-format")
        assert any(
            "util.pack_header" in f.message and f.path.endswith("trainer.py")
            for f in findings
        )

    def test_private_wire_helper_call_flagged(self):
        findings = run_rule({
            "core/serialization.py": (
                "import struct\n\n"
                "def _raw(x):\n    return struct.pack('<I', x)\n\n"
                "def encode(x):\n    return _raw(x)\n"
            ),
            "trainer.py": (
                "from .core.serialization import _raw\n\n"
                "def sneak(x):\n    return _raw(x)\n"
            ),
        }, "wire-format")
        assert len(findings) == 1
        assert "bypasses the public codec API" in findings[0].message
        assert findings[0].path.endswith("trainer.py")

    def test_public_codec_api_call_is_sanctioned(self):
        findings = run_rule({
            "core/serialization.py": (
                "import struct\n\n"
                "def encode(x):\n    return struct.pack('<I', x)\n"
            ),
            "trainer.py": (
                "from .core.serialization import encode\n\n"
                "def send(x):\n    return encode(x)\n"
            ),
        }, "wire-format")
        assert findings == []


class TestSeedFlow:
    def test_unseeded_rng_flowing_into_runtime(self):
        findings = run_rule({
            "bench.py": (
                "import numpy as np\n"
                "from .runtime.faults import inject\n\n"
                "def main():\n"
                "    rng = np.random.default_rng()\n"
                "    inject(rng)\n"
            ),
            "runtime/faults.py": (
                "def inject(rng):\n    return rng.random()\n"
            ),
        }, "seed-flow")
        assert len(findings) == 1
        assert "unseeded RNG flows into runtime/faults.py" in (
            findings[0].message
        )
        assert findings[0].path.endswith("bench.py")

    def test_taint_through_returning_helper(self):
        findings = run_rule({
            "bench.py": (
                "import numpy as np\n"
                "from .core.quantizer import fit\n\n"
                "def make_rng():\n"
                "    return np.random.default_rng()\n\n"
                "def main():\n"
                "    r = make_rng()\n"
                "    fit(r)\n"
            ),
            "core/quantizer.py": "def fit(rng):\n    return rng\n",
        }, "seed-flow")
        assert len(findings) == 1

    def test_wall_clock_seed_is_tainted(self):
        findings = run_rule({
            "bench.py": (
                "import time\n"
                "import numpy as np\n"
                "from .core.quantizer import fit\n\n"
                "def main():\n"
                "    rng = np.random.default_rng(int(time.time()))\n"
                "    fit(rng)\n"
            ),
            "core/quantizer.py": "def fit(rng):\n    return rng\n",
        }, "seed-flow")
        # int(time.time()) wraps the wall clock in a cast; the direct
        # form time.time() is the pinned contract
        findings_direct = run_rule({
            "bench.py": (
                "import time\n"
                "import numpy as np\n"
                "from .core.quantizer import fit\n\n"
                "def main():\n"
                "    rng = np.random.default_rng(time.time_ns())\n"
                "    fit(rng)\n"
            ),
            "core/quantizer.py": "def fit(rng):\n    return rng\n",
        }, "seed-flow")
        assert len(findings_direct) == 1

    def test_seeded_rng_is_clean(self):
        findings = run_rule({
            "bench.py": (
                "import numpy as np\n"
                "from .core.quantizer import fit\n\n"
                "def main(seed):\n"
                "    fit(np.random.default_rng(seed))\n"
                "    fit(np.random.default_rng(42))\n"
            ),
            "core/quantizer.py": "def fit(rng):\n    return rng\n",
        }, "seed-flow")
        assert findings == []

    def test_rebinding_to_seeded_clears_taint(self):
        findings = run_rule({
            "bench.py": (
                "import numpy as np\n"
                "from .core.quantizer import fit\n\n"
                "def main():\n"
                "    rng = np.random.default_rng()\n"
                "    rng = np.random.default_rng(7)\n"
                "    fit(rng)\n"
            ),
            "core/quantizer.py": "def fit(rng):\n    return rng\n",
        }, "seed-flow")
        assert findings == []

    def test_branch_join_is_may_taint(self):
        findings = run_rule({
            "bench.py": (
                "import numpy as np\n"
                "from .core.quantizer import fit\n\n"
                "def main(flag):\n"
                "    if flag:\n"
                "        rng = np.random.default_rng(7)\n"
                "    else:\n"
                "        rng = np.random.default_rng()\n"
                "    fit(rng)\n"
            ),
            "core/quantizer.py": "def fit(rng):\n    return rng\n",
        }, "seed-flow")
        assert len(findings) == 1  # one branch taints => may-tainted


LOCK_CYCLE = (
    "import threading\n\n"
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


class TestLockOrder:
    def test_cyclic_lock_order_flagged(self):
        findings = run_rule(
            {"runtime/pool.py": LOCK_CYCLE}, "lock-order"
        )
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message
        assert "Pool.alpha" in findings[0].message
        assert "Pool.beta" in findings[0].message

    def test_cycle_through_call_edge(self):
        findings = run_rule({
            "runtime/pool.py": (
                "import threading\n\n"
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self.alpha = threading.Lock()\n"
                "        self.beta = threading.Lock()\n\n"
                "    def locked_beta(self):\n"
                "        with self.beta:\n"
                "            pass\n\n"
                "    def forward(self):\n"
                "        with self.alpha:\n"
                "            self.locked_beta()\n\n"
                "    def backward(self):\n"
                "        with self.beta:\n"
                "            with self.alpha:\n"
                "                pass\n"
            ),
        }, "lock-order")
        assert any("lock-order cycle" in f.message for f in findings)

    def test_consistent_order_is_clean(self):
        findings = run_rule({
            "runtime/pool.py": (
                "import threading\n\n"
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self.alpha = threading.Lock()\n"
                "        self.beta = threading.Lock()\n\n"
                "    def forward(self):\n"
                "        with self.alpha:\n"
                "            with self.beta:\n"
                "                pass\n\n"
                "    def also_forward(self):\n"
                "        with self.alpha:\n"
                "            with self.beta:\n"
                "                pass\n"
            ),
        }, "lock-order")
        assert findings == []

    def test_reentrant_self_edge_ignored(self):
        findings = run_rule({
            "runtime/pool.py": (
                "import threading\n\n"
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self.alpha = threading.RLock()\n\n"
                "    def f(self):\n"
                "        with self.alpha:\n"
                "            with self.alpha:\n"
                "                pass\n"
            ),
        }, "lock-order")
        assert findings == []

    def test_blocking_call_under_lock(self):
        findings = run_rule({
            "runtime/endpoint.py": (
                "import threading\n\n"
                "class Endpoint:\n"
                "    def __init__(self, sock):\n"
                "        self._lock = threading.Lock()\n"
                "        self._sock = sock\n\n"
                "    def send(self, frame):\n"
                "        with self._lock:\n"
                "            self._sock.sendall(frame)\n"
            ),
        }, "lock-order")
        assert len(findings) == 1
        assert "while holding Endpoint._lock" in findings[0].message

    def test_outside_lock_scope_ignored(self):
        # bench/ is outside LOCK_SCOPE_PREFIXES (runtime/ and, since
        # the live-ops plane, telemetry/ are in).
        findings = run_rule(
            {"bench/pool.py": LOCK_CYCLE}, "lock-order"
        )
        assert findings == []


class TestDeepNoqa:
    def test_justified_noqa_suppresses_deep_finding(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "runtime").mkdir(parents=True)
        (pkg / "runtime" / "endpoint.py").write_text(
            "import threading\n\n"
            "class Endpoint:\n"
            "    def __init__(self, sock):\n"
            "        self._lock = threading.Lock()\n"
            "        self._sock = sock\n\n"
            "    def send(self, frame):\n"
            "        with self._lock:\n"
            "            self._sock.sendall(frame)"
            "  # repro: noqa[lock-order] — serialises whole-frame writes\n"
        )
        findings = lint_paths([str(pkg)], select=["lock-order"], deep=True)
        assert findings == []
        # drop the noqa and the finding comes back
        (pkg / "runtime" / "endpoint.py").write_text(
            "import threading\n\n"
            "class Endpoint:\n"
            "    def __init__(self, sock):\n"
            "        self._lock = threading.Lock()\n"
            "        self._sock = sock\n\n"
            "    def send(self, frame):\n"
            "        with self._lock:\n"
            "            self._sock.sendall(frame)\n"
        )
        findings = lint_paths([str(pkg)], select=["lock-order"], deep=True)
        assert [f.rule_id for f in findings] == ["lock-order"]


class TestRealTree:
    def test_deep_rules_clean_on_src(self):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src", "repro",
        )
        findings, project = lint_tree([src], deep=True)
        assert findings == []
        # coverage sanity: the graph actually got built
        assert len(project.functions) > 500
        assert project.edge_count() > 500
