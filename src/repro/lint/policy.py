"""Which modules each scoped rule applies to.

Paths are posix-style and relative to the ``repro`` package root
(``ModuleSource.relpath``), so the policy is independent of where the
package is installed.  Keep these lists in sync with
``docs/static_analysis.md`` when modules are added, renamed or
removed.
"""

from __future__ import annotations

__all__ = [
    "VECTORISED_MODULES",
    "DTYPE_STRICT_MODULES",
    "WIRE_MODULES",
    "ASYNC_MODULES",
    "CORE_PREFIXES",
    "HOT_PATH_PREFIXES",
    "ENDIANNESS_PREFIXES",
    "LOCK_SCOPE_PREFIXES",
    "SEED_SCOPE_PREFIXES",
    "is_core_or_sketch",
    "is_endianness_scoped",
    "is_seed_scoped",
    "is_lock_scoped",
    "all_policy_relpaths",
    "verify_policy",
    "PolicyError",
]

#: The codec kernel modules, which must stay free of Python-level
#: loops over array elements (``hot-loop`` rule).
VECTORISED_MODULES = frozenset(
    {
        "core/minmax_sketch.py",
        "core/delta_encoding.py",
        "core/quantizer.py",
        "sketch/hashing.py",
        "core/bitpack.py",
        "core/entropy.py",
        "core/rice.py",
    }
)

#: Modules where every array constructor must pin its dtype — the
#: uint64 hash grid and the wire codecs, where a silent float64/object
#: upcast breaks bit-exactness (``dtype-discipline`` rule).
DTYPE_STRICT_MODULES = VECTORISED_MODULES

#: The only modules allowed to touch byte-format primitives
#: (``struct``, ``np.frombuffer``, ``.tobytes()``) — everything else
#: must go through these codecs (``wire-format`` rule).
WIRE_MODULES = frozenset(
    {
        "core/serialization.py",
        "core/delta_encoding.py",
        "core/bitpack.py",
        "core/entropy.py",
        "core/rice.py",
        "compression/lossless.py",
        "golden.py",
        "runtime/framing.py",
    }
)

#: Modules that run inside an event loop and therefore may never make
#: a call that blocks the reactor: no blocking socket reads/writes, no
#: ``time.sleep``, no blocking ``queue.Queue`` operations.  The only
#: sanctioned wait is ``selector.select(timeout)``
#: (``async-discipline`` rule).  ``fleet/simulator.py`` is scoped in
#: because it runs in *virtual* time by contract: a sleep or socket
#: call there would silently turn the replay engine into wall-clock
#: code.
ASYNC_MODULES = frozenset({"runtime/aio.py", "fleet/simulator.py"})

#: Package prefixes that make up the paper-facing codec surface.
CORE_PREFIXES = ("core/", "sketch/")

#: Package prefixes on the performance-sensitive path — the codec, the
#: sketches, the runtime, and the trainer loop.  These may not print or
#: log to stdio; observability goes through ``repro.telemetry``
#: (``telemetry-discipline`` rule).
HOT_PATH_PREFIXES = CORE_PREFIXES + (
    "compression/",
    "runtime/",
    "distributed/",
    "fleet/",
)

#: Package prefixes (beyond :data:`WIRE_MODULES`) whose dtype usage must
#: pin byte order: the telemetry flight recorder's files are merged
#: across machines, so any binary encoding it ever grows must be
#: host-order independent (``wire-endianness`` rule).
ENDIANNESS_PREFIXES = ("telemetry/",)


#: Package prefixes whose lock acquisitions feed the interprocedural
#: ``lock-order`` deadlock analysis: the execution layer, where driver
#: and worker threads share transports, supervisors, and cluster state,
#: and the telemetry layer, where the metrics hub and recorder are
#: mutated from trainer, supervisor, and exporter HTTP threads at once.
LOCK_SCOPE_PREFIXES = ("runtime/", "telemetry/")

#: Package prefixes where every ``np.random.Generator`` /
#: ``random.Random`` reaching the code must descend from a *seeded*
#: constructor (``seed-flow`` rule) — the static twin of the
#: fixed-seed bit-identity tests: the codec, the sketches, the
#: compressors, the runtime (including fault injection), and the fleet
#: subsystem (membership churn, the stale-mode virtual clock, and the
#: replay simulator are all seeded by contract).
SEED_SCOPE_PREFIXES = (
    "core/",
    "sketch/",
    "compression/",
    "runtime/",
    "fleet/",
)


def is_core_or_sketch(relpath: str) -> bool:
    """True for modules on the paper-facing codec surface."""
    return relpath.startswith(CORE_PREFIXES)


def is_endianness_scoped(relpath: str) -> bool:
    """True for modules the ``wire-endianness`` rule applies to."""
    return relpath in WIRE_MODULES or relpath.startswith(ENDIANNESS_PREFIXES)


def is_seed_scoped(relpath: str) -> bool:
    """True for modules the ``seed-flow`` rule protects."""
    return relpath.startswith(SEED_SCOPE_PREFIXES)


def is_lock_scoped(relpath: str) -> bool:
    """True for modules the ``lock-order`` rule analyses."""
    return relpath.startswith(LOCK_SCOPE_PREFIXES)


class PolicyError(RuntimeError):
    """A policy module list names a file that does not exist.

    Raised by :func:`verify_policy` so a renamed module can no longer
    silently drop out of rule scope (the rule would keep "passing" on a
    path that matches nothing).
    """


def all_policy_relpaths() -> "frozenset[str]":
    """Every explicit module relpath named by a policy list."""
    return frozenset(
        VECTORISED_MODULES
        | DTYPE_STRICT_MODULES
        | WIRE_MODULES
        | ASYNC_MODULES
    )


def verify_policy(package_root: str = None) -> "list[str]":
    """Check that every listed relpath exists; return the missing ones.

    ``package_root`` defaults to the installed ``repro`` package
    directory.  ``repro lint`` calls this at startup and refuses to run
    when a policy list names a file that is gone — a rename must update
    the policy (and ``docs/static_analysis.md``), not quietly shrink a
    rule's scope to nothing.
    """
    import os

    if package_root is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    missing = [
        relpath
        for relpath in sorted(all_policy_relpaths())
        if not os.path.isfile(os.path.join(package_root, *relpath.split("/")))
    ]
    return missing
