"""Unit tests for the project call-graph builder.

Synthetic module trees are fed through
``build_project_from_sources({relpath: source})`` — the same entry the
call-graph checks use — so every resolution feature (aliased imports,
``from x import y as z``, relative imports, re-exports, method lookup
through the MRO, subclass override dispatch, recursion, cycles) is
pinned by a small readable fixture.  A hypothesis test checks the
semantic property the reachability rules rely on: adding edges never
shrinks a reachable set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.callgraph import (
    Project,
    build_project_from_sources,
    module_name_for_relpath,
)


def edges_of(project):
    return {
        (src, dst)
        for src, targets in project.edges.items()
        for dst in targets
    }


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_for_relpath("runtime/aio.py") == "repro.runtime.aio"

    def test_top_level(self):
        assert module_name_for_relpath("cli.py") == "repro.cli"

    def test_package_init_collapses(self):
        assert module_name_for_relpath("core/__init__.py") == "repro.core"

    def test_root_init(self):
        assert module_name_for_relpath("__init__.py") == "repro"


class TestImportResolution:
    def test_plain_function_call(self):
        project = build_project_from_sources({
            "a.py": "def f():\n    g()\n\ndef g():\n    pass\n",
        })
        assert ("repro.a.f", "repro.a.g") in edges_of(project)

    def test_from_import(self):
        project = build_project_from_sources({
            "a.py": "def helper():\n    pass\n",
            "b.py": "from .a import helper\n\ndef f():\n    helper()\n",
        })
        assert ("repro.b.f", "repro.a.helper") in edges_of(project)

    def test_from_import_as_alias(self):
        project = build_project_from_sources({
            "a.py": "def helper():\n    pass\n",
            "b.py": "from .a import helper as h\n\ndef f():\n    h()\n",
        })
        assert ("repro.b.f", "repro.a.helper") in edges_of(project)

    def test_module_import_alias(self):
        project = build_project_from_sources({
            "pkg/a.py": "def helper():\n    pass\n",
            "b.py": (
                "import repro.pkg.a as aa\n\ndef f():\n    aa.helper()\n"
            ),
        })
        assert ("repro.b.f", "repro.pkg.a.helper") in edges_of(project)

    def test_relative_parent_import(self):
        project = build_project_from_sources({
            "util.py": "def helper():\n    pass\n",
            "pkg/b.py": (
                "from ..util import helper\n\ndef f():\n    helper()\n"
            ),
        })
        assert ("repro.pkg.b.f", "repro.util.helper") in edges_of(project)

    def test_reexport_through_package_init(self):
        project = build_project_from_sources({
            "pkg/__init__.py": "from .impl import helper\n",
            "pkg/impl.py": "def helper():\n    pass\n",
            "b.py": (
                "from . import pkg\n\ndef f():\n    pkg.helper()\n"
            ),
        })
        assert ("repro.b.f", "repro.pkg.impl.helper") in edges_of(project)

    def test_external_call_recorded_not_edged(self):
        project = build_project_from_sources({
            "a.py": "import time\n\ndef f():\n    time.sleep(1)\n",
        })
        assert edges_of(project) == set()
        fn = project.functions["repro.a.f"]
        externals = [s.external for s in fn.call_sites if s.external]
        assert "time.sleep" in externals


class TestMethodResolution:
    def test_self_call(self):
        project = build_project_from_sources({
            "a.py": (
                "class C:\n"
                "    def f(self):\n        self.g()\n"
                "    def g(self):\n        pass\n"
            ),
        })
        assert ("repro.a.C.f", "repro.a.C.g") in edges_of(project)

    def test_inherited_method_via_mro(self):
        project = build_project_from_sources({
            "a.py": (
                "class Base:\n"
                "    def g(self):\n        pass\n"
                "class C(Base):\n"
                "    def f(self):\n        self.g()\n"
            ),
        })
        assert ("repro.a.C.f", "repro.a.Base.g") in edges_of(project)

    def test_subclass_override_dispatch(self):
        # A call through a base-typed parameter must include every
        # project override, or reachability through ABCs is unsound.
        project = build_project_from_sources({
            "a.py": (
                "class Base:\n"
                "    def g(self):\n        pass\n"
                "class Sub(Base):\n"
                "    def g(self):\n        pass\n"
                "def f(x: Base):\n    x.g()\n"
            ),
        })
        e = edges_of(project)
        assert ("repro.a.f", "repro.a.Base.g") in e
        assert ("repro.a.f", "repro.a.Sub.g") in e

    def test_attr_type_from_constructor_assignment(self):
        project = build_project_from_sources({
            "a.py": (
                "class Helper:\n"
                "    def g(self):\n        pass\n"
                "class C:\n"
                "    def __init__(self):\n        self.h = Helper()\n"
                "    def f(self):\n        self.h.g()\n"
            ),
        })
        assert ("repro.a.C.f", "repro.a.Helper.g") in edges_of(project)

    def test_constructor_edge_to_init(self):
        project = build_project_from_sources({
            "a.py": (
                "class C:\n"
                "    def __init__(self):\n        pass\n"
                "def f():\n    C()\n"
            ),
        })
        assert ("repro.a.f", "repro.a.C.__init__") in edges_of(project)

    def test_super_call(self):
        project = build_project_from_sources({
            "a.py": (
                "class Base:\n"
                "    def f(self):\n        pass\n"
                "class C(Base):\n"
                "    def f(self):\n        super().f()\n"
            ),
        })
        assert ("repro.a.C.f", "repro.a.Base.f") in edges_of(project)


class TestBlindSpots:
    def test_unresolved_receiver_is_reported(self):
        project = build_project_from_sources({
            "a.py": (
                "def f(conn):\n    conn.execute()\n"
            ),
        })
        fn = project.functions["repro.a.f"]
        assert any(s.method == "execute" for s in fn.call_sites)
        assert any(
            b.caller == "repro.a.f" and b.line == 2
            for b in project.blind_spots
        )

    def test_callable_parameter_is_reported(self):
        project = build_project_from_sources({
            "a.py": "def f(callback):\n    callback()\n",
        })
        assert any(
            "function-valued parameter" in b.receiver
            for b in project.blind_spots
        )


class TestReachability:
    def test_recursion_terminates(self):
        project = build_project_from_sources({
            "a.py": "def f():\n    f()\n",
        })
        assert project.reachable(["repro.a.f"]) == {"repro.a.f"}

    def test_mutual_cycle(self):
        project = build_project_from_sources({
            "a.py": (
                "def f():\n    g()\n\ndef g():\n    f()\n\n"
                "def lonely():\n    pass\n"
            ),
        })
        reach = project.reachable(["repro.a.f"])
        assert reach == {"repro.a.f", "repro.a.g"}

    def test_class_cycle_in_bases_terminates(self):
        # Pathological but must not hang: A(B) and B(A).
        project = build_project_from_sources({
            "a.py": (
                "class A(B):\n    def f(self):\n        self.g()\n"
                "class B(A):\n    def g(self):\n        pass\n"
            ),
        })
        assert ("repro.a.A.f", "repro.a.B.g") in edges_of(project)

    def test_call_path_is_shortest(self):
        project = build_project_from_sources({
            "a.py": (
                "def root():\n    mid()\n    leaf()\n\n"
                "def mid():\n    leaf()\n\n"
                "def leaf():\n    pass\n"
            ),
        })
        path = project.call_path(["repro.a.root"], "repro.a.leaf")
        assert path == ["repro.a.root", "repro.a.leaf"]

    def test_module_body_owns_import_time_calls(self):
        project = build_project_from_sources({
            "a.py": (
                "def setup():\n    pass\n\nsetup()\n"
            ),
        })
        assert (
            "repro.a.<module>", "repro.a.setup"
        ) in edges_of(project)
        # calls inside def bodies do NOT belong to the module body
        project2 = build_project_from_sources({
            "a.py": "def f():\n    g()\n\ndef g():\n    pass\n",
        })
        body = project2.functions["repro.a.<module>"]
        assert body.call_sites == []


# ----------------------------------------------------------------------
# reachability is monotone under adding edges
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=12),
    base_edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
        ),
        max_size=30,
    ),
    extra_edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
        ),
        min_size=1,
        max_size=10,
    ),
    root=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=60, deadline=None)
def test_reachability_monotone_under_adding_edges(
    n, base_edges, extra_edges, root
):
    def make_project(edges):
        project = Project()
        # reachable() only needs functions + edges; build them directly
        # (the names are what build_project would produce for a module
        # of n functions).
        names = [f"repro.m.f{i}" for i in range(n)]
        for name in names:
            project.functions[name] = object()  # presence is all that counts
        for a, b in edges:
            if a < n and b < n:
                project.edges.setdefault(names[a], set()).add(names[b])
        return project, names

    small, names = make_project(base_edges)
    big, _ = make_project(base_edges + extra_edges)
    r = names[root % n]
    assert small.reachable([r]) <= big.reachable([r])
