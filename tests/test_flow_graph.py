"""Call-graph hard cases: the resolutions FLOW6xx soundness rests on.

Each test builds a small program from source and asserts the edges
(or their documented absence — see the known-unsound getattr case at
the bottom).
"""

from pathlib import Path

from repro.flow.graph import build_graph_from_sources

REPO_ROOT = Path(__file__).resolve().parents[1]


def graph_of(text, path="pkg/mod.py"):
    return build_graph_from_sources([(path, text)])


def callee_texts(graph, qualname):
    return {site.callee_text for site in graph.callees(qualname)}


def targets_of(graph, qualname):
    out = set()
    for site in graph.callees(qualname):
        out.update(site.targets)
    return out


def test_decorated_function_keeps_identity_and_edges():
    graph = graph_of(
        "import functools\n"
        "def deco(fn):\n"
        "    @functools.wraps(fn)\n"
        "    def inner(*a, **k):\n"
        "        return fn(*a, **k)\n"
        "    return inner\n"
        "@deco\n"
        "def leaf():\n"
        "    return 1\n"
        "def caller():\n"
        "    return leaf()\n"
    )
    assert "mod.leaf" in graph.functions
    assert "mod.leaf" in targets_of(graph, "mod.caller")


def test_bound_method_call_resolves_via_annotation_and_constructor():
    graph = graph_of(
        "class Cache:\n"
        "    def observe(self, item):\n"
        "        return item\n"
        "def from_annotation(cache: Cache):\n"
        "    return cache.observe(1)\n"
        "def from_constructor():\n"
        "    cache = Cache()\n"
        "    return cache.observe(2)\n"
    )
    method = "mod.Cache.observe"
    assert method in targets_of(graph, "mod.from_annotation")
    assert method in targets_of(graph, "mod.from_constructor")


def test_subclass_method_dispatch_is_cha():
    graph = graph_of(
        "class Base:\n"
        "    def allocate(self):\n"
        "        return 0\n"
        "class Derived(Base):\n"
        "    def allocate(self):\n"
        "        return 1\n"
        "def drive(allocator: Base):\n"
        "    return allocator.allocate()\n"
    )
    targets = targets_of(graph, "mod.drive")
    assert "mod.Base.allocate" in targets
    assert "mod.Derived.allocate" in targets


def test_super_call_resolves_to_base_chain():
    graph = graph_of(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "class B(A):\n"
        "    pass\n"
        "class C(B):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
    )
    assert "mod.A.__init__" in targets_of(
        graph, "mod.C.__init__")


def test_functools_partial_creates_edge_to_wrapped():
    graph = graph_of(
        "import functools\n"
        "def job(params, rng):\n"
        "    return params\n"
        "def build():\n"
        "    return functools.partial(job, {})\n"
    )
    assert "mod.job" in targets_of(graph, "mod.build")


def test_dict_registry_of_callables_yields_callback_edges():
    graph = graph_of(
        "def fig5():\n"
        "    return 5\n"
        "def steady():\n"
        "    return 6\n"
        "HANDLERS = {'fig5': fig5, 'steady': steady}\n"
        "def dispatch(name):\n"
        "    return HANDLERS[name]()\n"
    )
    targets = targets_of(graph, "mod.dispatch")
    assert {"mod.fig5", "mod.steady"} <= targets


def test_known_unsound_getattr_dispatch_is_unresolved():
    """Documented soundness boundary: ``getattr(obj, name)()`` is not
    resolved — no string-keyed reflection in the graph, so a draw
    reached only through such an edge is not checked."""
    graph = graph_of(
        "class Tool:\n"
        "    def run(self):\n"
        "        return 1\n"
        "def reflect(tool: Tool, name):\n"
        "    return getattr(tool, name)()\n"
    )
    assert "mod.Tool.run" not in targets_of(graph,
                                                "mod.reflect")


def test_real_tree_graph_is_substantial():
    graph_paths = [str(REPO_ROOT / "src")]
    from repro.flow.graph import build_graph

    graph = build_graph(graph_paths)
    assert len(graph.functions) > 500
