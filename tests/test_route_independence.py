"""The two routes that each ``verify`` comparison sets against each other
share no code, outside an explicit allowlist.

A name-level call graph of ``src/spinor_s3`` is built with ``ast``.  Its
nodes are module-level names (functions, classes, constants) and methods.
In a body, a bare name resolves to its module's own definition or to the
one it imports with ``from .module import``; ``module.name`` resolves in
that module; ``Class.attr`` in the class and its bases, and
``super().attr`` in the bases of the enclosing class; any other ``x.attr``
to every method named ``attr``, which over-approximates.  Calling a class
reaches its constructor.  Annotations are not references, and operator
syntax (``a + b``) is not followed: by name, an int ``+`` cannot be told
from a vector's.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import spinor_s3

PACKAGE = Path(spinor_s3.__file__).parent
CONSTRUCTORS = ("__new__", "__init__", "__post_init__")

#: (the check that compares them, entry points of one route, of the other).
ROUTE_PAIRS = (
    ("transfer: closed form = recursive",
     {"transfer.transfer_table"}, {"transfer.recursive_table"}),
    ("quadratic: closed Dbar = first principles",
     {"abstract_dirac.dbar_block_int"}, {"abstract_dirac.dbar_apply_first_principles"}),
    ("quadratic: spectrum two ways",
     {"linalg.charpoly_int", "linalg.rank_sparse"},
     {"linalg.charpoly_from_roots", "abstract_dirac.eigenbasis_abstract"}),
    ("integral: tensor rule vs exact",
     {"geometry.monomial_integral"}, {"verify.tensor_quadrature"}),
    ("integral: monte carlo vs exact",
     {"geometry.monomial_integral"}, {"verify.monte_carlo_quadrature"}),
)

#: What two routes may share, each with why sharing it cannot make both
#: routes wrong in the same way.
_SPACE_FIELD = ("reads one field of a vector's space, reached by name from "
                "every .k: it computes nothing")
ALLOWED = {
    "exactnum.GaussParts._of":
        "the raw vector constructor: it stores the parts it is given and "
        "computes nothing",
    "exactnum.reduce_parts":
        "canonical form of Gaussian-integer parts, which keeps their value; "
        "tier-1 checks it on its own against the Fraction references in "
        "tests/vector_reference.py and tests/fraction_reference.py",
    "polyring.Z_VIEW": "the name of a coordinate view, a string constant",
    "repspace.KetVector.k": _SPACE_FIELD,
    "abstract_dirac.SpinorVector.k": _SPACE_FIELD,
    "exactnum.Record.__init__":
        "the record constructor (transfer.TransferImage's, and geometry."
        "KillingPair's for the lowering fields): it stores the field values "
        "it is given and computes nothing",
    "exactnum.Record.__setattr__":
        "reached only because object.__setattr__ in Record.__init__ resolves "
        "by name to every __setattr__; it raises and computes nothing",
    "transfer._check_indices":
        "refuses a negative k with ValueError and (p, q) outside 0..k with "
        "IndexError, and computes nothing",
}


def _strip_annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    return tree


def call_graph() -> dict[str, set[str]]:
    """Node -> the nodes its body names, for every node of the package."""
    trees = {path.stem: _strip_annotations(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    bodies = {}                   # node -> (module, AST nodes whose names it uses)
    scope = defaultdict(dict)     # module -> {bound name: node}
    aliases = defaultdict(dict)   # module -> {bound name: module}
    bases = {}                    # class node -> its base-class names
    methods = defaultdict(set)    # method name -> method nodes
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    bound = alias.asname or alias.name
                    if stmt.module:
                        scope[mod][bound] = f"{stmt.module}.{alias.name}"
                    else:
                        aliases[mod][bound] = alias.name
            elif isinstance(stmt, ast.FunctionDef):
                scope[mod][stmt.name] = node = f"{mod}.{stmt.name}"
                bodies[node] = (mod, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                scope[mod][stmt.name] = cls = f"{mod}.{stmt.name}"
                bases[cls] = [b.id for b in stmt.bases if isinstance(b, ast.Name)]
                bodies[cls] = (mod, [])
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        node = f"{cls}.{item.name}"
                        bodies[node] = (mod, [item])
                        methods[item.name].add(node)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope[mod][target.id] = node = f"{mod}.{target.id}"
                        bodies[node] = (mod, [stmt.value])

    def lookup(cls: str, attr: str) -> set[str]:
        """``cls.attr``, searched in the class, then in its bases."""
        if f"{cls}.{attr}" in bodies:
            return {f"{cls}.{attr}"}
        mod = cls.rsplit(".", 1)[0]
        found = set()
        for base in bases[cls]:
            if scope[mod].get(base) in bases:
                found |= lookup(scope[mod][base], attr)
        return found

    graph = {}
    for node, (mod, roots) in bodies.items():
        edges = set()
        if node in bases:
            for name in CONSTRUCTORS:
                edges |= lookup(node, name)
        enclosing = node.rsplit(".", 1)[0]
        owners = set()  # the Name nodes read as a module or class owner
        for ref in (sub for root in roots for sub in ast.walk(root)):
            if not isinstance(ref, ast.Attribute):
                continue
            owner = ref.value
            if isinstance(owner, ast.Name) and owner.id in aliases[mod]:
                edges.add(f"{aliases[mod][owner.id]}.{ref.attr}")
                owners.add(owner)
            elif isinstance(owner, ast.Name) and scope[mod].get(owner.id) in bases:
                edges |= lookup(scope[mod][owner.id], ref.attr)
                owners.add(owner)
            elif (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                  and owner.func.id == "super" and enclosing in bases):
                for base in bases[enclosing]:
                    if scope[mod].get(base) in bases:
                        edges |= lookup(scope[mod][base], ref.attr)
            else:
                edges |= methods[ref.attr]
        for ref in (sub for root in roots for sub in ast.walk(root)):
            if isinstance(ref, ast.Name) and ref.id in scope[mod] and ref not in owners:
                edges.add(scope[mod][ref.id])
        graph[node] = {e for e in edges if e in bodies}
    return graph


GRAPH = call_graph()


def closure(graph: dict[str, set[str]], roots: set[str]) -> set[str]:
    """Every node reachable from ``roots``, the roots included."""
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph[node])
    return seen


def shared(graph, a, b) -> set[str]:
    return closure(graph, a) & closure(graph, b)


@pytest.mark.parametrize("check, a, b", ROUTE_PAIRS, ids=[c for c, _, _ in ROUTE_PAIRS])
def test_route_pairs_share_only_allowlisted_code(check, a, b):
    assert a | b <= GRAPH.keys(), "a route entry point is not defined"
    assert shared(GRAPH, a, b) <= ALLOWED.keys(), check


def test_route_entry_points_run_in_verify():
    # a route declared on code that verify never runs guards nothing
    ran = closure(GRAPH, {"verify.run_suites"})
    for check, a, b in ROUTE_PAIRS:
        assert a | b <= ran, check


def test_allowlist_is_used_and_explained():
    used = set().union(*(shared(GRAPH, a, b) for _, a, b in ROUTE_PAIRS))
    assert ALLOWED.keys() <= used, "an allowlist entry that no pair shares"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_laplace_suite_builds_no_eigenbasis():
    # it checks the images, so no family and no eigensection enters it
    ran = closure(GRAPH, {"verify._check_laplace_k"})
    assert "transfer.transfer_table" in ran
    assert not ran & {"transfer.transfer_eigenbasis", "transfer.transfer_slice",
                      "abstract_dirac.eigenbasis_abstract"}


#: The Laplace operator's table and the table algebra that builds and runs it.
LAPLACE_TABLES = frozenset({
    "geometry._laplace_block", "geometry._field_weights", "geometry._combine",
    "geometry._compose", "geometry._compile", "geometry._table", "geometry._apply",
})


def laplace_route_overlap(graph) -> set[str]:
    """What ties the Laplace operator to the flat Laplacian: laplacian_r4
    reached from laplace_section, and the Laplace table or the table
    algebra reached from laplacian_r4."""
    overlap = closure(graph, {"geometry.laplace_section"}) & {"polyring.laplacian_r4"}
    return overlap | (closure(graph, {"polyring.laplacian_r4"}) & LAPLACE_TABLES)


def test_laplace_is_not_built_from_the_flat_laplacian():
    # built from sum_i l_i l_i = r^2 Delta_R4 - k(k+2), the laplace
    # eigenvalue check would restate the transfer suite's harmonicity
    # check; that identity is a test oracle (test_operator_tables.py) only
    assert not laplace_route_overlap(GRAPH)
    assert LAPLACE_TABLES <= closure(GRAPH, {"geometry.laplace_section"})
    merged = {**GRAPH, "geometry._laplace_block":
              GRAPH["geometry._laplace_block"] | {"polyring.laplacian_r4"}}
    assert laplace_route_overlap(merged) == {"polyring.laplacian_r4"}
    # nor may the flat Laplacian run on the interpreter
    merged = {**GRAPH, "polyring.laplacian_r4":
              GRAPH["polyring.laplacian_r4"] | {"geometry._apply"}}
    assert laplace_route_overlap(merged) == {"geometry._apply"}


#: What builds an operator from the frame fields, and compiles or runs it.
FRAME_ROUTE = frozenset({
    "geometry._field_weights", "geometry._field_matrix_int", "geometry.KillingPair",
    "geometry._combine", "geometry._compose", "geometry._table", "geometry._compile",
    "geometry._apply", "geometry._lower",
})

#: The runtime operators, none of which may run Delta_R4's weights.
RUNNERS = frozenset({"geometry.dirac_section", "geometry.laplace_section", "geometry._lower",
                     "transfer.recursive_table"})


def flat_laplacian_overlap(graph) -> set[str]:
    """What ties Delta_R4's weights to the frame-field operators: the frame
    route reached from them, and them or ``_OPERATORS`` reached from a
    runner."""
    overlap = closure(graph, {"geometry._flat_laplacian_weights"}) & FRAME_ROUTE
    return overlap | (closure(graph, RUNNERS)
                      & {"geometry._flat_laplacian_weights", "geometry._OPERATORS"})


def test_the_flat_laplacian_weights_are_built_apart_from_the_frame_fields():
    # harmonicity reads [beta, Delta_R4] = 0: read off the frame fields,
    # Delta_R4 would be checked against what it was built from
    assert closure(GRAPH, {"geometry._flat_laplacian_weights"}) == {
        "geometry._flat_laplacian_weights", "exactnum.reduce_parts", "polyring._LAPLACIAN"}
    assert not flat_laplacian_overlap(GRAPH)
    # the controls: Delta_R4 from a frame field, and a runner through the
    # identities' table, which reaches every builder
    merged = {**GRAPH, "geometry._flat_laplacian_weights":
              GRAPH["geometry._flat_laplacian_weights"] | {"geometry._field_weights"}}
    assert "geometry._field_weights" in flat_laplacian_overlap(merged)
    merged = {**GRAPH, "geometry._laplace_block":
              GRAPH["geometry._laplace_block"] | {"geometry._OPERATORS"}}
    assert flat_laplacian_overlap(merged) == {"geometry._OPERATORS",
                                              "geometry._flat_laplacian_weights"}


def test_the_graph_sees_a_merged_route():
    # recursive_table calling the closed form it is compared against
    graph = {**GRAPH, "transfer.recursive_table":
             GRAPH["transfer.recursive_table"] | {"transfer.iso_closed_form"}}
    assert "transfer.iso_closed_form" in shared(
        graph, {"transfer.transfer_table"}, {"transfer.recursive_table"})
    # the resolution itself: a function, a method inherited through its
    # class's name, a method by name, a module attribute and a constructor
    assert "geometry._lower" in GRAPH["transfer.recursive_table"]
    assert "exactnum.GaussParts._of" in GRAPH["geometry._lower"]
    assert "polyring.Polynomial.in_view" in GRAPH["transfer.beta_lower"]
    assert "linalg.rank_sparse" in GRAPH["verify._check_quadratic_k"]
    assert "repspace.KetVector.__init__" in GRAPH["repspace.KetVector"]
