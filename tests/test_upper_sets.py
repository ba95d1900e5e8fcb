import ast
import collections
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
from oracles import (TrivialUpperSet, admits_proper_superset, checked,
                     enumerate_classes_window, i_contains, j_of_upper,
                     orbit_size_elementwise)
from stacktilt import stacky_geom as sg, upper_sets as us
from stacktilt.errors import NotAntichain, NotMinimal


def _poset(ctx):
    return us.GroupPoset(ctx)


def _mk(ctx, values):
    return [ctx.group.canonicalize([v] if isinstance(v, int) else list(v))
            for v in values]


def test_j_of_upper_examples(ctx_p23, make_pd):
    poset = _poset(ctx_p23)
    z = ctx_p23.group
    j = j_of_upper(poset, _mk(ctx_p23, [0, 1]))
    assert [e.coords[0] for e in j.elements] == [0, 1, 2, 3, 4]
    j0 = j_of_upper(poset, _mk(ctx_p23, [0]))
    assert [e.coords[0] for e in j0.elements] == [0, 2, 3, 4, 6]
    ctx = make_pd(3)
    jp = j_of_upper(_poset(ctx), [ctx.group.zero()])
    assert [e.coords[0] for e in jp.elements] == [0, 1, 2, 3]
    with pytest.raises(TrivialUpperSet):
        j_of_upper(poset, [])


def test_i_contains(ctx_p23):
    poset = _poset(ctx_p23)
    j1 = checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    z = ctx_p23.group
    assert i_contains(j1, z.canonicalize([7]))
    assert not i_contains(j1, z.canonicalize([-1]))
    j2 = checked(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert not i_contains(j2, z.canonicalize([1]))


def test_is_antichain_rep(ctx_p23):
    poset = _poset(ctx_p23)
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    assert ok and wit is None
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3, 9]))
    assert not ok and wit["reason"] == "antichain"
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3]))
    assert not ok and wit["reason"] == "missing_fiber"
    # 0 and 5 lie over one fiber of G/Zp, p = 5
    ok, wit = us.is_antichain_rep(poset, _mk(ctx_p23, [0, 1, 2, 3, 5]))
    assert not ok and wit["reason"] == "duplicate_fiber"
    assert wit["elements"] == [[0], [5]]


def test_mutable_and_mutate(ctx_p23, make_pd):
    poset = _poset(ctx_p23)
    j1 = checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    assert sorted(e.coords[0] for e in us.mutable_elements(j1)) == [0, 1]
    j2 = checked(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert [e.coords[0] for e in us.mutable_elements(j2)] == [0]

    ctx1 = make_pd(1)
    p1 = _poset(ctx1)
    jp = checked(p1, _mk(ctx1, [0, 1]))
    assert [e.coords[0] for e in us.mutable_elements(jp)] == [0]
    mut = us.mutate(jp, ctx1.group.zero())
    assert [e.coords[0] for e in mut.elements] == [1, 2]

    m0 = us.mutate(j1, ctx_p23.group.zero())
    assert [e.coords[0] for e in m0.elements] == [1, 2, 3, 4, 5]
    with pytest.raises(NotMinimal):
        us.mutate(j1, ctx_p23.group.canonicalize([2]))


def test_mutate_inverse_identity(ctx_p23, ctx_zz2_d1):
    for ctx in (ctx_p23, ctx_zz2_d1):
        poset = _poset(ctx)
        rep = us.seed_slab(poset)
        for m in us.mutable_elements(rep):
            shifted = us.mutate(rep, m)
            back = us.mutate_up(shifted, poset.shift(m, 1))
            assert back.key() == rep.key()


def test_canonical_form(ctx_p23):
    poset = _poset(ctx_p23)
    rep = us.AntichainRep(poset, _mk(ctx_p23, [1, 2, 3, 4, 5]))
    assert [e.coords[0] for e in us.canonical_form(rep, "full").elements] \
        == [0, 1, 2, 3, 4]
    rep = us.AntichainRep(poset, _mk(ctx_p23, [5, 6, 7, 8, 9]))
    assert [e.coords[0] for e in us.canonical_form(rep, "zp").elements] \
        == [0, 1, 2, 3, 4]
    rep = us.AntichainRep(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert us.canonical_form(rep, "full").key() == rep.key()


def test_enumerate_classes_counts(ctx_p23, ctx_zz2_d1, make_pd):
    assert len(us.enumerate_classes(_poset(ctx_p23), "full")) == 2
    assert len(us.enumerate_classes(_poset(ctx_zz2_d1), "full")) == 2
    for d in (1, 2, 3):
        assert len(us.enumerate_classes(_poset(make_pd(d)), "full")) == 1


def test_enumerate_matches_window_oracle(ctx_p23, ctx_zz2_d1, ctx_zz2_d2,
                                         make_pd):
    for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2)):
        poset = _poset(ctx)
        for mode in ("full", "zp"):
            bfs = [r.key() for r in us.enumerate_classes(poset, mode)]
            window = [r.key() for r in
                      enumerate_classes_window(poset, mode, window=4)]
            assert bfs == window


def test_bijectivity_round_trips(ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd):
    # J(I(J)) == J on every enumerated class; I(J(I)) == I on generated uppers
    for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2)):
        poset = _poset(ctx)
        for rep in us.enumerate_classes(poset, "zp"):
            gens = us.mutable_elements(rep)
            again = j_of_upper(poset, gens)
            assert again.key() == rep.key()
    poset = _poset(ctx_p23)
    z = ctx_p23.group
    for gens in ([0], [0, 1], [0, 1, 5]):
        gen_els = _mk(ctx_p23, gens)
        j = j_of_upper(poset, gen_els)
        for v in range(-10, 15):
            e = z.canonicalize([v])
            in_i = any(ctx_p23.leq(g, e) for g in gen_els)
            assert i_contains(j, e) == in_i


def test_maximality_for_free(ctx_p23, ctx_zz2_d1):
    for ctx in (ctx_p23, ctx_zz2_d1):
        poset = _poset(ctx)
        for rep in us.enumerate_classes(poset, "zp"):
            assert len(rep.elements) == len(poset.fibers)
            assert not admits_proper_superset(rep, window=3)


def test_connect(ctx_p23, make_pd):
    poset = _poset(ctx_p23)
    j1 = checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 4]))
    j2 = checked(poset, _mk(ctx_p23, [0, 2, 3, 4, 6]))
    assert us.connect(j1, j2, mode="full") == [((3,), -1)]
    assert us.connect(j2, j1, mode="full") == [((1,), -1)]
    assert us.connect(j1, j1, mode="full") == []
    ctx1 = make_pd(1)
    p1 = _poset(ctx1)
    a = checked(p1, _mk(ctx1, [0, 1]))
    b = checked(p1, _mk(ctx1, [1, 2]))
    moves = us.connect(a, b, mode="zp")
    assert len(moves) == 1 and moves[0][1] == 1
    # the same set on another poset of the same group
    other = checked(_poset(ctx_p23), _mk(ctx_p23, [0, 1, 2, 3, 4]))
    with pytest.raises(NotAntichain):
        us.connect(j1, other, mode="full")


def test_checked_raises(ctx_p23):
    poset = _poset(ctx_p23)
    with pytest.raises(NotAntichain):
        checked(poset, _mk(ctx_p23, [0, 1, 2, 3, 9]))


def test_class_ceiling(ctx_p23):
    from stacktilt.errors import ClassCountExceeded
    with pytest.raises(ClassCountExceeded):
        us.enumerate_classes(_poset(ctx_p23), "zp", max_classes=3)


def test_class_ceiling_counts_orbits(ctx_p23, monkeypatch):
    """Full mode refuses past max_classes orbits even where the walk's
    bound, max_classes * len(fibers) points, holds: with every point made
    its own orbit, P(2,3)'s 10 points are 10 classes."""
    from stacktilt.errors import ClassCountExceeded
    monkeypatch.setattr(us.GroupPoset, "translates", lambda poset, k: [k])
    poset = _poset(ctx_p23)
    assert len(us.enumerate_classes(poset, "full", max_classes=10)) == 10
    with pytest.raises(ClassCountExceeded):
        us.enumerate_classes(poset, "full", max_classes=2)


def test_orbit_sizes_add_up_to_the_zp_classes(ctx_p23, ctx_zz2_d1, ctx_zz2_d2,
                                              make_pd):
    for ctx in (ctx_p23, ctx_zz2_d1, ctx_zz2_d2, make_pd(2)):
        poset = _poset(ctx)
        full = us.enumerate_classes(poset, "full")
        zp = us.enumerate_classes(poset, "zp")
        assert ([rep.orbit_len for rep in full]
                == [orbit_size_elementwise(rep, "full") for rep in full])
        assert sum(rep.orbit_len for rep in full) == len(zp)
        assert {rep.orbit_len for rep in zp} == {1}


def test_paper_mode_keys_one_point_per_class(monkeypatch):
    """P(5,7,11) has 43 classes over 989 points.  Each orbit's head is the
    least key, min(orbit, key=poset.key), but only points whose least
    member is least are keyed: here one per class."""
    ctx = corpus.ctx("p5711")
    keyed = []
    key = us.GroupPoset.key

    def counted(poset, k):
        keyed.append(k)
        return key(poset, k)
    monkeypatch.setattr(us.GroupPoset, "key", counted)
    poset = _poset(ctx)
    classes = us.enumerate_classes(poset, "full")
    assert len(classes) == 43 and len(keyed) == 43
    assert sum(rep.orbit_len for rep in classes) == 989
    for rep in classes:
        k = poset.point(rep)
        assert k == min(poset.translates(k), key=lambda t: key(poset, t))


def _library_references(module) -> set:
    """The names of module the library uses: bare names inside the
    module, and names imported from it or read off it elsewhere."""
    path = Path(module.__file__)
    used = set()
    for other in path.parent.glob("*.py"):
        tree = ast.parse(other.read_text())
        nodes = list(ast.walk(tree))
        if other == path:
            used |= {n.id for n in nodes if isinstance(n, ast.Name)}
            continue
        aliases = set()
        for n in nodes:
            if isinstance(n, ast.ImportFrom):
                if n.module == path.stem:
                    used |= {alias.name for alias in n.names}
                aliases |= {alias.asname or alias.name for alias in n.names
                            if alias.name == path.stem}
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return used


def _tracer_entries() -> set:
    """(module, attribute path) of every entry point the benchmark tracer
    wraps or reads (perfbench/tracing.py, read here, not imported)."""
    tracing = Path(us.__file__).parents[2] / "perfbench" / "tracing.py"
    return {tuple(entry[:2])
            for node in ast.parse(tracing.read_text()).body
            if isinstance(node, ast.Assign)
            and {t.id for t in node.targets} & {"SPANS", "COUNTERS"}
            for entry in ast.literal_eval(node.value)}


def _traced(module) -> set:
    """The top-level names of module that the benchmark tracer wraps or
    reads."""
    stem = Path(module.__file__).stem
    return {path.split(".")[0] for owner, path in _tracer_entries()
            if owner == stem}


def _defined(module) -> list:
    return [node.name for node in ast.parse(Path(module.__file__)
                                            .read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _uncalled(module) -> list:
    """The top-level functions and classes of module that nothing in the
    library uses and the benchmark tracer does not wrap."""
    reached = _library_references(module) | _traced(module)
    return [name for name in _defined(module) if name not in reached]


# Tracer entries with no library caller: the element-level site scans and
# the inverse mutation, which the level-space walk replaced and which the
# benchmark tracer still names.
_TRACED_ONLY = {"upper_sets": {"mutable_elements", "upward_mutable_elements",
                               "mutate_up"}}
_MODULES = sorted(path.stem for path in Path(us.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", _MODULES)
def test_every_library_name_has_a_caller(name):
    """Test-only code lives in tests/oracles.py: each top-level function
    and class is used somewhere in the library other than its own
    definition, or is an entry point the benchmark tracer wraps; and a
    traced entry point has a library caller too, outside _TRACED_ONLY."""
    module = importlib.import_module(f"stacktilt.{name}")
    assert _uncalled(module) == []
    assert _traced(module) - _library_references(module) \
        == _TRACED_ONLY.get(name, set())


def test_the_library_imports_only_the_standard_library():
    """stacktilt stays stdlib-only: every import in the library names
    stacktilt itself (relative imports included) or a module of the
    standard library, as sys.stdlib_module_names lists them."""
    allowed = {"stacktilt", *sys.stdlib_module_names}
    foreign = []
    for path in sorted(Path(us.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.stem, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


@pytest.mark.parametrize("module, loaded", [
    ("stacktilt", []),
    ("stacktilt.graded_order",
     ["_intlinalg", "abgroup", "errors", "graded_order"])])
def test_an_import_loads_only_what_it_uses(module, loaded):
    """The package root holds only __version__, so importing it, or the
    graded order, loads no module the importer does not use."""
    src = str(Path(us.__file__).resolve().parents[1])
    probe = (f"import sys, {module}\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.startswith('stacktilt.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [f"stacktilt.{name}"
                                             for name in loaded]


def _uncalled_methods() -> list:
    """(module, "Class.method") for each non-dunder method of a library
    class whose name nothing in the library references outside the
    method's own definition."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(us.__file__).parent.glob("*.py"))}
    references = collections.defaultdict(list)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                references[n.id].append(id(n))
            elif isinstance(n, ast.Attribute):
                references[n.attr].append(id(n))
    uncalled = []
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("__")
                        and fn.name.endswith("__")):
                    continue
                own = {id(n) for n in ast.walk(fn)}
                if all(r in own for r in references[fn.name]):
                    uncalled.append((stem, f"{cls.name}.{fn.name}"))
    return uncalled


def test_every_library_method_has_a_caller():
    """Each method of a library class is used somewhere in the library
    other than its own definition, or is an entry point the benchmark
    tracer wraps.  Only GradedDegreeGroup's hom_dim and monomials are
    uncalled in the library: the tests call them, and the tracer names
    them."""
    uncalled = _uncalled_methods()
    assert [m for m in uncalled if m not in _tracer_entries()] == []
    assert uncalled == [
        ("graded_order", "GradedDegreeGroup.hom_dim"),
        ("graded_order", "GradedDegreeGroup.monomials")]


@pytest.mark.parametrize("call", [
    lambda poset, rep: us.enumerate_classes(poset, "paper"),
    lambda poset, rep: us.canonical_form(rep, "paper"),
    lambda poset, rep: us.connect(rep, rep, "paper"),
], ids=["enumerate_classes", "canonical_form", "connect"])
def test_an_unknown_mode_is_refused(ctx_p23, call):
    """The class walk, canonical forms and the mutation walk all read a
    class through GroupPoset.orbit, which knows only "full" and "zp"."""
    poset = _poset(ctx_p23)
    with pytest.raises(ValueError, match="unknown canonical form mode"):
        call(poset, us.seed_slab(poset))


def test_every_upper_sets_name_has_a_library_caller():
    traced, used = _traced(us), _library_references(us)
    assert {"connect", "enumerate_classes", "mutate"} <= used
    assert "canonical_form" in traced
    assert _uncalled(us) == []


def test_every_stacky_geom_name_has_a_library_caller():
    """stacky_geom's Ext and plain lattice-point counts serve only the
    tests, so they live there."""
    traced, used = _traced(sg), _library_references(sg)
    assert {"CohomologyOracle", "parse_polytope", "gale_dual"} <= used
    assert "reduced_homology" in traced
    assert _uncalled(sg) == []


def test_zp_walk_scans_each_point_once(monkeypatch):
    """In zp mode every class is its own head and expanded point, so its
    down sites are scanned once, by the walk, and its edges reuse them.
    The classes, edges and orbit lengths are those recorded before."""
    ctx = corpus.ctx("p5711")
    scans = []
    down = us.GroupPoset.down

    def counted(poset, k):
        scans.append(k)
        return down(poset, k)
    monkeypatch.setattr(us.GroupPoset, "down", counted)
    classes = us.enumerate_classes(_poset(ctx), "zp")
    assert len(classes) == 989 and len(scans) == 989
    listing = repr([(rep.key(), [(e.coords, n.key()) for e, n in rep.edges],
                     rep.orbit_len) for rep in classes])
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "100dab6214419d33a31cc77acafbbe7ac2c9b2818fee78da2921a7263a9670c1")
