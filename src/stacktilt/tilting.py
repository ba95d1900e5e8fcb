"""Classification of tilting bundles of line bundles, rank one and two.

Rank one: classes of complete-representative antichains in the graded
group, each certified against the cut picture (the endomorphism quiver
must match the algebra presentation of the corresponding cut).  Rank
two: an outer enumeration over the rank-one quotient order, then an
inner enumeration over the fibered poset above each base class, with
the rigidity and top-Ext certificates re-checked per class.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from . import cuts as cuts_mod
from . import upper_sets as us
from .abgroup import GroupElement
from .errors import (ClassCountExceeded, InputError,
                     InternalInvariantBroken)
from .graded_order import GradedDegreeGroup, SignSplit
from .quiver import Arrow, QuiverPresentation, Relation, monomial_label
from .stacky_geom import CohomologyOracle


@dataclass
class TiltingClass:
    rank: int
    ctx: GradedDegreeGroup
    rep: us.AntichainRep
    quiver: QuiverPresentation
    class_id: str
    translation: str = "zp"    # the canonical_form mode it is counted in
    base: Optional[us.AntichainRep] = None     # rank two: the J-class over H
    split: Optional[SignSplit] = None

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        return self.rep.elements

    def degrees_json(self) -> list:
        return [list(e.coords) for e in self.elements]


def _translation(mode: str) -> str:
    """Paper mode counts classes up to all translations, zp mode up to p."""
    return "full" if mode == "paper" else "zp"


def _class_id(rank: int, elements: Sequence[GroupElement]) -> str:
    payload = json.dumps([rank] + [list(e.coords) for e in elements])
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def endomorphism_quiver(ctx: GradedDegreeGroup,
                        elements: Sequence[GroupElement]) -> QuiverPresentation:
    """Arrows are the irreducible monomials between members of the class.

    A monomial m from g to h is irreducible when no proper factorization
    passes through another member; arrow multiplicity is the number of
    such monomials.  Commutativity relations are emitted in rank one
    only, where they present the algebra.
    """
    verts = sorted({e.coords for e in elements})
    members = {e.coords: e for e in elements}
    elems = [members[v] for v in verts]
    top = max((ctx.theta_val(e) for e in elems), default=0)
    arrows = []
    for g in elems:
        for h, a in _arrows_from(ctx, members, g, top):
            if not _is_irreducible(ctx, members, g, a):
                raise InternalInvariantBroken(
                    f"arrow search met a reducible monomial {a} "
                    f"out of {g.coords}")
            arrows.append(Arrow(g.coords, h, monomial_label(a)))
    relations: list[Relation] = []
    if ctx.group.free_rank == 1:
        for g in elems:
            for i in range(ctx.n):
                for j in range(i + 1, ctx.n):
                    gi = g + ctx.degrees[i]
                    gj = g + ctx.degrees[j]
                    gij = gi + ctx.degrees[j]
                    if (gi.coords in members and gj.coords in members
                            and gij.coords in members):
                        relations.append(Relation(
                            source=g.coords, target=gij.coords,
                            path_a=(f"x{i + 1}", f"x{j + 1}"),
                            path_b=(f"x{j + 1}", f"x{i + 1}")))
    return QuiverPresentation(vertices=tuple(verts), arrows=tuple(arrows),
                              relations=tuple(relations))


def _arrows_from(ctx: GradedDegreeGroup, members: dict, g: GroupElement,
                 top: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """The irreducible monomials out of g, as (target coords, exponents).

    An exponent vector b is open when no nonzero b' <= b lands on a
    member (the zero vector counts as open).  Open vectors are
    down-closed, so the search goes one degree at a time and admits c
    only when every c - e_j is open, all of which lie on the level just
    done; an admitted c landing on a member is an arrow and is not
    extended.  Each c is met once, from c - e_i with i its last nonzero
    index.  theta(x_i) > 0 and no member lies above theta = top, so the
    search ends.
    """
    n = ctx.n
    steps = [(x, ctx.theta_val(x)) for x in ctx.degrees]
    found = []
    level = {(0,) * n: (g, ctx.theta_val(g))}
    while level:
        nxt = {}
        for b, (mid, t) in level.items():
            last = max((j for j in range(n) if b[j]), default=0)
            for i in range(last, n):
                x, tx = steps[i]
                c = b[:i] + (b[i] + 1,) + b[i + 1:]
                if t + tx > top or any(
                        c[j] and c[:j] + (c[j] - 1,) + c[j + 1:] not in level
                        for j in range(n)):
                    continue
                h = mid + x
                if h.coords in members:
                    found.append((h.coords, c))
                else:
                    nxt[c] = (h, t + tx)
        level = nxt
    return found


def _is_irreducible(ctx: GradedDegreeGroup, members: dict,
                    g: GroupElement, mono: tuple[int, ...]) -> bool:
    for split in itertools.product(*(range(a + 1) for a in mono)):
        if not any(split) or split == mono:
            continue
        mid = g
        for i, b in enumerate(split):
            if b:
                mid = mid + b * ctx.degrees[i]
        if mid.coords in members:
            return False
    return True


def _certify_rank1(ctx: GradedDegreeGroup, rep: us.AntichainRep,
                   quiver: QuiverPresentation, lq, gamma) -> None:
    """Endomorphism quiver must equal the algebra presentation of the cut."""
    cut, _ = cuts_mod.cut_of_antichain(ctx, rep, lq, gamma)
    algebra = cuts_mod.algebra_presentation(lq, cut)
    psi = cuts_mod.fiber_map(lq, ctx)
    _, _, proj = ctx.coset_reps(ctx.p)
    algebra_arrows = {(psi[a.source], int(a.label[1:]) - 1)
                      for a in algebra.arrows}
    endo_arrows = set()
    for a in quiver.arrows:
        if "*" in a.label or "^" in a.label:
            raise InternalInvariantBroken(
                "rank-one endomorphism quiver has a composite arrow")
        g = next(e for e in rep.elements if e.coords == a.source)
        endo_arrows.add((proj(g).coords, int(a.label[1:]) - 1))
    if algebra_arrows != endo_arrows:
        raise InternalInvariantBroken(
            "endomorphism quiver disagrees with the cut presentation")
    algebra_rel = sorted((psi[r.source], r.path_a) for r in algebra.relations)
    endo_rel = sorted(
        (proj(next(e for e in rep.elements if e.coords == r.source)).coords,
         r.path_a)
        for r in quiver.relations)
    if algebra_rel != endo_rel:
        raise InternalInvariantBroken(
            "relations disagree with the cut presentation")


def _certified_class(ctx: GradedDegreeGroup, rep: us.AntichainRep,
                     translation: str, cut_data: Optional[tuple] = None,
                     split: Optional[SignSplit] = None,
                     base: Optional[us.AntichainRep] = None) -> TiltingClass:
    """The class of rep with its endomorphism quiver, re-certified.

    Rank one checks the quiver against the cut (cut_data is (lq, gamma));
    rank two checks rigidity and top-Ext vanishing through the split.
    """
    rank = ctx.group.free_rank
    quiver = endomorphism_quiver(ctx, rep.elements)
    if rank == 1:
        _certify_rank1(ctx, rep, quiver, *cut_data)
    else:
        _certify_rank2(ctx, split, rep)
    return TiltingClass(rank=rank, ctx=ctx, rep=rep, quiver=quiver,
                        class_id=_class_id(rank, rep.elements),
                        translation=translation, base=base, split=split)


def classify_rank1(ctx: GradedDegreeGroup, mode: str = "paper",
                   max_classes: int = 10_000) -> list[TiltingClass]:
    """All tilting classes of line bundles for a rank-one graded group."""
    if ctx.group.free_rank != 1:
        raise InputError("classify_rank1 needs a rank-one graded group")
    translation = _translation(mode)
    poset = us.GroupPoset(ctx)
    reps = us.enumerate_classes(poset, translation, max_classes)
    cut_data = cuts_mod.data_of_group(ctx)
    return [_certified_class(ctx, rep, translation, cut_data) for rep in reps]


@dataclass
class Rank2Group:
    """All inner classes over one base class J."""

    base: us.AntichainRep
    base_id: str
    classes: list[TiltingClass]
    merged_class_count: int = 0


@dataclass
class Rank2Classification:
    split: SignSplit
    groups: list[Rank2Group]

    @property
    def classes(self) -> list[TiltingClass]:
        return [tc for grp in self.groups for tc in grp.classes]


def _certify_rank2(ctx: GradedDegreeGroup, split: SignSplit,
                   rep: us.AntichainRep) -> None:
    """Rigidity (no base comparison through s) and vanishing top Ext."""
    h = split.h_ctx
    for g1, g2 in itertools.product(rep.elements, repeat=2):
        if h.leq(split.q(g2) + split.s, split.q(g1)):
            raise InternalInvariantBroken(
                "rigidity certificate failed: q(g) >= q(h) + s")
        if ctx.hom_dim(g1 - g2 - ctx.p) != 0:
            raise InternalInvariantBroken(
                "top-Ext certificate failed: S_{g-h-p} != 0")


def _stabilizer_merged_count(split: SignSplit, base: us.AntichainRep,
                             inner: list[us.AntichainRep]) -> int:
    """Inner classes identified also under translations fixing the base.

    A translation fixing the finite base class setwise preserves its theta
    multiset, so it must be torsion in H; only those are tried.  They form
    a group, so the translates of one class are its whole orbit.
    """
    h_group = split.h_ctx.group
    base_set = set(rep_h.coords for rep_h in base.elements)
    stab = []
    for tors in itertools.product(*(range(o) for o in h_group.torsion_orders)):
        cand = h_group.from_coords(tors + (0,) * h_group.free_rank)
        if cand.is_zero():
            continue
        if {(e + cand).coords for e in base.elements} == base_set:
            stab.append(cand)
    known = {rep.key() for rep in inner}
    orbits = set()
    for rep in inner:
        orbit = {rep.key()}
        for t in stab:
            lift = split.q.section(t)
            moved = us.AntichainRep(rep.poset,
                                    [e + lift for e in rep.elements])
            orbit.add(us.canonical_form(moved, "zp").key())
        if not orbit <= known:
            raise InternalInvariantBroken(
                "stabilizer translate left the class list")
        orbits.add(frozenset(orbit))
    return len(orbits)


def classify_rank2(ctx: GradedDegreeGroup, mode: str = "paper",
                   max_classes: int = 10_000) -> Rank2Classification:
    """d-tilting classes for a rank-two graded group, grouped by base class.

    The base classes over H are counted up to full translation in "paper"
    mode; inner classes are always counted up to shifts by p.  max_classes
    bounds the total number of inner classes over all bases.
    """
    if ctx.group.free_rank != 2:
        raise InputError("classify_rank2 needs a rank-two graded group")
    split = ctx.sign_split()
    h_poset = us.GroupPoset(split.h_ctx, shift_element=split.s)
    base_classes = us.enumerate_classes(h_poset, _translation(mode),
                                        max_classes)
    groups = []
    budget = max_classes
    for base in base_classes:
        poset = us.GroupPoset(ctx, over=(split, base))
        try:
            inner = us.enumerate_classes(poset, "zp", budget)
        except ClassCountExceeded:
            raise ClassCountExceeded("class enumeration exceeded the ceiling",
                                     ceiling=max_classes) from None
        budget -= len(inner)
        classes = [_certified_class(ctx, rep, "zp", split=split, base=base)
                   for rep in inner]
        merged = _stabilizer_merged_count(split, base, inner)
        groups.append(Rank2Group(base=base,
                                 base_id=_class_id(0, base.elements),
                                 classes=classes,
                                 merged_class_count=merged))
    return Rank2Classification(split=split, groups=groups)


def apr_mutate(tclass: TiltingClass, m: GroupElement) -> TiltingClass:
    """Tilting mutation at a minimal member: replace m by m + p, recertify."""
    rep = us.mutate(tclass.rep, m)
    cut_data = (cuts_mod.data_of_group(tclass.ctx) if tclass.rank == 1
                else None)
    return _certified_class(tclass.ctx, rep, tclass.translation, cut_data,
                            tclass.split, tclass.base)


@dataclass
class VerificationReport:
    ok: bool
    checked: list
    failures: list
    thick_generation: str = "by theorem"

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": len(self.checked),
            "failures": [
                {"source": list(g), "target": list(h), "r": r, "dim": dim}
                for (g, h, r, dim) in self.failures
            ],
            "thick_generation": self.thick_generation,
        }


def verify_class(oracle: CohomologyOracle, elements: Sequence[GroupElement],
                 field: Optional[int] = None) -> VerificationReport:
    """Ext^r(E, E) = 0 for 1 <= r <= d, through the homology oracle.

    Thick generation is not re-checked (asserted by the classification
    theorems); the report records that explicitly.
    """
    d = oracle.polytope.d
    results = [(g.coords, h.coords, r, oracle.ext_dim(g, h, r, field))
               for g, h in itertools.product(elements, repeat=2)
               for r in range(1, d + 1)]
    failures = [row for row in results if row[3] != 0]
    return VerificationReport(ok=not failures, checked=results,
                              failures=failures)
