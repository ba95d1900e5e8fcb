"""Classification of tilting bundles of line bundles, rank one and two.

Rank one: classes of complete-representative antichains in the graded
group, each certified against the cut picture (the endomorphism quiver
must match the algebra presentation of the corresponding cut, and the
classes must biject onto the cuts of type gamma).  Rank two: an outer
enumeration over the base order H = G/Zp with shift s, then an inner
enumeration over the fibered poset above each base class.

Endomorphism quivers are read off one arrow table per poset: the exponent
vectors minimal over its fibers, searched once and stored as integers
(fiber, level, exponents), and checked before the poset is walked.  A
class takes the entries whose offset from its members' levels is 0 as
arrows; every entry must have offset 0 or 1, the grading of a cut of the
quiver over the base (rank two) or of the group (rank one).  Its closure
against the gaps certifies every poset's order, rank two's H included.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Optional, Sequence

from . import cuts as cuts_mod
from . import upper_sets as us
from .abgroup import GroupElement
from .errors import (ClassCountExceeded, InputError,
                     InternalInvariantBroken)
from .graded_order import GradedDegreeGroup, SignSplit
from .quiver import (Arrow, QuiverPresentation, commuting_squares,
                     monomial_label)
from .stacky_geom import CohomologyOracle


class TiltingClass:
    def __init__(self, rank: int, ctx: GradedDegreeGroup,
                 rep: us.AntichainRep, quiver: QuiverPresentation,
                 class_id: str, table: dict, translation: str = "zp"):
        self.rank = rank
        self.ctx = ctx
        self.rep = rep
        self.quiver = quiver
        self.class_id = class_id
        self.table = table              # arrow_table of rep's poset
        self.translation = translation  # the canonical_form mode counted in

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


def arrow_table(poset: us.GroupPoset) -> dict:
    """The arrows of every class of poset, found and checked once.

    table[a] lists (b, t, c) for each exponent vector c minimal with
    s_a + deg c over the poset: s_a + deg c = s_b + t*shift, and no
    nonzero proper sub-vector of c lands over a fiber.  The search goes
    one degree at a time and admits c only when every c - e_j is open
    (lands over no fiber), all of which lie on the layer just done; an
    admitted c that lands is an entry and is not extended.  Each c is met
    once, from c - e_i with i its last nonzero index.  It stops at
    theta(c) <= max over b of theta(s_b) - theta(s_a) - gaps[b][a]*theta_p,
    the most any class's member over b rises above its member over a
    (k_b - k_a <= -gaps[b][a]).  On the whole group every vector lands, so
    the table is the n single steps per fiber.  Each entry is proved
    irreducible, and the entries' cut grading must close to the gaps.
    """
    ctx, gaps, theta = poset.ctx, poset.gaps, poset.sample_theta
    n = ctx.n
    steps = [(x, ctx.theta_val(x)) for x in ctx.degrees]
    table = {}
    for a in poset.fibers:
        bound = max(theta[b] - theta[a] - gaps[b][a] * poset.theta_p
                    for b in poset.fibers)
        found = []
        layer = {(0,) * n: (poset.fiber_sample(a), 0)}
        while layer:
            nxt = {}
            for b, (mid, t) in layer.items():
                last = max((j for j in range(n) if b[j]), default=0)
                for i in range(last, n):
                    x, tx = steps[i]
                    c = b[:i] + (b[i] + 1,) + b[i + 1:]
                    if t + tx > bound or any(
                            c[j] and c[:j] + (c[j] - 1,) + c[j + 1:]
                            not in layer for j in range(n)):
                        continue
                    h = mid + x
                    over = poset.level(h)
                    if over is None:
                        nxt[c] = (h, t + tx)
                    elif _is_irreducible(poset, a, c):
                        found.append((*over, c))
                    else:
                        raise InternalInvariantBroken(
                            f"arrow table met a reducible monomial {c} "
                            f"out of fiber {a}")
            layer = nxt
        table[a] = tuple(found)
    us.check_closure(poset, ((a, b, t) for a, entries in table.items()
                             for b, t, _ in entries),
                     "the arrow table's cut grading disagrees with the gap "
                     "table")
    return table


def endomorphism_quiver(table: dict,
                        rep: us.AntichainRep) -> QuiverPresentation:
    """Arrows are the irreducible monomials between members of the class.

    A monomial m from g to h is irreducible when no proper factorization
    passes through another member; arrow multiplicity is the number of
    such monomials.  With members g_a = s_a + k_a*shift, they are the
    entries (b, t, c) of table[a] (see arrow_table) with offset
    e = k_a + t - k_b equal to 0: a sub-vector of c landing over the
    fibers at offset 1 or more would put g_b above a member plus shift,
    at offset -1 or less a member above g_a plus shift.  Every entry
    must have e in {0, 1}, the grading of a cut.  Commutativity relations
    are emitted in rank one only, where they present the algebra: the
    squares (quiver.commuting_squares) of the single steps x_i among the
    arrows.
    """
    poset, ctx = rep.poset, rep.poset.ctx
    at = rep.by_fiber
    k = {a: poset.level(g)[1] for a, g in at.items()}
    arrows, steps = [], {}
    for a, g in at.items():
        for b, t, c in table[a]:
            e = k[a] + t - k[b]
            if e == 1:
                continue
            if e != 0:
                raise InternalInvariantBroken(
                    f"arrow {c} out of {g.coords} has offset {e}, "
                    "outside the cut grading {0, 1}")
            arrows.append(Arrow(g.coords, at[b].coords, monomial_label(c)))
            if sum(c) == 1:
                steps[g.coords, c.index(1)] = at[b].coords
    relations = (commuting_squares(steps, ctx.n)
                 if ctx.group.free_rank == 1 else ())
    return QuiverPresentation(vertices=tuple(e.coords for e in rep.elements),
                              arrows=tuple(arrows), relations=tuple(relations))


def _is_irreducible(poset: us.GroupPoset, a, mono: tuple[int, ...]) -> bool:
    """No nonzero proper sub-vector of mono lands over a fiber from s_a, so
    no member of any class of poset splits the monomial."""
    for split in itertools.product(*(range(e + 1) for e in mono)):
        if not any(split) or split == mono:
            continue
        mid = poset.fiber_sample(a)
        for i, e in enumerate(split):
            if e:
                mid = mid + e * poset.ctx.degrees[i]
        if poset.level(mid) is not None:
            return False
    return True


def _certify_rank1(ctx: GradedDegreeGroup, classes: list[TiltingClass],
                   lq, gamma) -> list[frozenset]:
    """Each quiver must equal its class's cut presentation, the vertex v of
    L/B named by the member over psi(v); (lq, gamma) is the cut data of
    ctx.  Returns the cuts, in order."""
    psi = cuts_mod.fiber_map(lq, ctx)
    out = []
    for tc in classes:
        cut, _ = cuts_mod.cut_of_antichain(ctx, tc.rep, lq, gamma, psi)
        at = {v: tc.rep.by_fiber[psi[v]].coords for v in lq.vertices}
        if cuts_mod.algebra_presentation(lq, cut, at) != tc.quiver:
            raise InternalInvariantBroken(
                "endomorphism quiver disagrees with the cut presentation")
        out.append(cut)
    return out


def _tilting_class(table: dict, rep: us.AntichainRep,
                   translation: str) -> TiltingClass:
    """The class of rep with its endomorphism quiver read off table."""
    ctx = rep.poset.ctx
    rank = ctx.group.free_rank
    return TiltingClass(rank=rank, ctx=ctx, rep=rep,
                        quiver=endomorphism_quiver(table, rep),
                        class_id=_class_id(rank, rep.elements), table=table,
                        translation=translation)


def classify_rank1(ctx: GradedDegreeGroup, mode: str = "paper",
                   max_classes: int = 10_000) -> list[TiltingClass]:
    """All tilting classes of line bundles for a rank-one graded group.

    Distinct classes have distinct cuts of type gamma, and every cut of
    that type is reached: the classes' orbits under the translations the
    mode ignores hold as many classes up to p-shifts as there are cuts.
    """
    if ctx.group.free_rank != 1:
        raise InputError("classify_rank1 needs a rank-one graded group")
    translation = _translation(mode)
    poset = us.GroupPoset(ctx)
    table = arrow_table(poset)
    reps = us.enumerate_classes(poset, translation, max_classes)
    lq, gamma = cuts_mod.data_of_group(ctx)
    classes = [_tilting_class(table, rep, translation) for rep in reps]
    cuts = _certify_rank1(ctx, classes, lq, gamma)
    if len(set(cuts)) != len(cuts):
        raise InternalInvariantBroken("two classes have the same cut")
    if (sum(rep.orbit_len for rep in reps)
            != cuts_mod.count_detectors(lq, gamma)):
        raise InternalInvariantBroken("the classes miss a cut of type gamma")
    return classes


class Rank2Group:
    """All inner classes over one base class J."""

    def __init__(self, base: us.AntichainRep, base_id: str,
                 classes: list[TiltingClass], merged_class_count: int):
        self.base = base
        self.base_id = base_id
        self.classes = classes
        self.merged_class_count = merged_class_count


class Rank2Classification:
    def __init__(self, split: SignSplit, groups: list[Rank2Group]):
        self.split = split
        self.groups = groups

    @property
    def classes(self) -> list[TiltingClass]:
        return [tc for grp in self.groups for tc in grp.classes]


def _certify_rank2(h_poset: us.GroupPoset) -> None:
    """The closure of H's arrow table, its single steps s_a + xbar_i.

    Each step lands at offset 0 or 1 from every base class, as xbar_i <= s
    (s sums the positive images and the negated negative ones): a member
    h has h <= h + xbar_i <= h + s.  Chains of steps give back the class
    constraints, so the closure is -gaps on every valid input.
    """
    arrow_table(h_poset)


def _stabilizer_merged_count(inner: list[us.AntichainRep]) -> int:
    """Inner classes identified also under the translations fixing their
    base class: the distinct full orbits (GroupPoset.orbit) of their
    points.  The translations form a group, so each orbit is whole."""
    poset = inner[0].poset
    known = {poset.point(rep) for rep in inner}
    orbits = {frozenset(poset.orbit(k, "full")) for k in known}
    if not set().union(*orbits) <= known:
        raise InternalInvariantBroken(
            "stabilizer translate left the class list")
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
    _certify_rank2(h_poset)
    base_classes = us.enumerate_classes(h_poset, _translation(mode),
                                        max_classes)
    groups = []
    budget = max_classes
    for base in base_classes:
        poset = us.GroupPoset(ctx, over=(split, base))
        table = arrow_table(poset)
        try:
            inner = us.enumerate_classes(poset, "zp", budget)
        except ClassCountExceeded:
            raise ClassCountExceeded("class enumeration exceeded the ceiling",
                                     ceiling=max_classes) from None
        budget -= len(inner)
        classes = [_tilting_class(table, rep, "zp") for rep in inner]
        merged = _stabilizer_merged_count(inner)
        groups.append(Rank2Group(base=base,
                                 base_id=_class_id(0, base.elements),
                                 classes=classes,
                                 merged_class_count=merged))
    return Rank2Classification(split=split, groups=groups)


def apr_mutate(tclass: TiltingClass, m: GroupElement) -> TiltingClass:
    """Tilting mutation at a minimal member: replace m by m + p, recertify
    (the quiver's offset check, on the class's checked arrow table; rank
    one also the cut).  The id is that of the class the mutated set lies
    in."""
    rep = us.mutate(tclass.rep, m)
    tc = _tilting_class(tclass.table, rep, tclass.translation)
    tc.class_id = _class_id(tc.rank, us.canonical_form(
        rep, tc.translation).elements)
    if tc.rank == 1:
        _certify_rank1(tc.ctx, [tc], *cuts_mod.data_of_group(tc.ctx))
    return tc


class VerificationReport:
    # the classification theorems' claim, not a check
    thick_generation = "by theorem"

    def __init__(self, ok: bool, checked: list, failures: list):
        self.ok = ok
        self.checked = checked
        self.failures = failures

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
                 field: Optional[int]) -> VerificationReport:
    """Ext^r(E, E) = 0 for 1 <= r <= d, through the homology oracle.

    Thick generation is not re-checked (asserted by the classification
    theorems); the report records that explicitly.
    """
    d = oracle.polytope.d
    results = []
    for g, h in itertools.product(elements, repeat=2):
        twist = h - g   # Ext^r(O(g), O(h)) = H^r(O(h - g))
        results += [(g.coords, h.coords, r,
                     oracle.cohomology_dim(twist, r, field))
                    for r in range(1, d + 1)]
    failures = [row for row in results if row[3] != 0]
    return VerificationReport(ok=not failures, checked=results,
                              failures=failures)
