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
from typing import TYPE_CHECKING, Optional, Sequence

from . import cuts as cuts_mod
from . import upper_sets as us
from .abgroup import GroupElement
from .errors import (ClassCountExceeded, InputError,
                     InternalInvariantBroken)
from .graded_order import GradedDegreeGroup, SignSplit
from .quiver import (Arrow, QuiverPresentation, commuting_squares,
                     monomial_label)

if TYPE_CHECKING:
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
    nonzero proper sub-vector of c lands over a fiber; entries come by
    degree, and within one degree by exponent vector, largest first.  Only
    vectors with theta(c) <= max over b of theta(s_b) - theta(s_a) -
    gaps[b][a]*theta_p are searched, the most any class's member over b
    rises above its member over a (k_b - k_a <= -gaps[b][a]).  On the
    whole group every vector lands, so the table is the n single steps per
    fiber (GroupPoset.single_steps).  Over a rank-two base class the search
    runs on integers (_fibered_entries), and each entry it finds is
    re-derived by group arithmetic and proved irreducible.  The entries'
    cut grading must close to the gaps.
    """
    ctx, gaps, theta = poset.ctx, poset.gaps, poset.sample_theta
    weights = [ctx.theta_val(x) for x in ctx.degrees]
    units = [tuple(int(j == i) for j in range(ctx.n)) for i in range(ctx.n)]
    search = None if poset.whole_group else _fibered_moves(poset)
    table = {}
    for a in poset.fibers:
        bound = max(theta[b] - theta[a] - gaps[b][a] * poset.theta_p
                    for b in poset.fibers)
        if search is None:
            table[a] = tuple((*over, unit) for over, unit, w in zip(
                poset.single_steps[a], units, weights) if w <= bound)
        else:
            table[a] = _fibered_entries(poset, a, bound, weights, *search)
    us.check_closure(poset, ((a, b, t) for a, entries in table.items()
                             for b, t, _ in entries),
                     "the arrow table's cut grading disagrees with the gap "
                     "table")
    return table


def _fibered_moves(poset: us.GroupPoset) -> tuple:
    """The integer data of the search over the base class J of a fibered
    poset, read off H's single steps (poset.over[1].poset.single_steps).

    A vector c out of fiber a is the state (f, d) of q(s_a + deg c) =
    h_f + k*s in H, with h_f the sample of H-fiber f and d = k - k_f the
    H-level above J's member h_f + k_f*s over f.  moves[i][f] = (g, dd)
    moves a state by q(x_i): by the step +ybar_j when x_i is the j-th
    positive degree of split.order, by the inverse of the step ybar_j when
    it is a negative one.  member[f] is the coordinates of J's member over
    f, the fibered fiber it is, and start[a] the H-fiber of fiber a.  The
    moves must commute, as translations do; one step off by a level fails
    that, and a search reading it would drop or invent entries.
    """
    split, base = poset.over
    h_poset = base.poset
    index = h_poset.index
    m = len(index)
    level, member, start = [None] * m, [None] * m, {}
    for h in base.elements:
        f, k = h_poset.level(h)
        level[index[f]], member[index[f]] = k, h.coords
        start[h.coords] = index[f]
    steps = [[None] * m for _ in split.order]
    for f, row in h_poset.single_steps.items():
        i = index[f]
        for j, (g, dk) in enumerate(row):
            steps[j][i] = (index[g], dk + level[i] - level[index[g]])
    moves = [None] * len(split.order)
    for j, i in enumerate(split.order):
        if j < split.l:
            moves[i] = steps[j]
        else:
            moves[i] = [None] * m
            for f, (g, dd) in enumerate(steps[j]):
                moves[i][g] = (f, -dd)
    for mi, mj in itertools.combinations(moves, 2):
        for f in range(m):
            (g, di), (h, dj) = mi[f], mj[f]
            g, dij = mj[g]
            h, dji = mi[h]
            if g != h or di + dij != dj + dji:
                raise InternalInvariantBroken(
                    "the base order's single steps do not commute")
    return moves, member, start


def _fibered_entries(poset: us.GroupPoset, a, bound: int,
                     weights: list[int], moves: list, member: list,
                     start: dict) -> tuple:
    """table[a] of a fibered poset (arrow_table), searched on integers.

    Each vector is a mixed-radix code, c_0 the most significant digit, so
    a larger code is a larger vector; no digit reaches its radix, as
    c_i*theta(x_i) <= theta(c) <= bound.  A layer maps the codes of one
    degree to their states (H-fiber, H-level above J, theta(c), support
    bits; see _fibered_moves).  A vector lands when its H-level is J's;
    it is admitted when the open layer below generated it |supp c| times,
    once from each c - e_j, so that every one of them is open.  An
    admitted vector that lands is an entry, the others form the next
    layer.
    """
    n = len(weights)
    radix = [bound // w + 1 for w in weights]
    place = [1] * n
    for i in reversed(range(n - 1)):
        place[i] = place[i + 1] * radix[i + 1]
    # lightest degree first, so that a code stops at the first too heavy
    steps = sorted((weights[i], place[i], moves[i], 1 << i) for i in range(n))
    theta_a, theta_p = poset.sample_theta[a], poset.theta_p
    found = []
    layer = {0: (start[a], 0, 0, 0)}
    while layer:
        states, counts = {}, {}
        for code, (f, d, th, supp) in layer.items():
            room = bound - th
            for w, p, move, bit in steps:
                if w > room:
                    break
                c = code + p
                if c in states:
                    counts[c] += 1
                else:
                    counts[c] = 1
                    g, dd = move[f]
                    states[c] = (g, d + dd, th + w, supp | bit)
        layer, landed = {}, []
        for c, state in states.items():
            if counts[c] == state[3].bit_count():
                if state[1]:
                    layer[c] = state
                else:
                    landed.append(c)
        for c in sorted(landed, reverse=True):
            g, _, th, _ = states[c]
            b = member[g]
            t = (theta_a + th - poset.sample_theta[b]) // theta_p
            mono = tuple(c // p % r for p, r in zip(place, radix))
            if _over(poset, a, mono) != (b, t):
                raise InternalInvariantBroken(
                    f"arrow table entry {mono} out of fiber {a} does not "
                    f"land at level {t} over {b}")
            if not _is_irreducible(poset, a, mono):
                raise InternalInvariantBroken(
                    f"arrow table met a reducible monomial {mono} "
                    f"out of fiber {a}")
            found.append((b, t, mono))
    return tuple(found)


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


def _over(poset: us.GroupPoset, a, mono: tuple[int, ...]):
    """poset.level(s_a + deg mono), by group arithmetic."""
    mid = poset.fiber_sample(a)
    for x, e in zip(poset.ctx.degrees, mono):
        if e:
            mid = mid + e * x
    return poset.level(mid)


def _is_irreducible(poset: us.GroupPoset, a, mono: tuple[int, ...]) -> bool:
    """No nonzero proper sub-vector of mono lands over a fiber from s_a, so
    no member of any class of poset splits the monomial."""
    return all(_over(poset, a, split) is None
               for split in itertools.product(*(range(e + 1) for e in mono))
               if any(split) and split != mono)


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
    constraints, so the closure is -gaps on every valid input.  The steps
    are H's GroupPoset.single_steps, which the fibered arrow searches read.
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
    walked = []
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
        walked.append((base, table, inner))
    # every base is walked before any quiver is built, so the ceiling
    # fires first
    groups = [Rank2Group(base=base, base_id=_class_id(0, base.elements),
                         classes=[_tilting_class(table, rep, "zp")
                                  for rep in inner],
                         merged_class_count=_stabilizer_merged_count(inner))
              for base, table, inner in walked]
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
