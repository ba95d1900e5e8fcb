"""Finitely generated abelian groups in Smith-normal-form coordinates.

A group is presented as Z^n modulo the row span of an integer relation
matrix.  Smith normal form of the relations gives canonical coordinates
(torsion residues first, then free coordinates), a deterministic
canonical form for every element, and an explicit section back to
generator coordinates.  All values are immutable; operations are pure.

An element is its group and a canonical coordinate tuple, torsion slots
first.  Every operation maps over the tuples in C and hands the result to
the group's one reduction routine, which takes only the torsion slots mod
their orders: a torsion-free group does no per-coordinate work.  Elements
hash by their coordinates and compare equal only within one group.
"""

from __future__ import annotations

import itertools
import math
from operator import add, mod, mul, neg, sub
from typing import Callable, Optional, Sequence

from . import _intlinalg as la
from .errors import (DimensionMismatch, EnumerateInfinite, InputError,
                     InternalInvariantBroken)


class GroupElement:
    """An element in canonical coordinates: (t_1, ..., t_k, f_1, ..., f_r)."""

    __slots__ = ("group", "coords")

    def __init__(self, group: "FgAbelianGroup", coords: tuple[int, ...]):
        self.group = group
        self.coords = coords

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group is other.group and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if other.group is not group:
            raise DimensionMismatch("elements belong to different groups")
        return group._reduce(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if other.group is not group:
            raise DimensionMismatch("elements belong to different groups")
        return group._reduce(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return self.group._reduce(tuple(map(neg, self.coords)))

    def __mul__(self, n: int) -> "GroupElement":
        return self.group._reduce(tuple([n * c for c in self.coords]))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)

    def torsion_part(self) -> tuple[int, ...]:
        return self.coords[: len(self.group.torsion_orders)]

    def free_part(self) -> tuple[int, ...]:
        return self.coords[len(self.group.torsion_orders):]

    def __repr__(self):
        return f"GroupElement{self.coords}"


class FgAbelianGroup:
    """Z^n_gens / rowspan(relations), canonicalized via Smith normal form."""

    def __init__(self, n_gens: int, relations: Sequence[Sequence[int]]):
        for row in relations:
            if len(row) != n_gens:
                raise DimensionMismatch(
                    f"relation has {len(row)} entries, expected {n_gens}")
        self.n_gens = n_gens
        m = [[row[i] for row in relations] for i in range(n_gens)]
        u, d, _, uinv = la.smith(m, len(relations))
        self._u = u
        self._uinv = uinv
        orders = la.diagonal(d, n_gens) if len(relations) else [0] * n_gens
        # one canonical slot per U-row whose order is not 1
        self._slots = [k for k in range(n_gens) if orders[k] != 1]
        slot_orders = [orders[k] for k in self._slots]
        self.torsion_orders = tuple(o for o in slot_orders if o >= 2)
        self.free_rank = sum(1 for o in slot_orders if o == 0)
        # `_reduce` relies on the SNF order: torsion slots, then free slots
        if slot_orders != list(self.torsion_orders) + [0] * self.free_rank:
            raise InternalInvariantBroken(
                "Smith normal form puts a free slot before a torsion slot")

    # -- construction -------------------------------------------------

    @property
    def n_coords(self) -> int:
        return len(self._slots)

    def from_coords(self, coords: Sequence[int]) -> GroupElement:
        if len(coords) != self.n_coords:
            raise DimensionMismatch(
                f"expected {self.n_coords} canonical coordinates")
        return self._reduce(tuple(coords))

    def _reduce(self, coords: tuple[int, ...]) -> GroupElement:
        """The element of a coordinate tuple of the right length: each
        torsion slot is taken mod its order, the free slots pass through."""
        if self.torsion_orders:
            coords = (tuple(map(mod, coords, self.torsion_orders))
                      + coords[len(self.torsion_orders):])
        return GroupElement(self, coords)

    def canonicalize(self, vec: Sequence[int]) -> GroupElement:
        """Canonical form of a vector in generator coordinates."""
        if len(vec) != self.n_gens:
            raise DimensionMismatch(
                f"expected {self.n_gens} generator coordinates")
        y = la.mat_vec(self._u, list(vec))
        return self.from_coords([y[k] for k in self._slots])

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * self.n_coords)

    def section_vector(self, e: GroupElement) -> list[int]:
        """A generator-coordinate representative of e (canonicalize-inverse)."""
        full = [0] * self.n_gens
        for c, k in zip(e.coords, self._slots):
            full[k] = c
        return la.mat_vec(self._uinv, full)

    # -- queries ------------------------------------------------------

    def size(self) -> Optional[int]:
        """Number of elements, or None when infinite."""
        if self.free_rank > 0:
            return None
        return math.prod(self.torsion_orders) if self.torsion_orders else 1

    def enumerate_finite(self) -> list[GroupElement]:
        if self.free_rank > 0:
            raise EnumerateInfinite("group has positive free rank")
        ranges = [range(o) for o in self.torsion_orders]
        return [GroupElement(self, tup) for tup in itertools.product(*ranges)]

    # -- derived groups -----------------------------------------------

    def quotient_by(self, sub_gens: Sequence[GroupElement]):
        """(self / <sub_gens>, projection hom).  The hom carries a section."""
        for e in sub_gens:
            if e.group is not self:
                raise DimensionMismatch("subgroup generator from another group")
        k = self.n_coords
        relations = []
        for i, o in enumerate(self.torsion_orders):
            relations.append([o if j == i else 0 for j in range(k)])
        for e in sub_gens:
            relations.append(list(e.coords))
        quot = FgAbelianGroup(k, relations)
        images = [quot.canonicalize([1 if j == i else 0 for j in range(k)])
                  for i in range(k)]

        def section(e: GroupElement) -> GroupElement:
            return self.from_coords(quot.section_vector(e))

        return quot, GroupHom(self, quot, images, section=section)

    def __repr__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{o}" for o in self.torsion_orders]
        return "FgAbelianGroup(" + (" + ".join(parts) or "0") + ")"


class GroupHom:
    """Group homomorphism given by images of the source canonical generators."""

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup,
                 images: Sequence[GroupElement],
                 section: Optional[Callable[[GroupElement], GroupElement]] = None):
        if len(images) != source.n_coords:
            raise DimensionMismatch("one image per canonical generator required")
        if any(img.group is not target for img in images):
            raise DimensionMismatch("image not in hom target")
        for i, o in enumerate(source.torsion_orders):
            if not (o * images[i]).is_zero():
                raise InputError(
                    "image of torsion generator has incompatible order",
                    generator=i, order=o)
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._section = section
        # column j: the j-th target coordinate of each generator's image
        self._columns = tuple(tuple(img.coords[j] for img in self.images)
                              for j in range(target.n_coords))

    def __call__(self, e: GroupElement) -> GroupElement:
        if e.group is not self.source:
            raise DimensionMismatch("element not in hom source")
        coords = e.coords
        return self.target._reduce(
            tuple([sum(map(mul, coords, col)) for col in self._columns]))

    def section(self, e: GroupElement) -> GroupElement:
        """A preimage of e (projection homs only)."""
        if self._section is None:
            raise InputError("hom has no section")
        if e.group is not self.target:
            raise DimensionMismatch("element not in hom target")
        return self._section(e)


def direct_sum_group(free_rank: int, torsion_orders: Sequence[int]) -> FgAbelianGroup:
    """Z^free_rank + Z/d_1 + ... with generator coordinates (free..., torsion...)."""
    if free_rank < 0 or any(o < 1 for o in torsion_orders):
        raise InputError("free_rank must be >= 0 and torsion orders >= 1")
    n = free_rank + len(torsion_orders)
    relations = [
        [o if j == free_rank + i else 0 for j in range(n)]
        for i, o in enumerate(torsion_orders)
    ]
    return FgAbelianGroup(n, relations)


def _relation_rows(elements: Sequence[GroupElement]) -> tuple[list, list]:
    """Rows of sum v_i * elements_i: exact on free coordinates, mod orders."""
    group = elements[0].group
    nt = len(group.torsion_orders)
    rows_exact = [[e.coords[nt + j] for e in elements]
                  for j in range(group.free_rank)]
    rows_mod = [([e.coords[i] for e in elements], o)
                for i, o in enumerate(group.torsion_orders)]
    return rows_exact, rows_mod


def relation_kernel(elements: Sequence[GroupElement]) -> list[list[int]]:
    """Basis of {v in Z^k : sum v_i * elements_i == 0}."""
    if not elements:
        return []
    return la.kernel_with_moduli(*_relation_rows(elements), len(elements))


def solve_combination(elements: Sequence[GroupElement],
                      target: GroupElement) -> Optional[list[int]]:
    """Integer v with sum v_i * elements_i == target, or None."""
    if not elements:
        return [] if target.is_zero() else None
    rows_exact, rows_mod = _relation_rows(elements)
    return la.solve_with_moduli(rows_exact, target.free_part(), rows_mod,
                                target.torsion_part(), len(elements))
