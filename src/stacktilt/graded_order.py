"""The partial order induced on a group by degree elements x_1..x_n.

g <= h iff h - g is a nonnegative integer combination of the degrees.
Validity of the input data is certified by a strictly positive integer
functional theta on the free part (theta(x_i) > 0 for every degree),
which exists exactly when the order is pointed; theta also bounds every
enumeration performed here, so all searches terminate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .abgroup import FgAbelianGroup, GroupElement, GroupHom
from .errors import (DegenerateSplit, DimensionMismatch, G1Violation,
                     G2Violation, G3Violation, InternalInvariantBroken,
                     UnsupportedRank)


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _positive_circuit(us: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """A nonnegative nontrivial integer combination of the us summing to 0.

    Only called when no open half-plane contains all the us; existence is
    then guaranteed (Gordan).  Returns [(index, coefficient), ...].
    """
    n = len(us)
    for i in range(n):
        for j in range(i + 1, n):
            if _cross(us[i], us[j]) == 0 and _dot(us[i], us[j]) < 0:
                k = 0 if us[i][0] != 0 else 1
                return [(i, abs(us[j][k])), (j, abs(us[i][k]))]
    for i in range(n):
        for j in range(i + 1, n):
            det = _cross(us[i], us[j])
            if det == 0:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                # lam*u_i + mu*u_j = -u_k, scaled by |det| to stay integral
                lam = _cross([-x for x in us[k]], us[j])
                mu = _cross(us[i], [-x for x in us[k]])
                scale = det
                if scale < 0:
                    lam, mu, scale = -lam, -mu, -scale
                if lam >= 0 and mu >= 0:
                    return [(i, lam), (j, mu), (k, scale)]
    raise InternalInvariantBroken("no positive circuit found for unpointed cone")


def _find_theta(us: list[tuple[int, ...]], rank: int):
    """(theta, None) with theta . u > 0 for all u, or (None, circuit)."""
    if rank == 1:
        if all(u[0] > 0 for u in us):
            return (1,), None
        if all(u[0] < 0 for u in us):
            return (-1,), None
        i = next(k for k, u in enumerate(us) if u[0] > 0)
        j = next(k for k, u in enumerate(us) if u[0] < 0)
        return None, [(i, -us[j][0]), (j, us[i][0])]
    # rank 2
    base = us[0]
    if all(_cross(base, u) == 0 for u in us):
        if all(_dot(base, u) > 0 for u in us):
            return tuple(base), None
        return None, _positive_circuit(us)
    lo = hi = None
    for i, u in enumerate(us):
        if all(_cross(u, w) > 0 or (_cross(u, w) == 0 and _dot(u, w) > 0)
               for w in us):
            lo = i
        if all(_cross(w, u) > 0 or (_cross(w, u) == 0 and _dot(w, u) > 0)
               for w in us):
            hi = i
    if lo is None or hi is None or _cross(us[lo], us[hi]) <= 0:
        return None, _positive_circuit(us)
    ua, ub = us[lo], us[hi]
    theta = (-ua[1] + ub[1], ua[0] - ub[0])
    if any(_dot(theta, u) <= 0 for u in us):
        raise InternalInvariantBroken("theta certificate failed")
    return theta, None


@dataclass(frozen=True)
class SignSplit:
    """Rank-two preprocessing: split degrees by the sign of pi = free(G/Zp)."""

    order: tuple[int, ...]          # original indices, positives then negatives
    l: int
    l_prime: int
    pi_values: tuple[int, ...]      # per original degree index
    q: GroupHom                     # G -> H = G/Zp, with section
    h_ctx: "GradedDegreeGroup"      # H with degrees q(x_i), -q(x_{l+j})
    s: GroupElement                 # in H


class GradedDegreeGroup:
    """A group together with order-defining degrees and the shift p."""

    def __init__(self, group: FgAbelianGroup, degrees: Sequence[GroupElement],
                 theta: tuple[int, ...]):
        self.group = group
        self.degrees = tuple(degrees)
        self.n = len(self.degrees)
        self.theta = theta
        self.p = group.zero()
        for x in self.degrees:
            self.p = self.p + x
        self._count_memo: dict = {}
        self._reps_cache: dict = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, group: FgAbelianGroup,
              degrees: Sequence[GroupElement]) -> "GradedDegreeGroup":
        if not degrees:
            raise G1Violation("no degrees given")
        for x in degrees:
            if x.group is not group:
                raise DimensionMismatch("degree not in the given group")
        for i, x in enumerate(degrees):
            if x.is_zero():
                raise G1Violation(f"degree {i} is zero", index=i)
        rank = group.free_rank
        if rank == 0:
            # every nonzero torsion degree lies in the order's positive
            # and negative cone at once
            raise G3Violation("all degrees are torsion",
                              witness=list(degrees[0].coords))
        if rank > 2:
            raise UnsupportedRank(f"free rank {rank} not supported (only 1, 2)")
        quot, _ = group.quotient_by(list(degrees))
        if quot.size() != 1:
            raise G2Violation("degrees do not generate the group")
        us = [x.free_part() for x in degrees]
        for i, u in enumerate(us):
            if all(c == 0 for c in u):
                # torsion degree: x and -x = (order-1) x are both >= 0
                raise G3Violation(f"degree {i} is torsion", index=i,
                                  witness=list(degrees[i].coords))
        theta, circuit = _find_theta(list(us), rank)
        if theta is None:
            witness = group.zero()
            for i, c in circuit:
                witness = witness + c * degrees[i]
            if witness.is_zero():
                # sum c_i x_i = 0 with c_i0 >= 1, so -x_i0 is a nonnegative
                # combination and x_i0 itself is the witness
                witness = degrees[circuit[0][0]]
            raise G3Violation("positive cone is not pointed",
                              witness=list(witness.coords))
        return cls(group, degrees, theta)

    # -- the order ------------------------------------------------------

    def theta_val(self, e: GroupElement) -> int:
        return _dot(self.theta, e.free_part())

    def hom_dim(self, g: GroupElement) -> int:
        """dim S_g: number of exponent vectors a >= 0 with sum a_i x_i = g."""
        return self._count(0, g)

    def _count(self, i: int, rem: GroupElement) -> int:
        t = self.theta_val(rem)
        if t < 0:
            return 0
        key = (i, rem.coords)
        memo = self._count_memo
        if key in memo:
            return memo[key]
        x = self.degrees[i]
        tx = self.theta_val(x)
        if i == self.n - 1:
            q, r = divmod(t, tx)
            result = 1 if r == 0 and (q * x) == rem else 0
        else:
            result = 0
            a = 0
            while a * tx <= t:
                result += self._count(i + 1, rem - a * x)
                a += 1
        memo[key] = result
        return result

    def monomials(self, g: GroupElement) -> list[tuple[int, ...]]:
        """All exponent vectors a >= 0 with sum a_i x_i = g."""
        out: list[tuple[int, ...]] = []
        prefix: list[int] = []

        def rec(i: int, rem: GroupElement) -> None:
            t = self.theta_val(rem)
            if t < 0:
                return
            x = self.degrees[i]
            tx = self.theta_val(x)
            if i == self.n - 1:
                q, r = divmod(t, tx)
                if r == 0 and (q * x) == rem:
                    out.append(tuple(prefix + [q]))
                return
            a = 0
            while a * tx <= t:
                prefix.append(a)
                rec(i + 1, rem - a * x)
                prefix.pop()
                a += 1

        rec(0, g)
        return out

    def leq(self, g: GroupElement, h: GroupElement) -> bool:
        return self._count(0, h - g) > 0

    # -- cosets modulo a shift -------------------------------------------

    def coset_reps(self, shift: GroupElement):
        """(representatives, finite quotient, projection) for group/Z*shift.

        Requires free rank one and a non-torsion shift; representatives are
        the elements with free coordinate in [0, |shift_free|).
        """
        key = shift.coords
        if key in self._reps_cache:
            return self._reps_cache[key]
        if self.group.free_rank != 1:
            raise UnsupportedRank("coset enumeration needs free rank one")
        fs = shift.free_part()[0]
        if fs == 0:
            raise DegenerateSplit("shift element is torsion")
        reps = [
            self.group.from_coords(tup + (f,))
            for tup in itertools.product(*(range(o) for o in
                                           self.group.torsion_orders))
            for f in range(abs(fs))
        ]
        quot, proj = self.group.quotient_by([shift])
        if quot.size() != len(reps):
            raise InternalInvariantBroken("coset representative count mismatch")
        if len({proj(r).coords for r in reps}) != len(reps):
            raise InternalInvariantBroken("coset representatives collide")
        result = (reps, quot, proj)
        self._reps_cache[key] = result
        return result

    # -- rank-two preprocessing -------------------------------------------

    def sign_split(self) -> SignSplit:
        if self.group.free_rank != 2:
            raise UnsupportedRank("sign_split needs free rank two")
        h_group, q = self.group.quotient_by([self.p])
        pi_h = h_group.free_projection()
        pi_vals = tuple(pi_h(q(x)).coords[0] for x in self.degrees)
        for i, v in enumerate(pi_vals):
            if v == 0:
                raise DegenerateSplit(
                    f"degree {i} maps to torsion in G/Zp", index=i)
        pos = [i for i, v in enumerate(pi_vals) if v > 0]
        neg = [i for i, v in enumerate(pi_vals) if v < 0]
        if len(pos) < 2 or len(neg) < 2:
            raise DegenerateSplit(
                "need at least two degrees of each sign",
                positives=len(pos), negatives=len(neg))
        h_degrees = [q(self.degrees[i]) for i in pos]
        h_degrees += [-q(self.degrees[i]) for i in neg]
        h_ctx = GradedDegreeGroup.build(h_group, h_degrees)
        s = h_group.zero()
        for i in pos:
            s = s + q(self.degrees[i])
        s_check = h_group.zero()
        for i in neg:
            s_check = s_check - q(self.degrees[i])
        if s != s_check:
            raise InternalInvariantBroken("two expressions for s disagree")
        return SignSplit(order=tuple(pos + neg), l=len(pos),
                         l_prime=len(neg), pi_values=pi_vals, q=q,
                         h_ctx=h_ctx, s=s)

    def __repr__(self):
        degs = ", ".join(str(x.coords) for x in self.degrees)
        return f"GradedDegreeGroup({self.group!r}; [{degs}])"

