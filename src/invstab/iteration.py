"""Iterates of the rational map G = 1/g for g = X^p - X + xi.

The n-th iterate of G is kept as a reduced fraction N_n/D_n of polynomials
over F_q.  Starting from N_0/D_0 = X/1, one application of G sends N/D to

    N' = D^p,
    D' = N^p - N * D^(p-1) + xi * D^p,

because g(N/D) = (N/D)^p - N/D + xi over a common denominator D^p.  The
p-th powers go through the coefficient-wise Frobenius shortcut, which agrees
with the naive product in characteristic p.  Each step asserts that the new
fraction is reduced; that is a theorem for this family, so a failure
indicates a bug rather than bad input.  The check reads gcd(D, D') instead
of gcd(N', D') = gcd(D^p, D'): every irreducible factor of D^p divides D,
so the two are 1 together, and D is p times shorter.

deg D_n = p^n grows fast, so :func:`denominator` enforces a degree cap.
The module also walks forward orbits of individual points on P^1(F_q),
with :data:`INFINITY` standing for the point at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CtxMismatch, GcdNotOne, IterationTooLarge
from .fields import FieldCtx, FieldElement
from .polys import Poly, artin_schreier, frobenius_power, gcd

#: Default bound on deg D_n for :func:`denominator`.
DEFAULT_DEGREE_CAP = 10_000


class _Infinity:
    """The point at infinity on the projective line (a singleton)."""

    __slots__ = ()

    def __repr__(self):
        return 'INFINITY'


INFINITY = _Infinity()


@dataclass(frozen=True)
class IterateFraction:
    """The n-th iterate of 1/g as a reduced fraction num/den."""

    n: int
    num: Poly
    den: Poly

    @property
    def ctx(self) -> FieldCtx:
        return self.num.ctx


def initial_fraction(ctx: FieldCtx) -> IterateFraction:
    """The 0-th iterate, the identity X/1."""
    return IterateFraction(0, Poly.x(ctx), Poly.one(ctx))


def iterate_step(fr: IterateFraction, xi: FieldElement) -> IterateFraction:
    """Apply G = 1/(X^p - X + xi) once to the fraction."""
    ctx = fr.ctx
    if xi.ctx is not ctx:
        raise CtxMismatch("xi from a different field")
    p = ctx.p
    num, den = fr.num, fr.den
    new_num = frobenius_power(den)
    new_den = (frobenius_power(num) - num * den ** (p - 1)
               + Poly.constant(xi) * new_num)
    # gcd(D^p, D') = 1 exactly when gcd(D, D') = 1
    common = gcd(den, new_den)
    if common.degree != 0:
        raise GcdNotOne(
            f"iterate {fr.n + 1} is not reduced; this should be impossible")
    return IterateFraction(fr.n + 1, new_num, new_den)


def _denominators(xi: FieldElement, n: int, cap: int):
    """D_1, ..., D_n in turn, from :func:`initial_fraction`.

    Raises ValueError for n < 1, and IterationTooLarge when deg D_n = p^n
    would exceed ``cap``, before the first step.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if xi.ctx.p ** n > cap:
        raise IterationTooLarge(
            f"deg D_{n} = {xi.ctx.p}^{n} exceeds the cap {cap}")
    fr = initial_fraction(xi.ctx)
    for _ in range(n):
        fr = iterate_step(fr, xi)
        yield fr.den


def denominator(xi: FieldElement, n: int,
                cap: int = DEFAULT_DEGREE_CAP) -> Poly:
    """The denominator D_n of the n-th iterate of 1/g; deg D_n = p^n.

    Raises IterationTooLarge when p^n would exceed ``cap``.
    """
    for den in _denominators(xi, n, cap):
        pass
    return den


def forward_orbit_infinity(xi: FieldElement, n_max: int) -> list:
    """The orbit G(inf), G^2(inf), ..., G^(n_max)(inf) as a list.

    Entries are field elements, or :data:`INFINITY` where the orbit passes
    through a zero of g.  Since g(inf) = inf, the orbit starts at
    G(inf) = 0.
    """
    ctx = xi.ctx
    g = artin_schreier(xi)
    orbit = []
    cur = INFINITY
    for _ in range(n_max):
        if cur is INFINITY:
            cur = ctx.zero
        else:
            v = g(cur)
            cur = INFINITY if v.val == 0 else v ** -1
        orbit.append(cur)
    return orbit


def preimage_count(gamma, xi: FieldElement) -> int:
    """Number of points on P^1 over the algebraic closure mapping to gamma.

    ``gamma`` is a field element or :data:`INFINITY`.  The only preimage of
    0 under G = 1/g is inf (g has no poles), the preimages of inf are the
    distinct roots of g, and the preimages of any other gamma are the
    distinct roots of g - 1/gamma.  Multiple roots would be collapsed via
    the squarefree part; for this family g' = -1, so every fibre away from
    0 in fact has exactly p points.
    """
    ctx = xi.ctx
    g = artin_schreier(xi)
    if gamma is INFINITY:
        h = g
    else:
        if gamma.ctx is not ctx:
            raise CtxMismatch("gamma from a different field")
        if gamma.val == 0:
            return 1
        h = g - Poly.constant(gamma ** -1)
    squarefree = h // gcd(h, h.derivative())
    return squarefree.degree
