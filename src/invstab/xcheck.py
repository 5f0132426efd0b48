"""Brute-force cross-checks for every closed form in the package.

Nothing in this module shares a code path with the formula it is checking:

* denominators of the iterates are tested for irreducibility directly with
  the deterministic Rabin test and compared against the cumulative trace
  criterion, read off the rows of :func:`trace_rows
  <.criterion.trace_rows>`, the one walk over the criterion states;
* relative traces are recomputed as explicit Frobenius conjugate sums inside
  a freshly constructed K(gamma) and compared against the closed Moebius
  formula (:func:`rel_trace <.fields.rel_trace>` is one call of the
  field's conjugate sum: each conjugate is one pass of the tower
  kernel's own x -> x^k map, whose rows are products of the kernel's
  powers X^k and y^k, or on a Zech field one log-table lookup; it never
  reads the context's Frobenius matrix or trace vector, which the fast
  paths use).  In :func:`rel_trace_oracle` the direct side computes on the
  packed values of K(gamma), with its product, sum and inverse, and the
  formula side on K's packed values alone, with K's closures and its
  Frobenius and trace maps.  Up to ``fields.ZECH_MAX_ORDER``, K(gamma)
  multiplies, divides and powers by its own Zech-log table: F_16(gamma)
  and F_9(gamma) here, F_25(gamma) not.  That table is built from the
  tower product (one packed multiply of the flat digits, folded by rows
  y^J mod K's modulus and X^I mod the tower's, a block at a time), and
  exhaustive tests check it against that product on every tower up to
  F_64(gamma).  Above the bound the direct side uses the tower product
  itself, its kernel's conjugate sum and the tower's extended Euclid over
  ``polys``.  Either way the two sides share only K's closures, from
  which the tower's X rows and Euclid are built; its y rows come from the
  digits of K's modulus.  On
  fields up to the bound K's closures are lookups in K's own Zech-log
  table, built by the same packed product that larger fields compute
  with.  Exhaustive tests check every table against that product, and
  the product against a schoolbook product on prime-field operators:
  every sum, difference, negation and product on fields of order <= 81
  and on towers of order <= 64, and every antilog step, Zech entry and
  inverse on fields of order <= 729, on the towers F_4(gamma) through
  F_64(gamma) and F_9(gamma), and on GF(3^8), GF(2^12) and GF(89^2), the
  largest below the bound;
* traces are also recovered from the second-highest coefficient of a
  minimal polynomial found by plain linear algebra over the subfield.

Each comparison lands in an :class:`EquivalenceReport`; a report that does
not agree is a build-failing defect, never an expected outcome.
:func:`verify_suites` runs them as the four suites of ``invstab verify``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple, Optional

from .criterion import mobius_trace_formula, trace_rows
from .errors import DegreeTooLarge, NotGenerating
from .fields import (
    FieldCtx,
    FieldElement,
    _codec,
    abs_trace,
    element_to_text,
    extension_field,
    rel_trace,
    relative_degree,
)
from .iteration import DEFAULT_DEGREE_CAP, _check_cap, _denominators
from .polys import Poly, artin_schreier, is_irreducible

#: :func:`verify_suites`'s suites, in its order, and the name of all four
SUITES = ('criterion', 'irreducibility', 'traces', 'minpoly', 'all')
#: the criterion suite's default n_max keeps deg D_n = p^n at or below this
SWEEP_DEGREE_LIMIT = 256
#: the traces suite refuses p above this: each tuple's xi builds a tower of
#: degree p over F_q.  The suite took 3.0-4.5 s at p = 23 over F_(23^3)
#: and 2.4-3.9 s at p = 101 over F_101 (CPython 3.11, shared 2-vCPU Linux)
MAX_TOWER_DEGREE = 23
#: the traces suite's count of seeded Moebius tuples, and its seed; the
#: minpoly suite's sample size above 512 elements, and its seed
_TRACE_TUPLES, _TRACE_SEED = 500, 20240815
_MINPOLY_SAMPLES, _MINPOLY_SEED = 100, 917


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one criterion-vs-oracle comparison run.

    ``pairs`` holds (key, criterion side, oracle side) triples;
    ``first_disagreement`` is the index of the first mismatched pair, or
    None when everything agrees.
    """

    label: str
    field: dict
    params: Optional[str]
    n_max: Optional[int]
    pairs: tuple
    agree: bool
    first_disagreement: Optional[int]

    @classmethod
    def build(cls, label, field, params, n_max, pairs):
        pairs = tuple(pairs)
        first = None
        for i, (_, lhs, rhs) in enumerate(pairs):
            if lhs != rhs:
                first = i
                break
        return cls(label, field, params, n_max, pairs, first is None, first)

    def to_dict(self) -> dict:
        return self._record([list(p) for p in self.pairs])

    def _record(self, pairs) -> dict:
        """:meth:`to_dict` with ``pairs`` as the value of its 'pairs' key,
        which the command line fills without a list per pair."""
        return {
            'label': self.label,
            'field': self.field,
            'params': self.params,
            'n_max': self.n_max,
            'agree': self.agree,
            'first_disagreement': self.first_disagreement,
            'pairs': pairs,
        }


def direct_denominator_check(xi: FieldElement, n_max: int,
                             cap: int = DEFAULT_DEGREE_CAP) -> list:
    """(n, D_n irreducible?) for n = 1 .. n_max, by Rabin on the monic D_n."""
    return [(n, is_irreducible(den.monic()))
            for n, den in enumerate(_denominators(xi, n_max, cap), 1)]


def criterion_vs_direct(ctx: FieldCtx, n_max: int,
                        cap: int = DEFAULT_DEGREE_CAP) -> list:
    """One report per xi with Tr(xi) != 0: cumulative trace test vs Rabin.

    The criterion side for index n is "the trace indicator is nonzero for
    every m <= n", which is exactly the condition equivalent to D_n being
    irreducible.  An index with no trace row, which :func:`trace_rows`
    leaves out from the first c_n = 0 on, has criterion side None, which
    disagrees with either verdict.
    """
    reports = []
    field = ctx.describe()
    for xi in ctx.elements():
        if abs_trace(xi).val == 0:
            continue
        direct = direct_denominator_check(xi, n_max, cap)
        rows = trace_rows(xi, n_max)
        all_nonzero = True
        pairs = []
        for (n, oracle_irreducible), row in zip_longest(direct, rows):
            if row is None:
                all_nonzero = None
            elif all_nonzero:
                all_nonzero = row.trace.val != 0
            pairs.append((n, all_nonzero, oracle_irreducible))
        reports.append(EquivalenceReport.build(
            'criterion_vs_direct', field, element_to_text(xi), n_max, pairs))
    return reports


class RelTraceCheck(NamedTuple):
    """Closed-form vs direct Frobenius-sum relative trace."""

    formula: FieldElement
    direct: FieldElement
    agree: bool


def rel_trace_oracle(a: FieldElement, b: FieldElement, c: FieldElement,
                     d: FieldElement, xi: FieldElement) -> RelTraceCheck:
    """Check mobius_trace_formula against a trace computed inside K(gamma).

    Builds K(gamma) = K[X]/(X^p - X + xi) from scratch, evaluates
    (a gamma + b)/(c gamma + d) there with the tower's own closures on
    packed values (gamma packs as |K|, and K's values embed unchanged),
    and takes the relative trace down to K as a literal sum of conjugates.
    The formula, computed first, checks the inputs: CtxMismatch, BothZero
    or IrreducibilityHypothesisViolated.
    """
    formula = mobius_trace_formula(a, b, c, d, xi)
    K = xi.ctx
    ext = extension_field(K, artin_schreier(xi))
    mul, add, gamma = ext.mul_v, ext.add_v, K.order
    # c gamma + d never vanishes: c != 0 would put gamma in K, and c = 0
    # leaves the nonzero constant d
    u = mul(add(mul(a.val, gamma), b.val),
            ext.inv_v(add(mul(c.val, gamma), d.val)))
    direct = rel_trace(FieldElement(ext, u), K)
    return RelTraceCheck(formula, direct, formula == direct)


def irreducibility_trace_sweep(ctx: FieldCtx) -> EquivalenceReport:
    """Over every xi in F_q: Rabin on X^p - X + xi vs (Tr(xi) != 0)."""
    pairs = []
    for xi in ctx.elements():
        trace_side = abs_trace(xi).val != 0
        rabin_side = is_irreducible(artin_schreier(xi))
        pairs.append((element_to_text(xi), trace_side, rabin_side))
    return EquivalenceReport.build(
        'trace_nonzero_vs_rabin', ctx.describe(), None, None, pairs)


def minimal_polynomial(alpha: FieldElement, sub: FieldCtx) -> Poly:
    """Minimal polynomial of alpha over the subfield, by linear algebra.

    Flattens powers of alpha to coordinate vectors over ``sub`` and returns
    the monic combination at the first linear dependence.  Independent of
    the trace machinery by construction.
    """
    field = alpha.ctx
    dim = relative_degree(field, sub)
    # each level packs its coefficients base |its base|, a power of |sub|,
    # so the base-|sub| digits of a packed value are its coordinates over sub
    coords, _ = _codec(sub.order, dim)
    smul, ssub, sinv = sub.mul_v, sub.sub_v, sub.inv_v
    rows = []  # (pivot index, reduced vector, combination over powers)
    power = 1  # packed value of alpha**j
    for j in range(dim + 1):
        vec = coords(power)
        combo = [0] * j + [1]
        for pivot, rvec, rcombo in rows:
            f = vec[pivot]
            if f:
                vec = [ssub(vec[i], smul(f, rvec[i])) for i in range(dim)]
                for i, rc in enumerate(rcombo):
                    if rc:
                        combo[i] = ssub(combo[i], smul(f, rc))
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            return Poly(sub, [FieldElement(sub, v) for v in combo])
        inv = sinv(vec[pivot])
        vec = [smul(inv, v) for v in vec]
        combo = [smul(inv, v) for v in combo]
        rows.append((pivot, vec, combo))
        power = field.mul_v(power, alpha.val)
    raise AssertionError("no dependence found among dim + 1 vectors")


class MinpolyTraceCheck(NamedTuple):
    """Trace recovered from a minimal polynomial vs the Frobenius sum."""

    from_minpoly: FieldElement
    from_frobenius_sum: FieldElement
    agree: bool


def minpoly_trace_check(alpha: FieldElement, sub: FieldCtx) -> MinpolyTraceCheck:
    """Compare -(second-highest minpoly coefficient) with rel_trace.

    Requires alpha to generate its field over ``sub``; a smaller minimal
    polynomial raises NotGenerating.
    """
    dim = relative_degree(alpha.ctx, sub)
    mp = minimal_polynomial(alpha, sub)
    if mp.degree != dim:
        raise NotGenerating(
            f"minimal polynomial has degree {mp.degree}, need {dim}")
    from_mp = -mp[dim - 1]
    direct = rel_trace(alpha, sub)
    return MinpolyTraceCheck(from_mp, direct, from_mp == direct)


def verify_suites(ctx: FieldCtx, suite: str = 'all',
                  n_max: Optional[int] = None,
                  cap: int = DEFAULT_DEGREE_CAP) -> list:
    """The reports of one of :data:`SUITES` over the field, or of all four:
    :func:`criterion_vs_direct` up to ``n_max`` (default: the largest
    n >= 1 with p^n <= SWEEP_DEGREE_LIMIT), the trace sweep, the Moebius
    trace oracle on seeded tuples, and :func:`minpoly_trace_check` on each
    generating element, or on a seeded sample above 512 elements.  The
    traces suite, alone or in all four, raises DegreeTooLarge before the
    first report when p > MAX_TOWER_DEGREE, and every suite raises
    IterationTooLarge when ``cap`` exceeds MAX_DEGREE_CAP."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    _check_cap(cap)
    if suite in ('traces', 'all') and ctx.p > MAX_TOWER_DEGREE:
        raise DegreeTooLarge(
            f"the traces suite builds towers of degree p = {ctx.p}"
            f" > {MAX_TOWER_DEGREE}")
    if n_max is None:
        n_max = 1
        while ctx.p ** (n_max + 1) <= SWEEP_DEGREE_LIMIT:
            n_max += 1
    reports = []
    if suite in ('criterion', 'all'):
        reports.extend(criterion_vs_direct(ctx, n_max, cap=cap))
    if suite in ('irreducibility', 'all'):
        reports.append(irreducibility_trace_sweep(ctx))
    if suite in ('traces', 'all'):
        reports.append(_trace_tuple_suite(ctx))
    if suite in ('minpoly', 'all'):
        reports.append(_minpoly_suite(ctx))
    return reports


def _trace_tuple_suite(ctx) -> EquivalenceReport:
    """Seeded random Moebius tuples, c = 0 included, formula vs direct."""
    rng = random.Random(_TRACE_SEED)
    nonzero_trace = [x for x in ctx.elements() if abs_trace(x).val != 0]
    pairs = []
    for i in range(_TRACE_TUPLES):
        xi = nonzero_trace[rng.randrange(len(nonzero_trace))]
        a = FieldElement(ctx, rng.randrange(ctx.order))
        b = FieldElement(ctx, rng.randrange(ctx.order))
        if i % 10 == 0:
            c = ctx.zero
            d = FieldElement(ctx, rng.randrange(1, ctx.order))
        else:
            while True:
                c = FieldElement(ctx, rng.randrange(ctx.order))
                d = FieldElement(ctx, rng.randrange(ctx.order))
                if c.val or d.val:
                    break
        chk = rel_trace_oracle(a, b, c, d, xi)
        pairs.append((i, element_to_text(chk.formula),
                      element_to_text(chk.direct)))
    return EquivalenceReport.build(
        'mobius_trace_vs_frobenius_sum', ctx.describe(), None, None, pairs)


def _minpoly_suite(ctx) -> EquivalenceReport:
    """Minpoly-coefficient trace vs Frobenius sum over generating elements."""
    prime = ctx.prime_ctx
    pairs = []
    if ctx.order <= 512:
        candidates = range(ctx.order)
    else:
        rng = random.Random(_MINPOLY_SEED)
        candidates = (rng.randrange(ctx.order)
                      for _ in range(_MINPOLY_SAMPLES))
    for v in candidates:
        alpha = FieldElement(ctx, v)
        try:
            chk = minpoly_trace_check(alpha, prime)
        except NotGenerating:
            continue
        pairs.append((element_to_text(alpha),
                      element_to_text(chk.from_minpoly),
                      element_to_text(chk.from_frobenius_sum)))
    return EquivalenceReport.build(
        'minpoly_coeff_vs_frobenius_sum', ctx.describe(), None, None, pairs)
