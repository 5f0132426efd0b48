"""Brute-force cross-checks for every closed form in the package.

Nothing in this module shares a code path with the formula it is checking:

* denominators of the iterates are tested for irreducibility directly with
  the deterministic Rabin test and compared against the cumulative trace
  criterion;
* relative traces are recomputed as explicit Frobenius conjugate sums inside
  a freshly constructed K(gamma) and compared against the closed Moebius
  formula (:func:`rel_trace <.fields.rel_trace>` sums powers computed by
  plain powering, never the precomputed trace vector or Frobenius matrix
  that the fast paths use).  In :func:`rel_trace_oracle` the direct side
  multiplies in K(gamma) with the tower product (one packed multiply of
  the flat digits, reduced by rows X^I y^J mod both moduli) and divides
  with the tower's extended Euclid over ``polys``; the formula side runs
  in K alone, on K's closures and its Frobenius and trace maps.  The
  two sides share only K's closures, from which the tower's reduction rows
  and Euclid are built.  On fields up to ``fields.ZECH_MAX_ORDER``
  those closures are lookups in a Zech-log table, built by the same
  packed product that larger fields compute with.  Exhaustive tests check
  the table against that product, and the product against a schoolbook
  product on prime-field operators: every sum, difference, negation and
  product on fields of order <= 81, and every antilog step, Zech entry
  and inverse on fields of order <= 729 and on GF(3^8), GF(2^12) and
  GF(89^2), the largest below the bound;
* traces are also recovered from the second-highest coefficient of a
  minimal polynomial found by plain linear algebra over the subfield.

Each comparison lands in an :class:`EquivalenceReport`; a report that does
not agree is a build-failing defect, never an expected outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .criterion import init_states, mobius_trace_formula, step_state, trace_rows
from .errors import (
    BothZero,
    CtxMismatch,
    IrreducibilityHypothesisViolated,
    NotGenerating,
)
from .fields import (
    FieldCtx,
    FieldElement,
    _codec,
    abs_trace,
    element_to_text,
    extension_field,
    lift,
    rel_trace,
    relative_degree,
)
from .iteration import DEFAULT_DEGREE_CAP, _denominators
from .polys import Poly, artin_schreier, is_irreducible


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
        return {
            'label': self.label,
            'field': self.field,
            'params': self.params,
            'n_max': self.n_max,
            'agree': self.agree,
            'first_disagreement': self.first_disagreement,
            'pairs': [list(p) for p in self.pairs],
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
    irreducible.
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
        for (n, oracle_irreducible), row in zip(direct, rows):
            all_nonzero = all_nonzero and row.trace.val != 0
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
    (a gamma + b)/(c gamma + d) there, and takes the relative trace down to
    K as a literal sum of conjugates.
    """
    ctx = xi.ctx
    for z in (a, b, c, d):
        if z.ctx is not ctx:
            raise CtxMismatch("transform coefficients from a different field")
    if c.val == 0 and d.val == 0:
        raise BothZero("(c, d) = (0, 0) does not define a transform")
    if abs_trace(xi).val == 0:
        raise IrreducibilityHypothesisViolated(
            "Tr(xi) = 0, so X^p - X + xi is reducible")
    ext = extension_field(ctx, artin_schreier(xi))
    gamma = ext.modulus_root
    al, bl, cl, dl = (lift(z, ext) for z in (a, b, c, d))
    # c gamma + d never vanishes: c != 0 would put gamma in K, and c = 0
    # leaves the nonzero constant d
    u = (al * gamma + bl) / (cl * gamma + dl)
    direct = rel_trace(u, ctx)
    formula = mobius_trace_formula(a, b, c, d, xi)
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


def state_walk_c_nonzero(xi: FieldElement, n_max: int) -> bool:
    """Walk the criterion states to n_max checking c_n != 0 throughout.

    Under Tr(xi) != 0 this is a theorem (xi - t^p + t = 0 for some t in F_q
    would force Tr(xi) = 0); exposed so test suites can assert it
    exhaustively.
    """
    _, state = init_states(xi)
    while state.n < n_max:
        if state.c.val == 0:
            return False
        state = step_state(state, xi)
    return state.c.val != 0
