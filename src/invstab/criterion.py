"""The trace criterion for inverse stability of g = X^p - X + xi.

Write alpha_n for a root of the denominator D_n of the n-th iterate of 1/g.
Each alpha_n is a Moebius transform (a_n alpha + b_n)/(c_n alpha + d_n) of a
root alpha of g itself, and the coefficient triples obey the recurrence

    a_1, c_1, d_1 = xi, 1, 0        a_2, c_2, d_2 = -1, xi, -1
    a_{n+1} = -a_n d_n
    c_{n+1} = c_n^2 (xi - t^p + t)      with t = d_n / c_n
    d_{n+1} = -c_n^2

(b_n is determined and never needed).  The decisive quantity is the trace of
a_n / c_n down to the prime field: D_n is irreducible over F_q exactly when
that trace is nonzero for all m <= n, and g is inversely stable (every D_n
irreducible) exactly when it is nonzero for every n.

The state space (a, c, d) is finite, of size at most q^3, so the sequence of
states from n = 2 on is eventually periodic: once the cycle closes with no
zero trace, none can ever appear and g is stable.  The decision never walks
the states themselves.  Writing t = d/c and r = a/c, the state is
c (r, 1, t); t moves on its own, r follows t and is all the trace test
reads, and c_(n+1) = c_n^2 (xi - t^p + t) never feeds back.

:func:`_decide_v` decides a packed xi, and :func:`decide_inverse_stability`
wraps its answer and xi in a verdict; :func:`decide_field` decides every
seed of a field, one per orbit of the Frobenius and negation.  The
decision has two paths.  A seed xi in F_p^* needs no walk
(:func:`_prime_cycle`): the Frobenius fixes t = -1/xi, so r_n and c_n are
powers of -1/xi and xi, no trace vanishes when Tr(xi) != 0, and the cycle
data come from the order of xi in F_p^*.
Every other seed walks t on packed values to its first repeat, which is
where the (t, r) cycle starts, then steps r and c around the t-cycle to the
first zero trace or the lap where r returns (:func:`_t_walk`); a stable
seed gets the cycle data of the states from element orders in F_q^*.
Both return what a walk over the states would find: the outcome, the
witness, the preperiod and the period.  The verdict holds these and xi,
and derives the rest: ``state_steps`` and ``table_rows`` in properties,
and the table by :func:`trace_rows` when
:attr:`StabilityVerdict.trace_table` is first read.

The module also carries the closed-form trace of a general Moebius transform
of a root of g (:func:`mobius_trace_formula`) and two classical
irreducibility predicates for sparse polynomials (:func:`wan_irreducible_p`
for X^p + aX + b, :func:`agou_quartic_irreducible` for X^4 + aX + b in
characteristic two), which serve as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import (
    AZero,
    BothZero,
    CtxMismatch,
    CZero,
    IrreducibilityHypothesisViolated,
    NotCharTwo,
)
from .fields import (
    FieldCtx,
    FieldElement,
    _prime_factors,
    abs_trace,
    element_from_text,
    element_to_text,
    finite_field,
)

STABLE = 'stable'
UNSTABLE = 'unstable'

@dataclass(frozen=True)
class CriterionState:
    """The Moebius coefficient triple (a_n, c_n, d_n) at index n."""

    n: int
    a: FieldElement
    c: FieldElement
    d: FieldElement

    def key(self):
        """Hashable identity of the triple, ignoring the index."""
        return (self.a.val, self.c.val, self.d.val)


class TraceRow(NamedTuple):
    """One row of the criterion table: the state plus a_n/c_n and its trace."""

    n: int
    a: FieldElement
    c: FieldElement
    d: FieldElement
    ratio: FieldElement
    trace: FieldElement

    def cells(self) -> tuple:
        """The row for output: n, then a, c, d, ratio and trace as text.

        Every table, CSV and JSON rendering of a row is built from this.
        """
        return (self.n, element_to_text(self.a), element_to_text(self.c),
                element_to_text(self.d), element_to_text(self.ratio),
                element_to_text(self.trace))


def init_states(xi: FieldElement):
    """The two seed states (n = 1 and n = 2) for the given xi."""
    ctx = xi.ctx
    one = ctx.one
    s1 = CriterionState(1, xi, one, ctx.zero)
    s2 = CriterionState(2, -one, xi, -one)
    return s1, s2


def step_state(state: CriterionState, xi: FieldElement) -> CriterionState:
    """Advance the recurrence one index; defined for n >= 2 with c != 0."""
    if state.n < 2:
        raise ValueError("the recurrence starts at n = 2; use init_states")
    c = state.c
    if c.val == 0:
        raise CZero(f"c_{state.n} = 0, cannot advance")
    ctx = xi.ctx
    if ctx is not c.ctx:
        raise CtxMismatch("xi from a different field")
    a, c, d = _step_v(ctx, xi.val, state.a.val, c.val, state.d.val,
                      ctx.inv_v(c.val))
    return CriterionState(state.n + 1, FieldElement(ctx, a),
                          FieldElement(ctx, c), FieldElement(ctx, d))


def _step_v(ctx: FieldCtx, xi_v: int, a: int, c: int, d: int,
            c_inv: int) -> tuple:
    """The recurrence on packed values: (a_n, c_n, d_n) -> (a_(n+1), ...),
    given c_inv = 1/c (c != 0), which the row of the same state shares."""
    mul = ctx.mul_v
    t = mul(d, c_inv)
    c_sq = mul(c, c)
    return (ctx.neg_v(mul(a, d)),
            mul(c_sq, ctx.add_v(ctx.sub_v(xi_v, ctx.frobenius_v(t)), t)),
            ctx.neg_v(c_sq))


def _row_v(ctx: FieldCtx, n: int, a: int, c: int, d: int,
           ratio: int) -> TraceRow:
    """The table row of the packed triple at index n, given ratio = a/c."""
    r = FieldElement(ctx, ratio)
    return TraceRow(n, FieldElement(ctx, a), FieldElement(ctx, c),
                    FieldElement(ctx, d), r, abs_trace(r))


def trace_rows(xi: FieldElement, n_max: int) -> list:
    """Rows of the criterion table for n = 1 .. n_max (plain walk).

    The walk stops before the first state with c_n = 0, where a_n / c_n is
    undefined.  Such a state exists only when Tr(xi) = 0 (then D_1 = g is
    already reducible), so for Tr(xi) != 0 the table always has n_max rows.
    Each row shares the inverse of c_n with the step that follows it; row
    1's ratio is xi itself (c_1 = 1), so it takes no product.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ctx, xi_v = xi.ctx, xi.val
    rows = [_row_v(ctx, 1, xi_v, 1, 0, xi_v)]
    # -1 packs as p - 1 at every depth; a Zech field's neg_v builds its table
    minus_one = ctx.p - 1
    a, c, d = minus_one, xi_v, minus_one
    for n in range(2, n_max + 1):
        if c == 0:
            break
        c_inv = ctx.inv_v(c)
        rows.append(_row_v(ctx, n, a, c, d, ctx.mul_v(a, c_inv)))
        if n < n_max:
            a, c, d = _step_v(ctx, xi_v, a, c, d, c_inv)
    return rows


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the stability decision for one xi.

    The fields are what the decision finds; everything else is derived
    from them.  ``outcome`` is 'stable' or 'unstable'.  For an unstable
    xi, ``witness_n`` is the least n with trace zero (so D_witness_n is the
    first reducible denominator) and the cycle data is None, since the walk
    stops at the witness.  For a stable xi, ``preperiod``/``period``
    describe the state sequence s_2, s_3, ...: s_(2 + preperiod) is the
    first state on the cycle and s_(n + period) = s_n for every
    n >= 2 + preperiod.  The trace table then covers exactly
    n = 1 .. preperiod + period + 1, and n = 1 .. witness_n for an
    unstable xi.
    """

    outcome: str
    witness_n: Optional[int]
    preperiod: Optional[int]
    period: Optional[int]
    xi: FieldElement

    @property
    def ctx(self) -> FieldCtx:
        """The field of xi."""
        return self.xi.ctx

    @property
    def state_steps(self) -> int:
        """The evaluations of the recurrence map that the walk to the
        first repeat or zero trace takes, one per state past s_2:
        preperiod + period for a stable xi (the last evaluation meets the
        repeat) and max(witness_n - 2, 0) for an unstable one.  The
        decision walks no states, so this is the count such a walk would
        take."""
        if self.outcome == STABLE:
            return self.preperiod + self.period
        return max(self.witness_n - 2, 0)

    @property
    def table_rows(self) -> int:
        """The length of :attr:`trace_table`, known without building it:
        witness_n for an unstable xi, preperiod + period + 1 for a stable
        one."""
        return self.witness_n or self.preperiod + self.period + 1

    @cached_property
    def trace_table(self) -> tuple:
        """The criterion table's rows, from :func:`trace_rows` on first
        access."""
        return tuple(trace_rows(self.xi, self.table_rows))

    def to_dict(self) -> dict:
        """Plain-data form, checked and rebuilt by :meth:`from_dict`."""
        return self._record([dict(zip(TraceRow._fields, r.cells()))
                             for r in self.trace_table])

    def _record(self, trace_table) -> dict:
        """:meth:`to_dict` with ``trace_table`` as the value of its
        'trace_table' key, which the command line fills without a dict per
        row."""
        return {
            'outcome': self.outcome,
            'witness_n': self.witness_n,
            'preperiod': self.preperiod,
            'period': self.period,
            'state_steps': self.state_steps,
            'field': self.ctx.describe(),
            'xi': element_to_text(self.xi),
            'trace_table': trace_table,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StabilityVerdict":
        """The verdict of the xi that a :meth:`to_dict` record names,
        checked against the record.

        The record's field and xi are parsed and xi is decided; every key
        of the decided verdict's :meth:`to_dict` must then equal the
        record's, which may carry other keys as well.  Raises ValueError
        for a missing key (named in the message), a field degree ``e``
        that is not an int >= 1, an xi or modulus that is not text (the
        key is named), or any value that differs from the decision's (the
        key is named, and for the trace table the first differing row and
        cell).
        """
        described, xi = _values(data, 'verdict', ('field', 'xi'))
        p, e = _values(described, 'field', ('p', 'e'))
        if type(e) is not int or e < 1:
            raise ValueError(f"field 'e' must be an int >= 1, got {e!r}")
        modulus = described.get('modulus')
        if modulus is not None:
            modulus = [int(s) for s in _text('modulus', modulus).split(',')]
        ctx = finite_field(p, e, modulus)
        verdict = decide_inverse_stability(
            element_from_text(ctx, _text('xi', xi)))
        _check('verdict', data, verdict.to_dict())
        return verdict


def _values(data, what: str, keys) -> list:
    """The values of ``keys`` in the dict ``data``; ValueError, naming the
    key, when one is missing or ``data`` is not a dict."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a dict, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no {key!r}")
    return [data[key] for key in keys]


def _text(key: str, value) -> str:
    """``value`` when it is a string; ValueError naming ``key`` otherwise."""
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be text, got {value!r}")
    return value


def _check(where: str, got, want) -> None:
    """ValueError, naming ``where`` and the first key or row below it that
    differs, unless ``got`` holds every key of the dicts in ``want`` with
    equal values, the same rows in its lists, and scalars of the same type
    and value."""
    if isinstance(want, dict):
        for (key, w), g in zip(want.items(), _values(got, where, want)):
            _check(f"{where} {key!r}", g, w)
    elif isinstance(want, list):
        if not isinstance(got, list):
            raise ValueError(f"{where} must be a list, got {got!r}")
        for n, (g, w) in enumerate(zip(got, want), 1):
            _check(f"{where} row {n}", g, w)
        if len(got) != len(want):
            raise ValueError(f"{where} has {len(got)} rows; the decision "
                             f"gives {len(want)}")
    elif type(got) is not type(want) or got != want:
        raise ValueError(f"{where} is {got!r}, the decision gives {want!r}")


def decide_inverse_stability(xi: FieldElement) -> StabilityVerdict:
    """Decide whether X^p - X + xi is inversely stable over xi's field.

    The verdict of :func:`_decide_v` on xi's packed value, with xi.  No
    row is built here: the verdict's ``trace_table`` is computed on first
    access.
    """
    return StabilityVerdict(*_decide_v(xi.ctx, xi.val), xi)


def _decide_v(ctx: FieldCtx, xi_v: int) -> tuple:
    """The decision on a packed xi: (outcome, witness_n, preperiod,
    period), the fields of :class:`StabilityVerdict` before xi.

    Terminates on every input: either some trace vanishes at a finite index
    (unstable, witness recorded), or the state cycle closes with every trace
    on it nonzero (stable).  The trace at each index is checked before the
    state is ever advanced past it, so the reported witness is minimal and
    no state with c = 0 is stepped.  A seed in F_p^* (packed value below
    p) is decided in closed form (:func:`_prime_cycle`), so a prime field
    walks nothing.  Every other seed walks the orbit of t, and a stable
    one gets its cycle data from orders in F_q^* (:func:`_t_walk`).
    Both give what a walk over the states would.  This is the one
    decision path: :func:`decide_inverse_stability` wraps it, and
    :func:`decide_field` calls it once per orbit of seeds.
    """
    if ctx.trace_v(xi_v) == 0:
        # Tr(xi) = 0: D_1 = g is already reducible
        return UNSTABLE, 1, None, None
    return (_prime_cycle if xi_v < ctx.p else _t_walk)(ctx, xi_v)


def decide_field(ctx: FieldCtx) -> list:
    """:func:`_decide_v`'s (outcome, witness_n, preperiod, period) for
    every seed, in a list indexed by packed value.  The first seed of each
    orbit of xi -> xi^p and xi -> -xi is decided, and the rest share it.

    Both maps carry the states of xi injectively onto those of its image,
    so the image has the same outcome, witness, preperiod and period.  The
    Frobenius sigma fixes F_p, which holds the recurrence's coefficients
    (1, 0 and -1), so the states of sigma(xi) are the
    sigma(a_n, c_n, d_n), and Tr(sigma x) = Tr(x).  This needs every
    coefficient in F_p: sigma moves one outside it, such as a kappa in
    d_(n+1) = -kappa c_n^2, and sigma(xi) would follow another recurrence.
    For odd p, (-t)^p = -t^p, so from n = 2 on the states of -xi are
    (a_n, -c_n, d_n): t and r change sign with c, and Tr(-r) = -Tr(r)
    vanishes with Tr(r); at n = 1, Tr(-xi) = -Tr(xi).  In characteristic
    2 negation is the identity.  The maps generate a group of order e, or
    2e for odd p, so an orbit is short.
    """
    frobenius, neg = ctx.frobenius_v, ctx.neg_v
    verdicts = [None] * ctx.order
    for v in range(ctx.order):
        if verdicts[v] is None:
            verdict, y = _decide_v(ctx, v), v
            # set seeds are closed under negation: a set y closes the orbit
            while verdicts[y] is None:
                verdicts[y] = verdicts[neg(y)] = verdict
                y = frobenius(y)
    return verdicts


def _prime_cycle(ctx: FieldCtx, xi_v: int) -> tuple:
    """The state walk's (outcome, witness_n, preperiod, period) in closed
    form, for xi in F_p^* (a packed value below p) with Tr(xi) != 0.

    The Frobenius fixes F_p, so t_n = tau = -1/xi for every n >= 2, and
    the recurrence gives r_n = a_n/c_n = tau^(2n - 3) and
    c_n = xi^(2^(n-1) - 1).  Tr(r_n) = e r_n for e = [F_q : F_p], and
    Tr(xi) = e xi != 0, so no trace vanishes: xi is stable.  The r_n
    repeat from n = 2 on with period ord(tau^2) = ord(xi^2), which is
    ord(xi) / gcd(ord(xi), 2).  With ord(xi) = 2^s M, M odd, the powers
    2^(n-1) mod 2^s M reach their cycle at n - 1 = s, the first that is 0
    mod 2^s, and then repeat with period ord_M(2).  So the states s_2,
    s_3, ... have preperiod max(s - 1, 0) and period
    lcm(ord(tau^2), ord_M(2)).  Orders in the cyclic group F_p^* divide
    p - 1, whose prime factors the prime context keeps from the first call
    on (Lidl and Niederreiter, Finite Fields, ch. 3); ord_M(2) divides
    phi(M), which is factored by trial division.
    """
    p = ctx.p
    primes = _unit_primes(ctx.prime_ctx)
    o = _order(xi_v, p, p - 1, primes)
    s = (o & -o).bit_length() - 1
    odd = o >> s
    phi = _totient(odd, primes)
    lam = math.lcm(o // math.gcd(o, 2),
                   _order(2, odd, phi, _prime_factors(phi)))
    return STABLE, None, max(s - 1, 0), lam


def _unit_primes(ctx: FieldCtx) -> list:
    """The prime factors of q - 1 = |F_q^*|, kept on the context."""
    primes = ctx._unit_primes
    if primes is None:
        primes = ctx._unit_primes = _prime_factors(ctx.order - 1)
    return primes


def _order(x, mod, n: int, primes) -> int:
    """The multiplicative order of x mod ``mod`` (or of a field element x,
    with mod None), given a multiple n of it whose distinct prime factors
    are among ``primes``."""
    for ell in primes:
        while n % ell == 0 and pow(x, n // ell, mod) == 1:
            n //= ell
    return n


def _totient(n: int, primes) -> int:
    """Euler's phi of n, given every prime factor of n in ``primes``."""
    phi = n
    for ell in primes:
        if n % ell == 0:
            phi = phi // ell * (ell - 1)
    return phi


def _t_walk(ctx: FieldCtx, xi_v: int) -> tuple:
    """The state walk's (outcome, witness_n, preperiod, period), for
    Tr(xi) != 0, from the orbit of t.

    The state (a, c, d) is c (r, 1, t) with r = a/c and t = d/c.  With
    u_n = xi - t_n^p + t_n, never 0 as Tr(u_n) = Tr(xi), t_(n+1) = -1/u_n
    moves on its own from t_2 = -1/xi, while r_(n+1) = r_n t_n t_(n+1) from
    r_2 = -1/xi and c_(n+1) = c_n^2 u_n from c_2 = xi never feed back.
    t^p - t lies in the trace-zero hyperplane, so t_3, t_4, ... take at
    most q/p values.  The walk steps t, r and c, testing Tr(r_n) and
    keeping (t_n t_(n+1), u_n, c_n, r_n) at each n, to the first zero trace
    (unstable, the least witness) or the first repeated t, t_(N+L) = t_N.
    No t before N returns, so neither does a pair (t, r): the pairs' cycle
    starts at N, and its length P is the least kL > 0 with r_(N+kL) = r_N.
    From N + L the walk steps r and c around the L kept steps of the
    t-cycle to the first zero trace or to that lap: stable, as no new r
    can follow.

    The cycle data are those of the states, and c decides them.  From N on
    a lap of P steps is x -> 2^P x + B mod q - 1 on logs x_n = log c_n,
    B fixed by n mod L.  Let q - 1 = 2^s M, M odd.  Mod M a lap is a
    bijection; mod 2^s, s steps send every x to one fixed point, its only
    periodic point.  So s_n is on the cycle exactly when
    Y_n = c_(n+P)/c_n has odd order.  u has period L, which divides P, so
    Y_(n+1) = Y_n^2: with ord(Y_N) = 2^v g, g odd, the cycle starts at
    N0 = N + v, where Y has order g.  k laps return c_N0 when g divides
    1 + a + ... + a^(k-1) = (a^k - 1)/(a - 1), a = 2^P, that is when
    a^k = 1 mod g (a - 1) for any a > 1 congruent to 2^P mod g.  The least
    such k, tau, divides g phi(g).  The preperiod is N0 - 2 and the period
    P tau (Knuth, TAOCP vol. 2, section 3.1; Lidl and Niederreiter, Finite
    Fields, ch. 3).
    """
    mul, inv, neg, trace = ctx.mul_v, ctx.inv_v, ctx.neg_v, ctx.trace_v
    t = r = neg(inv(xi_v))
    c, first, steps = xi_v, {}, []      # first[t_n] = n - 2, an index of steps
    while t not in first:
        if not trace(r):
            return UNSTABLE, len(steps) + 2, None, None
        first[t] = len(steps)
        u = ctx.add_v(ctx.sub_v(xi_v, ctx.frobenius_v(t)), t)
        nxt = neg(inv(u))
        tt = mul(t, nxt)
        steps.append((tt, u, c, r))
        t, r, c = nxt, mul(r, tt), mul(mul(c, c), u)
    pre = first[t]                      # N - 2
    lap = steps[pre:]
    c_n, r_n = lap[0][2:]               # c_N and r_N
    n = len(steps) + 2                  # N + L
    while r != r_n:
        for tt, u, _, _ in lap:
            if not trace(r):
                return UNSTABLE, n, None, None
            r, c = mul(r, tt), mul(mul(c, c), u)
            n += 1
    primes = _unit_primes(ctx)
    o = _order(FieldElement(ctx, mul(c, inv(c_n))), None, ctx.order - 1,
               primes)
    v = (o & -o).bit_length() - 1
    g, period = o >> v, n - 2 - pre     # P = n - N
    a = pow(2, period, g) + g
    phi = _totient(g, primes)
    tau = _order(a, g * (a - 1), g * phi, primes + _prime_factors(phi))
    return STABLE, None, pre + v, period * tau


# ---------------------------------------------------------------------------
# closed-form Moebius trace and classical sparse-polynomial predicates

def mobius_trace_formula(a: FieldElement, b: FieldElement, c: FieldElement,
                         d: FieldElement, xi: FieldElement) -> FieldElement:
    """Tr_{K(gamma)/K} of (a*gamma + b)/(c*gamma + d), in closed form.

    gamma is a root of the irreducible X^p - X + xi over K = xi's field
    (irreducible requires Tr(xi) != 0; violations raise).  The pair (c, d)
    must not be (0, 0).

    For c = 0 the transform is affine in gamma, whose trace vanishes for
    p >= 3 and equals a/d for p = 2.  Otherwise the trace is

        (b c - a d) / (c^2 (xi - t^p + t))     with t = d / c,

    and the denominator is nonzero because xi - t^p + t = 0 would force
    Tr(xi) = 0.
    """
    ctx = xi.ctx
    for name, z in (('a', a), ('b', b), ('c', c), ('d', d)):
        if z.ctx is not ctx:
            raise CtxMismatch(f"{name} from a different field")
    if c.val == 0 and d.val == 0:
        raise BothZero("(c, d) = (0, 0) does not define a transform")
    if abs_trace(xi).val == 0:
        raise IrreducibilityHypothesisViolated(
            "Tr(xi) = 0, so X^p - X + xi is reducible")
    if c.val == 0:
        if ctx.p == 2:
            return a / d
        return ctx.zero
    t = d / c
    denom = c * c * (xi - t.frobenius() + t)
    return (b * c - a * d) / denom


class WanResult(NamedTuple):
    """Outcome of :func:`wan_irreducible_p` with the certifying element."""

    irreducible: bool
    witness: Optional[FieldElement]


def wan_irreducible_p(a: FieldElement, b: FieldElement) -> WanResult:
    """Irreducibility of X^p + aX + b over F_q (p the characteristic).

    The polynomial is irreducible iff some a_0 in F_q^* satisfies
    a = -a_0^(p-1) and Tr(b / a_0^p) != 0; the first such a_0 in packed
    order is returned as the witness.  ``a`` must be nonzero.
    """
    if a.ctx is not b.ctx:
        raise CtxMismatch("a and b from different fields")
    ctx = a.ctx
    if a.val == 0:
        raise AZero("the coefficient a must be nonzero")
    p = ctx.p
    for v in range(1, ctx.order):
        a0 = FieldElement(ctx, v)
        if (-(a0 ** (p - 1))).val != a.val:
            continue
        if abs_trace(b / a0 ** p).val != 0:
            return WanResult(True, a0)
    return WanResult(False, None)


def agou_quartic_irreducible(a: FieldElement, b: FieldElement) -> bool:
    """Irreducibility of X^4 + aX + b over F_{2^e}.

    Irreducible iff e is odd and some a_0 in F_q^* has a = a_0^3 and
    Tr(b / a_0^4) != 0.  (For odd e cubing is a bijection on F_q^*, so a_0
    is unique; substituting X = a_0 Y reduces the polynomial to
    Y^4 + Y + b / a_0^4, which splits as (Y^2 + Y + r)(Y^2 + Y + r + 1)
    exactly when the trace vanishes and is irreducible otherwise.)
    Raises NotCharTwo away from characteristic two and AZero for a = 0.
    """
    if a.ctx is not b.ctx:
        raise CtxMismatch("a and b from different fields")
    ctx = a.ctx
    if ctx.p != 2:
        raise NotCharTwo("the quartic predicate needs characteristic 2")
    if a.val == 0:
        raise AZero("the coefficient a must be nonzero")
    if ctx.total_degree % 2 == 0:
        return False
    for v in range(1, ctx.order):
        a0 = FieldElement(ctx, v)
        if (a0 ** 3).val == a.val and abs_trace(b / a0 ** 4).val != 0:
            return True
    return False
