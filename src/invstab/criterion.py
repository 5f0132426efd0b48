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
c (r, 1, t); the pair (t, r) moves on its own and the trace test reads only
r, while c follows c_(n+1) = c_n^2 (xi - t^p + t) and never feeds back.

:func:`decide_inverse_stability` has two paths.  A seed xi in F_p^* needs
no walk (:func:`_prime_cycle`): the Frobenius fixes t = -1/xi, so r_n and
c_n are powers of -1/xi and xi, no trace vanishes when Tr(xi) != 0, and
the cycle data come from the order of xi in F_p^*.  Every other seed walks
the (t, r) orbit on packed values to the first zero trace or the first
repeated pair (:func:`_pair_walk`), and a stable seed gets the cycle data
of the states from element orders in F_q^*, with c computed over one lap
and a few steps.  Both return what a walk over the states would: the same
witness, preperiod, period and ``state_steps``.  The decision builds no
table row; :attr:`StabilityVerdict.trace_table` is computed by
:func:`trace_rows` when first read.

The module also carries the closed-form trace of a general Moebius transform
of a root of g (:func:`mobius_trace_formula`) and two classical
irreducibility predicates for sparse polynomials (:func:`wan_irreducible_p`
for X^p + aX + b, :func:`agou_quartic_irreducible` for X^4 + aX + b in
characteristic two), which serve as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
           c_inv: int) -> TraceRow:
    """The table row of the packed triple at index n, given c_inv = 1/c."""
    ratio = FieldElement(ctx, ctx.mul_v(a, c_inv))
    return TraceRow(n, FieldElement(ctx, a), FieldElement(ctx, c),
                    FieldElement(ctx, d), ratio, abs_trace(ratio))


def trace_rows(xi: FieldElement, n_max: int) -> list:
    """Rows of the criterion table for n = 1 .. n_max (plain walk).

    The walk stops before the first state with c_n = 0, where a_n / c_n is
    undefined.  Such a state exists only when Tr(xi) = 0 (then D_1 = g is
    already reducible), so for Tr(xi) != 0 the table always has n_max rows.
    Each row shares the inverse of c_n with the step that follows it.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ctx, xi_v = xi.ctx, xi.val
    rows = [_row_v(ctx, 1, xi_v, 1, 0, 1)]
    minus_one = ctx.neg_v(1)
    a, c, d = minus_one, xi_v, minus_one
    for n in range(2, n_max + 1):
        if c == 0:
            break
        c_inv = ctx.inv_v(c)
        rows.append(_row_v(ctx, n, a, c, d, c_inv))
        if n < n_max:
            a, c, d = _step_v(ctx, xi_v, a, c, d, c_inv)
    return rows


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the stability decision for one xi.

    ``outcome`` is 'stable' or 'unstable'.  For an unstable xi, ``witness_n``
    is the least n with trace zero (so D_witness_n is the first reducible
    denominator) and the cycle data is None, since the walk stops at the
    witness.  For a stable xi, ``preperiod``/``period`` describe the state
    sequence s_2, s_3, ...: s_(2 + preperiod) is the first state on the
    cycle and s_(n + period) = s_n for every n >= 2 + preperiod.  The trace
    table then covers exactly n = 1 .. preperiod + period + 1, and n = 1 ..
    witness_n for an unstable xi.
    ``state_steps`` counts the evaluations of the recurrence map that the
    walk to the first repeat or zero trace takes, one per state past s_2:
    preperiod + period for a stable xi (the last evaluation meets the
    repeat) and max(witness_n - 2, 0) for an unstable one.  The decision
    walks no states, so this is the count such a walk would take: the
    closed forms return it with no evaluation made.
    """

    outcome: str
    witness_n: Optional[int]
    preperiod: Optional[int]
    period: Optional[int]
    state_steps: int
    xi: FieldElement
    ctx: FieldCtx
    #: the rows, once known; :attr:`trace_table` fills this on first access
    _rows: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def trace_table(self) -> tuple:
        """The criterion table's rows, from :func:`trace_rows` on first
        access (or as given to :meth:`from_dict`)."""
        if self._rows is None:
            n_max = self.witness_n or self.preperiod + self.period + 1
            object.__setattr__(self, '_rows',
                               tuple(trace_rows(self.xi, n_max)))
        return self._rows

    def to_dict(self) -> dict:
        """Plain-data form, round-tripped by :meth:`from_dict`."""
        return {
            'outcome': self.outcome,
            'witness_n': self.witness_n,
            'preperiod': self.preperiod,
            'period': self.period,
            'state_steps': self.state_steps,
            'field': self.ctx.describe(),
            'xi': element_to_text(self.xi),
            'trace_table': [dict(zip(TraceRow._fields, r.cells()))
                            for r in self.trace_table],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StabilityVerdict":
        """Rebuild a verdict from :meth:`to_dict` output.

        Raises ValueError when the data cannot be a verdict: a missing key
        (named in the message), a trace table that is not a list of row
        dicts, an unknown outcome, a witness or cycle data that does not fit
        the outcome, a trace table of the wrong length or not numbered 1, 2,
        ..., a negative ``state_steps``, or an element or modulus that is
        not text (the key is named).
        """
        outcome, witness_n, mu, lam, steps, described, xi, table = _values(
            data, 'verdict', ('outcome', 'witness_n', 'preperiod', 'period',
                              'state_steps', 'field', 'xi', 'trace_table'))
        if not isinstance(table, list):
            raise ValueError(f"trace_table must be a list, got {table!r}")
        table = [_values(r, 'trace_table row', TraceRow._fields)
                 for r in table]
        if outcome == STABLE:
            ok = (witness_n is None and _is_count(mu, 0)
                  and _is_count(lam, 1) and len(table) == mu + lam + 1)
        elif outcome == UNSTABLE:
            ok = (_is_count(witness_n, 1) and mu is None and lam is None
                  and len(table) == witness_n)
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        if not ok:
            raise ValueError(
                f"inconsistent {outcome} verdict: witness_n={witness_n!r}, "
                f"preperiod={mu!r}, period={lam!r}, {len(table)} rows")
        if not _is_count(steps, 0):
            raise ValueError(f"state_steps must be >= 0, got {steps!r}")
        if [r[0] for r in table] != list(range(1, len(table) + 1)):
            raise ValueError("trace table rows are not numbered 1, 2, ...")
        p, e = _values(described, 'field', ('p', 'e'))
        modulus = described.get('modulus')
        if modulus is not None:
            modulus = [int(s) for s in _text('modulus', modulus).split(',')]
        ctx = finite_field(p, e, modulus)

        def elem(key, text, where=ctx):
            return element_from_text(where, _text(key, text))

        rows = tuple(
            TraceRow(n, elem('a', a), elem('c', c), elem('d', d),
                     elem('ratio', ratio), elem('trace', trace, ctx.prime_ctx))
            for n, a, c, d, ratio, trace in table
        )
        return cls(
            outcome=outcome,
            witness_n=witness_n,
            preperiod=mu,
            period=lam,
            xi=elem('xi', xi),
            ctx=ctx,
            state_steps=steps,
            _rows=rows,
        )


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


def _is_count(v, least: int) -> bool:
    """v is an int (not a bool) and at least ``least``."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def decide_inverse_stability(xi: FieldElement) -> StabilityVerdict:
    """Decide whether X^p - X + xi is inversely stable over xi's field.

    Terminates on every input: either some trace vanishes at a finite index
    (unstable, witness recorded), or the state cycle closes with every trace
    on it nonzero (stable).  The trace at each index is checked before the
    state is ever advanced past it, so the reported witness is minimal and
    no state with c = 0 is stepped.  A seed in F_p^* (packed value below
    p) is decided in closed form (:func:`_prime_cycle`), so a prime field
    walks nothing.  Every other seed walks the (t, r) orbit, and a stable
    one gets its cycle data from orders in F_q^* (:func:`_pair_walk`).
    Both give what a walk over the states would.  No row is built here:
    the verdict's ``trace_table`` is computed on first access.
    """
    ctx = xi.ctx
    if ctx.trace_v(xi.val) == 0:
        # Tr(xi) = 0: D_1 = g is already reducible
        return StabilityVerdict(UNSTABLE, 1, None, None, 0, xi, ctx)
    walk = _prime_cycle if xi.val < ctx.p else _pair_walk
    return StabilityVerdict(*walk(ctx, xi.val), xi, ctx)


def _prime_cycle(ctx: FieldCtx, xi_v: int) -> tuple:
    """The state walk's result in closed form, for xi in F_p^* (a packed
    value below p) with Tr(xi) != 0.

    The Frobenius fixes F_p, so t_n = tau = -1/xi for every n >= 2, and
    the recurrence gives r_n = a_n/c_n = tau^(2n - 3) and
    c_n = xi^(2^(n-1) - 1).  Tr(r_n) = e r_n for e = [F_q : F_p], and
    Tr(xi) = e xi != 0, so no trace vanishes: xi is stable.  The r_n
    repeat from n = 2 on with period ord(tau^2) = ord(xi^2), which is
    ord(xi) / gcd(ord(xi), 2).  With ord(xi) = 2^s M, M odd, the powers
    2^(n-1) mod 2^s M reach their cycle at n - 1 = s, the first that is 0
    mod 2^s, and then repeat with period ord_M(2).  So the states s_2,
    s_3, ... have preperiod max(s - 1, 0) and period
    lcm(ord(tau^2), ord_M(2)), and the walk would take preperiod + period
    steps.  Orders in the cyclic group F_p^* divide p - 1, whose prime
    factors the prime context keeps from the first call on (Lidl and
    Niederreiter, Finite Fields, ch. 3); ord_M(2) divides phi(M), which
    is factored by trial division.
    """
    p = ctx.p
    primes = _unit_primes(ctx.prime_ctx)
    o = _order(xi_v, p, p - 1, primes)
    s = (o & -o).bit_length() - 1
    odd = o >> s
    phi = _totient(odd, primes)
    lam = math.lcm(o // math.gcd(o, 2),
                   _order(2, odd, phi, _prime_factors(phi)))
    mu = max(s - 1, 0)
    return STABLE, None, mu, lam, mu + lam


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


def _pair_walk(ctx: FieldCtx, xi_v: int) -> tuple:
    """The state walk's result, for Tr(xi) != 0, from the (t, r) orbit.

    The state (a, c, d) is c (r, 1, t) with r = a/c and t = d/c.  With
    u_n = xi - t_n^p + t_n, never 0 as Tr(u_n) = Tr(xi), the pair moves on
    its own, t_(n+1) = -1/u_n and r_(n+1) = r_n t_n t_(n+1) from
    t_2 = r_2 = -1/xi, while c_(n+1) = c_n^2 u_n from c_2 = xi never feeds
    back.  The trace test reads only r, so the walk steps (t, r), keeping
    (t_(n+1), t_n t_(n+1), u_n) per t, to the first zero trace (unstable,
    the least witness) or the first repeated pair, (t, r)_n = (t, r)_seen:
    stable, as no new r can follow.

    The cycle data are those of the states, and c decides them.  From
    seen on, u has period P = n - seen, so on logs x_n = log c_n a lap
    is x -> 2^P x + B mod q - 1, B fixed by n mod P.  Let q - 1 = 2^s M,
    M odd.  Mod M a lap is a bijection; mod 2^s, s steps send every x to
    one fixed point, its only periodic point.  So s_n is on the cycle
    exactly when Y = c_(n+P)/c_n has odd order, and the first such n, N0,
    is at most seen + s.  With g the order of Y at N0, k laps return c_N0
    when g divides 1 + a + ... + a^(k-1) = (a^k - 1)/(a - 1), a = 2^P,
    that is when a^k = 1 mod g (a - 1) for any a > 1 congruent to 2^P
    mod g.  The least such k, tau, divides g phi(g).  The preperiod is
    N0 - 2 and the period P tau (Knuth, TAOCP vol. 2, section 3.1; Lidl
    and Niederreiter, Finite Fields, ch. 3).
    """
    mul, inv, neg, trace = ctx.mul_v, ctx.inv_v, ctx.neg_v, ctx.trace_v
    sub, add, frob = ctx.sub_v, ctx.add_v, ctx.frobenius_v
    q = ctx.order
    after = {}          # t_n -> (t_(n+1), t_n t_(n+1), u_n)
    t2 = t = r = neg(inv(xi_v))
    n, first = 2, {}
    while True:
        key = t * q + r
        if first.setdefault(key, n) != n:     # a repeat keeps its first n
            break
        if not trace(r):
            return UNSTABLE, n, None, None, n - 2
        step = after.get(t)
        if step is None:
            u = add(sub(xi_v, frob(t)), t)
            nxt = neg(inv(u))
            step = after[t] = (nxt, mul(t, nxt), u)
        t, r = step[0], mul(r, step[1])
        n += 1
    seen = first[key]
    lap = n - seen
    m = q - 1
    s = (m & -m).bit_length() - 1
    odd = m >> s
    cs, t = [xi_v], t2                  # cs[k] = c_(k+2), up to c_(seen+s+P)
    for _ in range(seen + s + lap - 2):
        t, _, u = after[t]
        cs.append(mul(mul(cs[-1], cs[-1]), u))
    # N0 = mu + 2, the first n >= seen whose lap ratio Y has odd order
    for mu in range(seen - 2, seen - 1 + s):
        y = mul(cs[mu + lap], inv(cs[mu]))
        if ctx.pow_v(y, odd) == 1:
            break
    primes = _unit_primes(ctx)
    g = _order(FieldElement(ctx, y), None, m, primes)
    a = pow(2, lap, g) + g
    phi = _totient(g, primes)
    tau = _order(a, g * (a - 1), g * phi, primes + _prime_factors(phi))
    return STABLE, None, mu, lap * tau, mu + lap * tau


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
