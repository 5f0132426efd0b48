"""Tests for the trace criterion, cycle detection, and the sparse predicates."""

import functools
import gc
import json
import tracemalloc

import pytest

from invstab import criterion, errors, fields
from invstab.criterion import (
    STABLE,
    UNSTABLE,
    StabilityVerdict,
    WanResult,
    agou_quartic_irreducible,
    decide_field,
    decide_inverse_stability,
    mobius_trace_formula,
    trace_rows,
    wan_irreducible_p,
)
from invstab.fields import (
    FieldElement,
    abs_trace,
    extension_field,
    finite_field,
)
from invstab.polys import (
    Poly,
    artin_schreier,
    find_irreducible,
    is_irreducible,
)


F3 = finite_field(3)
F9 = finite_field(3, 2, modulus=(2, 2, 1))
F25 = finite_field(5, 2, modulus=(2, 4, 1))
W = F9.modulus_root
V = F25.modulus_root


def brute_cycle(xi):
    """Floyd-free reference: index every packed state from s_2 on until
    the first repeat."""
    ctx, xi_v = xi.ctx, xi.val
    state, n, seen = (ctx.neg_v(1), xi_v, ctx.neg_v(1)), 2, {}
    while state not in seen:
        seen[state] = n
        state = criterion._step_v(ctx, xi_v, *state, ctx.inv_v(state[1]))
        n += 1
    first = seen[state]
    return first - 2, n - first


def packed_walk(ctx, xi_v):
    """Reference for the decision on a seed with Tr(xi) != 0: walk the
    packed triples s_2, s_3, ... to the first zero trace or the first
    repeated state, indexing each state by the n where it first appeared.
    Returns (outcome, witness_n, preperiod, period, state_steps)."""
    mul, trace = ctx.mul_v, ctx.trace_v
    state, n, first = (ctx.neg_v(1), xi_v, ctx.neg_v(1)), 2, {}
    while state not in first:
        first[state] = n
        c_inv = ctx.inv_v(state[1])
        if trace(mul(state[0], c_inv)) == 0:
            return UNSTABLE, n, None, None, n - 2
        state = criterion._step_v(ctx, xi_v, *state, c_inv)
        n += 1
    seen = first[state]
    return STABLE, None, seen - 2, n - seen, n - 2


def pair_walk(ctx, xi_v):
    """Second reference for a seed outside F_p with Tr(xi) != 0: walk the
    pairs (t, r) = (d/c, a/c) to the first zero trace or the first
    repeated pair, then get the states' cycle data from c over one lap
    and a few steps past the repeat.  Returns (outcome, witness_n,
    preperiod, period).

    t_(n+1) = -1/u_n, r_(n+1) = r_n t_n t_(n+1) and c_(n+1) = c_n^2 u_n with
    u_n = xi - t_n^p + t_n.  From the repeat at n = seen on, a lap of
    P = n - seen steps maps log c to 2^P log c + B mod q - 1; the states'
    cycle starts at the first n >= seen whose lap ratio c_(n+P)/c_n has
    odd order, and its length is P times the least number of laps that
    returns c."""
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
            return UNSTABLE, n, None, None
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
    primes = criterion._unit_primes(ctx)
    g = criterion._order(FieldElement(ctx, y), None, m, primes)
    a = pow(2, lap, g) + g
    phi = criterion._totient(g, primes)
    tau = criterion._order(a, g * (a - 1), g * phi,
                           primes + fields._prime_factors(phi))
    return STABLE, None, mu, lap * tau


# -- seeds and single steps -----------------------------------------------------


def _triple(row):
    """The state (a_n, c_n, d_n) of a trace row."""
    return row.a, row.c, row.d


def test_init_states():
    s1, s2 = trace_rows(W, 2)
    assert (s1.n,) + _triple(s1) == (1, W, F9.one, F9.zero)
    assert (s2.n,) + _triple(s2) == (2, -F9.one, W, -F9.one)
    t1, t2 = trace_rows(V, 2)
    assert tuple(z.val for z in _triple(t2)) == (4, V.val, 4)


def test_step_sequence_small_field():
    """The full state walk for xi = w over GF(9)."""
    rows = trace_rows(W, 6)
    assert _triple(rows[2]) == (F9.from_int(2), 2 * W, 2 * W + 2)
    assert rows[3].a == rows[3].c == rows[3].d == 2 * W + 2
    assert _triple(rows[4]) == (F9.one, 2 * W, F9.one)
    assert rows[5].n == 6
    assert _triple(rows[5]) == _triple(rows[2])                 # s_6 = s_3


def test_step_v_matches_recurrence():
    """criterion._step_v on every state of every walk over F_7, F_8, F_9
    and F_25, against the recurrence written out with element operators."""
    for ctx in (finite_field(7), finite_field(2, 3), F9, F25):
        p = ctx.p
        for xi in ctx.elements():
            a, c, d = -ctx.one, xi, -ctx.one
            seen = set()
            while c.val != 0 and (a.val, c.val, d.val) not in seen:
                seen.add((a.val, c.val, d.val))
                t = d / c
                want = (-(a * d), c * c * (xi - t ** p + t), -(c * c))
                got = criterion._step_v(ctx, xi.val, a.val, c.val, d.val,
                                        (c ** -1).val)
                assert got == tuple(z.val for z in want)
                a, c, d = want


def test_consecutive_state_identities():
    """d_{n+1} = -c_n^2 and a_{n+1} = -a_n d_n along any walk."""
    for ctx, xi in ((F9, W), (F25, V), (F3, F3.one)):
        rows = trace_rows(xi, 12)
        assert len(rows) == 12
        for st, nxt in zip(rows[1:], rows[2:]):
            assert nxt.d == -(st.c * st.c)
            assert nxt.a == -(st.a * st.d)


def test_trace_indicator_values():
    rows = trace_rows(W, 2)
    assert rows[0].trace.val == 1                 # Tr(w) = 1
    assert rows[1].trace.val == 1                 # Tr(-1/w) = Tr(2w + 1)


def test_trace_rows_table():
    rows = trace_rows(W, 5)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5]
    assert [r.trace.val for r in rows] == [1, 1, 2, 2, 1]
    assert rows[2].ratio == W + 2                 # a_3 / c_3 = 2 / 2w = 1/w
    assert rows[3].ratio == F9.one
    with pytest.raises(ValueError):
        trace_rows(W, 0)


def test_trace_rows_stop_before_c_zero():
    """With Tr(xi) = 0 the walk may reach c_n = 0, where a_n/c_n is
    undefined; the table ends just before that state."""
    rows = trace_rows(F9.zero, 4)                 # c_2 = xi = 0
    assert [r.n for r in rows] == [1]
    assert rows[0].trace.val == 0
    G9 = finite_field(3, 2)                       # default modulus
    xi = G9.modulus_root
    assert abs_trace(xi).val == 0
    rows = trace_rows(xi, 6)
    assert [r.n for r in rows] == [1, 2]
    s2 = rows[1]
    c3 = criterion._step_v(G9, xi.val, s2.a.val, s2.c.val, s2.d.val,
                           (s2.c ** -1).val)[1]
    assert c3 == 0                                # c_3 = 0
    for ctx in (F9, finite_field(2, 4), F25):
        for xi in ctx.elements():
            rows = trace_rows(xi, 6)
            assert all(r.c.val for r in rows)
            assert [r.n for r in rows] == list(range(1, len(rows) + 1))
            if abs_trace(xi).val != 0:
                assert len(rows) == 6


# -- closed forms for xi in the prime subfield ------------------------------------


def test_prime_subfield_closed_forms():
    """For xi in F_p^*, the triple is xi-power valued:

    c_n = xi^(2^(n-1) - 1), d_n = -xi^(2^(n-1) - 2),
    a_n = -xi^(2^(n-1) - 2n + 2), a_n / c_n = -xi^(3 - 2n)  (n >= 2).
    """
    def power(xi, m):
        return xi ** m if m >= 0 else (xi ** -1) ** (-m)

    for p in (2, 3, 5, 7):
        F = finite_field(p)
        for k in range(1, p):
            xi = F.from_int(k)
            rows = trace_rows(xi, 12)
            assert len(rows) == 12
            for st in rows[2:]:
                h = 2 ** (st.n - 1)
                assert st.c == power(xi, h - 1)
                assert st.d == -power(xi, h - 2)
                assert st.a == -power(xi, h - 2 * st.n + 2)
                assert st.a / st.c == -power(xi, 3 - 2 * st.n)


def test_prime_subfield_xi_in_extension():
    # the same closed form, with traces scaled by the extension degree
    xi = F9.from_int(1)
    rows = trace_rows(xi, 6)
    assert rows[0].trace.val == 2                 # e * xi = 2
    assert [r.trace.val for r in rows[1:]] == [1, 1, 1, 1, 1]


def test_prime_fields_always_stable():
    """Over F_p every nonzero xi is stable: the trace is a power of xi."""
    for p in (2, 3, 5, 7, 11):
        F = finite_field(p)
        for k in range(1, p):
            verdict = decide_inverse_stability(F.from_int(k))
            assert verdict.outcome == STABLE


# -- cycle detection ----------------------------------------------------------------


def cycle(xi):
    verdict = decide_inverse_stability(xi)
    return verdict.preperiod, verdict.period


def test_detect_cycle_example():
    assert cycle(W) == (1, 3)


def test_detect_cycle_against_brute_force():
    """The decision's cycle data on every stable seed of five fields."""
    stable = 0
    for ctx in (F3, finite_field(5), F9, finite_field(2, 2), F25):
        for xi in ctx.elements():
            if decide_inverse_stability(xi).outcome != STABLE:
                continue
            stable += 1
            assert cycle(xi) == brute_cycle(xi), (ctx, xi)
    assert stable == 16


def test_detect_cycle_bound():
    mu, lam = cycle(F3.one)
    assert lam >= 1 and mu >= 0
    assert mu + lam <= 27                         # at most q^3 distinct states


# -- the decision procedure ------------------------------------------------------------


def test_decide_stable_example():
    verdict = decide_inverse_stability(W)
    assert verdict.outcome == STABLE
    assert verdict.witness_n is None
    assert (verdict.preperiod, verdict.period) == (1, 3)
    assert len(verdict.trace_table) == 5          # rows 1 .. mu + lam + 1
    assert [r.trace.val for r in verdict.trace_table] == [1, 1, 2, 2, 1]
    assert verdict.xi == W and verdict.ctx is F9


def test_decide_unstable_example():
    verdict = decide_inverse_stability(V)
    assert verdict.outcome == UNSTABLE
    assert verdict.witness_n == 8
    assert verdict.preperiod is None and verdict.period is None
    rows = verdict.trace_table
    assert len(rows) == 8
    assert [r.trace.val for r in rows] == [1, 2, 4, 4, 4, 4, 2, 0]
    last = rows[-1]
    assert last.ratio == V + 2
    assert (last.a, last.c, last.d) == (2 * V + 2, 4 * V, F25.one)
    # minimality: every earlier trace is nonzero
    assert all(r.trace.val for r in rows[:-1])


def test_decide_builds_rows_on_first_read():
    verdict = decide_inverse_stability(V)
    assert 'trace_table' not in vars(verdict)
    rows = verdict.trace_table
    assert verdict.trace_table is rows            # built once
    assert [r.cells() for r in rows] == [
        r.cells() for r in trace_rows(V, verdict.witness_n)]


def test_decide_trace_zero_seed():
    F4 = finite_field(2, 2)
    verdict = decide_inverse_stability(F4.one)    # Tr(1) = 0 over F_4
    assert verdict.outcome == UNSTABLE
    assert verdict.witness_n == 1
    assert verdict.state_steps == 0
    assert len(verdict.trace_table) == 1


def test_outcome_constants():
    assert STABLE == 'stable' and UNSTABLE == 'unstable'


def test_verdict_invariants_sweep():
    for ctx in (F3, F9, finite_field(2, 3), F25):
        q = ctx.order
        for xi in ctx.elements():
            verdict = decide_inverse_stability(xi)
            assert verdict.outcome in (STABLE, UNSTABLE)
            if verdict.outcome == STABLE:
                assert verdict.period >= 1 and verdict.preperiod >= 0
                assert verdict.preperiod + verdict.period <= q ** 3 + 1
                assert len(verdict.trace_table) == (
                    verdict.preperiod + verdict.period + 1)
                assert all(r.trace.val for r in verdict.trace_table)
            else:
                assert verdict.witness_n >= 1
                assert verdict.preperiod is None and verdict.period is None
                assert verdict.trace_table[-1].trace.val == 0
                assert len(verdict.trace_table) == verdict.witness_n
            assert [r.n for r in verdict.trace_table] == list(
                range(1, len(verdict.trace_table) + 1))


def test_verdict_round_trip():
    """to_dict, json and from_dict give the verdict back, also on GF(101^2)
    and GF(127^2), above ZECH_MAX_ORDER (85,3: witness 4; 53,53: stable,
    preperiod 13, period 36)."""
    above = [fields.element_from_text(finite_field(p, 2), text)
             for p, text in ((101, '85,3'), (127, '53,53'))]
    assert all(x.ctx.order > fields.ZECH_MAX_ORDER for x in above)
    for xi in [W, V, F3.one, finite_field(2, 2).one] + above:
        verdict = decide_inverse_stability(xi)
        data = verdict.to_dict()
        back = StabilityVerdict.from_dict(json.loads(json.dumps(data)))
        assert back.outcome == verdict.outcome
        assert back.witness_n == verdict.witness_n
        assert back.preperiod == verdict.preperiod
        assert back.period == verdict.period
        assert back.state_steps == verdict.state_steps
        assert back.xi == verdict.xi and back.ctx is verdict.ctx
        assert back.trace_table == verdict.trace_table
        assert back.to_dict() == data


#: marks a key that a from_dict test drops from the verdict data
MISSING = object()


def _changed(data, change):
    data = dict(data, **change)
    return {k: v for k, v in data.items() if v is not MISSING}


@pytest.mark.parametrize('change', [
    {'outcome': 'bogus'},
    {'state_steps': -3},
    {'state_steps': 1.5},
    {'witness_n': 2},                       # stable with a witness
    {'preperiod': -1},
    {'period': 0},
    {'preperiod': None},
    {'trace_table': []},                    # too few rows for the cycle
    {'outcome': 'unstable'},                # stable cycle data, no witness
    {'outcome': MISSING},
    {'state_steps': MISSING},
    {'trace_table': None},
    {'trace_table': [None] * 5},            # right length, rows not dicts
    {'field': {'p': 3}},
    {'xi': 5},                              # not text
    {'field': {'p': 3, 'e': 2, 'modulus': 7}},
])
def test_verdict_from_dict_rejects_bad_stable(change):
    data = _changed(decide_inverse_stability(W).to_dict(), change)
    with pytest.raises(ValueError):
        StabilityVerdict.from_dict(data)


@pytest.mark.parametrize('change', [
    {'witness_n': 0},
    {'witness_n': None},
    {'witness_n': True},
    {'witness_n': 3},                       # disagrees with the row count
    {'period': 1},
    {'preperiod': 0},
    {'outcome': 'stable'},
    {'witness_n': MISSING},
    {'xi': MISSING},
    {'trace_table': ['row'] * 8},           # right length, rows not dicts
    {'trace_table': [{'n': k} for k in range(1, 9)]},
    {'xi': 5},                              # not text
    {'field': {'p': 5, 'e': 2, 'modulus': 7}},
])
def test_verdict_from_dict_rejects_bad_unstable(change):
    data = _changed(decide_inverse_stability(V).to_dict(), change)
    with pytest.raises(ValueError):
        StabilityVerdict.from_dict(data)


@pytest.mark.parametrize('e', ['2', None, 2.0, True])
def test_verdict_from_dict_rejects_bad_degree(e):
    """A field degree that is not an int >= 1 is a ValueError naming 'e',
    not a TypeError from the field constructor, and 2.0 is not 2."""
    data = decide_inverse_stability(W).to_dict()
    data['field'] = dict(data['field'], e=e)
    with pytest.raises(ValueError, match="'e'"):
        StabilityVerdict.from_dict(data)


def test_verdict_from_dict_names_the_missing_key():
    data = decide_inverse_stability(V).to_dict()
    del data['witness_n']
    with pytest.raises(ValueError, match="'witness_n'"):
        StabilityVerdict.from_dict(data)
    data = decide_inverse_stability(V).to_dict()
    del data['trace_table'][3]['ratio']
    with pytest.raises(ValueError, match="'ratio'"):
        StabilityVerdict.from_dict(data)


def test_verdict_from_dict_rejects_misnumbered_rows():
    data = decide_inverse_stability(W).to_dict()
    rows = data['trace_table']
    rows[0], rows[1] = rows[1], rows[0]
    with pytest.raises(ValueError, match="row 1 'n'"):
        StabilityVerdict.from_dict(data)


def _bump(row, key, p):
    """Raise the first coefficient of a row's element text by one mod p."""
    first, *rest = row[key].split(',')
    row[key] = ','.join([str((int(first) + 1) % p)] + rest)


@pytest.mark.parametrize('xi, tamper, match', [
    (W, lambda d: _bump(d['trace_table'][2], 'trace', 3), "row 3 'trace'"),
    (W, lambda d: d.update(state_steps=d['state_steps'] + 1),
     "'state_steps'"),
    (V, lambda d: _bump(d['trace_table'][-1], 'ratio', 5), "row 8 'ratio'"),
], ids=['trace-cell', 'state-steps', 'last-ratio'])
def test_verdict_from_dict_rejects_a_tampered_record(xi, tamper, match):
    """A record that parses but differs from the decision in one value:
    row 3's trace and the stable state_steps of W, and the last ratio of
    the unstable V."""
    data = decide_inverse_stability(xi).to_dict()
    tamper(data)
    with pytest.raises(ValueError, match=match):
        StabilityVerdict.from_dict(data)


def test_verdict_from_dict_refuses_before_building_a_row(monkeypatch):
    """xi = 5 over F_7919 has a trace table of 7,553,773 rows.  A record
    of it with a wrong period, and one with a 1-row table, are refused by
    the scalar keys and the table's length before any row is built."""
    verdict = decide_inverse_stability(finite_field(7919).from_int(5))

    def no_rows(*args):
        raise AssertionError("from_dict built a row")
    monkeypatch.setattr(criterion, '_row_v', no_rows)
    row = dict(zip(criterion.TraceRow._fields, (1, '5', '1', '0', '5', '5')))
    for change, match in (({'period': verdict.period + 1}, "'period'"),
                          ({}, "'trace_table' has 1 rows; the decision "
                               "gives 7553773")):
        data = dict(verdict._record([row]), **change)
        with pytest.raises(ValueError, match=match):
            StabilityVerdict.from_dict(data)


def _fields_up_to(order):
    """Every finite field of at most the given order, default moduli."""
    out = []
    for p in range(2, order + 1):
        if all(p % k for k in range(2, p)):
            e = 1
            while p ** e <= order:
                out.append(finite_field(p, e))
                e += 1
    return out


def test_decide_agrees_with_plain_walk():
    """On every seed of every field of order <= 125, the plain walk's trace
    rows are nonzero up to the verdict's witness, where the first zero
    trace sits, or through a whole cycle of a stable seed; the cycle data
    is the brute-force cycle, and the decision takes one step per state
    past s_2."""
    for ctx in _fields_up_to(125) + [F9, F25]:
        for xi in ctx.elements():
            verdict = decide_inverse_stability(xi)
            traces = [r.trace.val for r in verdict.trace_table]
            if verdict.outcome == STABLE:
                assert all(traces)
                assert (verdict.preperiod, verdict.period) == brute_cycle(xi)
                assert len(traces) == verdict.preperiod + verdict.period + 1
                assert verdict.state_steps == (
                    verdict.preperiod + verdict.period)
            else:
                assert traces.index(0) == verdict.witness_n - 1
                assert verdict.state_steps == max(verdict.witness_n - 2, 0)


def _verdict_tuple(xi):
    v = decide_inverse_stability(xi)
    return (v.outcome, v.witness_n, v.preperiod, v.period, v.state_steps)


def test_verdict_shared_by_frobenius_and_negation():
    """On every seed of GF(2^6), GF(3^4), GF(5^3), GF(7^2) and GF(11^2),
    xi^p and, for odd p, -xi have xi's outcome, witness, cycle data and
    state_steps: the orbit argument search relies on, here on the
    decision alone."""
    for p, e in ((2, 6), (3, 4), (5, 3), (7, 2), (11, 2)):
        ctx = finite_field(p, e)
        verdicts = {xi.val: _verdict_tuple(xi) for xi in ctx.elements()}
        for xi in ctx.elements():
            images = [xi ** p] + ([-xi] if p % 2 else [])
            for image in images:
                assert verdicts[image.val] == verdicts[xi.val], (xi, image)


ODD_PRIMES_TO_43 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@functools.cache
def _decided_square(p):
    """F_(p^2) and decide_field's tuple for every seed of it."""
    ctx = finite_field(p, 2)
    return ctx, decide_field(ctx)


def test_decide_field_matches_each_seed():
    """decide_field, which decides one seed per orbit of xi -> xi^p and
    xi -> -xi, equals _decide_v on every seed of the depth-2 tower
    F_9(gamma), gamma^3 - gamma + w = 0, of GF(2^6) and of GF(5^3)."""
    for ctx in (extension_field(F9, artin_schreier(W)), finite_field(2, 6),
                finite_field(5, 3)):
        assert decide_field(ctx) == [criterion._decide_v(ctx, v)
                                     for v in range(ctx.order)], ctx


def test_stable_seed_census_of_squares():
    """The count of stable seeds among the (p - 1)^2 outside F_p with
    Tr(xi) != 0 of every F_(p^2), p = 3 .. 43, computed by the walk.  No
    formula for it is known here; a closed-form predicate must match it."""
    counts = []
    for p in ODD_PRIMES_TO_43:
        ctx, verdicts = _decided_square(p)
        seeds = [v for v in range(p, ctx.order) if ctx.trace_v(v)]
        assert len(seeds) == (p - 1) ** 2
        counts.append(sum(verdicts[v][0] == STABLE for v in seeds))
    assert counts == [4, 0, 12, 40, 32, 76, 116, 212, 260, 316, 216, 528,
                      556]


def test_prime_seeds_stable_unless_p_divides_e():
    """k = 1 of the census: every xi in F_p^* is stable when p does not
    divide e, and unstable at witness 1 (Tr(xi) = e xi = 0) when it
    does."""
    squares = [_decided_square(p) for p in ODD_PRIMES_TO_43]
    others = [(ctx, decide_field(ctx)) for ctx in (
        finite_field(2), finite_field(2, 2), finite_field(2, 3),
        finite_field(2, 4), finite_field(3), finite_field(3, 3),
        finite_field(3, 4), finite_field(3, 6), finite_field(5, 5),
        finite_field(11))]
    for ctx, verdicts in squares + others:
        for v in range(1, ctx.p):
            if ctx.total_degree % ctx.p:
                assert verdicts[v][0] == STABLE, (ctx, v)
            else:
                assert verdicts[v] == (UNSTABLE, 1, None, None), (ctx, v)


def first_t_repeat(ctx, xi_v):
    """N + L for a seed with Tr(xi) != 0: the least n with t_n equal to
    some t_m, m < n, on t_2 = -1/xi and t_(n+1) = -1/(xi - t_n^p + t_n)."""
    t, n, seen = ctx.neg_v(ctx.inv_v(xi_v)), 2, set()
    while t not in seen:
        seen.add(t)
        u = ctx.add_v(ctx.sub_v(xi_v, ctx.frobenius_v(t)), t)
        t, n = ctx.neg_v(ctx.inv_v(u)), n + 1
    return n


def test_late_witnesses_of_squares():
    """Of the 5,342 unstable seeds outside F_p with Tr(xi) != 0 of every
    F_(p^2), p <= 43, 4,222 first meet a zero trace at or after N + L,
    the first repeated t: on the t-cycle, in the laps that step r and c
    around it, so a closed form for those laps has witnesses to find."""
    unstable = late = 0
    for p in (2,) + ODD_PRIMES_TO_43:
        ctx, verdicts = _decided_square(p)
        for v in range(p, ctx.order):
            outcome, witness = verdicts[v][:2]
            if outcome == UNSTABLE and ctx.trace_v(v):
                unstable += 1
                late += witness >= first_t_repeat(ctx, v)
    assert (late, unstable) == (4222, 5342)


def test_log_walk_agrees_with_packed_walk():
    """Outcome, witness, cycle data and state_steps of the decision equal
    the packed reference walk's on every seed with Tr(xi) != 0 of every
    field of order <= 125, of F_9, F_25, GF(13^2), GF(7^3) and GF(31^2),
    of F_193 and F_241 (search-prime's largest fields, whose seeds the
    closed form decides), and of the depth-2 tower F_9(gamma) with
    gamma^3 - gamma + w = 0; and on four seeds above the Zech bound: 68,3
    and 60,39 of GF(101^2), 5,109 and 66,124 of GF(127^2)."""
    ctxs = _fields_up_to(125) + [F9, F25, finite_field(13, 2),
                                 finite_field(7, 3), finite_field(31, 2),
                                 finite_field(193), finite_field(241),
                                 extension_field(F9, artin_schreier(W))]
    seeds = [xi for ctx in ctxs for xi in ctx.elements()
             if ctx.trace_v(xi.val)]
    for p, texts in ((101, ('68,3', '60,39')), (127, ('5,109', '66,124'))):
        ctx = finite_field(p, 2)
        assert ctx.order > fields.ZECH_MAX_ORDER
        seeds += [fields.element_from_text(ctx, text) for text in texts]
    for xi in seeds:
        assert _verdict_tuple(xi) == packed_walk(xi.ctx, xi.val), xi


def test_t_walk_agrees_with_pair_walk():
    """The decision's outcome, witness and cycle data equal the pair walk's
    on all 7,710 seeds outside F_p with Tr(xi) != 0 of every F_(p^2),
    p <= 43, and on 68,3 and 60,39 of GF(101^2) and 5,109 and 66,124 of
    GF(127^2)."""
    seeds = [xi for p in range(2, 44) if all(p % k for k in range(2, p))
             for xi in finite_field(p, 2).elements()
             if xi.val >= p and xi.ctx.trace_v(xi.val)]
    assert len(seeds) == 7710
    for p, texts in ((101, ('68,3', '60,39')), (127, ('5,109', '66,124'))):
        seeds += [fields.element_from_text(finite_field(p, 2), text)
                  for text in texts]
    for xi in seeds:
        assert _verdict_tuple(xi)[:4] == pair_walk(xi.ctx, xi.val), xi


def test_t_walk_memory_is_flat():
    """Deciding GF(101^2) 60,39 (a pair cycle of 5,100) allocates under
    64 KB at its peak: the walk keeps one step per t, not one per pair."""
    xi = fields.element_from_text(finite_field(101, 2), '60,39')
    decide_inverse_stability(xi)            # field tables built outside
    tracemalloc.start()
    try:
        verdict = decide_inverse_stability(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.outcome == STABLE
    assert peak < 64 * 1024, peak


def test_log_walk_on_fresh_contexts(monkeypatch):
    """Contexts built after the context caches are emptied, as the benchmark
    does before every command, get their own tables: verdicts stay right
    when a new context takes the place of a dropped one."""
    # fresh caches for this test only, so the module's contexts stay cached
    monkeypatch.setattr(fields, '_extension_cache', {})
    monkeypatch.setattr(fields, 'prime_field',
                        functools.lru_cache(fields.prime_field.__wrapped__))
    for p, e in ((5, 2), (7, 2), (5, 2), (2, 5), (3, 3), (7, 2), (11, 1)):
        fields._extension_cache.clear()
        fields.prime_field.cache_clear()
        gc.collect()
        ctx = finite_field(p, e)
        for xi in ctx.elements():
            if ctx.trace_v(xi.val):
                assert _verdict_tuple(xi) == packed_walk(ctx, xi.val)


def test_prime_cycle_agrees_with_log_walk():
    """The closed form for xi in F_p^* returns the t-walk's outcome,
    witness, cycle data and state_steps on every seed of every prime
    field F_p, p < 256, and on the F_p seeds with Tr(xi) != 0 of GF(3^2),
    GF(5^3), GF(11^2), GF(2^5) and a depth-2 tower of degree 4 over F_3."""
    ctxs = [finite_field(p) for p in range(2, 256)
            if all(p % k for k in range(2, p))]
    ctxs += [finite_field(3, 2), finite_field(5, 3), finite_field(11, 2),
             finite_field(2, 5), extension_field(F9, find_irreducible(F9, 2))]
    seeds = 0
    for ctx in ctxs:
        for v in range(1, ctx.p):
            if ctx.trace_v(v):
                assert criterion._prime_cycle(ctx, v) == (
                    criterion._t_walk(ctx, v)), (ctx, v)
                seeds += 1
    assert seeds == 6027 + 2 + 4 + 10 + 1 + 2


def test_reference_sweeps_reach_the_edges_of_the_lap_arithmetic(
        monkeypatch):
    """_state_cycle reads S mod o off A^K mod o (A - 1), A = 2^L, and
    halves ord(Y_N) down to its odd part.  The seeds that brute_cycle
    (test_decide_agrees_with_plain_walk) and pair_walk
    (test_t_walk_agrees_with_pair_walk) check reach every edge of that
    arithmetic: o = 1 in F_p^* and on a t-walk; A = 1 mod o with o > 1
    and K not a multiple of o, so S = K mod o; and on GF(9), where
    q - 1 = 8, o = 2, a power of two whose Y_N has even order, so the
    states' cycle starts after the pairs' does."""
    calls = []
    close = criterion._state_cycle

    def record(pre, lap, laps, o, primes):
        got = close(pre, lap, laps, o, primes)
        calls.append((xi, lap, laps, o, got[2] - pre))
        return got
    monkeypatch.setattr(criterion, '_state_cycle', record)
    brute = [xi for ctx in _fields_up_to(125) + [F9, F25]
             for xi in ctx.elements()]
    paired = [xi for p in range(2, 44) if all(p % k for k in range(2, p))
              for xi in finite_field(p, 2).elements()
              if xi.val >= p and xi.ctx.trace_v(xi.val)]
    for xi in brute + paired:
        decide_inverse_stability(xi)
    prime = [c for c in calls if c[0].val < c[0].ctx.p]
    walked = [c for c in calls if c[0].val >= c[0].ctx.p]
    assert any(o == 1 for _, _, _, o, _ in prime)
    assert any(o == 1 for _, _, _, o, _ in walked)
    assert any(o > 1 and pow(2, lap, o) == 1 and laps % o
               for _, lap, laps, o, _ in walked)
    nine = {(o, shift) for xi, _, _, o, shift in calls if xi.ctx.order == 9}
    assert nine == {(1, 0), (2, 1)}


def test_prime_cycle_long_period():
    """xi = 5 over F_7919 has the period 7,553,772 = lcm(3959, 1908) that a
    walk would take 7.5M states to find."""
    got = decide_inverse_stability(finite_field(7919).element(5))
    assert (got.outcome, got.witness_n, got.preperiod, got.period,
            got.state_steps) == (STABLE, None, 0, 7553772, 7553772)


def test_prime_field_decision_builds_no_table(monkeypatch):
    """Deciding every seed of a fresh prime field, below and above
    ZECH_MAX_ORDER, builds no log table."""
    def no_table(*args):
        raise AssertionError("log table built")
    monkeypatch.setattr(fields, '_log_exp', no_table)
    monkeypatch.setattr(fields, 'prime_field',
                        functools.lru_cache(fields.prime_field.__wrapped__))
    for p in (2, 3, 101, 241, 7919, 8009):
        ctx = finite_field(p)
        verdicts = [decide_inverse_stability(xi) for xi in ctx.elements()]
        assert verdicts[0].outcome == UNSTABLE
        assert all(v.outcome == STABLE for v in verdicts[1:])


# -- Moebius trace formula ---------------------------------------------------------------


def test_mobius_examples():
    one, zero = F9.one, F9.zero
    # (a, b, c, d) = (xi, -1, 1, 0): the transform gamma -> (xi gamma - 1)/gamma
    assert mobius_trace_formula(W, -one, one, zero, W) == -(W ** -1)
    # c = 0 in odd characteristic: affine transforms have trace zero
    assert mobius_trace_formula(W, one, zero, one, W) == zero
    # c = 0 in characteristic two: the trace collapses to a/d
    F8 = finite_field(2, 3)
    u = F8.modulus_root
    assert abs_trace(u).val == 1
    got = mobius_trace_formula(u, F8.one, F8.zero, u * u, u)
    assert got == u / (u * u)


def test_mobius_errors():
    zero, one = F9.zero, F9.one
    with pytest.raises(errors.BothZero):
        mobius_trace_formula(W, one, zero, zero, W)
    F4 = finite_field(2, 2)
    with pytest.raises(errors.IrreducibilityHypothesisViolated):
        mobius_trace_formula(F4.one, F4.one, F4.one, F4.zero, F4.one)
    with pytest.raises(errors.CtxMismatch):
        mobius_trace_formula(W, one, one, zero, V)


def test_mobius_feeds_the_recurrence():
    """The formula's denominator is c_{n+1}, so with b = 0 it returns the
    next row's ratio: Tr applied to (a_n gamma + 0)/(c_n gamma + d_n) is
    -a_n d_n / c_{n+1} = a_{n+1} / c_{n+1}, for n >= 2."""
    for xi in (W, V, F25.from_int(2)):
        assert abs_trace(xi).val != 0
        rows = trace_rows(xi, 7)
        zero = xi.ctx.zero
        for cur, nxt in zip(rows[1:], rows[2:]):
            got = mobius_trace_formula(cur.a, zero, cur.c, cur.d, xi)
            assert got == nxt.ratio


# -- Wan's predicate for X^p + aX + b ---------------------------------------------------


def test_wan_examples():
    F2 = finite_field(2)
    r = wan_irreducible_p(F2.one, F2.one)         # X^2 + X + 1
    assert r == WanResult(True, F2.one)
    F4 = finite_field(2, 2)
    r4 = wan_irreducible_p(F4.one, F4.one)        # splits over F_4
    assert r4.irreducible is False and r4.witness is None


def test_wan_recovers_artin_schreier():
    # a = -1 makes X^p - X + b, whose criterion is Tr(b) != 0
    for ctx, xi in ((F9, W), (F25, V), (F3, F3.one)):
        res = wan_irreducible_p(-ctx.one, xi)
        assert res.irreducible == (abs_trace(xi).val != 0)
        if res.irreducible:
            assert res.witness == ctx.one


def test_wan_against_rabin_exhaustive():
    """Every X^p + aX + b over small fields, checked against Rabin."""
    for ctx in (finite_field(2), finite_field(2, 2), F3, F9,
                finite_field(5), F25):
        p = ctx.p
        for av in range(1, ctx.order):
            a = ctx.element(av)
            for bv in range(ctx.order):
                b = ctx.element(bv)
                coeffs = [b, a] + [ctx.zero] * (p - 2) + [ctx.one]
                f = Poly(ctx, coeffs)
                assert wan_irreducible_p(a, b).irreducible == is_irreducible(f)


def test_wan_validation():
    with pytest.raises(errors.AZero):
        wan_irreducible_p(F9.zero, W)
    with pytest.raises(errors.CtxMismatch):
        wan_irreducible_p(F9.one, V)


# -- the quartic predicate in characteristic two -----------------------------------------


def test_agou_examples():
    F2 = finite_field(2)
    assert agou_quartic_irreducible(F2.one, F2.one)        # X^4 + X + 1
    F4 = finite_field(2, 2)
    assert not agou_quartic_irreducible(F4.one, F4.modulus_root)


def test_agou_even_degree_always_reducible():
    F4 = finite_field(2, 2)
    for av in range(1, 4):
        for bv in range(4):
            assert not agou_quartic_irreducible(F4.element(av), F4.element(bv))


def test_agou_against_rabin_exhaustive():
    for ctx in (finite_field(2), finite_field(2, 2), finite_field(2, 3)):
        for av in range(1, ctx.order):
            a = ctx.element(av)
            for bv in range(ctx.order):
                b = ctx.element(bv)
                f = Poly(ctx, [b, a, ctx.zero, ctx.zero, ctx.one])
                assert agou_quartic_irreducible(a, b) == is_irreducible(f)


def test_agou_validation():
    with pytest.raises(errors.NotCharTwo):
        agou_quartic_irreducible(F3.one, F3.one)
    F4 = finite_field(2, 2)
    with pytest.raises(errors.AZero):
        agou_quartic_irreducible(F4.zero, F4.one)
