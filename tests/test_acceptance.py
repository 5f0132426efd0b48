"""Acceptance gate: the ten headline checks, one printed pass/fail line each.

Each test prints ``acceptance NN label: PASS|FAIL (x.xs)`` so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.  The checks
re-derive everything from independent oracles (Rabin, Frobenius sums,
linear algebra) rather than trusting the fast paths under test.
"""

import random
import time

from invstab.criterion import (
    STABLE,
    UNSTABLE,
    agou_quartic_irreducible,
    decide_inverse_stability,
    init_states,
    step_state,
    trace_rows,
    wan_irreducible_p,
)
from invstab.fields import abs_trace, finite_field
from invstab.iteration import (
    INFINITY,
    forward_orbit_infinity,
    initial_fraction,
    iterate_step,
    preimage_count,
)
from invstab.polys import Poly, artin_schreier, gcd, is_irreducible
from invstab.xcheck import (
    criterion_vs_direct,
    irreducibility_trace_sweep,
    minpoly_trace_check,
    rel_trace_oracle,
    state_walk_c_nonzero,
)


F9 = finite_field(3, 2, modulus=(2, 2, 1))
F25 = finite_field(5, 2, modulus=(2, 4, 1))


class _Gate:
    """Collects one timed pass/fail line per criterion."""

    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget
        self.start = time.perf_counter()

    def finish(self, ok):
        elapsed = time.perf_counter() - self.start
        if self.budget is not None:
            ok = ok and elapsed < self.budget
        state = 'PASS' if ok else 'FAIL'
        print(f"acceptance {self.number:02d} {self.label}: "
              f"{state} ({elapsed:.2f}s)")
        return ok


def test_01_f9_trace_table_golden():
    gate = _Gate(1, 'f9-trace-table-golden', budget=0.1)
    w = F9.modulus_root
    rows = trace_rows(w, 8)
    want_states = [
        (w, F9.one, F9.zero),
        (-F9.one, w, -F9.one),
        (F9.from_int(2), 2 * w, 2 * w + 2),
        (2 * w + 2, 2 * w + 2, 2 * w + 2),
        (F9.one, 2 * w, F9.one),
        (F9.from_int(2), 2 * w, 2 * w + 2),
        (2 * w + 2, 2 * w + 2, 2 * w + 2),
        (F9.one, 2 * w, F9.one),
    ]
    ok = all((r.a, r.c, r.d) == s for r, s in zip(rows, want_states))
    ok = ok and [r.trace.val for r in rows] == [1, 1, 2, 2, 1, 2, 2, 1]
    verdict = decide_inverse_stability(w)
    ok = ok and verdict.outcome == STABLE
    ok = ok and (verdict.preperiod, verdict.period) == (1, 3)
    assert gate.finish(ok)


def test_02_f25_first_reducible_iterate():
    gate = _Gate(2, 'f25-first-reducible-iterate', budget=0.1)
    w = F25.modulus_root
    verdict = decide_inverse_stability(w)
    rows = verdict.trace_table
    last = rows[-1]
    ok = verdict.outcome == UNSTABLE and verdict.witness_n == 8
    ok = ok and last.ratio == w + 2 and last.trace.val == 0
    # every earlier trace is nonzero, so n = 8 is genuinely minimal
    ok = ok and all(r.trace.val for r in rows[:-1])
    # the recurrence lands on the unit multiple -(3w+3, w) of the
    # tabulated pair; the ratio above is unit-invariant
    ok = ok and (last.a, last.c) == (-(3 * w + 3), -w)
    ok = ok and (last.a, last.c) == (2 * w + 2, 4 * w)
    assert gate.finish(ok)


def test_03_prime_xi_closed_forms():
    gate = _Gate(3, 'prime-xi-closed-forms', budget=1.0)

    def power(xi, m):
        return xi ** m if m >= 0 else (xi ** -1) ** (-m)

    ok = True
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3, 4):
            ctx = finite_field(p, e)
            for k in range(1, p):
                xi = ctx.from_int(k)
                verdict = decide_inverse_stability(xi)
                want = STABLE if e % p else UNSTABLE
                ok = ok and verdict.outcome == want
                _, st = init_states(xi)
                while st.n < 12:
                    st = step_state(st, xi)
                    h = 2 ** (st.n - 1)
                    ok = ok and st.c == power(xi, h - 1)
                    ok = ok and st.a / st.c == -power(xi, 3 - 2 * st.n)
    assert gate.finish(ok)


def test_04_criterion_vs_rabin_denominators():
    gate = _Gate(4, 'criterion-vs-rabin-denominators', budget=60.0)
    plan = [
        (finite_field(2), 4),
        (finite_field(3), 4),
        (finite_field(2, 2), 3),
        (F9, 3),
        (finite_field(5), 3),
        (F25, 2),
    ]
    ok = True
    for ctx, n_max in plan:
        reports = criterion_vs_direct(ctx, n_max)
        ok = ok and bool(reports) and all(r.agree for r in reports)
    assert gate.finish(ok)


def test_05_mobius_trace_closed_form():
    gate = _Gate(5, 'mobius-trace-closed-form')
    rng = random.Random(20240815)
    ok = True
    for ctx in (finite_field(3), finite_field(5), F9):
        traced = [x for x in ctx.elements() if abs_trace(x).val != 0]
        for i in range(500):
            xi = traced[rng.randrange(len(traced))]
            a = ctx.element(rng.randrange(ctx.order))
            b = ctx.element(rng.randrange(ctx.order))
            if i % 10 == 0:
                c, d = ctx.zero, ctx.element(rng.randrange(1, ctx.order))
            else:
                c = ctx.element(rng.randrange(1, ctx.order))
                d = ctx.element(rng.randrange(ctx.order))
            ok = ok and rel_trace_oracle(a, b, c, d, xi).agree
    # the affine branch behaves differently in characteristic two; cover it
    for ctx in (finite_field(2), finite_field(2, 2)):
        traced = [x for x in ctx.elements() if abs_trace(x).val != 0]
        for xi in traced:
            for av in range(ctx.order):
                for bv in range(ctx.order):
                    for dv in range(1, ctx.order):
                        chk = rel_trace_oracle(
                            ctx.element(av), ctx.element(bv),
                            ctx.zero, ctx.element(dv), xi)
                        ok = ok and chk.agree
    assert gate.finish(ok)


def test_06_trace_vs_rabin_artin_schreier():
    gate = _Gate(6, 'trace-vs-rabin-artin-schreier')
    fields = (finite_field(2), finite_field(3), finite_field(2, 2),
              finite_field(2, 3), F9, F25, finite_field(3, 3))
    ok = all(irreducibility_trace_sweep(ctx).agree for ctx in fields)
    assert gate.finish(ok)


def test_07_iterate_degree_gcd_orbit_invariants():
    gate = _Gate(7, 'iterate-degree-gcd-orbit-invariants')
    rng = random.Random(2025)
    seeds = [
        (F9, F9.modulus_root, 3),                # stable
        (F25, F25.modulus_root, 2),              # unstable beyond n = 2
        (finite_field(3), finite_field(3).one, 4),
    ]
    ok = True
    for ctx, xi, n_max in seeds:
        fr = initial_fraction(ctx)
        for n in range(1, n_max + 1):
            fr = iterate_step(fr, xi)
            ok = ok and fr.den.degree == ctx.p ** n
            ok = ok and gcd(fr.num, fr.den) == Poly.one(ctx)
        for _ in range(20):
            gamma = ctx.element(rng.randrange(1, ctx.order))
            ok = ok and preimage_count(gamma, xi) == ctx.p
        ok = ok and INFINITY not in forward_orbit_infinity(xi, 100)
        ok = ok and state_walk_c_nonzero(xi, 60)
    assert gate.finish(ok)


def test_08_sparse_predicates_vs_rabin():
    gate = _Gate(8, 'sparse-predicates-vs-rabin')
    ok = True
    for ctx in (finite_field(2), finite_field(2, 2), finite_field(3), F9,
                finite_field(5), F25):
        p = ctx.p
        for av in range(1, ctx.order):
            a = ctx.element(av)
            for bv in range(ctx.order):
                b = ctx.element(bv)
                f = Poly(ctx, [b, a] + [ctx.zero] * (p - 2) + [ctx.one])
                ok = ok and (wan_irreducible_p(a, b).irreducible
                             == is_irreducible(f))
    for ctx in (finite_field(2), finite_field(2, 2), finite_field(2, 3)):
        for av in range(1, ctx.order):
            a = ctx.element(av)
            for bv in range(ctx.order):
                b = ctx.element(bv)
                f = Poly(ctx, [b, a, ctx.zero, ctx.zero, ctx.one])
                ok = ok and (agou_quartic_irreducible(a, b)
                             == is_irreducible(f))
    assert gate.finish(ok)


def test_09_minpoly_and_reciprocal_suites():
    gate = _Gate(9, 'minpoly-and-reciprocal-suites')
    from invstab.polys import reciprocal

    rng = random.Random(917)
    ok = True
    seen = 0
    prime5 = finite_field(5)
    while seen < 100:
        alpha = F25.element(rng.randrange(F25.order))
        if alpha.coeffs[1].val == 0:
            continue
        seen += 1
        ok = ok and minpoly_trace_check(alpha, prime5).agree

    for ctx in (finite_field(3), F9):
        checked = 0
        while checked < 100:
            deg = rng.randrange(1, 6)
            coeffs = [ctx.element(rng.randrange(ctx.order))
                      for _ in range(deg + 1)]
            f = Poly(ctx, coeffs)
            if f.degree is None or f.degree < 1 or not f[0]:
                continue
            checked += 1
            ok = ok and (is_irreducible(f.monic())
                         == is_irreducible(reciprocal(f).monic()))
    assert gate.finish(ok)


def test_10_cycle_bound_termination():
    gate = _Gate(10, 'cycle-bound-termination')
    fields = [finite_field(q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    fields += [finite_field(2, 2), finite_field(2, 3), finite_field(2, 4),
               finite_field(3, 2), finite_field(3, 3), finite_field(5, 2)]
    ok = True
    for ctx in fields:
        q = ctx.order
        for xi in ctx.elements():
            verdict = decide_inverse_stability(xi)
            # the walk visits each of at most q^3 states once
            ok = ok and verdict.state_steps <= q ** 3
            if verdict.outcome == STABLE:
                ok = ok and verdict.preperiod + verdict.period <= q ** 3
                ok = ok and verdict.state_steps == (
                    verdict.preperiod + verdict.period)
            else:
                ok = ok and verdict.witness_n <= q ** 3 + 1
    assert gate.finish(ok)
