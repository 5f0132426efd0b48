"""Cross-validation: the fast criterion paths against independent oracles."""

import random

import pytest

from invstab import errors, xcheck
from invstab.criterion import (
    decide_inverse_stability,
    mobius_trace_formula,
    trace_rows,
)
from invstab.fields import (
    abs_trace,
    extension_field,
    finite_field,
    lift,
    rel_trace,
)
from invstab.polys import Poly, find_irreducible
from invstab.xcheck import (
    EquivalenceReport,
    MinpolyTraceCheck,
    RelTraceCheck,
    criterion_vs_direct,
    direct_denominator_check,
    irreducibility_trace_sweep,
    minimal_polynomial,
    minpoly_trace_check,
    rel_trace_oracle,
    verify_suites,
)


F2 = finite_field(2)
F3 = finite_field(3)
F9 = finite_field(3, 2, modulus=(2, 2, 1))
F25 = finite_field(5, 2, modulus=(2, 4, 1))
W = F9.modulus_root


# -- report plumbing ----------------------------------------------------------


def test_equivalence_report_build():
    rep = EquivalenceReport.build('demo', {'p': 3, 'e': 1, 'modulus': None},
                                  None, 4, [(1, True, True), (2, False, True)])
    assert not rep.agree and rep.first_disagreement == 1
    ok = EquivalenceReport.build('demo', {}, None, None, [(1, True, True)])
    assert ok.agree and ok.first_disagreement is None
    d = rep.to_dict()
    assert d['label'] == 'demo' and d['pairs'][1] == [2, False, True]


# -- denominators straight through Rabin ------------------------------------------


def test_direct_denominator_check_examples():
    assert direct_denominator_check(W, 3) == [(1, True), (2, True), (3, True)]
    F4 = finite_field(2, 2)
    assert direct_denominator_check(F4.one, 1) == [(1, False)]
    F27 = finite_field(3, 3)
    assert direct_denominator_check(F27.one, 1) == [(1, False)]


def test_direct_denominator_check_validation():
    with pytest.raises(ValueError):
        direct_denominator_check(W, 0)
    with pytest.raises(errors.IterationTooLarge):
        direct_denominator_check(finite_field(5).one, 8)


def test_criterion_vs_direct_small_fields():
    reports = criterion_vs_direct(F9, 3)
    assert len(reports) == 6                     # xi with Tr(xi) != 0
    assert all(r.agree for r in reports)
    first = reports[0]
    assert first.pairs[0] == (1, True, True)
    assert first.n_max == 3 and first.params == "1,0"

    assert all(r.agree for r in criterion_vs_direct(F2, 4))
    assert all(r.agree for r in criterion_vs_direct(F25, 2))


def test_criterion_vs_direct_covers_an_unstable_xi():
    # over F_8 several xi go reducible already at n = 2; the pair lists
    # must agree entry by entry either way
    reports = criterion_vs_direct(finite_field(2, 3), 2)
    flipped = [r for r in reports if not r.pairs[-1][1]]
    assert flipped                                # at least one goes reducible
    for r in flipped:
        assert r.agree
        assert r.pairs[0] == (1, True, True)      # Tr != 0 keeps D_1 whole


def test_criterion_vs_direct_missing_row_disagrees(monkeypatch):
    """A trace table one row short, as trace_rows leaves it from the first
    c_n = 0 on, is a disagreement at the missing index, not a shorter
    report that agrees."""
    from invstab import xcheck
    real = xcheck.trace_rows
    monkeypatch.setattr(xcheck, 'trace_rows', lambda xi, n: real(xi, n)[:-1])
    reports = criterion_vs_direct(F9, 3)
    assert len(reports) == 6
    for r in reports:
        assert len(r.pairs) == 3
        assert not r.agree and r.first_disagreement == 2
        assert r.pairs[2][1] is None


# -- the Moebius closed form vs literal conjugate sums ------------------------------


def test_rel_trace_oracle_examples():
    one, zero = F9.one, F9.zero
    # u = gamma: affine, so the relative trace vanishes in odd characteristic
    r = rel_trace_oracle(one, zero, zero, one, W)
    assert r.agree and r.direct.val == 0
    # u = 1/gamma: the formula gives 1/xi
    r = rel_trace_oracle(zero, one, one, zero, W)
    assert r.agree and r.direct == W ** -1
    # p = 2: the affine branch returns a/d instead
    r = rel_trace_oracle(F2.one, F2.zero, F2.zero, F2.one, F2.one)
    assert r.agree and r.formula.val == 1
    assert isinstance(r, RelTraceCheck)


def test_rel_trace_oracle_random_sweep():
    rng = random.Random(2024)
    for ctx in (F3, finite_field(5), F9, F2, finite_field(2, 2)):
        traced = [x for x in ctx.elements() if abs_trace(x).val != 0]
        count = 0
        while count < 500:
            xi = traced[rng.randrange(len(traced))]
            a, b, c, d = (ctx.element(rng.randrange(ctx.order))
                          for _ in range(4))
            if count % 10 == 0:
                c = ctx.zero                      # force the affine branch
            if c.val == 0 and d.val == 0:
                continue
            count += 1
            assert rel_trace_oracle(a, b, c, d, xi).agree


def test_rel_trace_oracle_errors():
    zero, one = F9.zero, F9.one
    with pytest.raises(errors.BothZero):
        rel_trace_oracle(W, one, zero, zero, W)
    with pytest.raises(errors.IrreducibilityHypothesisViolated):
        rel_trace_oracle(one, one, one, one, W + 1)   # Tr(w + 1) = 0
    with pytest.raises(errors.CtxMismatch):
        rel_trace_oracle(one, one, one, one, F25.modulus_root)


# -- the n = 1 criterion against Rabin over whole fields -----------------------------


def test_irreducibility_trace_sweep():
    for ctx in (F2, F3, finite_field(2, 2), finite_field(2, 3), F9, F25,
                finite_field(3, 3)):
        report = irreducibility_trace_sweep(ctx)
        assert report.agree, report.first_disagreement
        assert len(report.pairs) == ctx.order


def test_verify_suites_dispatch():
    """verify_suites runs each suite alone or all four in SUITES order,
    sets the criterion suite's default n_max from SWEEP_DEGREE_LIMIT
    (2^8 = 256 and 3^5 = 243 are the largest degrees), and rejects an
    unknown suite, which would otherwise agree with no report at all."""
    alone = {suite: verify_suites(F2, suite) for suite in
             ('criterion', 'irreducibility', 'traces', 'minpoly')}
    assert [len(r) for r in alone.values()] == [1, 1, 1, 1]
    assert alone['irreducibility'] == [irreducibility_trace_sweep(F2)]
    assert verify_suites(F2) == [r for rs in alone.values() for r in rs]
    assert verify_suites(F2, 'criterion', 3) == criterion_vs_direct(F2, 3)
    assert [r.n_max for r in verify_suites(F3, 'criterion')] == [5, 5]
    assert alone['criterion'][0].n_max == 8
    with pytest.raises(ValueError):
        verify_suites(F2, 'traces ')


def test_verify_suites_bound_the_tower_degree(monkeypatch):
    """The traces suite, alone or in all four, raises DegreeTooLarge for
    p > MAX_TOWER_DEGREE before its first report, as a library call too;
    the other suites do not build towers and run."""
    F29 = finite_field(29)

    def refused(*args):
        raise AssertionError("a suite ran before the tower bound")
    for suite in ('traces', 'all'):
        with monkeypatch.context() as m:
            m.setattr(xcheck, 'criterion_vs_direct', refused)
            m.setattr(xcheck, '_trace_tuple_suite', refused)
            with pytest.raises(errors.DegreeTooLarge, match='p = 29 > 23'):
                verify_suites(F29, suite)
    report, = verify_suites(F29, 'irreducibility')
    assert report.agree and len(report.pairs) == 29
    assert verify_suites(finite_field(23), 'traces')[0].agree


# -- minimal polynomials ------------------------------------------------------------


def test_minimal_polynomial_examples():
    mp = minimal_polynomial(W, F3)
    assert [c.val for c in mp.coeffs] == [2, 2, 1]     # the defining modulus
    over_self = minimal_polynomial(W, F9)
    assert over_self.degree == 1 and over_self == Poly.x(F9) - W
    embedded = minimal_polynomial(F9.from_int(2), F3)
    assert embedded == Poly.x(F3) + 1                  # X - 2 over F_3


def test_minimal_polynomial_is_monic_annihilator():
    K = finite_field(2, 2)
    L = extension_field(K, find_irreducible(K, 2))
    rng = random.Random(3434)
    for sub in (K, F2):
        for _ in range(30):
            alpha = L.element(rng.randrange(L.order))
            mp = minimal_polynomial(alpha, sub)
            assert mp.leading == sub.one
            acc = L.zero
            for i, c in enumerate(mp.coeffs):
                acc = acc + lift(c, L) * alpha ** i
            assert acc == L.zero
            assert L.total_degree % (mp.degree * sub.total_degree) == 0


def test_minpoly_trace_check_tower_generator():
    K = finite_field(2, 2)
    L = extension_field(K, find_irreducible(K, 2))
    chk = minpoly_trace_check(L.modulus_root, K)
    assert isinstance(chk, MinpolyTraceCheck)
    assert chk.agree
    assert chk.from_minpoly == rel_trace(L.modulus_root, K)


def test_minpoly_trace_check_random_generators():
    rng = random.Random(917)
    seen = 0
    while seen < 100:
        alpha = F25.element(rng.randrange(F25.order))
        if alpha.coeffs[1].val == 0:
            continue                              # sits in F_5, not generating
        seen += 1
        assert minpoly_trace_check(alpha, finite_field(5)).agree


def test_minpoly_not_generating():
    with pytest.raises(errors.NotGenerating):
        minpoly_trace_check(F25.from_int(2), finite_field(5))


# -- every visited state keeps c nonzero -----------------------------------------------


def test_state_walk_c_nonzero_exhaustive():
    """Tr(xi) != 0 keeps c_n != 0, so the table has every row up to n_max."""
    for ctx in (F9, F25):
        for xi in ctx.elements():
            if abs_trace(xi).val != 0:
                rows = trace_rows(xi, 60)
                assert len(rows) == 60
                assert all(r.c.val for r in rows)


def test_state_walk_detects_vanishing_c():
    # Tr(w + 1) = 0 over F_9 and the walk does run into c = 0
    assert len(trace_rows(W + 1, 7)) < 7


# -- loose ends: the decision agrees with direct Rabin wherever both apply ---------------


def test_decide_matches_direct_denominators():
    rng = random.Random(160)
    for _ in range(10):
        xi = F9.element(rng.randrange(9))
        if abs_trace(xi).val == 0:
            continue
        verdict = decide_inverse_stability(xi)
        n_max = min(4, len(verdict.trace_table))
        direct = direct_denominator_check(xi, n_max)
        for n, irr in direct:
            if verdict.outcome == 'stable':
                assert irr
            else:
                assert irr == (n < verdict.witness_n)
