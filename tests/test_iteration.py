"""Tests for the iterate fractions of 1/g and orbit bookkeeping."""

import random

import pytest

from invstab import errors
from invstab.fields import finite_field
from invstab.iteration import (
    DEFAULT_DEGREE_CAP,
    INFINITY,
    IterateFraction,
    MAX_DEGREE_CAP,
    denominator,
    forward_orbit_infinity,
    initial_fraction,
    iterate_step,
    preimage_count,
)
from invstab.polys import Poly, artin_schreier, frobenius_power, gcd


F9 = finite_field(3, 2, modulus=(2, 2, 1))
W = F9.modulus_root


def test_initial_fraction():
    fr = initial_fraction(F9)
    assert fr.n == 0
    assert fr.num == Poly.x(F9) and fr.den == Poly.one(F9)


def test_first_step_gives_one_over_g():
    fr = iterate_step(initial_fraction(F9), W)
    assert fr.n == 1
    assert fr.num == Poly.one(F9)
    assert fr.den == artin_schreier(W)


def test_second_denominator_closed_form():
    # D_2 = 1 - g^(p-1) g^0 ... spelled out: N_1^p - N_1 D_1^(p-1) + xi D_1^p
    g = artin_schreier(W)
    assert denominator(W, 2) == Poly.one(F9) - g ** 2 + W * g ** 3


def test_numerator_is_previous_denominator_power():
    fr = iterate_step(initial_fraction(F9), W)
    for _ in range(2):
        prev_den = fr.den
        fr = iterate_step(fr, W)
        assert fr.num == frobenius_power(prev_den)
        assert fr.num == prev_den ** 3


def test_degrees_along_the_orbit():
    """deg D_n = p^n; deg N_1 = 0 and deg N_n = p^n for n >= 2."""
    for ctx, xi, n_max in ((finite_field(3), None, 4), (F9, W, 3),
                           (finite_field(2, 2), None, 4)):
        if xi is None:
            xi = ctx.one
        p = ctx.p
        fr = iterate_step(initial_fraction(ctx), xi)
        assert fr.num.degree == 0 and fr.den.degree == p
        for n in range(2, n_max + 1):
            fr = iterate_step(fr, xi)
            assert fr.den.degree == p ** n
            assert fr.num.degree == p ** n
            assert fr.num.degree == p * (p ** (n - 1))


def test_iterates_stay_reduced():
    fr = initial_fraction(F9)
    for _ in range(3):
        fr = iterate_step(fr, W)
        assert gcd(fr.num, fr.den) == Poly.one(F9)
        assert fr.den.degree == 3 ** fr.n


def test_gcd_not_one_is_raised_on_tainted_input():
    # a fraction that shares a factor X between top and bottom
    X = Poly.x(F9)
    bad = IterateFraction(1, X ** 2, X)
    with pytest.raises(errors.GcdNotOne):
        iterate_step(bad, W)


def test_ctx_mismatch():
    F25 = finite_field(5, 2, modulus=(2, 4, 1))
    with pytest.raises(errors.CtxMismatch):
        iterate_step(initial_fraction(F9), F25.one)


def test_denominator_validation_and_cap():
    with pytest.raises(ValueError):
        denominator(W, 0)
    F5 = finite_field(5)
    with pytest.raises(errors.IterationTooLarge):
        denominator(F5.one, 8)                    # 5^8 = 390625 > 10000
    assert DEFAULT_DEGREE_CAP == 10_000
    assert denominator(F5.one, 5, cap=5 ** 5).degree == 5 ** 5


def test_cap_above_max_degree_cap_is_refused(monkeypatch):
    """A cap above MAX_DEGREE_CAP raises before the first step, even for an
    iterate far below it; the largest accepted cap still steps."""
    from invstab import iteration, xcheck
    F2 = finite_field(2)
    assert MAX_DEGREE_CAP == 2 ** 15
    with monkeypatch.context() as patched:
        def refused(*args):
            raise AssertionError("stepped with a cap over MAX_DEGREE_CAP")
        patched.setattr(iteration, 'iterate_step', refused)
        with pytest.raises(errors.IterationTooLarge, match='MAX_DEGREE_CAP'):
            denominator(F2.one, 1, cap=MAX_DEGREE_CAP + 1)
        for suite in ('criterion', 'traces'):
            with pytest.raises(errors.IterationTooLarge):
                xcheck.verify_suites(F2, suite, 1, cap=MAX_DEGREE_CAP + 1)
    assert denominator(F2.one, 3, cap=MAX_DEGREE_CAP).degree == 8


def test_evaluation_consistency():
    """Iterating x -> 1/g(x) pointwise matches the stored fraction."""
    rng = random.Random(5150)
    g = artin_schreier(W)
    fr = iterate_step(iterate_step(initial_fraction(F9), W), W)
    for _ in range(50):
        x = F9.element(rng.randrange(9))
        val = x
        defined = True
        for _ in range(2):
            gv = g(val)
            if not gv:
                defined = False
                break
            val = gv ** -1
        den = fr.den(x)
        if defined:
            assert den
            assert fr.num(x) / den == val
        else:
            assert not den


def test_orbit_of_infinity_structure():
    orbit = forward_orbit_infinity(W, 100)
    assert orbit[0] == F9.zero                    # G(inf) = 1/g(inf) = 0
    assert INFINITY not in orbit                  # Tr(w) != 0 keeps the orbit affine
    g = artin_schreier(W)
    for prev, nxt in zip(orbit, orbit[1:]):
        assert nxt == g(prev) ** -1


def test_orbit_meets_infinity_when_trace_vanishes():
    F4 = finite_field(2, 2)
    orbit = forward_orbit_infinity(F4.zero, 4)
    assert orbit[0] == F4.zero
    assert orbit[1] is INFINITY                   # g(0) = 0 for xi = 0
    assert orbit[2] == F4.zero                    # and the pattern repeats


def test_preimage_counts():
    assert preimage_count(F9.zero, W) == 1        # only inf maps to 0
    assert preimage_count(INFINITY, W) == 3       # the roots of g
    rng = random.Random(77)
    for _ in range(20):
        gamma = F9.element(rng.randrange(1, 9))
        assert preimage_count(gamma, W) == 3      # g - 1/gamma is squarefree

    with pytest.raises(errors.CtxMismatch):
        preimage_count(finite_field(5).one, W)
