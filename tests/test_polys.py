"""Tests for polynomial arithmetic, irreducibility, and text encoding."""

import itertools
import random
import time

import pytest

from invstab import errors
from invstab.criterion import decide_inverse_stability
from invstab.fields import (
    _LOOP_SLOTS,
    _Kron,
    _pack_slots,
    _slot_reducer,
    _unpack_slots,
    element_from_text,
    extension_field,
    finite_field,
)
from invstab.iteration import denominator
from invstab.polys import (
    Poly,
    artin_schreier,
    find_irreducible,
    frobenius_power,
    gcd,
    is_irreducible,
    poly_to_text,
    powmod,
    reciprocal,
)
from invstab.polys import _barrett_mu, _divmod_vals, _mul_vals


F2 = finite_field(2)
F3 = finite_field(3)
F5 = finite_field(5)
F9 = finite_field(3, 2, modulus=(2, 2, 1))


def rand_poly(rng, ctx, max_deg, monic=False):
    deg = rng.randrange(max_deg + 1)
    coeffs = [ctx.element(rng.randrange(ctx.order)) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = ctx.one
    elif not any(c.val for c in coeffs):
        coeffs[-1] = ctx.one
    return Poly(ctx, coeffs)


def divides(d, f):
    return (f % d).is_zero


def irreducible_by_trial_division(f):
    """Oracle: monic f of degree >= 1 has no monic divisor of degree 1..deg-1."""
    ctx = f.ctx
    d = f.degree
    if d == 1:
        return True
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(ctx.order), repeat=k):
            g = Poly(ctx, [ctx.element(v) for v in tail] + [ctx.one])
            if divides(g, f):
                return False
    return True


# -- ring operations ----------------------------------------------------------


def test_product_example():
    X = Poly.x(F3)
    assert (X + 1) * (X + 2) == X ** 2 + 2


def test_pow_matches_repeated_multiplication():
    K = finite_field(2, 2)
    tower = extension_field(K, find_irreducible(K, 2))
    rng = random.Random(1618)
    for ctx in (F3, F9, tower):
        polys = [Poly.zero(ctx), Poly.one(ctx), Poly.x(ctx)]
        polys += [rand_poly(rng, ctx, 3) for _ in range(4)]
        for f in polys:
            acc = Poly.one(ctx)
            for k in range(7):
                assert f ** k == acc, (f, k)
                acc = acc * f
            with pytest.raises(ValueError):
                f ** -1
    assert Poly.zero(F3) ** 0 == Poly.one(F3)


def test_divmod_examples():
    X = Poly.x(F5)
    q, r = divmod(X ** 3, X)
    assert q == X ** 2 and r.is_zero
    f = X ** 4 + 2 * X + 1
    g = 3 * X ** 2 + 1
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree is None or r.degree < g.degree


def test_divmod_round_trip():
    rng = random.Random(314)
    for ctx in (F2, F3, F5, F9, finite_field(1048573)):
        for _ in range(300):
            a = rand_poly(rng, ctx, 8)
            b = rand_poly(rng, ctx, 4)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree
        for _ in range(30):
            a = rand_poly(rng, ctx, 8)
            c = Poly.constant(ctx.element(rng.randrange(1, ctx.order)))
            q, r = divmod(a, c)                  # constant divisor
            assert q * c == a and r.is_zero
            longer = Poly(ctx, a.coeffs + (ctx.one,)) * Poly.x(ctx)
            assert divmod(a, longer) == (Poly.zero(ctx), a)
            b = rand_poly(rng, ctx, 4, monic=True)
            assert divmod(a * b, b) == (a, Poly.zero(ctx))   # exact


def test_division_by_zero_poly():
    X = Poly.x(F3)
    with pytest.raises(errors.DivisionByZero):
        divmod(X, Poly.zero(F3))
    with pytest.raises(errors.DivisionByZero):
        X % Poly.zero(F3)


def test_ring_axioms():
    rng = random.Random(2718)
    for ctx in (F5, F9):
        for _ in range(500):
            f = rand_poly(rng, ctx, 5)
            g = rand_poly(rng, ctx, 5)
            h = rand_poly(rng, ctx, 5)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert (f * g) * h == f * (g * h)
            assert f - f == Poly.zero(ctx)
            assert f * Poly.one(ctx) == f


def test_degree_and_leading():
    X = Poly.x(F3)
    f = 2 * X ** 2 + X
    assert f.degree == 2
    assert f.leading.val == 2
    assert f.monic() == X ** 2 + 2 * X
    assert Poly.zero(F3).degree is None
    assert Poly.zero(F3).is_zero
    assert f[0].val == 0 and f[1].val == 1 and f[5].val == 0


def test_iteration_stops_at_the_degree():
    assert list(Poly.x(F3)) == [F3.zero, F3.one]
    assert list(Poly.zero(F3)) == []
    f = Poly(F9, [2, 0, 1])
    assert list(f) == [f[k] for k in range(f.degree + 1)]
    assert Poly(F9, f) == f                     # a Poly is a coefficient list


def test_evaluation_horner():
    w = F9.modulus_root
    f = Poly(F9, [2, 0, 1])                      # X^2 + 2
    assert f(w) == w * w + 2
    rng = random.Random(17)
    for _ in range(50):
        g = rand_poly(rng, F9, 6)
        x = F9.element(rng.randrange(9))
        expected = F9.zero
        for i, c in enumerate(g.coeffs):
            expected = expected + c * x ** i
        assert g(x) == expected


def test_derivative():
    w = F9.modulus_root
    f = artin_schreier(w)
    assert f.derivative() == Poly(F9, [2])       # d/dX (X^3 + 2X + w) = 2
    rng = random.Random(18)
    for _ in range(100):
        f = rand_poly(rng, F3, 6)
        g = rand_poly(rng, F3, 6)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def naive_product(ctx, a, b):
    """Oracle: the double loop over field operations, no trailing zeros."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = ctx.add_v(out[i + j], ctx.mul_v(ai, bj))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def non_residue_quadratic(p):
    """X^2 - r for the least quadratic non-residue r mod the odd prime p."""
    r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    return (-r % p, 0, 1)


def test_packed_product_matches_double_loop():
    """Kronecker-packed products against the naive double loop.

    F_1048573 needs the widest slots; F_{1048573^2} needs more than 8-byte
    slots and the F_9 tower is depth 2, so those two take the closure loop.
    """
    rng = random.Random(808)
    big = 1048573
    fields = [
        (F2, 300), (F3, 300), (finite_field(big), 300),
        (finite_field(2, 2), 300), (F9, 300), (finite_field(2, 4), 300),
        (finite_field(3, 3), 300), (finite_field(7, 2), 300),
        (finite_field(big, 2, modulus=non_residue_quadratic(big)), 40),
        (extension_field(F9, artin_schreier(F9.modulus_root)), 40),
    ]
    lengths = (1, 2, 3, 5, 16, 33, 64, 65, 129, 300)
    for ctx, longest in fields:
        sizes = [n for n in lengths if n <= longest]
        pairs = [(n, rng.choice(sizes)) for n in sizes] + [(longest, longest)]
        for la, lb in pairs:
            a = tuple(rng.randrange(ctx.order) for _ in range(la - 1))
            b = tuple(rng.randrange(ctx.order) for _ in range(lb - 1))
            a += (rng.randrange(1, ctx.order),)
            b += (rng.randrange(1, ctx.order),)
            want = naive_product(ctx, a, b)
            assert _mul_vals(ctx, a, b) == want, (ctx, la, lb)
            # trailing zeros on the inputs, and a zero operand
            assert _mul_vals(ctx, a + (0, 0), b + (0,)) == want, (ctx, la, lb)
            assert _mul_vals(ctx, a, ()) == () == _mul_vals(ctx, (), b)
        zero, f = Poly.zero(ctx), Poly(ctx, [ctx.element(1), ctx.element(1)])
        assert zero * f == zero == f * zero


def width_steps(ctx, top):
    """The degrees m <= top at which the slot width of the Barrett layout
    grows by a bit, each with m - 1."""
    out = []
    for m in range(3, top + 1):
        if (_Kron.fit(ctx, m, 2 * m - 1).width
                > _Kron.fit(ctx, m - 1, 2 * m - 3).width):
            out += [m - 1, m]
    return out


def test_barrett_product_with_extreme_coefficients():
    """Every digit of a * a at its maximum, and the modulus negated to the
    largest digits, at degree 200 over F_2, 50 over F_3 and 8 over F_9,
    and on both sides of every degree where the slots of the Barrett
    layout widen by a bit, over F_2, F_3, F_9, F_16, F_49 and F_1048573;
    a^3 as well."""
    F16, F49 = finite_field(2, 4), finite_field(7, 2)
    big = finite_field(1048573)
    cases = [(F2, 200), (F3, 50), (F9, 8)]
    for ctx, top in ((F2, 140), (F3, 70), (F9, 40), (F16, 30), (F49, 24),
                     (big, 24)):
        cases += [(ctx, m) for m in width_steps(ctx, top)]
    assert len(cases) > 30
    for ctx, m in cases:
        top = ctx.order - 1                      # every base-p digit p - 1
        ones = sum(ctx.p ** j for j in range(ctx.degree))
        a = (top,) * m
        f = Poly._make(ctx, (ones,) * m + (1,))  # -f_i has every digit p - 1
        square = Poly._make(ctx, naive_product(ctx, a, a))
        want = square % f
        assert powmod(Poly._make(ctx, a), 2, f) == want, (ctx, m)
        cube = Poly._make(ctx, naive_product(ctx, want.vals, a)) % f
        assert powmod(Poly._make(ctx, a), 3, f) == cube, (ctx, m)


def reduce_case(p, b, width, values):
    """_slot_reducer on ``values`` packed one per slot of ``width`` bits,
    against % p slot by slot; the values start at an even slot and again at
    an odd one."""
    for lead in (0, 1):
        vals = [0] * lead + list(values)
        reduce = _slot_reducer(p, b, width, len(vals))
        x = sum(v << (k * width) for k, v in enumerate(vals))
        out = reduce(x)
        mask = (1 << width) - 1
        got = [out >> (k * width) & mask for k in range(len(vals))]
        assert got == [v % p for v in vals], (p, b, width, lead)
        assert out >> (len(vals) * width) == 0


def test_slot_reduction_against_per_slot_remainder():
    """The slot-parallel reduction mod p against v % p: every slot value
    below 2^B for small (p, B), at the layout width B + 1 and at a wider
    one; for p = 1048573, the extremes (0, 1, multiples of p and their
    neighbours, 2^B - 1) and seeded values, at the widths of the Barrett
    layouts of F_1048573 and F_{1048573^2}."""
    for p in (2, 3, 5, 7, 11, 13):
        for b in range((2 * (p - 1) ** 2).bit_length(), 13):
            values = range(1 << b)
            reduce_case(p, b, b + 1, values)
            reduce_case(p, b, b + 3, values)
    big = 1048573
    rng = random.Random(4242)
    K = finite_field(big, 2, modulus=non_residue_quadratic(big))
    layouts = [_Kron.fit(finite_field(big), m, 2 * m - 1)
               for m in (2, 7, 300)]
    layouts += [_Kron.fit(K, m, 2 * m - 1) for m in (2, 5)]
    for lay in layouts:
        width = lay.width
        b = width - 1
        top = (1 << b) - 1
        extremes = [0, 1, big - 1, big, big + 1, top, top - 1,
                    top // big * big, top // big * big - 1,
                    (top // big - 1) * big + big - 1]
        extremes += [rng.randrange(1 << b) for _ in range(2000)]
        extremes += [rng.randrange(k * big, (k + 1) * big)
                     for k in (rng.randrange(top // big) for _ in range(500))]
        reduce_case(big, b, width, extremes)


def test_slot_packing_by_halves():
    """_pack_slots and _unpack_slots against one slot at a time, on both
    sides of _LOOP_SLOTS and well above it, with set bits above the slots
    unpacked; a long vector over F_9 packs and unpacks unchanged."""
    rng = random.Random(2718)
    for width in (2, 13, 31):
        for n in (0, 1, _LOOP_SLOTS - 1, _LOOP_SLOTS, _LOOP_SLOTS + 1,
                  2 * _LOOP_SLOTS + 3, 5 * _LOOP_SLOTS - 7):
            digits = [rng.randrange(1 << width) for _ in range(n)]
            x = sum(c << (k * width) for k, c in enumerate(digits))
            assert _pack_slots(digits, width) == x, (width, n)
            high = x | rng.randrange(1, 1 << 64) << (n * width)
            assert _unpack_slots(high, width, n) == digits, (width, n)
    m = 3 * _LOOP_SLOTS
    lay = _Kron.fit(F9, m, 2 * m - 1)
    vals = [rng.randrange(9) for _ in range(m)]
    assert lay.unpack(lay.pack(vals), m) == vals


def test_newton_mu_matches_long_division():
    """mu = X^(2m - 2) // f from the Newton inversion on packed products
    equals the quotient of the long division, on seeded monic f of degree
    2 to 40 over F_2, F_3, F_9 and F_49."""
    rng = random.Random(5150)
    for ctx in (F2, F3, F9, finite_field(7, 2)):
        for m in list(range(2, 12)) + [rng.randrange(12, 41) for _ in range(6)]:
            f = tuple(rng.randrange(ctx.order) for _ in range(m)) + (1,)
            lay = _Kron.fit(ctx, m, 2 * m - 1)
            mu = _barrett_mu(lay, [ctx.neg_v(c) for c in f])
            got = lay.unpack(mu, m - 1)
            want = _divmod_vals(ctx, (0,) * (2 * m - 2) + (1,), f)[0]
            assert tuple(got) == want, (ctx, f)


# -- gcd and powmod -------------------------------------------------------------


def test_gcd_examples():
    X = Poly.x(F5)
    assert gcd(X ** 2 - 1, X - 1) == X + 4       # monic normalization
    f = 3 * X ** 2 + 1
    assert gcd(f, Poly.zero(F5)) == f.monic()
    assert gcd(Poly.zero(F5), f) == f.monic()
    with pytest.raises(errors.BothZero):
        gcd(Poly.zero(F5), Poly.zero(F5))


def test_gcd_with_derivative_of_squarefree():
    w = F9.modulus_root
    g = artin_schreier(w)
    assert gcd(g, g.derivative()) == Poly.one(F9)


def test_gcd_divides_both():
    rng = random.Random(606)
    for _ in range(200):
        f = rand_poly(rng, F5, 6)
        g = rand_poly(rng, F5, 6)
        if f.is_zero and g.is_zero:
            continue
        d = gcd(f, g)
        assert divides(d, f) or f.is_zero
        assert divides(d, g) or g.is_zero
        assert d.leading == F5.one


def test_powmod_examples():
    X = Poly.x(F3)
    m = Poly(F3, [2, 2, 1])
    assert powmod(X, 9, m) == X                  # X^q = X in F_q
    assert powmod(X, 3, m) == 2 * X + 1
    assert powmod(X, 0, m) == Poly.one(F3)
    with pytest.raises(errors.ZeroModulus):
        powmod(X, 5, Poly.zero(F3))


def test_powmod_matches_naive():
    rng = random.Random(909)
    m = Poly(F5, [1, 1, 1])
    for _ in range(50):
        f = rand_poly(rng, F5, 3)
        k = rng.randrange(60)
        assert powmod(f, k, m) == (f ** k) % m
    # over F_9, a modulus of degree > 64 that is not monic
    m = rand_poly(rng, F9, 70, monic=True)
    while m.degree <= 64:
        m = rand_poly(rng, F9, 70, monic=True)
    m = m * F9.element(5)
    for k in (0, 1, 2, 3, 5, 12):
        f = rand_poly(rng, F9, 90)
        assert powmod(f, k, m) == (f ** k) % m, k


# -- irreducibility ---------------------------------------------------------------


def test_irreducibility_examples():
    X = Poly.x(F3)
    assert is_irreducible(Poly(F3, [2, 2, 1]))
    assert not is_irreducible(X ** 2 - 1)
    assert is_irreducible(X + 2)
    w = F9.modulus_root
    assert is_irreducible(artin_schreier(w))     # Tr(w) = 1, so X^3 - X + w stays whole
    with pytest.raises(errors.ConstantPolynomial):
        is_irreducible(Poly.one(F3))
    with pytest.raises(errors.ConstantPolynomial):
        is_irreducible(Poly.zero(F3))


def test_rabin_against_trial_division():
    """Exhaustive cross-check of the Rabin test on small degrees."""
    for ctx, max_deg in ((F2, 4), (F3, 3)):
        for deg in range(1, max_deg + 1):
            for tail in itertools.product(range(ctx.order), repeat=deg):
                f = Poly(ctx, [ctx.element(v) for v in tail] + [ctx.one])
                assert is_irreducible(f) == irreducible_by_trial_division(f), f


def test_rabin_over_extension_field():
    rng = random.Random(110)
    for _ in range(60):
        f = rand_poly(rng, F9, 3, monic=True)
        if f.degree < 1:
            continue
        assert is_irreducible(f) == irreducible_by_trial_division(f), f


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def monic_polys(ctx, deg):
    for tail in itertools.product(range(ctx.order), repeat=deg):
        yield Poly(ctx, [ctx.element(v) for v in tail] + [ctx.one])


def test_rabin_count_matches_gauss_formula():
    """Rabin finds (1/m) sum_{d | m} mu(d) q^(m/d) monic irreducibles of
    degree m, counted over every monic polynomial of that degree."""
    F4 = finite_field(2, 2)
    for ctx, max_deg in ((F2, 10), (F3, 6), (F4, 4), (F5, 4), (F9, 3)):
        q = ctx.order
        for m in range(1, max_deg + 1):
            gauss = sum(mobius(d) * q ** (m // d)
                        for d in range(1, m + 1) if m % d == 0) // m
            count = sum(map(is_irreducible, monic_polys(ctx, m)))
            assert count == gauss, (ctx, m)


def test_rabin_over_tower_against_trial_division():
    """Depth 2: F_4(gamma), gamma^2 + gamma = u, of order 16; every monic
    polynomial of degree <= 2 and seeded cubics."""
    F4 = finite_field(2, 2)
    tower = extension_field(F4, artin_schreier(F4.modulus_root))
    assert tower.depth == 2 and tower.order == 16
    for deg in (1, 2):
        for f in monic_polys(tower, deg):
            assert is_irreducible(f) == irreducible_by_trial_division(f), f
    rng = random.Random(111)
    for _ in range(300):
        f = Poly(tower, [tower.element(rng.randrange(16)) for _ in range(3)]
                 + [tower.one])
        assert is_irreducible(f) == irreducible_by_trial_division(f), f


def test_rabin_on_large_denominators_matches_criterion():
    """Both verdicts at degree >= 81: D_n is irreducible exactly when the
    criterion calls xi stable or n is below the witness index."""
    F4 = finite_field(2, 2)
    cases = (
        (F3.element(1), 5),                  # stable, degree 243
        (F9.modulus_root, 4),                # stable over F_9, degree 81
        (F4.modulus_root, 7),                # unstable from n = 5, degree 128
    )
    verdicts = []
    for xi, n in cases:
        v = decide_inverse_stability(xi)
        want = v.outcome == 'stable' or n < v.witness_n
        den = denominator(xi, n)
        assert den.degree == xi.ctx.p ** n >= 81
        assert is_irreducible(den.monic()) == want, (xi, n)
        verdicts.append(want)
    assert verdicts == [True, True, False]


def closure_rabin(f):
    """Rabin's test with every product the naive double loop and every
    remainder the long division: no packing and no Barrett step."""
    ctx, m = f.ctx, f.degree
    f = f.monic()
    x = Poly.x(ctx)

    def mulmod(a, b):
        return Poly._make(ctx, naive_product(ctx, a.vals, b.vals)) % f

    h = x % f
    for i in range(1, m + 1):
        acc = h
        for bit in bin(ctx.order)[3:]:
            acc = mulmod(acc, acc)
            if bit == '1':
                acc = mulmod(acc, h)
        h = acc
        r = m // i
        if i < m and m % i == 0 and all(r % d for d in range(2, r)):
            if gcd(h - x, f) != Poly.one(ctx):
                return False
    return h == x % f


def test_packed_rabin_matches_closure_rabin():
    """is_irreducible against closure_rabin on seeded monic polynomials
    over 14 fields (depth 1 up to F_{1048573^2}, and a depth-2 tower):
    random ones, of which some are irreducible, and products of two, which
    are not."""
    big = 1048573
    F4 = finite_field(2, 2)
    fields = [
        (F2, 12), (F3, 9), (F5, 7), (finite_field(7), 6), (F4, 7),
        (finite_field(2, 3), 6), (F9, 6), (finite_field(2, 4), 5),
        (finite_field(5, 2), 4), (finite_field(3, 3), 4),
        (finite_field(7, 2), 4), (finite_field(big), 4),
        (finite_field(big, 2, modulus=non_residue_quadratic(big)), 3),
        (extension_field(F4, artin_schreier(F4.modulus_root)), 3),
    ]
    rng = random.Random(2024)
    for ctx, top in fields:
        found = set()
        for _ in range(30):
            f = rand_poly(rng, ctx, top, monic=True)
            if f.degree < 1:
                continue
            verdict = is_irreducible(f)
            assert verdict == closure_rabin(f), (ctx, f)
            found.add(verdict)
        assert found == {True, False}, ctx
        for _ in range(4):
            a = Poly(ctx, [ctx.element(rng.randrange(ctx.order))
                           for _ in range(rng.randrange(1, top // 2 + 1))]
                     + [ctx.one])
            b = Poly(ctx, [ctx.element(rng.randrange(ctx.order))
                           for _ in range(rng.randrange(1, top // 2 + 1))]
                     + [ctx.one])
            assert not is_irreducible(a * b), (ctx, a, b)
            assert not closure_rabin(a * b), (ctx, a, b)


def test_find_irreducible_goldens():
    def vals(f):
        return tuple(c.val for c in f.coeffs)

    assert vals(find_irreducible(F2, 1)) == (0, 1)
    assert vals(find_irreducible(F2, 2)) == (1, 1, 1)
    assert vals(find_irreducible(F2, 3)) == (1, 0, 1, 1)
    assert vals(find_irreducible(F2, 4)) == (1, 0, 0, 1, 1)
    assert vals(find_irreducible(F3, 2)) == (1, 0, 1)
    assert vals(find_irreducible(F3, 3)) == (1, 0, 2, 1)
    assert vals(find_irreducible(F5, 2)) == (1, 1, 1)


def test_find_irreducible_is_first_in_order():
    """The chosen modulus must be minimal in the documented candidate order,
    found here by trial division over every candidate, f(0) = 0 included."""
    F4 = finite_field(2, 2)
    cases = [(F2, e) for e in range(1, 11)] + [(F3, e) for e in range(1, 7)]
    cases += [(F5, e) for e in range(1, 5)] + [(finite_field(11), 2)]
    cases += [(F4, e) for e in range(1, 4)]
    for ctx, deg in cases:
        first = None
        for tail in itertools.product(range(ctx.order), repeat=deg):
            f = Poly(ctx, [ctx.element(v) for v in tail] + [ctx.one])
            if irreducible_by_trial_division(f):
                first = f
                break
        assert find_irreducible(ctx, deg) == first


def test_find_irreducible_over_extension():
    g = find_irreducible(F9, 2)
    assert g.degree == 2 and g.leading == F9.one
    assert is_irreducible(g)


def test_find_irreducible_over_a_large_field():
    """Over K = F_{1048573^2} (order about 1.1e12) the candidates are
    walked lazily: degree 2 returns at once.  A monic quadratic over K, of
    odd characteristic, is irreducible iff its discriminant is not a
    square (Euler's criterion, d^((q - 1) / 2) = -1).  The p candidates
    X^2 + cX + 1 with c in F_p all split, because F_p's discriminants are
    squares in K; the answer must be the first one after them that does
    not."""
    K = finite_field(1048573, 2)
    p, q = K.p, K.order
    start = time.perf_counter()
    f = find_irreducible(K, 2)
    assert time.perf_counter() - start < 10
    c0, c1, lead = f.vals
    assert lead == 1 and c0 == 1 and is_irreducible(f)

    def square(b, c):
        disc = K.sub_v(K.mul_v(b, b), K.mul_v(4, c))
        return K.pow_v(disc, (q - 1) // 2) != K.neg_v(1)

    assert not square(c1, c0)
    assert all(square(b, 1) for b in (0, 1, 2, 3, p - 1))
    assert p <= c1 and all(square(b, 1) for b in range(p, c1))


# -- reciprocal ----------------------------------------------------------------------


def test_reciprocal_examples():
    m = Poly(F3, [2, 2, 1])
    assert reciprocal(m) == Poly(F3, [1, 2, 2])
    w = F9.modulus_root
    g = artin_schreier(w)
    # X^p g(1/X) = xi X^p - X^(p-1) + 1
    assert reciprocal(g) == Poly(F9, [1, 0, 2, w])
    with pytest.raises(errors.ConstantPolynomial):
        reciprocal(Poly.constant(F3.from_int(2)))


def test_reciprocal_involution_and_irreducibility():
    rng = random.Random(1234)
    for ctx in (F3, F9):
        seen = 0
        while seen < 100:
            f = rand_poly(rng, ctx, 5)
            if f.degree is None or f.degree < 1 or not f[0]:
                continue
            seen += 1
            assert reciprocal(reciprocal(f)) == f
            assert is_irreducible(f.monic()) == is_irreducible(reciprocal(f).monic())


# -- frobenius powers and the additive family -----------------------------------------


def test_frobenius_power_is_pth_power():
    rng = random.Random(321)
    tower = extension_field(F9, artin_schreier(F9.modulus_root))
    for ctx in (F3, F9, finite_field(2, 2), tower):
        for _ in range(40):
            f = rand_poly(rng, ctx, 4)
            assert frobenius_power(f) == f ** ctx.p


def test_artin_schreier_shape():
    w = F9.modulus_root
    g = artin_schreier(w)
    assert g.degree == 3
    assert tuple(c for c in g.coeffs) == (w, F9.from_int(-1), F9.zero, F9.one)
    F4 = finite_field(2, 2)
    u = F4.modulus_root
    h = artin_schreier(u)
    assert h == Poly(F4, [u, 1, 1])              # X^2 + X + u in characteristic 2


# -- text encoding ----------------------------------------------------------------------


def test_poly_text_round_trip():
    w = F9.modulus_root
    f = Poly(F9, [F9.zero, w, F9.one])
    assert poly_to_text(f) == "0,0;0,1;1,0"
    rng = random.Random(42)
    for ctx in (F3, F9):
        for _ in range(100):
            f = rand_poly(rng, ctx, 6)
            parts = poly_to_text(f).split(';')
            assert Poly(ctx, [element_from_text(ctx, t) for t in parts]) == f


def test_poly_text_prime_field():
    f = Poly(F5, [1, 0, 3])
    assert poly_to_text(f) == "1;0;3"
