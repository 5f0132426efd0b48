"""Tests for field construction, arithmetic, traces, and the packed encoding."""

import functools
import random

import pytest

from invstab import errors, fields
from invstab.fields import (
    MAX_PRIME,
    ZECH_MAX_ORDER,
    abs_trace,
    element_from_text,
    element_to_text,
    extension_field,
    finite_field,
    lift,
    prime_field,
    rel_trace,
    relative_degree,
)
from invstab.fields import _ext_ops, _power, _prime_factors
from invstab.polys import Poly, artin_schreier, find_irreducible


F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)
F9 = finite_field(3, 2, modulus=(2, 2, 1))
F25 = finite_field(5, 2, modulus=(2, 4, 1))


def rand_elt(rng, ctx):
    # element() takes a packed value, so this samples the whole field
    return ctx.element(rng.randrange(ctx.order))


# -- prime field arithmetic ------------------------------------------------


def test_prime_field_basics():
    two = F5.from_int(2)
    four = F5.from_int(4)
    assert (two + four).val == 1
    assert (two * four).val == 3
    assert (two ** -1).val == 3
    assert (-F5.one).val == 4
    assert F5.from_int(7) == two
    assert F5.from_int(7) == 2


def test_prime_field_division():
    three = F3.from_int(2)
    assert (F3.one / three) * three == F3.one
    with pytest.raises(errors.DivisionByZero):
        F3.one / F3.zero
    with pytest.raises(errors.DivisionByZero):
        F3.zero ** -1


def test_char_two():
    F2 = finite_field(2)
    assert F2.one + F2.one == F2.zero
    assert -F2.one == F2.one


# -- extension field arithmetic (spec'd generators) ------------------------


def test_f9_generator_relations():
    w = F9.modulus_root
    assert (w * w).val == (w + 1).val          # w^2 = w + 1
    assert (w ** -1) == w + 2                  # w * (w + 2) = 1
    assert w ** 3 == 2 * w + 1
    assert w * (w + 2) == F9.one


def test_f25_generator_relations():
    v = F25.modulus_root
    assert v * v == v + 3                      # v^2 = v + 3
    assert v ** -1 == 2 * v + 3
    assert v * (2 * v + 3) == F25.one


def test_power_cycles():
    # multiplicative order divides q - 1
    two = F3.from_int(2)
    assert (two ** 100).val == 1
    w = F9.modulus_root
    assert w ** 8 == F9.one
    assert w ** 9 == w


def test_from_coeffs_and_packing():
    x = F9.from_coeffs([2, 1])
    assert x.val == 2 + 1 * 3
    assert x.coeffs[0].val == 2 and x.coeffs[1].val == 1
    assert F9.from_int(0) == F9.zero and F9.from_int(1) == F9.one
    # from_int is the map from Z, so it lands in the prime subfield
    assert F9.from_int(3) == F9.zero
    assert F9.element(3) == F9.modulus_root
    # packing is little-endian in the base order
    v = F25.from_coeffs([3, 2])
    assert v.val == 3 + 2 * 5


def test_elements_enumeration_order():
    vals = [x.val for x in F9.elements()]
    assert vals == list(range(9))
    assert next(F9.elements()) == F9.zero
    assert list(F9.elements())[1] == F9.one


# -- default moduli ---------------------------------------------------------


def test_default_moduli():
    assert finite_field(3, 2).describe() == {'p': 3, 'e': 2, 'modulus': '1,0,1'}
    assert finite_field(2, 2).describe() == {'p': 2, 'e': 2, 'modulus': '1,1,1'}
    assert finite_field(2, 3).describe() == {'p': 2, 'e': 3, 'modulus': '1,0,1,1'}
    assert finite_field(5).describe() == {'p': 5, 'e': 1, 'modulus': None}


def test_context_caching():
    assert finite_field(3, 2, modulus=(2, 2, 1)) is F9
    assert finite_field(3, 2) is finite_field(3, 2)
    assert finite_field(3, 2) is not F9
    assert prime_field(5) is F5


# -- traces -----------------------------------------------------------------


def test_trace_values():
    w = F9.modulus_root
    assert abs_trace(w).val == 1
    assert abs_trace(w + 1).val == 0
    assert abs_trace(F9.one).val == 2          # e copies of 1
    v = F25.modulus_root
    assert abs_trace(v).val == 1
    assert abs_trace(F25.one).val == 2


def test_trace_surjective_and_balanced():
    """Every trace value is hit by exactly q/p elements."""
    for ctx in (F9, F25):
        fibers = {}
        for x in ctx.elements():
            t = abs_trace(x)
            assert t.ctx.kind == 'prime'
            fibers[t.val] = fibers.get(t.val, 0) + 1
        assert set(fibers) == set(range(ctx.p))
        assert all(n == ctx.order // ctx.p for n in fibers.values())


def test_trace_is_linear():
    rng = random.Random(404)
    for _ in range(200):
        x, y = rand_elt(rng, F25), rand_elt(rng, F25)
        assert abs_trace(x + y) == abs_trace(x) + abs_trace(y)
    c = F25.from_int(3)
    x = rand_elt(rng, F25)
    assert abs_trace(c * x) == F5.from_int(3) * abs_trace(x)


def test_trace_of_frobenius_difference_is_zero():
    # Tr(t^p - t) = 0 always; this underpins the stability criterion
    rng = random.Random(405)
    for ctx in (F9, F25, finite_field(2, 3)):
        for _ in range(100):
            t = rand_elt(rng, ctx)
            assert abs_trace(t.frobenius() - t) == 0


# -- frobenius ---------------------------------------------------------------


def test_frobenius_is_field_automorphism():
    rng = random.Random(99)
    for ctx in (F9, F25):
        for _ in range(200):
            x, y = rand_elt(rng, ctx), rand_elt(rng, ctx)
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        # fixes the prime subfield, and e applications give the identity
        for k in range(ctx.p):
            assert ctx.from_int(k).frobenius() == ctx.from_int(k)
        x = rand_elt(rng, ctx)
        y = x
        for _ in range(ctx.total_degree):
            y = y.frobenius()
        assert y == x


def test_frobenius_matches_pth_power():
    """The precomputed Frobenius map (a matrix, or g^(p log x) with a Zech
    table) and trace map (a vector, or a table up to ZECH_MAX_ORDER) agree
    with plain powering and with the Frobenius-sum rel_trace on every
    element of every field of order <= 729 (default modulus), of F_9 with
    modulus 2,2,1, of F_25 with modulus 2,4,1, of a depth-2 tower above F_9
    and of GF(3^8), GF(2^12) and GF(89^2), the largest fields with a Zech
    table."""
    fields = [finite_field(p, e)
              for p in range(2, 730) if _prime_factors(p) == [p]
              for e in range(1, 10) if p ** e <= 729]
    assert len(fields) == 152
    w = F9.modulus_root
    fields += [F9, F25, extension_field(F9, artin_schreier(w)),
               finite_field(3, 8), finite_field(2, 12), finite_field(89, 2)]
    for ctx in fields:
        prime = ctx.prime_ctx
        for x in ctx.elements():
            assert x.frobenius() == x ** ctx.p
            assert abs_trace(x) == rel_trace(x, prime)


def factory_ops(ctx):
    """Fresh closures of the extension factory for a depth-1 context: the
    packed product and flat Euclid that build its table, and the reference
    the table is checked against."""
    return _ext_ops(ctx.base, ctx.degree, ctx.modulus_vals)


def test_log_table_exhaustive():
    """On every depth-1 field of order <= 729 (default moduli), F_9 with
    modulus 2,2,1 and F_25 with modulus 2,4,1, the logs and antilogs of
    the Zech table: the generator g = exps[1] has order q - 1,
    exps[k] = g^k by plain powering through the factory's packed product
    (the context's own product runs on this table), and exps[log x] = x
    for every x != 0."""
    for ctx in depth1_fields(729):
        logs, exps, _ = ctx._zech_table()
        assert ctx._zech_table()[0] is logs        # built once per context
        mul = factory_ops(ctx)[3]
        m = ctx.order - 1
        g = exps[1 % m]
        assert _power(mul, g, m) == 1
        assert all(_power(mul, g, m // ell) != 1 for ell in range(2, m + 1)
                   if m % ell == 0 and _prime_factors(ell) == [ell])
        assert len(exps) == m and logs[0] is None
        assert exps == [_power(mul, g, k) if k else 1 for k in range(m)]
        for x in range(1, ctx.order):
            assert exps[logs[x]] == x


def depth1_fields(bound):
    """Every depth-1 field of order <= bound (default moduli), F_9 with
    modulus 2,2,1 and F_25 with modulus 2,4,1."""
    return [finite_field(p, e)
            for p in range(2, bound + 1) if _prime_factors(p) == [p]
            for e in range(2, 14) if p ** e <= bound] + [F9, F25]


def test_zech_table_against_flat_product():
    """On every depth-1 field of order <= 729 and on GF(3^8), GF(2^12) and
    GF(89^2), the largest below ZECH_MAX_ORDER: exps[k + 1] is the
    factory's product of exps[k] and g, every Zech entry is the log of the
    factory's 1 + g^k (None where that is 0), and inv_v(x) times x is 1
    under the factory's product for every x != 0."""
    ctxs = depth1_fields(729) + [finite_field(3, 8), finite_field(2, 12),
                                 finite_field(89, 2)]
    assert len(ctxs) == 28
    assert max(ctx.order for ctx in ctxs) <= ZECH_MAX_ORDER
    for ctx in ctxs:
        fadd, _, _, fmul = factory_ops(ctx)[:4]
        logs, exps, zech = ctx._zech_table()
        m = ctx.order - 1
        g = exps[1 % m]
        assert exps[0] == 1 and fmul(exps[-1], g) == 1
        for k in range(m - 1):
            assert exps[k + 1] == fmul(exps[k], g), (ctx, k)
        assert len(zech) == m
        for k, z in enumerate(zech):
            one_plus = fadd(1, exps[k])
            assert z == logs[one_plus], (ctx, k)
            assert (z is None) == (one_plus == 0)
        for x in range(1, ctx.order):
            assert fmul(x, ctx.inv_v(x)) == 1, (ctx, x)
    with pytest.raises(errors.DivisionByZero):
        F9.inv_v(0)


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty context caches for one test, so the module's contexts stay
    cached."""
    monkeypatch.setattr(fields, '_extension_cache', {})
    monkeypatch.setattr(fields, 'prime_field',
                        functools.lru_cache(fields.prime_field.__wrapped__))


def test_context_construction_builds_no_table(monkeypatch, fresh_caches):
    """Building a depth-1 context, its default modulus search included,
    builds no log table; its first product does."""
    def no_table(*args):
        raise AssertionError("log table built")
    with monkeypatch.context() as patch:
        patch.setattr(fields, '_log_exp', no_table)
        ctxs = [finite_field(p, e) for p, e in ((3, 8), (2, 12), (89, 2),
                                                 (5, 3))]
        assert ctxs[0].add_v(0, 5) == 5 and ctxs[0].mul_v(0, 5) == 0
        with pytest.raises(AssertionError, match="log table built"):
            ctxs[0].mul_v(3, 5)
    ctx = ctxs[-1]
    assert ctx.mul_v(5, 7) == factory_ops(ctx)[3](5, 7)


def test_fresh_context_gets_its_own_table(fresh_caches):
    """A context built after the caches are emptied, as the benchmark does
    before every command, is a new object with its own table, and its
    arithmetic agrees with the factory's closures."""
    old = finite_field(5, 2)
    old_logs = old._zech_table()[0]
    fields._extension_cache.clear()
    fields.prime_field.cache_clear()
    new = finite_field(5, 2)
    assert new is not old and new.modulus_vals == old.modulus_vals
    logs, exps, _ = new._zech_table()
    assert logs is not old_logs and logs == old_logs
    fadd, fsub, fneg, fmul, finv = factory_ops(new)[:5]
    assert all(new.frobenius_v(a) == _power(fmul, a, new.p)
               for a in range(1, new.order))
    for a in range(1, new.order):
        assert new.inv_v(a) == finv(a)
        assert new.sub_v(a, 7) == fsub(a, 7) and new.mul_v(a, 7) == fmul(a, 7)


# -- field axioms (seeded sweeps) --------------------------------------------


def test_field_axioms():
    rng = random.Random(20240815)
    K4 = finite_field(2, 2)
    tower = extension_field(K4, find_irreducible(K4, 2))
    for ctx in (F5, F9, F25, tower):
        for _ in range(1000):
            a, b, c = (rand_elt(rng, ctx) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ctx.zero == a
            assert a * ctx.one == a
            assert a - a == ctx.zero
            if not b:
                continue
            assert (a / b) * b == a
            assert b * b ** -1 == ctx.one


def test_subtraction_and_unary_minus():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_elt(rng, F9), rand_elt(rng, F9)
        assert a - b == a + (-b)
        assert -(-a) == a


def test_int_operand_coercion():
    w = F9.modulus_root
    assert 1 + w == w + 1
    assert 2 * w == w + w
    assert w - 1 == w + 2
    assert 1 / (w + 2) == w


@pytest.mark.parametrize('ctx', [
    finite_field(2), F4, F9, extension_field(F4, find_irreducible(F4, 2)),
], ids=['F2', 'F4', 'F9', 'F4(gamma)'])
def test_pow_matches_repeated_multiplication(ctx):
    """x ** k and pow_v against a running product, for k = -q .. 2q + 1."""
    q = ctx.order
    for x in ctx.elements():
        acc = ctx.one
        for k in range(2 * q + 2):
            assert x ** k == acc and ctx.pow_v(x.val, k) == acc.val, (x, k)
            acc = acc * x
        if not x:
            with pytest.raises(errors.DivisionByZero):
                x ** -1
            continue
        inv = next(y for y in ctx.elements() if x * y == ctx.one)
        acc = ctx.one
        for k in range(1, q + 1):
            acc = acc * inv
            assert x ** -k == acc and ctx.pow_v(x.val, -k) == acc.val, (x, k)


@pytest.mark.parametrize('base', [F3, F9], ids=['depth1', 'depth2'])
def test_one_coercion_for_polys_elements_and_moduli(base):
    """Poly, from_coeffs and extension_field read integers (through the
    prime field, at every depth) and elements alike, and reject the same
    bad coefficients."""
    f = find_irreducible(base, 3)
    # the constant term as an element, every other value below p as an
    # unreduced integer
    mixed = [base.element(f.vals[0])] + [
        v + base.p if v < base.p else base.element(v) for v in f.vals[1:]]
    L = extension_field(base, mixed)
    assert L is extension_field(base, f)
    assert L.modulus_vals == Poly(base, mixed).vals == f.vals
    assert L.decode_v(L.from_coeffs(mixed[:3]).val) == list(f.vals[:3])
    assert L.from_coeffs([-1]) == L.from_int(-1)
    stranger = finite_field(5).one
    builders = (lambda cs: Poly(base, cs), L.from_coeffs,
                lambda cs: extension_field(base, cs + [1]))
    for build in builders:
        with pytest.raises(errors.CtxMismatch):
            build([stranger])
        for bad in ("1", 1.5):
            with pytest.raises(TypeError):
                build([bad])


# -- towers, lifting, relative traces -----------------------------------------


def test_two_level_tower():
    K = finite_field(2, 2)
    L = extension_field(K, find_irreducible(K, 2))
    assert L.order == 16 and L.depth == 2 and L.total_degree == 4
    assert relative_degree(L, K) == 2
    assert relative_degree(L, prime_field(2)) == 4
    assert relative_degree(F9, F3) == 2


def test_lift_preserves_value_and_arithmetic():
    K = finite_field(2, 2)
    L = extension_field(K, find_irreducible(K, 2))
    rng = random.Random(55)
    for _ in range(100):
        a, b = rand_elt(rng, K), rand_elt(rng, K)
        assert lift(a, L).val == a.val
        assert lift(a, L) + lift(b, L) == lift(a + b, L)
        assert lift(a, L) * lift(b, L) == lift(a * b, L)
    assert lift(K.zero, L) == L.zero and lift(K.one, L) == L.one


def test_trace_transitivity():
    """Tr_{L/F_p} = Tr_{K/F_p} after Tr_{L/K}, checked on a depth-2 tower."""
    K = finite_field(3, 2, modulus=(2, 2, 1))
    L = extension_field(K, find_irreducible(K, 2))
    rng = random.Random(811)
    for _ in range(100):
        x = rand_elt(rng, L)
        t = rel_trace(x, K)
        assert t.ctx is K
        assert abs_trace(t) == abs_trace(x)
    # the relative trace down to the field itself is the identity
    y = rand_elt(rng, K)
    assert rel_trace(y, K) == y


def test_rel_trace_is_k_linear():
    K = finite_field(2, 2)
    L = extension_field(K, find_irreducible(K, 2))
    rng = random.Random(812)
    for _ in range(50):
        x, y = rand_elt(rng, L), rand_elt(rng, L)
        c = rand_elt(rng, K)
        assert rel_trace(x + y, K) == rel_trace(x, K) + rel_trace(y, K)
        assert rel_trace(lift(c, L) * x, K) == c * rel_trace(x, K)


# -- error contract ------------------------------------------------------------


def test_not_prime():
    for bad in (1, 4, 6, 9, 1048575):
        with pytest.raises(errors.NotPrime):
            prime_field(bad)


def test_prime_too_large():
    assert MAX_PRIME == 2 ** 20
    with pytest.raises(errors.PrimeTooLarge):
        prime_field(1048583)


def test_prime_too_large_before_any_primality_test(monkeypatch):
    """Every p >= MAX_PRIME, prime or not, raises PrimeTooLarge without a
    trial division, so 2^61 - 1 fails at once instead of hanging."""
    def no_factoring(n):
        raise AssertionError(f"trial division of {n}")
    monkeypatch.setattr(fields, '_prime_factors', no_factoring)
    for big in (MAX_PRIME, MAX_PRIME + 1, 2 ** 61 - 1, 2 ** 64):
        with pytest.raises(errors.PrimeTooLarge):
            prime_field(big)


def test_reducible_modulus_rejected():
    with pytest.raises(errors.ReducibleModulus):
        finite_field(3, 2, modulus=(1, 2, 1))     # (X + 1)^2
    with pytest.raises(errors.ReducibleModulus):
        finite_field(2, 2, modulus=(1, 0, 1))     # (X + 1)^2 over F_2


def test_non_monic_modulus_rejected():
    with pytest.raises(errors.NotMonic):
        finite_field(3, 2, modulus=(2, 2, 2))


def test_depth_cap():
    K = finite_field(2, 2)
    L = extension_field(K, find_irreducible(K, 2))
    with pytest.raises(errors.DepthExceeded):
        extension_field(L, find_irreducible(L, 2))


def test_ctx_mismatch():
    other = finite_field(3, 2)                    # different modulus, so a different field
    with pytest.raises(errors.CtxMismatch):
        F9.modulus_root + other.modulus_root
    with pytest.raises(errors.CtxMismatch):
        F9.one * F25.one


def test_not_in_tower():
    with pytest.raises(errors.NotInTower):
        lift(F5.one, F9)
    with pytest.raises(errors.NotInTower):
        rel_trace(F9.modulus_root, F5)


# -- text round trips -----------------------------------------------------------


def test_element_text_format():
    w = F9.modulus_root
    assert element_to_text(w) == "0,1"
    assert element_to_text(F9.one) == "1,0"
    assert element_to_text(F5.from_int(3)) == "3"
    assert element_from_text(F9, "1") == F9.one   # short vectors are zero padded
    assert element_from_text(F9, "2,1").val == F9.from_coeffs([2, 1]).val


def test_element_text_round_trip():
    rng = random.Random(23)
    for ctx in (F5, F9, F25, finite_field(7)):
        for _ in range(100):
            x = rand_elt(rng, ctx)
            assert element_from_text(ctx, element_to_text(x)) == x


def test_element_text_rejects_oversized_vector():
    with pytest.raises(ValueError):
        element_from_text(F9, "1,2,1")


# -- the extension factory against a schoolbook reference -----------------


def test_generic_ops_agree_with_prime_ext_ops():
    """The extension factory's ops on a depth-1 field must match a
    schoolbook reference, and the context's own ops (lookups in its Zech
    table) must match the factory's.

    The factory's product is one packed multiply of the flat digits reduced
    by F_p-linear rows, and its inverse a Euclid on plain digit lists;
    ref_product multiplies and reduces with the prime field's element
    operators.  add/sub/neg/mul agree on every pair of every depth-1 field
    of order <= 81.  Every nonzero element of every depth-1 field of order
    <= 729 (default moduli, plus F_9 with modulus 2,2,1 and F_25 with
    modulus 2,4,1) gets the same inverse from the factory and the table,
    and both products confirm that inverse."""
    ctxs = depth1_fields(729)
    assert len(ctxs) == 25
    for ctx in ctxs:
        assert ctx._zech_table is not None
        base, d = ctx.base, ctx.degree
        modulus = [base.element(v) for v in ctx.modulus_vals]
        fadd, fsub, fneg, fmul, finv = factory_ops(ctx)[:5]
        coeffs = [unpacked(base, d, a) for a in range(ctx.order)]
        for a in range(ctx.order if ctx.order <= 81 else 0):
            u = coeffs[a]
            for b, v in enumerate(coeffs):
                want = (packed([s + t for s, t in zip(u, v)]),
                        packed([s - t for s, t in zip(u, v)]),
                        packed(ref_product(modulus, u, v)))
                assert (fadd(a, b), fsub(a, b),
                        fmul(a, b)) == want, (ctx, a, b)
                assert (ctx.add_v(a, b), ctx.sub_v(a, b),
                        ctx.mul_v(a, b)) == want, (ctx, a, b)
            assert packed([-c for c in u]) == fneg(a) == ctx.neg_v(a), (ctx, a)
        for a in range(1, ctx.order):
            inv = finv(a)
            assert ctx.inv_v(a) == inv, (ctx, a)
            assert fmul(a, inv) == 1, (ctx, a)
            assert packed(ref_product(modulus, coeffs[a], coeffs[inv])) == 1


def test_depth1_product_above_bound_matches_schoolbook_reference():
    """Above ZECH_MAX_ORDER a depth-1 field computes on the factory's
    closures themselves: on 200 seeded pairs each of GF(3^9), GF(2^13),
    GF(101^2) and GF(1048573^2), mul_v equals ref_product and x times
    inv_v(x) is 1 under both products."""
    rng = random.Random(6063)
    for p, e in ((3, 9), (2, 13), (101, 2), (1048573, 2)):
        ctx = finite_field(p, e)
        assert ctx.order > ZECH_MAX_ORDER and ctx._zech_table is None
        base = ctx.base
        modulus = [base.element(v) for v in ctx.modulus_vals]
        for _ in range(200):
            x, y = rng.randrange(1, ctx.order), rng.randrange(ctx.order)
            u, v = unpacked(base, e, x), unpacked(base, e, y)
            assert ctx.mul_v(x, y) == packed(ref_product(modulus, u, v)), (
                ctx, x, y)
            inv = ctx.inv_v(x)
            assert ctx.mul_v(x, inv) == 1, (ctx, x)
            assert packed(ref_product(modulus, u,
                                      unpacked(base, e, inv))) == 1, (ctx, x)


# -- tower arithmetic against a schoolbook reference -------------------------------


def ref_product(modulus, a, b):
    """a * b mod the monic ``modulus``, all lists of base-field elements:
    a schoolbook product with the element operators, then reduction from
    the top."""
    d = len(modulus) - 1
    prod = [modulus[0].ctx.zero] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = prod[i + j] + ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        for j, mj in enumerate(modulus[:d]):
            if mj:
                prod[k - d + j] = prod[k - d + j] - c * mj
    return prod[:d]


def tower_over(base):
    """K(gamma) = K[X]/(X^p - X + xi) for the last xi of K with Tr(xi) != 0."""
    xi = next(x for x in reversed(list(base.elements())) if abs_trace(x))
    return extension_field(base, artin_schreier(xi))


def unpacked(K, d, v):
    """The d base-field coefficients of the packed value v, low first."""
    return [K.element(v // K.order ** i % K.order) for i in range(d)]


def packed(coeffs):
    return sum(c.val * c.ctx.order ** i for i, c in enumerate(coeffs))


def slot_bound_pairs(order):
    """Operand pairs at the tower product's slot bounds: t = order - 1 has
    every base-p digit p - 1, so t * t fills every product slot to its
    largest value; then t times 0 and 1, both ways round."""
    t = order - 1
    return [(t, t), (t, 0), (0, t), (t, 1), (1, t)]


def test_tower_product_matches_schoolbook_reference():
    """Tower mul_v (one packed multiply of the flat digits, reduced by
    F_p-linear rows) against ref_product, and add_v/sub_v (flat F_p digits)
    against coefficient-wise base operators: every pair of F_4(gamma) and
    F_8(gamma); seeded pairs, squares, 0, 1 and lifted base elements of
    F_9(gamma), F_16(gamma), F_25(gamma), F_49(gamma) and of F_16 as
    F_4[X]/(f) with the non-Artin-Schreier f of test_field_axioms; and on
    every tower the slot-bound pairs of slot_bound_pairs."""
    rng = random.Random(6060)
    K4 = finite_field(2, 2)
    towers = [tower_over(base)
              for base in (K4, finite_field(2, 3), F9, finite_field(2, 4),
                           F25, finite_field(7, 2))]
    towers.append(extension_field(K4, find_irreducible(K4, 2)))
    for L in towers:
        base = L.base
        modulus = [base.element(v) for v in L.modulus_vals]
        if L.order <= 64:
            pairs = [(x, y) for x in range(L.order) for y in range(L.order)]
        else:
            special = [0, 1] + [rng.randrange(base.order) for _ in range(5)]
            pairs = [(rng.randrange(L.order), rng.randrange(L.order))
                     for _ in range(2000)]
            for x, _ in pairs[:50]:
                pairs += [(x, x)] + [(x, c) for c in special]
                pairs += [(c, x) for c in special]
        pairs += slot_bound_pairs(L.order)
        for x, y in pairs:
            u, v = unpacked(base, L.degree, x), unpacked(base, L.degree, y)
            assert L.mul_v(x, y) == packed(ref_product(modulus, u, v)), (L, x, y)
            assert L.add_v(x, y) == packed([s + t for s, t in zip(u, v)])
            assert L.sub_v(x, y) == packed([s - t for s, t in zip(u, v)])


def test_tower_product_never_calls_barrett(monkeypatch):
    """Tower mul_v, its reduction rows included, runs without
    polys._mulmod: fresh closures for five tower shapes of the test above
    give the context's own products while _mulmod raises."""
    from invstab import polys
    K4 = finite_field(2, 2)
    towers = [tower_over(base) for base in (K4, F9, finite_field(2, 4), F25)]
    towers.append(extension_field(K4, find_irreducible(K4, 2)))
    rng = random.Random(6062)
    cases = [(L, [(rng.randrange(L.order), rng.randrange(L.order))
                  for _ in range(50)] + slot_bound_pairs(L.order))
             for L in towers]
    expected = [[L.mul_v(x, y) for x, y in pairs] for L, pairs in cases]

    def no_barrett(*args):
        raise AssertionError("tower product called polys._mulmod")
    monkeypatch.setattr(polys, '_mulmod', no_barrett)
    for (L, pairs), want in zip(cases, expected):
        mul = _ext_ops(L.base, L.degree, L.modulus_vals)[3]
        assert [mul(x, y) for x, y in pairs] == want, L


def test_generic_product_without_packed_layout():
    """Over F_{1048573^2} a degree-5 tower product has 68-bit slots, the
    widest in these tests; polys has no packed layout there (its _Kron
    slots would need more than 8 bytes) and keeps its closure loops.
    Seeded pairs, squares and the slot-bound operands (every coefficient
    -1, times itself, 0 and 1); the modulus need not be irreducible for
    products."""
    from invstab.polys import _Kron
    big = 1048573
    r = next(r for r in range(2, big) if pow(r, (big - 1) // 2, big) == big - 1)
    K = finite_field(big, 2, modulus=(-r % big, 0, 1))
    assert _Kron.fit(K, 5, 9) is None
    rng = random.Random(6061)
    modulus = [rand_elt(rng, K) for _ in range(5)] + [K.one]
    mul = _ext_ops(K, 5, tuple(c.val for c in modulus))[3]
    cases = []
    for _ in range(200):
        a = [rand_elt(rng, K) for _ in range(5)]
        b = a if rng.random() < 0.1 else [rand_elt(rng, K) for _ in range(5)]
        cases.append((a, b))
    for x, y in slot_bound_pairs(K.order ** 5):
        cases.append((unpacked(K, 5, x), unpacked(K, 5, y)))
    for a, b in cases:
        assert mul(packed(a), packed(b)) == packed(ref_product(modulus, a, b))


def test_tower_inverse_against_reference_product():
    """ref_product(x, inv_v(x)) = 1 on every nonzero x of F_4(gamma),
    F_8(gamma) and F_9(gamma) (order 729)."""
    for base in (finite_field(2, 2), finite_field(2, 3), F9):
        L = tower_over(base)
        d = L.degree
        modulus = [base.element(v) for v in L.modulus_vals]
        for x in range(1, L.order):
            prod = ref_product(modulus, unpacked(base, d, x),
                               unpacked(base, d, L.inv_v(x)))
            assert packed(prod) == 1, (L, x)


def test_hash_and_bool():
    w = F9.modulus_root
    assert hash(w) == hash(F9.element(3))
    assert len({F9.element(k) for k in (0, 1, 3, 3, 1)}) == 3
    assert bool(w) and not bool(F9.zero)
