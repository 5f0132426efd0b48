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
    with square-and-multiply over the context's product (not ``x ** p``,
    which on a Zech field reads the same g^(p log x) lookup) and with the
    Frobenius-sum rel_trace on every
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
            assert x.frobenius().val == _power(ctx.mul_v, x.val, ctx.p)
            assert abs_trace(x) == rel_trace(x, prime)


def factory_ops(ctx):
    """Fresh closures of the extension factory for an extension context at
    any depth: the packed product that builds its table and the extended
    Euclid over its base, the reference the table is checked against."""
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


def tabled_fields():
    """Every default depth-1 field of order <= ZECH_MAX_ORDER (49 of
    them), the degree-1 extensions F_p[X]/(X + 1) for p = 2, 3 and 181,
    the largest p whose digit products fit a lane, four non-default
    moduli, GF(89^2) and GF(2^12) among them, and the depth-2 towers of
    tabled_towers()."""
    ctxs = [finite_field(p, e)
            for p in range(2, ZECH_MAX_ORDER + 1) if _prime_factors(p) == [p]
            for e in range(2, 14) if p ** e <= ZECH_MAX_ORDER]
    assert len(ctxs) == 49
    assert sum(ctx.order for ctx in ctxs) == 96318
    ctxs += [extension_field(prime_field(p), [1, 1]) for p in (2, 3, 181)]
    ctxs += [F9, F25, finite_field(89, 2, modulus=(86, 0, 1)),
             finite_field(2, 12, modulus=(1, 0, 0, 1) + (0,) * 8 + (1,))]
    return ctxs + tabled_towers()


def tabled_towers():
    """The depth-2 towers with a Zech table that these tests reach:
    F_4(gamma), F_8(gamma), F_16(gamma), F_32(gamma), F_64(gamma) and
    F_9(gamma) (gamma a root of X^p - X + xi), and F_16 as F_4[X]/(f) with
    the non-Artin-Schreier f of test_field_axioms."""
    K4 = finite_field(2, 2)
    towers = [tower_over(finite_field(p, e))
              for p, e in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2))]
    towers.append(extension_field(K4, find_irreducible(K4, 2)))
    assert [L.order for L in towers] == [16, 64, 256, 1024, 4096, 729, 16]
    return towers


def test_zech_table_against_flat_product():
    """On every field of tabled_fields(), the antilogs: exps[k + 1] is the
    factory's product of exps[k] and g = exps[1], g^(q - 1) = 1, no packed
    value below g generates F_q^*, so g is the least generator, and logs
    inverts exps; GF(2)[X]/(X + 1) has the one-entry table exps = [1].
    On a tower, where the generator search starts at |K| because every
    value below |K| lies in K, that check covers the skipped values.  On
    every depth-1 field of order <= 729, on GF(3^8), GF(2^12) and
    GF(89^2), the largest below ZECH_MAX_ORDER, and on every tower of
    tabled_towers(): every Zech entry is the log of the factory's
    1 + g^k (None where that is 0), and inv_v(x) times x is 1 under the
    factory's product for every x != 0."""
    for ctx in tabled_fields():
        fmul = factory_ops(ctx)[3]
        logs, exps, _ = ctx._zech_table()
        m = ctx.order - 1
        g = exps[1 % m]
        assert len(exps) == m and exps[0] == 1 and fmul(exps[-1], g) == 1
        for k in range(m - 1):
            assert exps[k + 1] == fmul(exps[k], g), (ctx, k)
        primes = _prime_factors(m)
        assert all(_power(fmul, g, m // ell) != 1 for ell in primes), ctx
        assert all(any(_power(fmul, v, m // ell) == 1 for ell in primes)
                   for v in range(1, g)), ctx
        assert logs[0] is None
        assert all(logs[x] == k for k, x in enumerate(exps)), ctx
    F2 = extension_field(prime_field(2), [1, 1])
    assert F2._zech_table()[:2] == ([None, 0], [1])
    ctxs = depth1_fields(729) + [finite_field(3, 8), finite_field(2, 12),
                                 finite_field(89, 2)] + tabled_towers()
    assert len(ctxs) == 35
    assert max(ctx.order for ctx in ctxs) <= ZECH_MAX_ORDER
    for ctx in ctxs:
        fadd, _, _, fmul = factory_ops(ctx)[:4]
        logs, exps, zech = ctx._zech_table()
        assert len(zech) == ctx.order - 1
        for k, z in enumerate(zech):
            one_plus = fadd(1, exps[k])
            assert z == logs[one_plus], (ctx, k)
            assert (z is None) == (one_plus == 0)
        for x in range(1, ctx.order):
            assert fmul(x, ctx.inv_v(x)) == 1, (ctx, x)
    with pytest.raises(errors.DivisionByZero):
        F9.inv_v(0)


def test_lane_bound_holds_for_every_table():
    """_log_exp's 16-bit lanes hold n (p - 1)^2 before reduction, n the
    number of flat base-p digits at any depth, so the reducer needs
    n (p - 1)^2 < 2^15, and an antilog, so q <= 2^16.  Every field with a
    Zech table meets both, so raising ZECH_MAX_ORDER (or the lane width)
    past them fails here.  The Artin-Schreier towers reach 24 (F_9(gamma),
    n = 6), and a degree-2 tower over F_89[X]/(X - 3) reaches
    2 * 88^2, as GF(89^2) does.  The degree-1 extensions with p > 181,
    whose products are too wide, get no table and multiply by the
    factory's product."""
    assert fields._LANE == 16
    for ctx in tabled_fields():
        assert ctx._zech_table is not None
        n, p = ctx.total_degree, ctx.p
        assert n * (p - 1) ** 2 < 2 ** 15 and ctx.order <= 2 ** 16, ctx
    widths = [ctx.total_degree * (ctx.p - 1) ** 2 for ctx in tabled_fields()]
    assert max(widths[:49]) == 2 * 88 ** 2 and max(widths) == 180 ** 2
    assert max(widths[-7:]) == 24
    F89 = extension_field(prime_field(89), [86, 1])
    L = extension_field(F89, find_irreducible(F89, 2))
    assert (L.depth, L.total_degree, L.order) == (2, 2, 89 ** 2)
    assert L._zech_table is not None
    fmul = factory_ops(L)[3]
    assert all(fmul(x, L.inv_v(x)) == 1 for x in range(1, L.order, 97))
    for p in (191, 7993):
        K = extension_field(prime_field(p), [1, 1])
        assert K._zech_table is None
        assert K.mul_v(p - 2, 5) == (p - 2) * 5 % p
        assert K.inv_v(5) * 5 % p == 1


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


def test_zero_trace_decision_builds_no_table(monkeypatch, fresh_caches,
                                             capsys):
    """Deciding a Tr(xi) = 0 seed of GF(3^8) takes the trace vector from
    the modulus by Newton's identities, with no product in the field, so
    no Zech table is built, and neither does ``check`` in text or json,
    whose one trace row has ratio a_1/c_1 = xi; the vector equals the one
    rel_trace gives."""
    from invstab import cli
    from invstab.criterion import decide_inverse_stability

    def no_table(*args):
        raise AssertionError("log table built")
    with monkeypatch.context() as patch:
        patch.setattr(fields, '_log_exp', no_table)
        ctx = finite_field(3, 8)
        xi = ctx.from_coeffs([0, 1])
        verdict = decide_inverse_stability(xi)
        assert abs_trace(xi) == 0 and verdict.witness_n == 1
        for fmt in ('text', 'json'):
            argv = ['check', '--p', '3', '--e', '8', '--xi', '0,1',
                    '--format', fmt]
            assert cli.main(argv) == cli.EXIT_UNSTABLE, fmt
            assert '0,0,0,0,0,0,0,0' in capsys.readouterr().out, fmt
    assert [ctx.trace_v(3 ** k) for k in range(8)] == [
        rel_trace(ctx.element(3 ** k), ctx.prime_ctx).val for k in range(8)]


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


def test_block_kernel_built_once_per_context(monkeypatch, fresh_caches):
    """An extension context builds its product kernel once, when it is
    constructed, and no product, power or inverse builds another, its
    Zech table included.  A degree-1 extension of F_9, with y rows and no
    X rows, multiplies and powers as F_9 does, by its table and by the
    factory's kernel."""
    built = []
    kernel = fields._block_kernel

    def counted(*args):
        built.append(args)
        return kernel(*args)
    monkeypatch.setattr(fields, '_block_kernel', counted)
    ctx = finite_field(101, 2)
    assert len(built) == 1
    rng = random.Random(1701)
    for _ in range(100):
        x = rng.randrange(1, ctx.order)
        ctx.mul_v(x, rng.randrange(ctx.order))
        ctx.pow_v(x, rng.randrange(2, ctx.order))
        ctx.inv_v(x)
    assert len(built) == 1
    y = F9.modulus_root
    K = extension_field(F9, [y, 1])
    assert (K.degree, K.depth, len(built)) == (1, 2, 2)
    # K's own ops are lookups in a Zech table built by that one kernel;
    # fresh factory closures build a kernel of their own
    ops = factory_ops(K)
    fmul, power = ops[3], ops[7]
    assert len(built) == 3
    for a in range(F9.order):
        assert K.pow_v(a, 7) == power(a, 7) == F9.pow_v(a, 7), a
        for b in range(F9.order):
            assert K.mul_v(a, b) == fmul(a, b) == F9.mul_v(a, b), (a, b)
    assert len(built) == 3


def test_extension_cache_keyed_by_base_context(fresh_caches):
    """An extension is cached by its base context itself: once the prime
    field cache is emptied, F_9 is built again over the new F_3, so
    elements of the new F_3 lift into it and serve as its coefficients."""
    old = finite_field(3, 2)
    fields.prime_field.cache_clear()
    F = fields.prime_field(3)
    K = finite_field(3, 2)
    assert lift(F.one, K) == K.one
    assert K.from_coeffs([F.one, F.zero]) == K.one
    assert K is not old and K.base is F
    assert finite_field(3, 2) is K


def test_poly_modulus_reads_its_values(fresh_caches):
    """A Poly modulus over the base gives the identical cached context as
    its coefficient list, its elements or its integers, whichever comes
    first; a Poly over another field still raises CtxMismatch, the zero
    Poly over another field NotMonic, and a non-monic or reducible Poly
    over the base its own error."""
    f = artin_schreier(F9.modulus_root)             # X^3 - X + y over F_9
    K = extension_field(F9, f)
    assert extension_field(F9, list(f.coeffs)) is K
    assert extension_field(F9, f.coeffs) is K
    assert extension_field(F9, Poly(F9, f.coeffs)) is K
    L = extension_field(F9, [1, 2, 0, 1])            # X^3 - X + 1
    assert extension_field(F9, Poly(F9, [1, -1, 0, 1])) is L
    assert L is not K and L.order == K.order == 9 ** 3
    with pytest.raises(errors.CtxMismatch):
        extension_field(F9, Poly(F25, [1, 0, 1]))
    with pytest.raises(errors.NotMonic):
        extension_field(F9, Poly(F25, []))
    with pytest.raises(errors.NotMonic):
        extension_field(F9, Poly(F9, [1, 1]) * 2)
    with pytest.raises(errors.ReducibleModulus):
        extension_field(F9, Poly(F9, [0, 0, 1]))


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


def test_degree_too_large_before_any_modulus_search(monkeypatch):
    """Every e above MAX_DEGREE raises DegreeTooLarge, a ValueError, with
    or without a modulus, before a modulus search or an irreducibility
    test, so GF(3^5000) fails at once instead of hanging in
    find_irreducible; e = MAX_DEGREE itself gets its default modulus."""
    from invstab import polys
    assert fields.MAX_DEGREE == 40
    assert finite_field(2, fields.MAX_DEGREE).degree == 40

    def no_search(*args):
        raise AssertionError("modulus search or Rabin test")
    monkeypatch.setattr(polys, 'find_irreducible', no_search)
    monkeypatch.setattr(polys, 'is_irreducible', no_search)
    for p, e in ((3, 5000), (2, 41), (1048573, 41)):
        with pytest.raises(errors.DegreeTooLarge, match=f"degree {e} > 40"):
            finite_field(p, e)
    with pytest.raises(errors.DegreeTooLarge):
        finite_field(2, 41, modulus=(1, 1) + (0,) * 39 + (1,))
    assert issubclass(errors.DegreeTooLarge, ValueError)


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
    """The extension factory's ops on a depth-1 field, and on a depth-2
    tower, must match a schoolbook reference, and the context's own ops
    (lookups in its Zech table) must match the factory's.

    The factory's product is one packed multiply of the flat digits folded
    a block at a time, and its inverse the extended Euclid over the base
    on polys; ref_product multiplies and reduces with the base field's
    element operators.  add/sub/neg/mul agree on every pair of every
    depth-1 field of order <= 81 and of every tower of tabled_towers() of
    order <= 64 (F_4(gamma), F_8(gamma) and F_4[X]/(f)).  Every nonzero
    element of every depth-1 field of order <= 729 (default moduli, plus
    F_9 with modulus 2,2,1 and F_25 with modulus 2,4,1) and of every such
    tower of order <= 729 (F_16(gamma) and F_9(gamma) too) gets the same
    inverse from the factory and the table, and both products confirm
    that inverse."""
    towers = [L for L in tabled_towers() if L.order <= 729]
    assert sorted(L.order for L in towers) == [16, 16, 64, 256, 729]
    ctxs = depth1_fields(729) + towers
    assert len(ctxs) == 30
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
    """The factory's tower product (one packed multiply of the flat
    digits, folded a block at a time) against ref_product, and its
    add/sub/neg (the base's closures digit by digit) against
    coefficient-wise base operators, through factory_ops, since the
    context's own ops are Zech lookups up to ZECH_MAX_ORDER: every pair of
    F_4(gamma) and F_8(gamma); seeded pairs, squares, 0, 1 and lifted base
    elements of F_9(gamma), F_16(gamma), F_25(gamma), F_49(gamma) and of
    F_16 as F_4[X]/(f) with the non-Artin-Schreier f of test_field_axioms;
    and on every tower the slot-bound pairs of slot_bound_pairs."""
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
        fadd, fsub, fneg, fmul = factory_ops(L)[:4]
        for x, y in pairs:
            u, v = unpacked(base, L.degree, x), unpacked(base, L.degree, y)
            assert fmul(x, y) == packed(ref_product(modulus, u, v)), (L, x, y)
            assert fadd(x, y) == packed([s + t for s, t in zip(u, v)])
            assert fsub(x, y) == packed([s - t for s, t in zip(u, v)])
            assert fneg(x) == packed([-s for s in u])


def power_shapes():
    """The towers of test_tower_product_matches_schoolbook_reference, plus
    shapes (m, e) = (2, 6), (3, 3) and (11, 2): F_64(gamma), F_27(gamma)
    and F_121(gamma), the widest fold of an Artin-Schreier tower in CI."""
    K4 = finite_field(2, 2)
    bases = (K4, finite_field(2, 3), F9, finite_field(2, 4), F25,
             finite_field(7, 2), finite_field(2, 6), finite_field(3, 3),
             finite_field(11, 2))
    towers = [tower_over(base) for base in bases]
    towers.append(extension_field(K4, find_irreducible(K4, 2)))
    return towers


def ref_power(modulus, u, k):
    """u^k, k >= 1, by _power over ref_product."""
    return _power(lambda a, b: ref_product(modulus, a, b), u, k)


def test_tower_power_matches_reference_powering():
    """The factory's tower power (spread once, square and multiply in
    slot form with a slot-parallel reduction after each step, gather once),
    taken through factory_ops because pow_v runs on the Zech table up to
    ZECH_MAX_ORDER, against _power over ref_product on every shape of
    power_shapes, with exponents |K|^i for 0 < i < m (rel_trace's
    conjugates) and q - 2 (an inverse): three seeded operands and the
    slot-bound operands of slot_bound_pairs (every digit p - 1, 0 and 1)."""
    rng = random.Random(6064)
    shapes = power_shapes()
    assert sorted((L.degree, L.base.total_degree) for L in shapes) == [
        (2, 2), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2),
        (7, 2), (11, 2)]
    for L in shapes:
        base, d = L.base, L.degree
        modulus = [base.element(v) for v in L.modulus_vals]
        exps = [base.order ** i for i in range(1, d)] + [L.order - 2]
        xs = [rng.randrange(L.order) for _ in range(3)]
        xs += sorted({x for pair in slot_bound_pairs(L.order) for x in pair})
        power = factory_ops(L)[7]
        for x in xs:
            u = unpacked(base, d, x)
            for k in exps:
                assert power(x, k) == packed(ref_power(modulus, u, k)), (
                    L, x, k)


def ref_conj_sum(power, add, x, k, count):
    """x + x^k + ... + x^(k^(count - 1)), each term the last one powered
    by ``power``."""
    acc = term = x
    for _ in range(1, count):
        term = power(term, k)
        acc = add(acc, term)
    return acc


def test_conjugate_sum_matches_reference_powering():
    """The factory's conjugate sum (spread once, each term stepped in slot
    form, the slot forms added and gathered once), through factory_ops,
    against _power over ref_product and coefficient-wise addition on every
    shape of power_shapes: for k = |K| with count m (the trace down to K)
    and for k = p with count the total degree (down to F_p), on three
    seeded operands and the slot-bound operands of slot_bound_pairs, whose
    sum of m e terms of digit p - 1 fills each slot the most.  A count
    past m e (p - 1) would overflow a slot and raises ValueError.  The
    table's conjugate sum (log steps, Zech additions) against _power over
    the context's product and the factory's addition on every element of
    every Zech field of order <= 729, towers included, to K and to F_p; on
    a prime field, where x^p = x, three terms for k = p are 3 x, and for
    k = 2 they are x + x^2 + x^4."""
    rng = random.Random(6066)
    for L in power_shapes():
        base, d, p = L.base, L.degree, L.p
        n = L.total_degree
        modulus = [base.element(v) for v in L.modulus_vals]

        def power(u, k):
            return ref_power(modulus, u, k)

        def add(u, v):
            return [s + t for s, t in zip(u, v)]
        conj_sum = factory_ops(L)[8]
        xs = [rng.randrange(L.order) for _ in range(3)]
        xs += sorted({x for pair in slot_bound_pairs(L.order) for x in pair})
        for x in xs:
            u = unpacked(base, d, x)
            for k, count in ((base.order, d), (p, n)):
                want = packed(ref_conj_sum(power, add, u, k, count))
                assert conj_sum(x, k, count) == want, (L, x, k, count)
        with pytest.raises(ValueError):
            conj_sum(L.order - 1, p, n * (p - 1) + 1)
    ctxs = depth1_fields(729) + [L for L in tabled_towers() if L.order <= 729]
    assert len(ctxs) == 30
    for ctx in ctxs:
        assert ctx._zech_table is not None
        fadd = factory_ops(ctx)[0]
        power = functools.partial(_power, ctx.mul_v)
        sums = [(ctx.p, ctx.total_degree)]
        if ctx.depth == 2:
            sums.append((ctx.base.order, ctx.degree))
        for x in range(ctx.order):
            for k, count in sums:
                want = ref_conj_sum(power, fadd, x, k, count)
                assert ctx._conj_sum(x, k, count) == want, (ctx, x, k)
    for p in (2, 3, 5, 7):
        F = prime_field(p)
        assert [F._conj_sum(x, p, 3) for x in range(p)] == [
            3 * x % p for x in range(p)]
        assert [F._conj_sum(x, 2, 3) for x in range(p)] == [
            (x + x ** 2 + x ** 4) % p for x in range(p)]


def test_kernel_conjugate_sum_matches_zech_table():
    """The factory kernel's conjugate sum, each term one pass of its own
    x -> x^k rows, against the Zech table's (log steps and Zech additions,
    from antilog products, not from those rows) on every element of every
    tower of tabled_towers() and of every depth-1 field of order <= 729,
    down to K (k = |K|, m terms) and to F_p (k = p, m e terms)."""
    ctxs = tabled_towers() + depth1_fields(729)
    assert len(ctxs) == 32
    for L in ctxs:
        assert L._zech_table is not None
        conj_sum = factory_ops(L)[8]
        sums = ((L.base.order, L.degree), (L.p, L.total_degree))
        for x in range(L.order):
            for k, count in sums:
                assert conj_sum(x, k, count) == L._conj_sum(x, k, count), (
                    L, x, k)


def test_kernel_conjugate_rows_built_once(monkeypatch):
    """A fresh kernel of F_25(gamma) builds its x -> x^25 rows on its first
    conjugate sum from at most two _power chains (X^25 and y^25), and the
    next 99 sums power nothing; k = 5 adds at most two chains.  Every sum
    equals the reference powering.  A k that is not a power of p, for which
    x -> x^k is not F_p-linear, raises ValueError."""
    L = tower_over(finite_field(5, 2))
    rng = random.Random(2525)
    xs = [rng.randrange(L.order) for _ in range(100)]
    want = {(k, count): [ref_conj_sum(L.pow_v, L.add_v, x, k, count)
                         for x in xs] for k, count in ((25, 5), (5, 10))}
    conj_sum = factory_ops(L)[8]
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _power(*args)
    monkeypatch.setattr(fields, '_power', counted)
    for (k, count), sums in want.items():
        before = len(calls)
        assert conj_sum(xs[0], k, count) == sums[0]
        built = len(calls)
        assert built - before <= 2 and set(calls[before:]) <= {k}
        assert [conj_sum(x, k, count) for x in xs[1:]] == sums[1:]
        assert len(calls) == built
    for k in (6, 0):
        with pytest.raises(ValueError, match="not F_5-linear"):
            conj_sum(xs[0], k, 5)


def test_tower_power_exhaustive_on_small_towers():
    """Every power x^k, k = 1 .. q, of every element of F_4(gamma) (order
    16) and F_8(gamma) (order 64), by the factory's slot-form power and by
    pow_v on the Zech table, against a running ref_product; every product
    of both is checked in test_tower_product_matches_schoolbook_reference."""
    for base in (finite_field(2, 2), finite_field(2, 3)):
        L = tower_over(base)
        d = L.degree
        modulus = [base.element(v) for v in L.modulus_vals]
        power = factory_ops(L)[7]
        for x in range(L.order):
            u = unpacked(base, d, x)
            acc = u
            for k in range(1, L.order + 1):
                want = packed(acc)
                assert power(x, k) == L.pow_v(x, k) == want, (L, x, k)
                acc = ref_product(modulus, acc, u)


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
    widest in these tests; the polynomial layout over that base (_Kron)
    exists.  Seeded pairs, squares and the slot-bound operands (every
    coefficient -1, times itself, 0 and 1); the modulus need not be
    irreducible for products."""
    from invstab.fields import _Kron
    big = 1048573
    r = next(r for r in range(2, big) if pow(r, (big - 1) // 2, big) == big - 1)
    K = finite_field(big, 2, modulus=(-r % big, 0, 1))
    assert _Kron.fit(K, 5, 9) is not None
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


def test_power_on_the_widest_slots():
    """The factory's power on the degree-5 tower over F_{1048573^2} of
    test_generic_product_without_packed_layout, whose slot width is the
    largest in these tests, against _power over ref_product: seeded
    operands and the all-(p - 1) operand, to the exponents |K|^i, i < 5,
    and a seeded exponent."""
    big = 1048573
    r = next(r for r in range(2, big) if pow(r, (big - 1) // 2, big) == big - 1)
    K = finite_field(big, 2, modulus=(-r % big, 0, 1))
    rng = random.Random(6065)
    modulus = [rand_elt(rng, K) for _ in range(5)] + [K.one]
    ops = _ext_ops(K, 5, tuple(c.val for c in modulus))
    mul, power = ops[3], ops[7]
    xs = [rng.randrange(K.order ** 5) for _ in range(4)] + [K.order ** 5 - 1]
    exps = [K.order ** i for i in range(1, 5)] + [rng.randrange(2, 1 << 64)]
    for x in xs:
        u = unpacked(K, 5, x)
        for k in exps:
            want = packed(ref_power(modulus, u, k))
            assert power(x, k) == want, (x, k)
        assert power(x, 2) == mul(x, x)


def test_inverse_raises_on_reducible_modulus():
    """The factory's one inverse, the extended Euclid over the base, raises
    ArithmeticError on a zero divisor of a reducible modulus: X - 1 in
    F_3[X]/((X - 1)(X + 1)) and X - w in F_9[X]/((X - w)(X - 1)); a unit of
    either ring still inverts.  extension_field rejects such moduli, so
    the factory is called directly."""
    F3 = finite_field(3)
    mod = (2, 0, 1)                                 # X^2 - 1
    inv = _ext_ops(F3, 2, mod)[4]
    with pytest.raises(ArithmeticError):
        inv(2 + 3)                                  # X - 1
    assert inv(2) == 2
    w = F9.modulus_root
    mod = tuple(c.val for c in (w, -w - 1, F9.one))  # (X - w)(X - 1)
    ops = _ext_ops(F9, 2, mod)
    with pytest.raises(ArithmeticError):
        ops[4]((-w).val + 9)                        # X - w
    unit = (-w - 1).val + 9                         # X - w - 1
    assert ops[3](unit, ops[4](unit)) == 1


def test_tower_inverse_against_reference_product():
    """ref_product(x, inv_v(x)) = 1 on every nonzero x of F_4(gamma),
    F_8(gamma), F_9(gamma) (order 729) and F_27(gamma) (order 19,683)."""
    for base in (finite_field(2, 2), finite_field(2, 3), F9,
                 finite_field(3, 3)):
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
