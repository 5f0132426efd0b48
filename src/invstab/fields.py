"""Exact arithmetic in finite fields of small characteristic.

A field is described by a :class:`FieldCtx`: either a prime field F_p, or an
extension of another context by a monic irreducible modulus.  Two levels of
extension above the prime field are supported, which covers F_{p^e} plus one
further working extension (as used by the brute-force trace oracle).

Elements are canonical by construction.  Internally an element is a single
integer: the little-endian coefficient vector (c_0, ..., c_{d-1}) over the
base field packs into sum(c_i * |base|**i), where each c_i is itself a packed
base-field value.  The packing is bijective, so integer equality is
coefficient-wise equality, and the natural embedding of a subfield into any
field above it on the same chain preserves the packed value.  The vector view
is available as :attr:`FieldElement.coeffs`.

Because the packing is base p at every level, the flat base-p digits of a
packed value are its coordinates over F_p.  The absolute trace and the
Frobenius x -> x^p are F_p-linear, so each context holds them as a trace
vector (from the modulus, by Newton's identities) and a Frobenius matrix
over those coordinates, built on first use (:meth:`FieldCtx.trace_v`,
:meth:`FieldCtx.frobenius_v`).  The literal sum of Frobenius conjugates
survives only in :func:`rel_trace`, the reference that the trace vector and
the ``xcheck`` oracles are checked against.  It is one call of the
context's conjugate sum: each conjugate one pass of the product kernel's
own map x -> x^k, whose rows are products of the kernel's powers X^k and
y^k, or with a Zech table one log-table lookup.  It never reads the
context's Frobenius matrix or trace vector.

Each concept of the arithmetic kernel has one home.  This module owns the
bit-slot packing: :func:`_spread` and :func:`_gather`, the slot-parallel
reduction mod p (:func:`_slot_reducer`), the block-folding product and
power of every extension (:func:`_block_kernel`) and the Kronecker layout
that :mod:`.polys` multiplies polynomials with (:class:`_Kron`).
:mod:`.polys` owns division: the one long division for every field, and
the one extended Euclid that inverts in every extension.

add, sub and neg apply the base's closures to a value's digits over the
base.  The product needs the flat digits: they spread into bit slots of
one Kronecker-packed integer, one integer multiply forms every coefficient
of X^I y^J (y the root of the base's modulus, 1 over F_p), and the result
is folded mod the moduli a block at a time, with every slot reduced mod p
at once, so a power never leaves the slot form.  An inverse is the
extended Euclid over the base on :mod:`.polys`, at every depth.

Up to order ZECH_MAX_ORDER, every extension, at depth 1 or 2, builds on
its first arithmetic call one table of discrete logs, antilogs and Zech
logarithms Z(k) = log(1 + g^k) with that product, and every add, sub,
neg, mul and inv is a lookup in it: x + y = g^(log x + Z(log y - log x))
(Lidl & Niederreiter, Finite Fields, section 9.3).  The table works on
the n flat base-p digits of a packed value, n the degree over F_p, so one
builder serves every depth.  The antilogs are built a doubling at a time
on whole integers: the digits of g^0 .. g^(s-1) sit in digit planes, one
16-bit lane per power, and the digit matrix of x -> g^s x takes them to
g^s .. g^(2s-1) in n^2 multiply-adds and one slot reduction per plane
(:func:`_log_exp`).  A lane holds at most n (p - 1)^2 before reduction,
so a table is built only where that stays below 2^15: every such field of
degree n >= 2 over F_p, towers such as F_9(gamma) (n = 6) among them,
and the degree-1 extensions with p <= 181.  Such a context also computes
every power x^k as g^(k log x), one lookup, and every context up to that
order keeps its trace as a q-entry table filled from the trace vector, so
every map the criterion's walk steps with is a lookup.

Contexts are cached, each extension by its base context and modulus, so
two requests for the same field (same prime, same modulus chain) return
the identical object and context checks are identity checks.  Elements
are immutable; contexts only add lazily built caches whose contents are
fixed by the field.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from array import array
from typing import Iterable, Iterator

from .errors import (
    CtxMismatch,
    DegreeTooLarge,
    DepthExceeded,
    DivisionByZero,
    NotInTower,
    NotMonic,
    NotPrime,
    PrimeTooLarge,
    ReducibleModulus,
)

#: Largest supported characteristic (exclusive).
MAX_PRIME = 1 << 20

#: Largest extension degree e that :func:`finite_field` accepts.  The
#: default modulus is the least irreducible of degree e, found by one Rabin
#: test per candidate in order.  At e = 40, over 200 primes below
#: MAX_PRIME, the search tested 44 candidates on average and 238 at most,
#: 4-6 ms each, and took 1.3 s at most; a geometric tail of mean 44 puts
#: the most over all 82,025 primes near 44 ln 82,025, about 500 tests or
#: 2.5 s.  At e = 48 it already took 2.1 s on one of 40 primes (CPython
#: 3.11 on a shared 2-vCPU Linux container).
MAX_DEGREE = 40

#: Number of extension levels allowed above the prime field.
MAX_DEPTH = 2

#: Largest order of a field that computes on tables: the discrete logs and
#: Zech logarithms of an extension at any depth (:func:`_zech_ops`) and the
#: trace of every element.  A single ``check`` pays for the whole Zech
#: table: 2.5 ms for GF(3^8) and 2.4 ms for GF(2^12), the largest below the
#: bound, and 1.8 ms for GF(89^2), each the best of 7 (about 4.5 ms for
#: either of the first two as the median of five such bests; CPython 3.11
#: on a shared 2-vCPU Linux container, ``BENCH_antilogs.json``).
ZECH_MAX_ORDER = 8000


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# packed-value operation factories
#
# Each factory returns closures working on packed integers.  _ext_ops
# serves every extension base[X]/(m): add/sub/neg apply the base's own
# closures to the d base-|base| digits (_linear_ops; over F_p that is
# digit-wise arithmetic mod p), one product kernel, built with the
# context, spreads the flat base-p digits into bit slots, multiplies once
# and folds through one helper, by the y rows, the X rows and the y rows
# again (_block_kernel, _folder), and its power stays in slot form from
# the first step to the last; the inverse is the extended Euclid over the
# base on ``polys`` at every depth (``polys`` imports this module at load
# time, so the factory imports it lazily).  Up to ZECH_MAX_ORDER,
# _zech_ops turns the closures of an extension, depth 1 or 2, into the
# lookups of its table, built on the flat base-p digits.
#
# Two helpers serve every layer: _power is the one square-and-multiply loop
# (FieldCtx.pow_v, Poly ** k, powmod and the Rabin test pass it their own
# product), and _coerce_vals is the one map from elements and integers to
# packed values (from_coeffs, moduli and Poly coefficients).  Every factory
# returns nine closures, its power and its conjugate sum last:
# conj_sum(x, k, count) = x + x^k + ... + x^(k^(count - 1)), the literal
# Frobenius sum behind rel_trace, for k a power of p (every caller passes
# |sub|; the extension kernel raises ValueError for any other k, because
# only then is x -> x^k F_p-linear).  _prime_ops powers by _power over its
# own product, the extension kernel by one pass of its own x -> x^k rows,
# and a Zech field by one lookup, exps[k log x mod (q - 1)].  None of them
# reads the context's trace vector or Frobenius matrix.

def _prime_ops(p):
    def add(x, y):
        return (x + y) % p

    def sub(x, y):
        return (x - y) % p

    def neg(x):
        return -x % p

    def mul(x, y):
        return (x * y) % p

    def inv(x):
        if x == 0:
            raise DivisionByZero("0 is not invertible")
        return pow(x, p - 2, p)

    def conj_sum(x, k, count):
        acc = t = x
        for _ in range(1, count):
            t = _power(mul, t, k)
            acc = (acc + t) % p
        return acc

    return (add, sub, neg, mul, inv, *_codec(p, 1),
            functools.partial(_power, mul), conj_sum)


def _power(mul, x, k):
    """x**k for k >= 1, by left-to-right square-and-multiply through ``mul``.

    The one powering loop: field elements, polynomials and products modulo a
    polynomial all pass their own ``mul``.
    """
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == '1':
            result = mul(result, x)
    return result


def _trim(vals):
    """A list the caller owns, trailing zeros popped in place, as a tuple."""
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


def _codec(radix, n):
    """decode/encode between a packed value and its n base-``radix`` digits,
    low first; encode accepts fewer digits (missing high ones are zero)."""
    idx = range(n)

    def decode(v):
        out = []
        for _ in idx:
            v, r = divmod(v, radix)
            out.append(r)
        return out

    def encode(digits):
        v = 0
        for c in reversed(digits):
            v = v * radix + c
        return v

    return decode, encode


def _linear_ops(base, d):
    """add, sub, neg of packed values with d base-|base| digits, digit by
    digit through the base's own closures."""
    decode, encode = _codec(base.order, d)
    kadd, ksub, kneg = base.add_v, base.sub_v, base.neg_v

    def add(x, y):
        return encode(list(map(kadd, decode(x), decode(y))))

    def sub(x, y):
        return encode(list(map(ksub, decode(x), decode(y))))

    def neg(x):
        return encode(list(map(kneg, decode(x))))

    return add, sub, neg


def _linear_map(p, images):
    """The F_p-linear map sending the basis p^k to the packed value
    ``images[k]``, as a closure on packed values.

    Row k holds the digits of images[k], packed into one integer with a
    fixed-width bit slot per digit (:func:`_spread`).  The slots are wide
    enough that the sum of d_k * row_k over the digits d_k of x never
    carries from one slot into the next, so :func:`_gather` reduces each
    slot of the sum mod p to give one digit of the image of x.
    """
    n = len(images)
    slot = (n * (p - 1) ** 2).bit_length()
    shifts = tuple(slot * i for i in range(n))
    rows = tuple(_spread(v, p, shifts) for v in images)
    out_shifts, mask = shifts[::-1], (1 << slot) - 1

    def apply(x):
        acc = 0
        for row in rows:
            x, d = divmod(x, p)
            acc += d * row
        return _gather(acc, out_shifts, mask, p)

    return apply


#: bits of one lane of :func:`_log_exp`'s digit planes, one ``array('H')``
#: item; its docstring gives the bounds a lane needs.
_LANE = 16


def _log_exp(q, p, n, start, mul, power):
    """(logs, exps) of the cyclic group F_q^*, q = p^n, by the product
    ``mul`` and its ``power``; n counts the flat base-p digits, at any
    depth.

    With g the least packed value that generates the group (found from the
    prime factors of q - 1), ``exps[k]`` is g^k for k in [0, q - 1) and
    ``logs[x]`` is the k with g^k = x (None for x = 0).  The search for g
    begins at ``start``: the caller passes |K| for a proper extension of K
    and 1 otherwise.  Every packed value below |K| is an element of K,
    whose order divides |K| - 1, a proper divisor of q - 1, so none of them
    generates, and g is the least generator all the same.  At depth 1,
    K = F_p.

    The antilogs double a block of powers at a time, every lane at once.
    Plane i holds digit i of g^0 .. g^(s-1), one ``_LANE``-bit lane per
    power.  Multiplying by g^s is F_p-linear; let A_s be its n x n digit
    matrix, column k the digits of g^s p^k (A_1 from n products by
    ``mul``).  Then A_s times the planes gives the planes of
    g^s .. g^(2s-1) (on the last doubling only the powers still missing),
    ORed in at lane s: n^2 small-int multiply-adds and one
    :func:`_slot_reducer` call per plane.  A_(2s) = A_s^2 rides in the
    same product: lane k of ``mat[i]`` holds entry (i, k) of A_s, and
    ``mat`` sits in the lanes just above the powers.  After
    ceil(log2(q - 1)) doublings, sum(plane_i p^i) holds each packed
    antilog in its own lane, and one ``array('H')`` unpacks them all.

    Lane bounds: before reduction a lane holds at most n (p - 1)^2.  That is
    15,488 at GF(89^2), or at a degree-2 tower over F_89[X]/(X - c), the
    most of any field of degree n >= 2 over F_p up to ZECH_MAX_ORDER, and
    FieldCtx builds a table only where it is below 2^15.  The
    Artin-Schreier towers that ``xcheck`` builds stay far below: F_9(gamma)
    has n = 6 and p = 3, 24 a lane.  So the reducer sees lane values below
    2^b, b = bitlen(n (p - 1)^2) <= 15, in lanes of _LANE >= b + 1 bits, as
    it requires.  An antilog is below q <= ZECH_MAX_ORDER < 2^16, so the
    read-out carries from no lane into the next."""
    m = q - 1
    primes = _prime_factors(m)
    g = next(v for v in range(start, q)
             if all(power(v, m // ell) != 1 for ell in primes))
    reduce = _slot_reducer(p, (n * (p - 1) ** 2).bit_length(), _LANE,
                           m + n)
    decode = _codec(p, n)[0]
    mat = [_pack_slots(row, _LANE)
           for row in zip(*[decode(mul(p ** k, g)) for k in range(n)])]
    planes = [1] + [0] * (n - 1)
    s = 1
    while s < m:
        rows = [_lanes(a, n) for a in mat]
        shift = _LANE * min(s, m - s)
        low = (1 << shift) - 1
        src = [x & low | a << shift for x, a in zip(planes, mat)]
        out = [reduce(sum(map(operator.mul, row, src))) for row in rows]
        planes = [x | (y & low) << _LANE * s for x, y in zip(planes, out)]
        mat = [y >> shift for y in out]
        s *= 2
    packed = 0
    for x in reversed(planes):
        packed = packed * p + x
    exps = _lanes(packed, m).tolist()
    logs = [None] * q
    for k, x in enumerate(exps):
        logs[x] = k
    return logs, exps


def _lanes(x, count):
    """Lanes 0 .. count - 1 of x, ``_LANE`` bits each, as an ``array('H')``."""
    out = array('H', x.to_bytes(2 * count, 'little'))
    if sys.byteorder == 'big':
        out.byteswap()
    return out


def _zech_ops(p, n, start, ext_ops):
    """Closures for an extension of order q = p^n, n its degree over F_p
    at any depth, as lookups in one table.

    The table, built by the packed product and power of ``ext_ops`` (the
    closures of :func:`_ext_ops`) on the first call that needs it, holds
    logs and antilogs (:func:`_log_exp`, its generator search from
    ``start``) and the Zech logarithms Z(k) = log(1 + g^k), None where
    1 + g^k = 0.  It reads a packed value by its n flat base-p digits, the
    same at every depth: 1 + x changes only digit 0, and -1 packs as
    p - 1.  The antilogs double a block of powers at a time in 16-bit
    lanes, one lane per power, which holds while n (p - 1)^2 < 2^15 and
    q <= 2^16: the caller, :class:`FieldCtx`, asks for a table only
    there.  With m = q - 1, x y = g^(log x + log y), 1/x = g^(-log x) and
    x + y = x (1 + y/x) = g^(log x + Z(log y - log x)); x - y adds
    log(-y) = log y + log(-1).  Every list index lies in [-m, m), and a
    negative one counts from the end, which is the same residue mod m.
    A power is one lookup, x^k = exps[k log x mod m], and the conjugate
    sum x + x^k + ... + x^(k^(count - 1)) steps the log alone,
    l -> k l mod m, adding each exps[l] by the Zech ``add``.
    Returns the field closures (with the same codec) and a function giving
    (logs, exps, zech).
    """
    ext_mul, decode, encode = ext_ops[3], ext_ops[5], ext_ops[6]
    q = p ** n
    m = q - 1
    logs = exps = zech = neg_logs = None

    def build():
        nonlocal logs, exps, zech, neg_logs
        logs, exps = _log_exp(q, p, n, start, ext_mul, ext_ops[7])
        # 1 + x changes only the lowest base-p digit of x
        zech = [logs[x - x % p + (x + 1) % p] for x in exps]
        log_neg_one = logs[p - 1]
        neg_logs = [None] + [(k + log_neg_one) % m for k in logs[1:]]

    def tables():
        if exps is None:
            build()
        return logs, exps, zech

    def add(x, y):
        if not x:
            return y
        if not y:
            return x
        if exps is None:
            build()
        lx = logs[x]
        z = zech[logs[y] - lx]
        return 0 if z is None else exps[lx + z - m]

    def sub(x, y):
        if not y:
            return x
        if exps is None:
            build()
        ly = neg_logs[y]
        if not x:
            return exps[ly]
        lx = logs[x]
        z = zech[ly - lx]
        return 0 if z is None else exps[lx + z - m]

    def neg(x):
        if not x:
            return 0
        if exps is None:
            build()
        return exps[neg_logs[x]]

    def mul(x, y):
        if not x or not y:
            return 0
        if exps is None:
            build()
        return exps[logs[x] + logs[y] - m]

    def inv(x):
        if not x:
            raise DivisionByZero("0 is not invertible")
        if exps is None:
            build()
        return exps[-logs[x]]

    def power(x, k):
        if not x:
            return 0
        if exps is None:
            build()
        return exps[k * logs[x] % m]

    def conj_sum(x, k, count):
        if not x:
            return 0
        if exps is None:
            build()
        acc, lx = x, logs[x]
        for _ in range(1, count):
            lx = lx * k % m
            acc = add(acc, exps[lx])
        return acc

    return (add, sub, neg, mul, inv, decode, encode, power, conj_sum), tables


def _spread(v, p, shifts):
    """The base-p digits of v, low first, placed at the bit offsets
    ``shifts``: v as a slot-packed integer."""
    out = 0
    for shift in shifts:
        v, c = divmod(v, p)
        if c:
            out |= c << shift
    return out


def _gather(acc, shifts, mask, p):
    """The packed value whose base-p digits, high first, are the slots of
    ``acc`` at the bit offsets ``shifts``, each reduced mod p.

    This turns a sum of slot-packed rows of an F_p-linear map back into
    digits: the Frobenius matrix and the extension product both end here.
    """
    v = 0
    for shift in shifts:
        v = v * p + (acc >> shift & mask) % p
    return v


def _slot_reducer(p, b, width, slots):
    """x -> every slot of x mod p, for x of ``slots`` slots of ``width``
    >= b + 1 bits, each below 2^b.

    It divides by p with an invariant multiplier (Granlund and Montgomery,
    1994).  With L = bitlen(p - 1), s = b + L and
    M = ceil(2^s / p) = (2^s + r) / p, 0 <= r < p, write v = q p + t with
    0 <= t < p.  Then v M / 2^s = q + t / p + v r / (p 2^s), and
    v r < 2^b 2^L = 2^s, so t / p + v r / (p 2^s) < (t + 1) / p <= 1: for
    every v < 2^b, floor(v M / 2^s) = q = v // p exactly.  As p > 2^(L - 1),
    M <= 2^(b + 1) and v M < 2^(2b + 1), more than one slot holds, so the
    even and the odd slots are reduced apart: ``x & even`` keeps every
    other slot, each v M then has 2 * width >= 2b + 2 bits to itself,
    (x M >> s) & quot reads every quotient (q < 2^(2 width - s), below the
    bits the next kept slot shifts down), and x - p q leaves v mod p in
    each slot.
    """
    shift = b + (p - 1).bit_length()
    magic = -(-(1 << shift) // p)
    pairs = -(-slots // 2)
    even = _runs(width, 2 * width, pairs)
    quot = _runs((((1 << b) - 1) // p).bit_length(), 2 * width, pairs)

    def reduce(x):
        lo = x & even
        hi = x >> width & even
        lo -= p * (lo * magic >> shift & quot)
        hi -= p * (hi * magic >> shift & quot)
        return lo | hi << width

    return reduce


def _runs(run, period, count):
    """``count`` runs of ``run`` one bits, one at the bottom of each
    ``period`` bits."""
    x, have = (1 << run) - 1, 1
    while have < count:
        x |= x << (have * period)
        have *= 2
    return x & ((1 << (period * count)) - 1)


def _folder(keep, sel, rows):
    """x -> (x & keep) + sum of (x >> shift & sel) * row over ``rows``, the
    (shift, row) pairs of one fold step or x -> x^k pass of
    :func:`_block_kernel`."""
    def fold(x):
        acc = x & keep
        for shift, row in rows:
            acc += (x >> shift & sel) * row
        return acc

    return fold


def _block_kernel(base, f, encode):
    """(mul, power, conj_sum) of base[X]/(f), power(x, k) for k >= 1 and
    conj_sum(x, k, count) = x + x^k + ... + x^(k^(count - 1)), k a power
    of p.

    With K = base of degree e over F_p, m = deg f and a value's flat base-p
    digit i*e + j the coefficient of X^i y^j (y the root of K's modulus g;
    over K = F_p, e = 1 and only J = 0 occurs), :func:`_spread` puts that
    digit in slot j of block i: X-major blocks of 2e - 1 slots of ``width``
    bits.
    The product c of two spread values holds the coefficient of X^I y^J in
    slot J of block I, I < 2m - 1, J < 2e - 1, each at most
    v0 = m e (p - 1)^2.  Two folds reduce c mod (g, f), each a
    :func:`_folder` on whole integers, applied y, then X, then y:

    1. y-fold, every block at once: slots j < e of every block stay, and
       for J = e .. 2e - 2, slot J of every block,
       (c >> J width) & (slot 0 of every block), times the spread digits
       of y^J mod g, is added in their place.  e - 1 multiply-adds leave
       slots j < e of each block, each at most
       v1 = v0 (1 + (e - 1)(p - 1)); over F_p there are none.
    2. X-fold: the low m blocks stay, and each block i = m .. 2m - 2, an
       element of K in e slots, times the spread row of X^i mod f is added
       to them.  A block times a row has y-degree at most 2e - 2, inside
       the stride, and every slot is then at most
       v2 = v1 (1 + (m - 1) e (p - 1)); for m = 1 there are no X rows.
    3. y-fold again, now on the m low blocks: every slot j < e is at most
       v3 = v2 (1 + (e - 1)(p - 1)), and the others are 0.

    Slots are bitlen(v3) + 1 bits wide, so no step carries from one slot
    into the next, and :func:`_slot_reducer` takes every slot of a folded
    product mod p in place: reducing the three folds of a * b gives the
    spread form of the product.  So ``mul`` spreads both operands, folds
    their product and gathers it (:func:`_gather` reduces each slot),
    while ``power`` spreads once, squares and multiplies in slot form and
    gathers once.  ``conj_sum`` spreads x once and takes each term from
    the last by the F_p-linear map a -> a^k (Lidl & Niederreiter, Thm
    2.23): reduce(sum of digit s of a times row s), row i e + j =
    (X^k)^i (y^k)^j in slot form, from X^k and y^k by ``power``'s loop and
    m e - 1 products, built on the first call for k and kept.  A slot of
    that sum is at most m e (p - 1)^2 = v0 < 2^width.  The reduced terms
    are added and gathered once: a slot of the sum is at most
    count (p - 1) <= v0 for count <= m e (p - 1), which every relative
    degree, at most m e, meets; a larger count raises ValueError.

    The folds' y rows are the digits of y^J mod g (:func:`_y_powers`), and
    their X rows come from f and K's own closures, never from a product in
    base[X]/(f).  The x -> x^k rows stay private to the kernel.
    :func:`_ext_ops` builds the kernel once, when the context of
    base[X]/(f) is constructed.
    """
    p, e, m = base.p, base.total_degree, len(f) - 1
    stride = 2 * e - 1
    v0 = m * e * (p - 1) ** 2
    y_gain = 1 + (e - 1) * (p - 1)
    b = (v0 * y_gain ** 2 * (1 + (m - 1) * e * (p - 1))).bit_length()
    width = b + 1
    span = stride * width
    in_shifts = tuple(span * i + width * j
                      for i in range(m) for j in range(e))
    mask = (1 << width) - 1
    slot0 = _runs(width, span, 2 * m - 1)
    keep = _runs(e * width, span, 2 * m - 1)
    low, block = (1 << (m * span)) - 1, (1 << (e * width)) - 1
    kmul, ksub = base.mul_v, base.sub_v
    y_digits = _y_powers(p, base.modulus_vals) if e > 1 else []
    y_rows = tuple((width * j, sum(c << s for c, s in zip(r, in_shifts)))
                   for j, r in enumerate(y_digits, e))
    x_pow = [1] + [0] * (m - 1)
    x_rows = []
    for i in range(1, 2 * m - 1):
        # X^i mod f = X * X^(i-1), with X^m = -(f_0 + ... + f_{m-1} X^(m-1))
        top = x_pow[-1]
        x_pow = [ksub(c, kmul(top, fj)) for c, fj in zip([0] + x_pow[:-1], f)]
        if i >= m:
            x_rows.append((span * i, _spread(encode(x_pow), p, in_shifts)))

    y_fold = _folder(keep, slot0, y_rows)
    x_fold = _folder(low, block, x_rows)
    reduce = _slot_reducer(p, b, width, m * stride)
    out_shifts = in_shifts[::-1]

    def step(u, v):
        return reduce(y_fold(x_fold(y_fold(u * v))))

    def mul(x, y):
        a = _spread(x, p, in_shifts)
        c = a * (a if x == y else _spread(y, p, in_shifts))
        return _gather(y_fold(x_fold(y_fold(c))), out_shifts, mask, p)

    def power(x, k):
        a = _power(step, _spread(x, p, in_shifts), k)
        return _gather(a, out_shifts, mask, p)

    terms = m * e * (p - 1)
    frob_maps = {}

    def frob(k):
        r = k
        while r > 1 and r % p == 0:
            r //= p
        if r != 1:
            raise ValueError(f"x -> x^{k} is not F_{p}-linear")
        # X is slot 0 of block 1 and y slot 1 of block 0
        xk = _power(step, 1 << span, k) if m > 1 else 0
        yk = _power(step, 1 << width, k) if e > 1 else 0
        rows = [1]
        for s in range(1, m * e):
            rows.append(step(rows[s - 1], yk) if s % e
                        else step(rows[s - e], xk))
        frob_maps[k] = fold = _folder(0, mask, tuple(zip(in_shifts, rows)))
        return fold

    def conj_sum(x, k, count):
        if count > terms:
            raise ValueError(f"{count} terms overflow {width}-bit slots")
        fold = frob_maps.get(k) or frob(k)
        acc = a = _spread(x, p, in_shifts)
        for _ in range(1, count):
            a = reduce(fold(a))
            acc += a
        return _gather(acc, out_shifts, mask, p)

    return mul, power, conj_sum


#: vectors of at most this many slots pack and unpack a slot at a time, in
#: time quadratic in the slot count; longer ones split in halves first.
#: The loop is as fast up to a few hundred slots, and every layout of a
#: Rabin test up to degree 256 stays on it
_LOOP_SLOTS = 512


def _pack_slots(digits, width):
    """The integer with digit i in slot i of ``width`` bits."""
    if len(digits) > _LOOP_SLOTS:
        half = len(digits) // 2
        return (_pack_slots(digits[:half], width)
                | _pack_slots(digits[half:], width) << half * width)
    x = 0
    for c in reversed(digits):
        x = x << width | c
    return x


def _unpack_slots(x, width, n):
    """Slots 0 .. n - 1 of ``width`` bits of x, whose higher bits may be
    set."""
    if n > _LOOP_SLOTS:
        half = n // 2
        return (_unpack_slots(x & ((1 << half * width) - 1), width, half)
                + _unpack_slots(x >> half * width, width, n - half))
    mask = (1 << width) - 1
    return [x >> (k * width) & mask for k in range(n)]


class _Kron:
    """Kronecker-substitution layout for polynomial products over F_p or
    F_{p^e}, for :mod:`.polys`.

    A coefficient over F_{p^e} is a polynomial in y (the modulus root) with
    base-p digits d_0 .. d_{e-1}, so a coefficient vector is a bivariate
    polynomial in (X, y).  It packs into one integer with one slot of
    ``width`` bits per digit: digit j of coefficient i sits in slot
    j * stride + i, so block j of ``stride`` slots holds digit j of every
    coefficient.  One integer multiply of two packed vectors then yields
    the packed bivariate product, whose 2e - 1 blocks are the y-powers.
    ``fold`` adds blocks e .. 2e - 2 back into blocks 0 .. e - 1 times
    the digits of y^k mod the field modulus, and ``reduce`` takes every
    slot mod p at once, both on the packed integer.  A packed vector has
    every slot below p, as ``reduce`` leaves it, so products chain without
    unpacking.

    :meth:`fit` sizes the slots for twice the largest folded slot of a
    product of two vectors of at most n coefficients, so the sum of two
    folded products, such as (c mod X^m) + q * (-f) in
    :func:`.polys._mulmod`, never carries from one slot into the next:
    every slot value v that ``reduce`` sees is below 2^B, B the bit length
    of that bound, and the slots are at least B + 1 bits wide.

    ``reduce`` is :func:`_slot_reducer`: every slot mod p at once by a
    multiply-shift on the even and the odd slots (Granlund and Montgomery,
    1994), exact for slot values below 2^B in slots of at least B + 1
    bits; its docstring holds the argument.

    The layout is y-major where :func:`_block_kernel` is X-major: each
    measured faster on its own workload.

    Every layout has slots of B + 1 bits.  Barrett products chain, the
    bigint multiplies dominate at large degrees, and wider slots (2B + 2
    bits for a single multiply-shift, or whole bytes) made them slower.
    :meth:`pack` and :meth:`unpack` go through :func:`_pack_slots` and
    :func:`_unpack_slots`, which split a long vector in halves.
    """

    __slots__ = ('p', 'e', 'width', 'stride', 'bits', 'blocks', 'fold',
                 'reduce')

    @classmethod
    def fit(cls, ctx, n, stride):
        """The layout for operands of at most n coefficients and products of
        at most ``stride``; None for a tower (depth 2)."""
        if ctx.depth > 1:
            return None
        p, e = ctx.p, ctx.degree
        bound = 2 * n * e * (p - 1) ** 2 * (1 + (e - 1) * (p - 1))
        b = bound.bit_length()
        width = b + 1
        self = cls.__new__(cls)
        self.p, self.e, self.width, self.stride = p, e, width, stride
        self.bits = width * stride
        self.blocks = _runs(1, self.bits, e)
        self.fold = _y_folder(p, e, self.bits, ctx.modulus_vals)
        self.reduce = _slot_reducer(p, b, width, e * stride)
        return self

    @classmethod
    def modular(cls, ctx, m):
        """The layout of products modulo a polynomial of degree m, for
        operands of m coefficients, kept on the context: a modulus search
        tests many polynomials of one degree."""
        if m not in ctx._layouts:
            ctx._layouts[m] = cls.fit(ctx, m, 2 * m - 1)
        return ctx._layouts[m]

    def low(self, k):
        """The mask of slots 0 .. k - 1 of every block."""
        return ((1 << (self.width * k)) - 1) * self.blocks

    def pack(self, vals):
        """The packed integer of a vector of at most ``stride`` values."""
        digits = vals
        if self.e > 1:
            p = self.p
            gap = [0] * (self.stride - len(vals))
            digits = []
            for pj in [p ** j for j in range(self.e)]:
                digits += [c // pj % p for c in vals]
                digits += gap
        return _pack_slots(digits, self.width)

    def unpack(self, x, n):
        """Field values of coefficients 0 .. n - 1 of a reduced packed
        integer."""
        stride, width = self.stride, self.width
        blocks = [_unpack_slots(x >> (start * width), width, n)
                  for start in range(0, self.e * stride, stride)]
        out = blocks.pop()
        p = self.p
        while blocks:
            out = [acc * p + v for acc, v in zip(out, blocks.pop())]
        return out


def _y_folder(p, e, bits, modulus):
    """x -> x with blocks e .. 2e - 2 of ``bits`` bits, the y-powers of a
    packed product over F_p[y]/(modulus), folded into blocks 0 .. e - 1
    times the digits of y^k mod the modulus; the identity over F_p."""
    if e == 1:
        return lambda x: x
    block = (1 << bits) - 1
    keep = (1 << (e * bits)) - 1
    rows = [(k * bits, [(j * bits, r) for j, r in enumerate(digits) if r])
            for k, digits in enumerate(_y_powers(p, modulus), e)]

    def fold(x):
        low = x & keep
        for shift, row in rows:
            ck = x >> shift & block
            if ck:
                for at, r in row:
                    low += ck * r << at
        return low

    return fold


def _y_powers(p, modulus):
    """Digits of y^k mod the monic ``modulus`` over F_p, k = e .. 2e - 2."""
    e = len(modulus) - 1
    r = [-c % p for c in modulus[:e]]
    out = [r]
    for _ in range(e - 2):
        top = r[-1]
        r = [-top * modulus[0] % p] + [
            (r[j - 1] - top * modulus[j]) % p for j in range(1, e)]
        out.append(r)
    return out


def _ext_ops(base: "FieldCtx", d, modulus_digits):
    """Closures for base[X]/(m), m monic irreducible of degree d; digits are
    packed base values.

    add, sub and neg run the base's closures digit by digit
    (:func:`_linear_ops`).  Products and powers are the closures of
    :func:`_block_kernel`, built here, once per context: a power and a
    conjugate sum stay in slot form from first step to last.  An inverse
    is the one extended Euclid over ``base``, at every depth, dividing by
    the one long division of :mod:`.polys` (``_divmod_vals``).  It tracks
    only the cofactor of x and ends at a nonzero constant, because m is
    irreducible; a zero remainder raises ArithmeticError."""
    from .polys import _coeffwise, _divmod_vals, _schoolbook_vals
    decode, encode = _codec(base.order, d)
    mul, power, conj_sum = _block_kernel(base, modulus_digits, encode)

    def inv(x):
        if x == 0:
            raise DivisionByZero("0 is not invertible")
        r0, r1 = modulus_digits, _trim(decode(x))
        t0, t1 = (), (1,)
        while len(r1) > 1:
            quo, rem = _divmod_vals(base, r0, r1)
            if not rem:
                raise ArithmeticError("modulus is not irreducible")
            r0, r1 = r1, rem
            t0, t1 = t1, _coeffwise(base.sub_v, t0,
                                    _schoolbook_vals(base, quo, t1))
        return encode(_schoolbook_vals(base, t1, (base.inv_v(r1[0]),)))

    return (*_linear_ops(base, d), mul, inv, decode, encode, power, conj_sum)


# ---------------------------------------------------------------------------
# contexts and elements

class FieldCtx:
    """A finite field, shared by all of its elements.

    Do not call the constructor directly; use :func:`prime_field`,
    :func:`extension_field` or :func:`finite_field`, which validate input
    and cache contexts so that equal fields are identical objects.

    The ``*_v`` attributes are closures on packed integer values; they are
    the arithmetic kernel and are also used directly by the polynomial layer.
    """

    __slots__ = (
        'kind', 'p', 'base', 'modulus_vals', 'degree', 'total_degree',
        'depth', 'order', 'prime_ctx',
        'add_v', 'sub_v', 'neg_v', 'mul_v', 'inv_v', 'decode_v', 'encode_v',
        '_pow', '_conj_sum', '_trace', '_frob', '_zech_table', '_unit_primes',
        '_layouts',
    )

    def __init__(self, p, base=None, modulus_vals=None):
        self.p = p
        self.base = base
        self.modulus_vals = modulus_vals
        self._trace = self._frob = self._zech_table = self._unit_primes = None
        self._layouts = {}
        if base is None:
            self.kind = 'prime'
            self.degree = 1
            self.total_degree = 1
            self.depth = 0
            self.order = p
            self.prime_ctx = self
            ops = _prime_ops(p)
        else:
            self.kind = 'extension'
            d = len(modulus_vals) - 1
            self.degree = d
            self.total_degree = d * base.total_degree
            self.depth = base.depth + 1
            self.order = base.order ** d
            self.prime_ctx = base.prime_ctx
            ops = _ext_ops(base, d, modulus_vals)
            # a table for every extension up to ZECH_MAX_ORDER, at any
            # depth, whose n flat base-p digits fit the lanes: all but
            # those of degree n = 1 over F_p with p > 181, such as
            # F_p[X]/(X - c).  A proper extension (d > 1) has no generator
            # among the base's values, so the search starts above them
            n = self.total_degree
            if (self.order <= ZECH_MAX_ORDER
                    and n * (p - 1) ** 2 < 1 << (_LANE - 1)):
                ops, self._zech_table = _zech_ops(
                    p, n, base.order if d > 1 else 1, ops)
        (self.add_v, self.sub_v, self.neg_v, self.mul_v, self.inv_v,
         self.decode_v, self.encode_v, self._pow, self._conj_sum) = ops

    # -- packed-value helpers ------------------------------------------------

    def pow_v(self, x: int, k: int) -> int:
        """x**k on packed values; k may be negative when x is invertible.

        An extension without a Zech table powers in the slot form of its
        product kernel (:func:`_block_kernel`), where :meth:`frobenius_v`
        applies the Frobenius matrix; a prime field runs :func:`_power`
        over ``mul_v``.  A Zech field reads exps[k log x mod (q - 1)], one
        lookup, so there x^p is the very lookup that :meth:`frobenius_v`
        makes, and the tests check both against :func:`_power` over the
        product instead.
        """
        if k < 0:
            x = self.inv_v(x)
            k = -k
        return self._pow(x, k) if k else 1

    # -- F_p-linear maps -------------------------------------------------------
    #
    # The flat base-p digits of a packed value are its coordinates over F_p
    # in the basis p^k, k < total_degree, at depth 1 and depth 2 alike.
    # Trace and Frobenius are F_p-linear (Lidl & Niederreiter, Finite
    # Fields, Thm 2.23), so each is fixed by its images of that basis.  Both
    # maps are built on first use, the trace vector from the modulus by
    # Newton's identities over the base and the Frobenius matrix from
    # pow_v, so constructing a context costs nothing extra.  Up to
    # ZECH_MAX_ORDER the trace is a table of every packed value, and with a
    # Zech table x^p is g^(p log x).

    def trace_v(self, x: int) -> int:
        """Absolute trace of a packed value, as an integer in [0, p)."""
        trace = self._trace
        if trace is None:
            trace = self._trace = self._linear_form()
        return trace(x)

    def frobenius_v(self, x: int) -> int:
        """x**p on packed values."""
        frob = self._frob
        if frob is None:
            frob = self._frob = self._frobenius_map()
        return frob(x)

    def _linear_form(self):
        """The absolute trace as a closure: the dot product of the digits
        with the trace vector, or up to ZECH_MAX_ORDER a q-entry table.

        Digit i e + j of a packed value (e the base's degree over F_p) is
        the coefficient of X^i y^j, y the root of the base's modulus, and
        Tr(X^i y^j) = Tr_K(y^j Tr_{L/K}(X^i)) = Tr_K(y^j s_i), K the base.
        s_i, the i-th power sum of the modulus's roots, comes from Newton's
        identities over K: s_0 = m and, for 0 < i < m,
        s_i = -(i f_{m-i} + f_{m-1} s_{i-1} + ... + f_{m-i+1} s_1).  No
        product in this field is needed, so a trace builds no Zech table;
        :func:`rel_trace` stays the independent reference it is checked
        against.
        """
        p = self.p
        if self.kind == 'prime':
            vec = [1]
        else:
            base, f, m = self.base, self.modulus_vals, self.degree
            kmul, kadd = base.mul_v, base.add_v
            sums = [m % p]
            for i in range(1, m):
                acc = kmul(i % p, f[m - i])
                for k in range(1, i):
                    acc = kadd(acc, kmul(f[m - k], sums[i - k]))
                sums.append(base.neg_v(acc))
            vec = [base.trace_v(kmul(p ** j, s))
                   for s in sums for j in range(base.total_degree)]
        if self.order <= ZECH_MAX_ORDER:
            # digit k of x is its high part d: Tr(x) = Tr(low) + d vec[k]
            table = [0]
            for t in vec:
                table = [(v + d * t) % p for d in range(p) for v in table]
            return table.__getitem__

        def trace(x):
            acc = 0
            for t in vec:
                x, d = divmod(x, p)
                acc += d * t
            return acc % p
        return trace

    def _frobenius_map(self):
        """x -> x^p as a closure: the identity on a prime field, g^(p log x)
        with a Zech table, else the Frobenius matrix (:func:`_linear_map`),
        whose row k holds the digits of (p^k)^p."""
        p = self.p
        if self.kind == 'prime':
            return lambda x: x
        if self._zech_table is not None:
            logs, exps, _ = self._zech_table()
            m = self.order - 1
            return lambda x: exps[p * logs[x] % m] if x else 0
        return _linear_map(p, [self.pow_v(p ** k, p)
                               for k in range(self.total_degree)])

    # -- element construction --------------------------------------------------

    def element(self, val: int) -> "FieldElement":
        """The element with the given packed value."""
        if not 0 <= val < self.order:
            raise ValueError(f"packed value {val} out of range for {self!r}")
        return FieldElement(self, val)

    def from_int(self, k: int) -> "FieldElement":
        """The image of the integer k under Z -> F_p -> this field."""
        return FieldElement(self, k % self.p)

    def from_coeffs(self, coeffs: Iterable) -> "FieldElement":
        """Build an element from base-field coefficients, low degree first.

        Entries may be base-field elements or plain integers, which embed
        through the prime field (see :func:`_coerce_vals`); a prime field
        takes a one-entry vector over itself.  Missing high coefficients are
        taken as zero.
        """
        digits = _coerce_vals(self.base or self, coeffs)
        if len(digits) > self.degree:
            raise ValueError(
                f"{len(digits)} coefficients for degree {self.degree}")
        return FieldElement(self, self.encode_v(digits))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def modulus_root(self) -> "FieldElement":
        """The residue of X, a root of the modulus (extensions only)."""
        if self.kind != 'extension':
            raise ValueError("prime field has no modulus root")
        return FieldElement(self, self.base.order)

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in packed-value order (0 and 1 come first)."""
        return (FieldElement(self, v) for v in range(self.order))

    # -- description -----------------------------------------------------------

    def describe(self) -> dict:
        """Plain-data description: p, absolute degree, modulus text."""
        if self.kind == 'prime':
            return {'p': self.p, 'e': 1, 'modulus': None}
        if self.depth == 1:
            mod = ','.join(str(c) for c in self.modulus_vals)
            return {'p': self.p, 'e': self.degree, 'modulus': mod}
        raise ValueError("no text description for towers above depth 1")

    def __repr__(self):
        if self.kind == 'prime':
            return f"GF({self.p})"
        return f"GF({self.p}^{self.total_degree})"


class FieldElement:
    """An element of a :class:`FieldCtx`.

    Supports +, -, *, /, ** (integer exponents, negative allowed for nonzero
    elements) and mixed arithmetic with plain integers, which embed through
    the prime field.  Instances are immutable and hashable.
    """

    __slots__ = ('ctx', 'val')

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    @property
    def coeffs(self) -> tuple:
        """Coefficient vector over the base field, low degree first."""
        ctx = self.ctx
        if ctx.kind == 'prime':
            return (self,)
        base = ctx.base
        return tuple(FieldElement(base, d) for d in ctx.decode_v(self.val))

    def frobenius(self) -> "FieldElement":
        """The p-th power of this element, by the context's Frobenius matrix.

        The identity on a prime field; see :meth:`FieldCtx.frobenius_v`.
        """
        return FieldElement(self.ctx, self.ctx.frobenius_v(self.val))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise CtxMismatch(
                    f"operands from {self.ctx!r} and {other.ctx!r}")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.add_v(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub_v(self.val, other.val))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.sub_v(other.val, self.val))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul_v(self.val, other.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        inv = self.ctx.inv_v(other.val)
        return FieldElement(self.ctx, self.ctx.mul_v(self.val, inv))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        inv = self.ctx.inv_v(self.val)
        return FieldElement(self.ctx, self.ctx.mul_v(other.val, inv))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg_v(self.val))

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.pow_v(self.val, k))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.ctx is self.ctx and other.val == self.val
        if isinstance(other, int):
            return self.val == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        if self.ctx.depth <= 1:
            return f"{self.ctx!r}:{element_to_text(self)}"
        return f"{self.ctx!r}:#{self.val}"


# ---------------------------------------------------------------------------
# constructors

@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> FieldCtx:
    """The prime field F_p.

    Raises PrimeTooLarge for every p at or above MAX_PRIME, prime or not,
    before any primality test, so a huge p fails at once; NotPrime for
    anything else that is not a prime.
    """
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"{p} is not prime")
    if p >= MAX_PRIME:
        raise PrimeTooLarge(f"{p} >= {MAX_PRIME}")
    if _prime_factors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    return FieldCtx(p)


_extension_cache: dict = {}


def extension_field(base: FieldCtx, modulus) -> FieldCtx:
    """Extend ``base`` by a monic irreducible ``modulus``.

    ``modulus`` is a polynomial over ``base`` (a :class:`Poly <.polys.Poly>`
    or a coefficient sequence, low degree first).  The modulus must be monic
    of degree >= 1 and irreducible over ``base``; the new context sits one
    level above ``base`` and at most MAX_DEPTH levels above the prime field.
    """
    if base.depth >= MAX_DEPTH:
        raise DepthExceeded(
            f"cannot extend beyond {MAX_DEPTH} levels above the prime field")
    from . import polys
    if isinstance(modulus, polys.Poly) and modulus.ctx is base:
        vals = modulus.vals         # packed values over base, trimmed
    else:
        vals = _trim(_coerce_vals(base, modulus))
    if len(vals) < 2:
        raise NotMonic("modulus must have degree >= 1")
    if vals[-1] != 1:
        raise NotMonic("modulus must be monic")
    key = (base, vals)
    ctx = _extension_cache.get(key)
    if ctx is not None:
        return ctx
    mod_poly = polys.Poly._make(base, vals)
    if len(vals) > 2 and not polys.is_irreducible(mod_poly):
        raise ReducibleModulus(f"{mod_poly!r} factors over {base!r}")
    ctx = FieldCtx(base.p, base, vals)
    _extension_cache[key] = ctx
    return ctx


def _coerce_vals(ctx: FieldCtx, coeffs) -> list:
    """Packed values of a sequence of elements of ``ctx`` and integers.

    An integer k embeds through the prime field as k % p, at every depth.
    An element of another field raises CtxMismatch; anything else raises
    TypeError.  This is the one coercion for field, modulus and polynomial
    coefficients.
    """
    out = []
    for c in coeffs:
        if isinstance(c, FieldElement):
            if c.ctx is not ctx:
                raise CtxMismatch(
                    f"coefficient from {c.ctx!r}, expected {ctx!r}")
            out.append(c.val)
        elif isinstance(c, int):
            out.append(c % ctx.p)
        else:
            raise TypeError(f"bad coefficient {c!r}")
    return out


def finite_field(p: int, e: int = 1, modulus=None) -> FieldCtx:
    """F_{p^e}, as an extension of F_p by ``modulus``.

    With e = 1 the prime field is returned and no modulus may be given.
    With e >= 2 and no modulus, the lexicographically smallest monic
    irreducible of degree e is used (constant term most significant), so the
    result is deterministic.  An e above MAX_DEGREE raises DegreeTooLarge
    before any modulus search or irreducibility test.
    """
    base = prime_field(p)
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if e > MAX_DEGREE:
        raise DegreeTooLarge(f"extension degree {e} > {MAX_DEGREE}")
    if e == 1:
        if modulus is not None:
            raise ValueError("a modulus makes no sense for e = 1")
        return base
    if modulus is None:
        from . import polys
        modulus = polys.find_irreducible(base, e)
    vals = _trim(_coerce_vals(base, modulus))
    if len(vals) - 1 != e:
        raise ValueError(
            f"modulus degree {len(vals) - 1} does not match e = {e}")
    return extension_field(base, vals)


# ---------------------------------------------------------------------------
# embeddings and traces

def relative_degree(field: FieldCtx, sub: FieldCtx) -> int:
    """[field : sub] along the base chain; NotInTower if sub is not on it."""
    deg = 1
    cur = field
    while cur is not sub:
        if cur.kind == 'prime':
            raise NotInTower(f"{sub!r} is not a subfield on the chain of {field!r}")
        deg *= cur.degree
        cur = cur.base
    return deg


def lift(x: FieldElement, field: FieldCtx) -> FieldElement:
    """Embed x into ``field``, which must lie above x's field on one chain.

    The packed value is unchanged; only the context moves.
    """
    relative_degree(field, x.ctx)
    return FieldElement(field, x.val)


def abs_trace(x: FieldElement) -> FieldElement:
    """Trace of x down to the prime field, as a prime-field element.

    Trace is F_p-linear, so it is the dot product, mod p, of x's base-p
    digits with the precomputed traces of the basis p^k (see
    :meth:`FieldCtx.trace_v`).
    """
    ctx = x.ctx
    return FieldElement(ctx.prime_ctx, ctx.trace_v(x.val))


def rel_trace(x: FieldElement, sub: FieldCtx) -> FieldElement:
    """Trace of x down to the subfield ``sub`` on the same base chain.

    Sums the [field : sub] conjugates x^(|sub|^i) by one call of the
    context's conjugate sum: in the product kernel each conjugate is one
    pass of the kernel's own map x -> x^|sub|, whose rows are products of
    its powers X^|sub| and y^|sub|, and the sum is gathered once; on a
    Zech field one log-table lookup per conjugate, exps[|sub|^i log x],
    added by Zech lookups; on a prime field by :func:`_power`.  This
    literal Frobenius sum is the reference: the trace vector behind
    :func:`abs_trace` (from Newton's identities) is checked against it, and
    the ``xcheck`` oracles (``rel_trace_oracle``, ``minpoly_trace_check``)
    compare against it, so it never reads the context's Frobenius matrix
    or trace vector.  The result's coefficient vector is checked to lie
    in ``sub`` (its packed value is below |sub|).
    """
    ctx = x.ctx
    acc = ctx._conj_sum(x.val, sub.order, relative_degree(ctx, sub))
    if acc >= sub.order:
        raise AssertionError("relative trace escaped the subfield")
    return FieldElement(sub, acc)


# ---------------------------------------------------------------------------
# text encoding

def element_to_text(x: FieldElement) -> str:
    """Comma-separated coefficient text, low degree first, full length.

    A prime-field element renders as a single integer; an element of a
    depth-1 extension of degree e renders as exactly e comma-separated
    integers ("0,0" is the zero of F_9).  Deeper towers have no text form.
    """
    ctx = x.ctx
    if ctx.depth > 1:
        raise ValueError("no text encoding for towers above depth 1")
    return ','.join(str(c) for c in ctx.decode_v(x.val))


def element_texts(ctx: FieldCtx) -> Iterator[str]:
    """:func:`element_to_text` of every element, in packed-value order.

    ``itertools.product`` varies its last position fastest and the packed
    value its lowest digit, so each tuple is the digits high first.
    """
    if ctx.depth > 1:
        raise ValueError("no text encoding for towers above depth 1")
    digits = [str(c) for c in range(ctx.p)]
    return (','.join(t[::-1])
            for t in itertools.product(digits, repeat=ctx.degree))


def element_from_text(ctx: FieldCtx, text: str) -> FieldElement:
    """Parse :func:`element_to_text` output (integers are reduced mod p).

    Short vectors are padded with zero coefficients; extra coefficients are
    an error.
    """
    if ctx.depth > 1:
        raise ValueError("no text encoding for towers above depth 1")
    try:
        digits = [int(s) for s in text.split(',')]
    except ValueError:
        raise ValueError(f"bad element text {text!r}") from None
    return ctx.from_coeffs(digits)
