"""Dense univariate polynomials over a finite field context.

Coefficients are stored little-endian as packed field values (see
:mod:`.fields`) with no trailing zeros, so the zero polynomial is the empty
tuple and its degree is None.  Coefficients given to :class:`Poly`, as
elements or integers, are packed by ``fields._coerce_vals``, the same
coercion that field elements and moduli use.

Products over F_p and over an extension F_{p^e} of F_p use Kronecker
substitution: a coefficient vector packs into one Python integer with one
slot of B + 1 bits per base-p digit, B the bit length of the largest slot
sum, so no slot carries and one C bigint multiply forms the whole product.
Over F_{p^e} the packing is bivariate in X and the modulus root y.  Single
and Barrett products share that one layout; it, its y-fold and its
slot-parallel reduction mod p live in :mod:`.fields` with the rest of the
slot packing (``fields._Kron``).  Polynomials over depth-2 towers, which
have no packed layout, multiply by the schoolbook loop over the field's
closures (``_schoolbook_vals``).

This module owns division: the long division over every field (over F_p
on plain integer lists, ``_list_divmod_mod_p``), the gcd (over F_p
Euclid's whole remainder sequence on slot-packed integers, reduced mod p
once per division, ``_packed_gcd``), and the division and cofactor
products of the one extended Euclid, with which ``fields._ext_ops``
inverts in every extension field.

Products modulo a fixed monic f of degree m use Barrett reduction on
packed integers: mu = X^(2m - 2) // f comes once from a Newton inversion,
and each reduced product is then three packed multiplies (the product,
its quotient by f, and the quotient times f), each followed by one
slot-parallel reduction mod p.  Its result stays packed, so
:func:`powmod` and the irreducibility test pack once on entry and unpack
only where they read coefficients.  Every power, ``Poly ** k`` included,
is ``fields._power``, the one square-and-multiply loop, run with the
product it is given.

Irreducibility testing is deterministic: f of degree m over F_q is
irreducible iff X^(q^m) = X mod f and gcd(X^(q^(m/r)) - X, f) = 1 for every
prime r dividing m (Rabin's test).  One Frobenius chain reaches each
X^(q^n) mod f in turn (von zur Gathen and Shoup, 1992).  It steps
n -> n + 1 by powering, h -> h^q by square-and-multiply through the
Barrett product, c_q = log2 q + popcount(q) - 1 products.  It jumps to
n + b by modular composition at the cached X^(q^b),
X^(q^(n + b)) = X^(q^n)(X^(q^b)) mod f, with Brent and Kung's baby steps
and giant steps (1978) on the Barrett product's packed layout: about
2k + 1 products for k = ceil(sqrt m), only the Horner half of them on a
repeated jump, and it jumps only when b c_q > 2k + 1.  A composition's
block sums take no product, and before their one fold a slot holds at
most k e (p - 1)^2 <= m e (p - 1)^2, within the slot bound of that
layout.  The composer is built on the first jump, so a chain that never
jumps, as at the degrees below about 10 over small fields, pays no
setup.  Towers, which have no packed layout, only power.  Over F_p the
gcd step takes X^(q^(m/r)) - X and f on that layout as they are.
"""

from __future__ import annotations

import math
from itertools import starmap, zip_longest
from operator import mul

from .errors import (
    BothZero,
    ConstantPolynomial,
    CtxMismatch,
    DivisionByZero,
    ZeroModulus,
)
from .fields import (
    FieldCtx,
    FieldElement,
    _coerce_vals,
    _Kron,
    _power,
    _prime_factors,
    _trim,
    _unpack_slots,
    element_to_text,
)

# ---------------------------------------------------------------------------
# low-level routines on packed-value tuples

def _coeffwise(op, a, b):
    """op (``ctx.add_v`` or ``ctx.sub_v``) coefficient by coefficient, the
    shorter operand padded with zeros."""
    return _trim(list(starmap(op, zip_longest(a, b, fillvalue=0))))


def _neg_vals(ctx, a):
    neg = ctx.neg_v
    return tuple(neg(c) for c in a)


def _mul_vals(ctx, a, b):
    if not a or not b:
        return ()
    size = len(a) + len(b) - 1
    lay = _Kron.fit(ctx, min(len(a), len(b)), size)
    if lay is None:
        return _schoolbook_vals(ctx, a, b)
    return _trim(lay.unpack(
        lay.reduce(lay.fold(lay.pack(a) * lay.pack(b))), size))


def _schoolbook_vals(ctx, a, b):
    """The product by the double loop over the field's closures: for
    polynomials over towers, which have no packed layout, and for the short
    cofactors of the extended Euclid that inverts in every extension field
    (:func:`.fields._ext_ops`), which packing slowed down."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    mul = ctx.mul_v
    add = ctx.add_v
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _trim(out)


def _list_divmod_mod_p(a, b, p):
    """Divmod of little-endian coefficient lists over F_p, b nonzero and no
    longer than a; the remainder keeps len(b) - 1 entries.

    This is the single division over F_p.  The gcd runs the whole
    remainder sequence packed (:func:`_packed_gcd`), but the extended
    Euclid of :func:`.fields._ext_ops` takes its quotients one division at
    a time, as tuples, and would pack and unpack at every step."""
    db = len(b) - 1
    inv_lead = pow(b[db], p - 2, p)
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if c:
            f = c * inv_lead % p
            quo[k - db] = f
            for j in range(db):
                rem[k - db + j] = (rem[k - db + j] - f * b[j]) % p
    del rem[db:]
    return quo, rem


def _divmod_vals(ctx, a, b):
    """Quotient and remainder of value tuples: over F_p by
    :func:`_list_divmod_mod_p`, otherwise by the loop over the field's
    closures.  That loop is also the gcd's over F_(p^e) and towers: a
    y-major packed Euclid with a fold per quotient coefficient measured
    1.3-4 times slower than it at degrees 1 to 32 over F_9, F_16, F_25 and
    F_49."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return (), tuple(a)
    if ctx.kind == 'prime':
        quo, rem = _list_divmod_mod_p(a, b, ctx.p)
        return _trim(quo), _trim(rem)
    db = len(b) - 1
    inv_lead = ctx.inv_v(b[-1])
    rem = list(a)
    quo = [0] * (len(a) - db)
    mul = ctx.mul_v
    sub = ctx.sub_v
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if c:
            f = mul(c, inv_lead)
            quo[k - db] = f
            for j in range(db):
                if b[j]:
                    rem[k - db + j] = sub(rem[k - db + j], mul(f, b[j]))
    del rem[db:]
    return _trim(quo), _trim(rem)


def _rem_vals(ctx, a, b):
    return _divmod_vals(ctx, a, b)[1]


def _monic_vals(ctx, a):
    if not a or a[-1] == 1:
        return tuple(a)
    inv_lead = ctx.inv_v(a[-1])
    mul = ctx.mul_v
    return tuple(mul(c, inv_lead) for c in a)


def _gcd_vals(ctx, a, b):
    """The monic gcd: over F_p by :func:`_packed_gcd` on the layout of
    ``_Kron.modular`` for the longer operand, over F_(p^e) and towers by
    the closure loop of :func:`_divmod_vals`."""
    if ctx.kind == 'prime':
        lay = _Kron.modular(ctx, max(len(a), len(b), 1))
        g = _packed_gcd(lay, lay.pack(a), lay.pack(b))
        size = -(-g.bit_length() // lay.width)
        return _monic_vals(ctx, lay.unpack(g, size))
    while b:
        a, b = b, _rem_vals(ctx, a, b)
    return _monic_vals(ctx, a)


def _packed_gcd(lay, a, b):
    """A gcd of a and b over F_p, packed by ``lay`` and not made monic; 1
    when it is a constant.  a and b are reduced, of at most n coefficients
    for the n ``lay`` was fitted to.

    Euclid's remainder sequence on the packed integers (von zur Gathen and
    Gerhard, ch. 3), packed once and unpacked by the caller once.  A
    division by b reads the quotient coefficients of the running remainder
    a top down, one slot mod p each, and adds c * (-b / lead(b)), packed
    once per division without its leading slot, shifted into place; then
    it keeps the slots below deg b and reduces them, once per division,
    not once per step.  Its starting value counted in, a slot receives at
    most deg b + 1 additions of at most (p - 1)^2, so it holds at most
    (deg b + 1)(p - 1)^2 <= n (p - 1)^2, below the layout's bound of
    2n (p - 1)^2: nothing carries, and the slot reads are exact.
    """
    width, reduce, p = lay.width, lay.reduce, lay.p
    mask = (1 << width) - 1
    while b:
        db = (b.bit_length() - 1) // width
        if not db:
            return 1
        low = lay.low(db)
        stop = db * width
        neg_b, scale = b & low, p - pow(b >> stop, -1, p)
        if scale != 1:      # lead(b) = -1, as always over F_2, needs none
            neg_b = reduce(neg_b * scale)
        for at in range((a.bit_length() - 1) // width * width, stop - 1,
                        -width):
            c = (a >> at & mask) % p
            if c:
                a += c * neg_b << at - stop
        a, b = b, reduce(a & low)
    return a


def _mulmod(ctx, f):
    """(mulmod, pack, unpack, lay) for products modulo the monic f of
    degree m: mulmod(a, b) = a * b mod f on packed a, b of degree below m,
    the maps between value tuples and that packed form, and its layout.

    Barrett reduction on Kronecker-packed integers (see :class:`_Kron`).
    With mu = X^(2m - 2) // f, the quotient of c = a * b by f is
    q = (c // X^m) * mu // X^(m - 2), exactly, and the remainder is the low
    m coefficients of c + q * (-f), with -f packed once without its leading
    1.  A product is three integer multiplies, each followed by one
    slot-parallel reduction mod p, and never leaves the packed form, so a
    power packs once and unpacks once.  mu comes from a Newton inversion on
    the same products (:func:`_barrett_mu`).  Towers, and f of degree 1,
    multiply and divide with the closure loops on value tuples instead,
    pack and unpack are then the identity and lay is None.
    """
    m = len(f) - 1
    lay = _Kron.modular(ctx, m) if m > 1 else None
    if lay is None:
        return (lambda a, b: _rem_vals(ctx, _mul_vals(ctx, a, b), f),
                tuple, tuple, None)
    fold, reduce = lay.fold, lay.reduce
    neg = [ctx.neg_v(c) for c in f]
    mu = _barrett_mu(lay, neg)
    neg_f = lay.pack(neg[:m])
    high, low = lay.low(m - 1), lay.low(m)
    top, lead = m * lay.width, (m - 2) * lay.width

    def mulmod(a, b):
        c = fold(a * b)
        hi = reduce(c >> top & high)
        q = reduce(fold(hi * mu) >> lead & high)
        return reduce((c + fold(q * neg_f)) & low)

    return (mulmod, lay.pack,
            lambda x: _trim(lay.unpack(x, m)), lay)


def _barrett_mu(lay, neg):
    """mu = X^(2m - 2) // f for the monic f of degree m, packed by ``lay``;
    ``neg`` holds the coefficients of -f.

    mu is rev(g) for g = 1 / rev(f) mod X^(m - 1), rev(f) = X^m f(1/X),
    whose constant term is 1.  Newton's iteration g <- g + g (1 - rev(f) g)
    doubles the number of correct coefficients of g at each step, so g
    takes O(log m) packed products instead of an O(m^2) long division.
    Every product has operands of at most m - 1 coefficients, within the
    slot bound of ``lay``.
    """
    fold, reduce = lay.fold, lay.reduce
    n = len(neg) - 2
    neg_rev = lay.pack(neg[:1:-1])
    g, k = 1, 1
    while k < n:
        k = min(2 * k, n)
        low = lay.low(k)
        err = reduce((fold((neg_rev & low) * g) & low) + 1)
        g = reduce(g + (fold(g * err) & low))
    return lay.pack(lay.unpack(g, n)[::-1])


def _powmod_vals(ctx, base, k, mod):
    if not mod:
        raise ZeroModulus("modulus polynomial is zero")
    f = _monic_vals(ctx, mod)
    if k == 0:
        return _rem_vals(ctx, (1,), f)
    mulmod, pack, unpack, _ = _mulmod(ctx, f)
    return unpack(_power(mulmod, pack(_rem_vals(ctx, base, f)), k))


def _composer(lay, mulmod, m):
    """compose(g, h) = g(h) mod f for packed g and h, f of degree m and
    ``mulmod`` its Barrett product on the layout ``lay``.

    Brent and Kung's baby steps and giant steps (1978): with
    k = ceil(sqrt m), the baby steps h^0 .. h^(k - 1) and the giant step
    G = h^k take k - 1 products, g splits into blocks of k coefficients,
    g = sum_i g_i(h) G^i, and Horner in G takes one product per block after
    the first.  The steps of each h are kept, so a composition at an h
    seen before takes only the Horner products.  A block sum g_i(h) is a
    sum of scalar times baby step with no product: over F_p the scalar is
    a small int, and over F_{p^e}, whose layout is y-major, digit j of a
    coefficient multiplies the baby step shifted up j blocks (times y^j);
    block j of packed g holds digit j of every coefficient.  Each block
    sum then takes one ``fold`` and one ``reduce``, together with the
    Horner product.  Before the fold a slot holds at most
    k e (p - 1)^2 <= m e (p - 1)^2, the bound of a product of two vectors
    of m coefficients, and the Horner product adds below p:
    :meth:`.fields._Kron.fit` sized the slots for twice that product, so
    nothing carries.
    """
    k = math.isqrt(m - 1) + 1
    fold, reduce, width = lay.fold, lay.reduce, lay.width
    shifts = range(0, lay.e * lay.bits, lay.bits)
    points = {}

    def compose(g, h):
        if h not in points:
            babies = [1, h]
            while len(babies) < k:
                babies.append(mulmod(babies[-1], h))
            points[h] = babies, mulmod(babies[-1], h) if k < m else None
        babies, giant = points[h]
        rows = [_unpack_slots(g >> at, width, m) for at in shifts]
        acc = 0
        for i in reversed(range(0, m, k)):
            s = sum(sum(map(mul, row[i:i + k], babies)) << at
                    for at, row in zip(shifts, rows))
            acc = reduce(fold(s + mulmod(acc, giant) if acc else s))
        return acc

    return compose


def _frobenius_chain(q, m, products):
    """frob(t) = X^(q^t) mod f, packed, for t that never decreases from one
    call to the next; f has degree m over F_q and ``products`` is what
    :func:`_mulmod` returns for it.

    n -> n + 1 is h -> h^q by powering, c_q = log2 q + popcount(q) - 1
    products.  n -> n + b composes h at the cached X^(q^b),
    X^(q^(n + b)) = h(X^(q^b)) mod f, about 2k + 1 products with
    k = ceil(sqrt m) (:func:`_composer`), and only the k - 1 or so Horner
    products on a later jump by the same b, whose baby steps and giant step
    the composer keeps.  The chain jumps by the largest cached b that does
    not pass t, and caches X^(q^n) only for n c_q > 2k + 1, so it composes
    only where powering would cost more products.  The composer is built
    on the first composition, so a chain that only powers pays no setup.
    Towers have no layout and always power.
    """
    mulmod, pack, _, lay = products
    cheap = m
    if lay is not None:
        cheap = (2 * math.isqrt(m - 1) + 3) // (q.bit_length()
                                                 + q.bit_count() - 2)
    cache = {}
    n, h, compose = 0, pack((0, 1)), None

    def frob(t):
        nonlocal n, h, compose
        while n < t:
            b = cache and max([j for j in cache if j <= t - n], default=0)
            if b:
                if compose is None:
                    compose = _composer(lay, mulmod, m)
                h = compose(h, cache[b])
                n += b
            else:
                # every cached b passes t, as will every later one: power
                # to t, or, with nothing cached, to the first value to cache
                stop = t if cache else min(t, cheap + 1)
                for _ in range(n, stop):
                    h = _power(mulmod, h, q)
                n = stop
            if n > cheap:
                cache[n] = h
        return h

    return frob


# ---------------------------------------------------------------------------
# public interface

class Poly:
    """A polynomial over a fixed field context.

    ``coeffs`` is any iterable of field elements or plain integers, low
    degree first; integers embed through the prime field.  Arithmetic is
    supported against other polynomials over the same context and against
    scalars (field elements or integers), which act as constants.
    """

    __slots__ = ('ctx', 'vals')

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        self.vals = _trim(_coerce_vals(ctx, coeffs))

    @classmethod
    def _make(cls, ctx, vals):
        self = cls.__new__(cls)
        self.ctx = ctx
        self.vals = vals
        return self

    @classmethod
    def zero(cls, ctx):
        return cls._make(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls._make(ctx, (1,))

    @classmethod
    def x(cls, ctx):
        return cls._make(ctx, (0, 1))

    @classmethod
    def constant(cls, value: FieldElement):
        return cls._make(value.ctx, (value.val,) if value.val else ())

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.vals) - 1 if self.vals else None

    @property
    def is_zero(self):
        return not self.vals

    @property
    def leading(self) -> FieldElement:
        if not self.vals:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.vals[-1])

    @property
    def coeffs(self) -> tuple:
        return tuple(FieldElement(self.ctx, v) for v in self.vals)

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.vals):
            return FieldElement(self.ctx, self.vals[i])
        return FieldElement(self.ctx, 0)

    def __iter__(self):
        """The coefficients 0 .. degree, low first, as ``f[k]`` gives them;
        none for the zero polynomial."""
        return iter(self.coeffs)

    def monic(self) -> "Poly":
        """This polynomial scaled to leading coefficient 1 (zero stays zero)."""
        return Poly._make(self.ctx, _monic_vals(self.ctx, self.vals))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.vals)):
            out.append(ctx.mul_v(self.vals[i], i % ctx.p))
        return Poly._make(ctx, _trim(out))

    def __call__(self, x) -> FieldElement:
        """Evaluate by Horner's rule at a field element (or integer)."""
        ctx = self.ctx
        xv, = _coerce_vals(ctx, (x,))
        acc = 0
        mul, add = ctx.mul_v, ctx.add_v
        for c in reversed(self.vals):
            acc = add(mul(acc, xv), c)
        return FieldElement(ctx, acc)

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise CtxMismatch("polynomials over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return Poly(self.ctx, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx,
                          _coeffwise(self.ctx.add_v, self.vals, other.vals))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx,
                          _coeffwise(self.ctx.sub_v, self.vals, other.vals))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx,
                          _coeffwise(self.ctx.sub_v, other.vals, self.vals))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx, _mul_vals(self.ctx, self.vals, other.vals))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._make(self.ctx, _neg_vals(self.ctx, self.vals))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q, r = _divmod_vals(self.ctx, self.vals, other.vals)
        return Poly._make(self.ctx, q), Poly._make(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(Poly.__mul__, self, k) if k else Poly.one(self.ctx)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return other.ctx is self.ctx and other.vals == self.vals
        return NotImplemented

    def __hash__(self):
        return hash(self.vals)

    def __bool__(self):
        return bool(self.vals)

    def __repr__(self):
        if self.ctx.depth <= 1:
            return f"Poly({poly_to_text(self)!r}, {self.ctx!r})"
        return f"Poly(vals={self.vals}, ctx={self.ctx!r})"


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; raises BothZero on gcd(0, 0)."""
    if f.ctx is not g.ctx:
        raise CtxMismatch("polynomials over different fields")
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    return Poly._make(f.ctx, _gcd_vals(f.ctx, f.vals, g.vals))


def powmod(base: Poly, k: int, modulus: Poly) -> Poly:
    """base**k reduced mod ``modulus``; k must be >= 0."""
    if base.ctx is not modulus.ctx:
        raise CtxMismatch("polynomials over different fields")
    if modulus.is_zero:
        raise ZeroModulus("modulus polynomial is zero")
    if k < 0:
        raise ValueError("negative exponent in powmod")
    return Poly._make(base.ctx, _powmod_vals(base.ctx, base.vals, k, modulus.vals))


def reciprocal(f: Poly) -> Poly:
    """The reversed polynomial X^deg(f) * f(1/X); needs deg f >= 1."""
    if f.is_zero or f.degree == 0:
        raise ConstantPolynomial("reciprocal needs degree >= 1")
    return Poly._make(f.ctx, _trim(list(reversed(f.vals))))


def frobenius_power(f: Poly) -> Poly:
    """f**p computed coefficient-wise: sum c_i^p X^(i*p).

    In characteristic p this equals the naive p-th power of f.
    """
    ctx = f.ctx
    p = ctx.p
    if f.is_zero:
        return f
    out = [0] * (p * (len(f.vals) - 1) + 1)
    for i, c in enumerate(f.vals):
        if c:
            out[i * p] = ctx.frobenius_v(c)
    return Poly._make(ctx, tuple(out))


def is_irreducible(f: Poly) -> bool:
    """Deterministic (Rabin) irreducibility test over the coefficient field.

    Raises ConstantPolynomial for the zero polynomial and for constants.
    """
    if f.is_zero or f.degree == 0:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    m = f.degree
    if m == 1:
        return True
    ctx = f.ctx
    fv = _monic_vals(ctx, f.vals)
    products = _mulmod(ctx, fv)
    _, pack, unpack, lay = products
    frob = _frobenius_chain(ctx.order, m, products)
    x = frob(0)
    if ctx.kind == 'prime':
        # X^(q^(m/r)) - X and f straight from the Barrett layout, which
        # holds f's m + 1 <= 2m - 1 coefficients
        packed_f, minus_x = pack(fv), (ctx.p - 1) * x

        def coprime(h):
            return _packed_gcd(lay, packed_f, lay.reduce(h + minus_x)) == 1
    else:
        def coprime(h):
            g = _coeffwise(ctx.sub_v, unpack(h), (0, 1))
            return _gcd_vals(ctx, g, fv) == (1,)
    for r in reversed(_prime_factors(m)):
        if not coprime(frob(m // r)):
            return False
    return frob(m) == x


def find_irreducible(ctx: FieldCtx, degree: int) -> Poly:
    """The least monic irreducible of the given degree over ``ctx``.

    Candidates are ordered lexicographically by coefficient vector with the
    constant term most significant, so the answer is deterministic for a
    given field.  An odometer walks them without materialising any range,
    so a large field costs only the candidates it tests.  Above degree 1
    the candidates with f(0) = 0, which X divides, are skipped without a
    Rabin test, and so are those with every coefficient in F_p when
    g = gcd(degree, [ctx : F_p]) > 1: such an f factors over F_p, or is
    irreducible there of the given degree and splits over ctx into g
    factors.  Every candidate up to the next one whose last coefficient is
    p lies in F_p as well, so the odometer jumps there.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    order, p = ctx.order, ctx.p
    over_fp_splits = math.gcd(degree, ctx.total_degree) > 1
    lower = [0] * degree
    lower[0] = 0 if degree == 1 else 1
    while True:
        if over_fp_splits and max(lower) < p:
            lower[-1] = p
        else:
            cand = Poly._make(ctx, tuple(lower) + (1,))
            if is_irreducible(cand):
                return cand
            k = degree - 1
            while lower[k] == order - 1:
                if k == 0:
                    raise AssertionError(
                        "unreachable: irreducibles of every degree exist")
                lower[k] = 0
                k -= 1
            lower[k] += 1


def artin_schreier(xi: FieldElement) -> Poly:
    """The polynomial X^p - X + xi over xi's field."""
    ctx = xi.ctx
    vals = [0] * (ctx.p + 1)
    vals[0] = xi.val
    vals[1] = ctx.neg_v(1)
    vals[ctx.p] = 1
    return Poly._make(ctx, _trim(vals))


# ---------------------------------------------------------------------------
# text encoding

def poly_to_text(f: Poly) -> str:
    """Semicolon-separated element texts, constant term first.

    Every coefficient from degree 0 up to deg(f) appears, so the encoding is
    unambiguous; the zero polynomial renders as the zero element.  Each
    distinct coefficient value is rendered once.
    """
    ctx = f.ctx
    if f.is_zero:
        return element_to_text(ctx.zero)
    text = {v: element_to_text(FieldElement(ctx, v)) for v in set(f.vals)}
    return ';'.join([text[v] for v in f.vals])

