"""Dense univariate polynomials over a finite field context.

Coefficients are stored little-endian as packed field values (see
:mod:`.fields`) with no trailing zeros, so the zero polynomial is the empty
tuple and its degree is None.  Coefficients given to :class:`Poly`, as
elements or integers, are packed by ``fields._coerce_vals``, the same
coercion that field elements and moduli use.

Products over F_p and over an extension F_{p^e} of F_p use Kronecker
substitution: a coefficient vector packs into one Python integer with one
slot of 1, 2, 4 or 8 bytes per base-p digit, wide enough that no slot sum
carries, so one C bigint multiply forms the whole product.  Over F_{p^e}
the packing is bivariate in X and the modulus root y.  The product's
y-powers e .. 2e - 2 are folded back with y^k mod the field modulus on the
packed integer, and each slot is then reduced mod p (see :class:`_Kron`).
The schoolbook loop over the field's closures remains only for polynomials
over depth-2 towers and over fields whose slots would need more than 8
bytes.  An extension field's own element product does not come from here:
it packs the value's flat digits and reduces by F_p-linear rows in
:mod:`.fields`.  Division and gcd are the classical algorithms;
over F_p the long division is ``fields._list_divmod_mod_p``, the one F_p
division that F_p[X]/(m) inverts with as well.

Products modulo a fixed monic f of degree m use Barrett reduction: mu =
X^(2m - 2) // f is found once by division, and each reduced product then
costs three packed multiplies (the product, its quotient by f, and the
quotient times f).  :func:`powmod` and the irreducibility test go through it.
Every power, ``Poly ** k`` included, is ``fields._power``, the one
square-and-multiply loop, run with the product it is given.

Irreducibility testing is deterministic: f of degree m over F_q is
irreducible iff X^(q^m) = X mod f and gcd(X^(q^(m/r)) - X, f) = 1 for every
prime r dividing m (Rabin's test).  Each Frobenius step h -> h^q mod f is
computed by powering, square-and-multiply through the Barrett product (von
zur Gathen and Shoup, 1992).
"""

from __future__ import annotations

import sys
from array import array
from itertools import product as _cartesian
from itertools import starmap, zip_longest

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
    _list_divmod_mod_p,
    _power,
    _prime_factors,
    _trim,
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


#: array type code for each slot width in bytes (1, 2, 4, 8)
_SLOT_CODES = {array(code).itemsize: code for code in 'BHILQ'}
_SWAP_BYTES = sys.byteorder == 'big'


class _Kron:
    """Kronecker-substitution layout for products over F_p or F_{p^e}.

    A coefficient over F_{p^e} is a polynomial in y (the modulus root) with
    base-p digits d_0 .. d_{e-1}, so a coefficient vector is a bivariate
    polynomial in (X, y).  It packs into one integer with one slot of
    ``width`` bytes per digit: digit j of coefficient i sits in slot
    j * stride + i, so block j of ``stride`` slots holds digit j of every
    coefficient.  One integer multiply of two packed vectors then yields
    the packed bivariate product, whose 2e - 1 blocks are the y-powers.
    :meth:`fold` adds blocks e .. 2e - 2 back into blocks 0 .. e - 1 times
    the digits of y^k mod the field modulus, still on the packed integer, and
    :meth:`unpack` reduces each slot mod p.

    :meth:`fit` sizes the slots for twice the largest folded slot of a
    product of two vectors of at most n coefficients, so the sum of two
    folded products (as in :func:`_mulmod`) never carries from one slot into
    the next.
    """

    __slots__ = ('p', 'e', 'pows', 'code', 'width', 'stride', 'bits',
                 'y_powers')

    @classmethod
    def fit(cls, ctx, n, stride):
        """The layout for operands of at most n coefficients and products of
        at most ``stride``; None for a tower (depth 2), or when the slots
        would need more than 8 bytes."""
        if ctx.depth > 1:
            return None
        p, e = ctx.p, ctx.degree
        bound = 2 * n * e * (p - 1) ** 2 * (1 + (e - 1) * (p - 1))
        width = 1
        while bound >> (8 * width):
            width *= 2
            if width > 8:
                return None
        self = cls.__new__(cls)
        self.p, self.e, self.width, self.stride = p, e, width, stride
        self.pows = tuple(p ** j for j in range(e))
        self.code = _SLOT_CODES[width]
        self.bits = 8 * width * stride
        self.y_powers = _y_powers(p, ctx.modulus_vals) if e > 1 else ()
        return self

    def pack(self, vals):
        """The packed integer of a vector of at most ``stride`` values."""
        if self.e == 1:
            return int.from_bytes(_slot_bytes(self.code, vals), 'little')
        p = self.p
        gap = bytes(self.width * (self.stride - len(vals)))
        return int.from_bytes(gap.join(
            _slot_bytes(self.code, [c // pj % p for c in vals])
            for pj in self.pows), 'little')

    def fold(self, x):
        """Fold y-powers e .. 2e - 2 of a packed product into 0 .. e - 1."""
        if not self.y_powers:
            return x
        bits, e = self.bits, self.e
        block = (1 << bits) - 1
        low = x & ((1 << (e * bits)) - 1)
        for k, digits in enumerate(self.y_powers, e):
            ck = x >> (k * bits) & block
            if ck:
                for j, r in enumerate(digits):
                    if r:
                        low += ck * r << (j * bits)
        return low

    def unpack(self, x, lo, hi):
        """Field values of coefficients lo .. hi - 1 of a folded packed
        product."""
        p, n = self.p, self.stride
        slots = array(self.code)
        slots.frombytes(x.to_bytes(self.e * n * self.width, 'little'))
        if _SWAP_BYTES:
            slots.byteswap()
        top = (self.e - 1) * n
        out = [v % p for v in slots[top + lo:top + hi]]
        for start in range(top - n, -1, -n):
            out = [acc * p + v % p
                   for acc, v in zip(out, slots[start + lo:start + hi])]
        return out


def _slot_bytes(code, digits):
    slots = array(code, digits)
    if _SWAP_BYTES:
        slots.byteswap()
    return slots.tobytes()


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


def _mul_vals(ctx, a, b):
    if not a or not b:
        return ()
    size = len(a) + len(b) - 1
    lay = _Kron.fit(ctx, min(len(a), len(b)), size)
    if lay is not None:
        return _trim(lay.unpack(
            lay.fold(lay.pack(a) * lay.pack(b)), 0, size))
    out = [0] * size
    mul = ctx.mul_v
    add = ctx.add_v
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _trim(out)


def _divmod_vals(ctx, a, b):
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
    while b:
        a, b = b, _rem_vals(ctx, a, b)
    return _monic_vals(ctx, a)


def _mulmod(ctx, f):
    """A closure (a, b) -> a * b mod f for the monic f and a, b of degree
    below deg f.

    Barrett reduction with Kronecker-packed products.  With m = deg f and
    mu = X^(2m - 2) // f (the reversed inverse of rev(f) mod X^(m - 1),
    found once by division), the quotient of c = a * b by f is
    (c // X^m) * mu // X^(m - 2), exactly; the remainder is the low m
    coefficients of c - q * f, so f is packed once without its leading 1
    and negated.  Each product costs three integer multiplies.  Towers, and
    fields whose slots would need more than 8 bytes, multiply and divide
    with the closure loops instead.
    """
    m = len(f) - 1
    lay = _Kron.fit(ctx, m, 2 * m - 1) if m > 1 else None
    if lay is None:
        return lambda a, b: _rem_vals(ctx, _mul_vals(ctx, a, b), f)
    mu = lay.pack(_divmod_vals(ctx, (0,) * (2 * m - 2) + (1,), f)[0])
    neg_f = lay.pack([ctx.neg_v(c) for c in f[:m]])
    low = sum(((1 << 8 * lay.width * m) - 1) << j * lay.bits
              for j in range(lay.e))
    pack, fold, unpack = lay.pack, lay.fold, lay.unpack

    def mulmod(a, b):
        x = pack(a)
        c = fold(x * (x if a is b else pack(b)))
        if len(a) + len(b) <= m + 1:
            return _trim(unpack(c, 0, m))
        hi = pack(unpack(c, m, 2 * m - 1))
        q = unpack(fold(hi * mu), m - 2, 2 * m - 3)
        return _trim(unpack((c & low) + fold(pack(q) * neg_f), 0, m))

    return mulmod


def _powmod_vals(ctx, base, k, mod):
    if not mod:
        raise ZeroModulus("modulus polynomial is zero")
    f = _monic_vals(ctx, mod)
    if k == 0:
        return _rem_vals(ctx, (1,), f)
    return _power(_mulmod(ctx, f), _rem_vals(ctx, base, f), k)


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
    mulmod = _mulmod(ctx, fv)
    checkpoints = {m // r for r in _prime_factors(m)}
    xv = h = (0, 1)
    for i in range(1, m + 1):
        h = _power(mulmod, h, ctx.order)
        if i in checkpoints:
            g = _coeffwise(ctx.sub_v, h, xv)
            if _gcd_vals(ctx, g, fv) != (1,):
                return False
    return h == xv


def find_irreducible(ctx: FieldCtx, degree: int) -> Poly:
    """The least monic irreducible of the given degree over ``ctx``.

    Candidates are ordered lexicographically by coefficient vector with the
    constant term most significant, so the answer is deterministic for a
    given field.  Above degree 1 the candidates with f(0) = 0, which X
    divides, are skipped without a Rabin test.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    coeffs = range(ctx.order)
    consts = coeffs if degree == 1 else range(1, ctx.order)
    for lower in _cartesian(consts, *[coeffs] * (degree - 1)):
        cand = Poly._make(ctx, lower + (1,))
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducibles of every degree exist")


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
    unambiguous; the zero polynomial renders as the zero element.
    """
    ctx = f.ctx
    if f.is_zero:
        return element_to_text(ctx.zero)
    return ';'.join(element_to_text(c) for c in f.coeffs)

