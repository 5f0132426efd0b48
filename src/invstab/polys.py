"""Dense univariate polynomials over a finite field context.

Coefficients are stored little-endian as packed field values (see
:mod:`.fields`) with no trailing zeros, so the zero polynomial is the empty
tuple and its degree is None.  Multiplication is schoolbook with a Karatsuba
split once both operands pass degree 64; division, gcd and modular
exponentiation are the classical algorithms.

Irreducibility testing is deterministic: f of degree m over F_q is
irreducible iff X^(q^m) = X mod f and gcd(X^(q^(m/r)) - X, f) = 1 for every
prime r dividing m (Rabin's test).  The q-power map is F_q-linear, so after
one modular exponentiation for X^q mod f the remaining Frobenius steps are
matrix application rather than powmod, which is what makes exhaustive sweeps
affordable.
"""

from __future__ import annotations

from itertools import product as _cartesian

from .errors import (
    BothZero,
    ConstantPolynomial,
    CtxMismatch,
    DivisionByZero,
    ZeroModulus,
)
from .fields import FieldCtx, FieldElement, element_from_text, element_to_text

#: both operands must exceed this degree before Karatsuba kicks in
KARATSUBA_CUTOFF = 64


# ---------------------------------------------------------------------------
# low-level routines on packed-value tuples

def _trim(vals):
    n = len(vals)
    while n and vals[n - 1] == 0:
        n -= 1
    return tuple(vals[:n])


def _add_vals(ctx, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = ctx.add_v
    out = [add(a[i], b[i]) for i in range(len(b))]
    out.extend(a[len(b):])
    return _trim(out)


def _sub_vals(ctx, a, b):
    sub = ctx.sub_v
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(sub(x, y))
    return _trim(out)


def _neg_vals(ctx, a):
    neg = ctx.neg_v
    return tuple(neg(c) for c in a)


def _mul_vals(ctx, a, b):
    if not a or not b:
        return ()
    if min(len(a), len(b)) > KARATSUBA_CUTOFF:
        return _trim(_karatsuba(ctx, a, b))
    out = [0] * (len(a) + len(b) - 1)
    if ctx.kind == 'prime':
        p = ctx.p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _trim([v % p for v in out])
    mul = ctx.mul_v
    add = ctx.add_v
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _trim(out)


def _karatsuba(ctx, a, b):
    h = min(len(a), len(b)) // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _mul_vals(ctx, _trim(a0), _trim(b0))
    z2 = _mul_vals(ctx, _trim(a1), _trim(b1))
    z1 = _sub_vals(
        ctx,
        _mul_vals(ctx, _add_vals(ctx, _trim(a0), _trim(a1)),
                  _add_vals(ctx, _trim(b0), _trim(b1))),
        _add_vals(ctx, z0, z2))
    out = [0] * (len(a) + len(b) - 1)
    add = ctx.add_v
    for i, c in enumerate(z0):
        out[i] = c
    for i, c in enumerate(z1):
        out[h + i] = add(out[h + i], c)
    for i, c in enumerate(z2):
        out[2 * h + i] = add(out[2 * h + i], c)
    return out


def _divmod_vals(ctx, a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return (), tuple(a)
    db = len(b) - 1
    inv_lead = ctx.inv_v(b[-1])
    rem = list(a)
    quo = [0] * (len(a) - db)
    if ctx.kind == 'prime':
        p = ctx.p
        for k in range(len(a) - 1, db - 1, -1):
            c = rem[k]
            if c:
                f = c * inv_lead % p
                quo[k - db] = f
                for j in range(db):
                    rem[k - db + j] = (rem[k - db + j] - f * b[j]) % p
                rem[k] = 0
    else:
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
                rem[k] = 0
    return _trim(quo), _trim(rem[:db])


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


def _powmod_vals(ctx, base, k, mod):
    if not mod:
        raise ZeroModulus("modulus polynomial is zero")
    result = _rem_vals(ctx, (1,), mod)
    base = _rem_vals(ctx, base, mod)
    while k:
        if k & 1:
            result = _rem_vals(ctx, _mul_vals(ctx, result, base), mod)
        k >>= 1
        if k:
            base = _rem_vals(ctx, _mul_vals(ctx, base, base), mod)
    return result


def _prime_factors(m):
    out = set()
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def _frob_rows(ctx, fv):
    """Rows b[i] = X^(q*i) mod f for i < m, padded to length m = deg f."""
    m = len(fv) - 1
    h = _powmod_vals(ctx, (0, 1), ctx.order, fv)
    rows = [[0] * m for _ in range(m)]
    rows[0][0] = 1
    cur = (1,)
    for i in range(1, m):
        cur = _rem_vals(ctx, _mul_vals(ctx, cur, h), fv)
        for j, c in enumerate(cur):
            rows[i][j] = c
    return rows


def _frob_apply(ctx, u, rows, m):
    """Image of u (coeff tuple, deg < m) under the q-power map mod f."""
    acc = [0] * m
    if ctx.kind == 'prime':
        p = ctx.p
        for i, ui in enumerate(u):
            if ui:
                row = rows[i]
                for j in range(m):
                    acc[j] += ui * row[j]
        return _trim([v % p for v in acc])
    mul = ctx.mul_v
    add = ctx.add_v
    for i, ui in enumerate(u):
        if ui:
            row = rows[i]
            for j in range(m):
                if row[j]:
                    acc[j] = add(acc[j], mul(ui, row[j]))
    return _trim(acc)


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
        vals = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx is not ctx:
                    raise CtxMismatch("coefficient from a different field")
                vals.append(c.val)
            elif isinstance(c, int):
                vals.append(c % ctx.p)
            else:
                raise TypeError(f"bad coefficient {c!r}")
        self.ctx = ctx
        self.vals = _trim(vals)

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
        if isinstance(x, int):
            x = ctx.from_int(x)
        elif x.ctx is not ctx:
            raise CtxMismatch("evaluation point from a different field")
        acc = 0
        mul, add = ctx.mul_v, ctx.add_v
        for c in reversed(self.vals):
            acc = add(mul(acc, x.val), c)
        return FieldElement(ctx, acc)

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise CtxMismatch("polynomials over different fields")
            return other
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise CtxMismatch("scalar from a different field")
            return Poly.constant(other)
        if isinstance(other, int):
            return Poly.constant(self.ctx.from_int(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx, _add_vals(self.ctx, self.vals, other.vals))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx, _sub_vals(self.ctx, self.vals, other.vals))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._make(self.ctx, _sub_vals(self.ctx, other.vals, self.vals))

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
        result = Poly.one(self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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
    return Poly._make(f.ctx, _trim(tuple(reversed(f.vals))))


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
    rows = _frob_rows(ctx, fv)
    checkpoints = {m // r for r in _prime_factors(m)}
    xv = (0, 1)
    h = _trim(rows[1]) if m > 1 else xv
    for i in range(1, m + 1):
        if i > 1:
            h = _frob_apply(ctx, h, rows, m)
        if i in checkpoints:
            g = _sub_vals(ctx, h, xv)
            if _gcd_vals(ctx, g, fv) != (1,):
                return False
    return h == xv


def find_irreducible(ctx: FieldCtx, degree: int) -> Poly:
    """The least monic irreducible of the given degree over ``ctx``.

    Candidates are ordered lexicographically by coefficient vector with the
    constant term most significant, so the answer is deterministic for a
    given field.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for lower in _cartesian(range(ctx.order), repeat=degree):
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


def poly_from_text(ctx: FieldCtx, text: str) -> Poly:
    """Parse :func:`poly_to_text` output over the given context."""
    parts = text.split(';')
    return Poly(ctx, [element_from_text(ctx, s) for s in parts])
