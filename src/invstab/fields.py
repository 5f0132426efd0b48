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
vector and a Frobenius matrix over those coordinates, built on first use
(:meth:`FieldCtx.trace_v`, :meth:`FieldCtx.frobenius_v`).  The literal sum
of Frobenius conjugates survives only in :func:`rel_trace`, the reference
that builds the trace vector and that the ``xcheck`` oracles compare with.

The same digits make add, sub and neg one digit-wise loop mod p at every
depth.  They are also what the product needs: a value's digits spread into
one Kronecker-packed integer, one integer multiply forms every coefficient
of X^I y^J (y the root of the base's modulus, 1 over F_p), and a
precomputed row per reducible slot, X^I y^J mod the moduli, reduces the
result as an F_p-linear map, ending in the same slots-to-digits step as the
Frobenius matrix.  Inverses are an extended Euclid: on plain digit lists
over F_p, and over the base on :mod:`.polys` for towers.

Up to order ZECH_MAX_ORDER, F_p[X]/(m) builds on its first arithmetic
call one table of discrete logs, antilogs and Zech logarithms
Z(k) = log(1 + g^k) with that product, and every add, sub, neg, mul and
inv is a lookup in it: x + y = g^(log x + Z(log y - log x)) (Lidl &
Niederreiter, Finite Fields, section 9.3).  Such a context also computes
x^p as g^(p log x), and every context up to that order keeps its trace as
a q-entry table filled from the trace vector, so every map the criterion's
walk steps with is a lookup.

Contexts are cached, so two requests for the same field (same prime, same
modulus chain) return the identical object and context checks are identity
checks.  Elements are immutable; contexts only add lazily built caches
whose contents are fixed by the field.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import (
    CtxMismatch,
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

#: Number of extension levels allowed above the prime field.
MAX_DEPTH = 2

#: Largest order of a field that computes on tables: the discrete logs and
#: Zech logarithms of F_p[X]/(m) (:func:`_zech_ops`) and the trace of every
#: element.  A single ``check`` pays for the whole Zech table: 20-35 ms for
#: GF(3^8) and GF(2^12), the largest below the bound (CPython 3.11 on a
#: 2-vCPU Linux container).
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
# serves every extension base[X]/(m): add/sub/neg on the flat base-p digits
# through one digit codec, and one product that multiplies the packed flat
# digits and reduces with F_p-linear rows (_tower_product).  Only the
# inverse depends on the base.  Over F_p it is an extended Euclid on plain
# digit lists that divides with _list_divmod_mod_p, which is also the F_p
# branch of ``polys._divmod_vals``: there is one long division over F_p.
# The Euclid over ``polys`` took 1.8-3.4x as long per inversion there
# (GF(3^9), GF(2^13), GF(101^2); CPython 3.11).  Over an extension it is
# that Euclid over the base (``polys`` imports this module at load time, so
# the factory imports it lazily).  Up to ZECH_MAX_ORDER, _zech_ops
# turns the closures of F_p[X]/(m) into the lookups of its table.
#
# Two helpers serve every layer: _power is the one square-and-multiply loop
# (FieldCtx.pow_v, Poly ** k, powmod and the Rabin test pass it their own
# product), and _coerce_vals is the one map from elements and integers to
# packed values (from_coeffs, moduli and Poly coefficients).

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

    return (add, sub, neg, mul, inv, *_codec(p, 1))


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


def _linear_ops(p, n):
    """add, sub, neg of packed values with n flat base-p digits, digit-wise
    over F_p."""
    decode, encode = _codec(p, n)

    def add(x, y):
        return encode([(a + b) % p for a, b in zip(decode(x), decode(y))])

    def sub(x, y):
        return encode([(a - b) % p for a, b in zip(decode(x), decode(y))])

    def neg(x):
        return encode([-c % p for c in decode(x)])

    return add, sub, neg


def _list_divmod_mod_p(a, b, p):
    """Divmod of little-endian coefficient lists over F_p; b must be nonzero."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return [0], list(a)
    inv_lead = pow(b[db], p - 2, p)
    rem = list(a)
    quo = [0] * (da - db + 1)
    for k in range(da, db - 1, -1):
        c = rem[k]
        if c:
            f = c * inv_lead % p
            quo[k - db] = f
            for j in range(db):
                rem[k - db + j] = (rem[k - db + j] - f * b[j]) % p
            rem[k] = 0
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quo, rem


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


def _log_exp(q, p, n, mul):
    """(logs, exps) of the cyclic group F_q^*, q = p^n, by the product
    ``mul``.

    With g the least packed value that generates the group (found from the
    prime factors of q - 1), ``exps[k]`` is g^k for k in [0, q - 1) and
    ``logs[x]`` is the k with g^k = x (None for x = 0).  Multiplying by g
    is F_p-linear, so the antilogs step by one :func:`_linear_map` built
    from n products."""
    m = q - 1
    primes = _prime_factors(m)
    g = next(v for v in range(1, q)
             if all(_power(mul, v, m // ell) != 1 for ell in primes))
    times_g = _linear_map(p, [mul(p ** k, g) for k in range(n)])
    logs = [None] * q
    exps = []
    x = 1
    for k in range(m):
        logs[x] = k
        exps.append(x)
        x = times_g(x)
    return logs, exps


def _zech_ops(p, d, ext_ops):
    """Closures for F_p[X]/(m), m of degree d, as lookups in one table.

    The table, built by the packed product of ``ext_ops`` (the closures of
    :func:`_ext_ops`) on the first call that needs it, holds logs and
    antilogs (:func:`_log_exp`) and the Zech logarithms
    Z(k) = log(1 + g^k), None where 1 + g^k = 0.  With
    q = p^d and m = q - 1, x y = g^(log x + log y), 1/x = g^(-log x) and
    x + y = x (1 + y/x) = g^(log x + Z(log y - log x)); x - y adds
    log(-y) = log y + log(-1).  Every list index lies in [-m, m), and a
    negative one counts from the end, which is the same residue mod m.
    Returns the field closures (with the same codec) and a function giving
    (logs, exps, zech).
    """
    ext_mul, decode, encode = ext_ops[3], ext_ops[5], ext_ops[6]
    q = p ** d
    m = q - 1
    logs = exps = zech = neg_logs = None

    def build():
        nonlocal logs, exps, zech, neg_logs
        logs, exps = _log_exp(q, p, d, ext_mul)
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

    return (add, sub, neg, mul, inv, decode, encode), tables


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
    digits: the Frobenius matrix and the tower product both end here.
    """
    v = 0
    for shift in shifts:
        v = v * p + (acc >> shift & mask) % p
    return v


def _tower_product(base, f, encode):
    """The slot layout and reduction rows of the product in base[X]/(f).

    With K = base of degree e over F_p, m = deg f and a value's flat base-p
    digit i*e + j the coefficient of X^i y^j (y the root of K's modulus;
    over K = F_p, e = 1 and only J = 0 occurs), a value spreads into slot
    i*(2e - 1) + j: X-major blocks of 2e - 1 slots of ``width`` bits.  The
    product of two spread values then holds the coefficient of X^I y^J in
    slot (I, J) for I < 2m - 1, J < 2e - 1, each at most m*e*(p - 1)^2.
    Slots with I < m and J < e are already reduced and stay in place (the
    ``low`` mask); every other slot is replaced by its value times the row
    X^I y^J mod (K's modulus, f), spread the same way.  The width bounds a
    kept slot plus every row's contribution, so no slot carries into the
    next.

    The rows come from f and K's own closures (K's product and y^J), never
    from a product in base[X]/(f).  Returns (in_shifts, low, folds,
    out_shifts, mask), where folds pairs each reduced slot's bit offset
    with its row.
    """
    p, e, m = base.p, base.total_degree, len(f) - 1
    stride = 2 * e - 1
    folded = (2 * m - 1) * stride - m * e
    width = (m * e * (p - 1) ** 2 * (1 + folded * (p - 1))).bit_length()
    in_shifts = tuple(width * (i * stride + j)
                      for i in range(m) for j in range(e))
    mask = (1 << width) - 1
    low = sum(mask << shift for shift in in_shifts)
    kmul, ksub = base.mul_v, base.sub_v
    y_pows = [1]
    for _ in range(stride - 1):
        y_pows.append(kmul(y_pows[-1], p))
    x_pow = [1] + [0] * (m - 1)
    folds = []
    for i in range(2 * m - 1):
        if i:
            # X^i mod f = X * X^(i-1), with X^m = -(f_0 + ... + f_{m-1} X^(m-1))
            top = x_pow[-1]
            x_pow = [ksub(c, kmul(top, fj))
                     for c, fj in zip([0] + x_pow[:-1], f)]
        for j in range(stride):
            if i >= m or j >= e:
                row = encode([kmul(c, y_pows[j]) for c in x_pow])
                folds.append((width * (i * stride + j),
                              _spread(row, p, in_shifts)))
    return in_shifts, low, tuple(folds), in_shifts[::-1], mask


def _ext_ops(base: "FieldCtx", d, modulus_digits):
    """Closures for base[X]/(m), m monic irreducible of degree d; digits are
    packed base values.

    A product is one multiply of Kronecker-packed flat digits and an
    F_p-linear reduction by precomputed rows, built on the first product
    (see :func:`_tower_product`).  An inverse is an extended Euclid against
    m that tracks only the cofactor of x and ends at a nonzero constant,
    because m is irreducible: on plain digit lists over F_p, and over
    ``base`` on :mod:`.polys` above it."""
    decode, encode = _codec(base.order, d)
    p = base.p
    layout = None

    def mul(x, y):
        nonlocal layout
        if layout is None:
            layout = _tower_product(base, modulus_digits, encode)
        in_shifts, low, folds, out_shifts, mask = layout
        a = _spread(x, p, in_shifts)
        c = a * (a if x == y else _spread(y, p, in_shifts))
        acc = c & low
        for shift, row in folds:
            k = c >> shift & mask
            if k:
                acc += k * row
        return _gather(acc, out_shifts, mask, p)

    if base.kind == 'prime':
        def inv(x):
            if x == 0:
                raise DivisionByZero("0 is not invertible")
            r0, r1 = modulus_digits, decode(x)
            while len(r1) > 1 and r1[-1] == 0:
                r1.pop()
            t0, t1 = [0], [1]
            while True:
                if len(r1) == 1:
                    c_inv = pow(r1[0], p - 2, p)
                    return encode([c * c_inv % p for c in t1])
                quo, rem = _list_divmod_mod_p(r0, r1, p)
                r0, r1 = r1, rem
                if r1 == [0]:
                    raise ArithmeticError("modulus is not irreducible")
                prod = [0] * (len(quo) + len(t1) - 1)
                for i, qi in enumerate(quo):
                    if qi:
                        for j, tj in enumerate(t1):
                            prod[i + j] += qi * tj
                new_t = [0] * max(len(t0), len(prod))
                for i, c in enumerate(t0):
                    new_t[i] = c
                for i, c in enumerate(prod):
                    new_t[i] = (new_t[i] - c) % p
                while len(new_t) > 1 and new_t[-1] == 0:
                    new_t.pop()
                t0, t1 = t1, new_t
    else:
        from .polys import _coeffwise, _divmod_vals, _mul_vals

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
                                        _mul_vals(base, quo, t1))
            return encode(_mul_vals(base, t1, (base.inv_v(r1[0]),)))

    return (*_linear_ops(p, d * base.total_degree), mul, inv, decode, encode)


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
        '_trace', '_frob', '_zech_table', '_unit_primes',
    )

    def __init__(self, p, base=None, modulus_vals=None):
        self.p = p
        self.base = base
        self.modulus_vals = modulus_vals
        self._trace = self._frob = self._zech_table = self._unit_primes = None
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
            if self.depth == 1 and self.order <= ZECH_MAX_ORDER:
                ops, self._zech_table = _zech_ops(p, d, ops)
        (self.add_v, self.sub_v, self.neg_v, self.mul_v, self.inv_v,
         self.decode_v, self.encode_v) = ops

    # -- packed-value helpers ------------------------------------------------

    def pow_v(self, x: int, k: int) -> int:
        """x**k on packed values; k may be negative when x is invertible."""
        if k < 0:
            x = self.inv_v(x)
            k = -k
        return _power(self.mul_v, x, k) if k else 1

    # -- F_p-linear maps -------------------------------------------------------
    #
    # The flat base-p digits of a packed value are its coordinates over F_p
    # in the basis p^k, k < total_degree, at depth 1 and depth 2 alike.
    # Trace and Frobenius are F_p-linear (Lidl & Niederreiter, Finite
    # Fields, Thm 2.23), so each is fixed by its images of that basis.  Both
    # maps are built on first use, from rel_trace and pow_v, so constructing
    # a context costs nothing extra.  Up to ZECH_MAX_ORDER the trace is a
    # table of every packed value, and with a Zech table x^p is g^(p log x).

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
        with the trace vector, or up to ZECH_MAX_ORDER a q-entry table."""
        p, prime = self.p, self.prime_ctx
        vec = [rel_trace(FieldElement(self, p ** k), prime).val
               for k in range(self.total_degree)]
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


def _ctx_key(ctx: FieldCtx):
    if ctx.kind == 'prime':
        return ('p', ctx.p)
    return ('x', _ctx_key(ctx.base), ctx.modulus_vals)


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
    vals = _trim(_coerce_vals(base, modulus))
    if len(vals) < 2:
        raise NotMonic("modulus must have degree >= 1")
    if vals[-1] != 1:
        raise NotMonic("modulus must be monic")
    key = (_ctx_key(base), vals)
    ctx = _extension_cache.get(key)
    if ctx is not None:
        return ctx
    from . import polys
    mod_poly = polys.Poly(base, [FieldElement(base, v) for v in vals])
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
    result is deterministic.
    """
    base = prime_field(p)
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
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

    Sums the [field : sub] conjugates x^(|sub|^i) with plain powering.  This
    literal Frobenius sum is the reference: it builds the trace vector behind
    :func:`abs_trace`, and the ``xcheck`` oracles (``rel_trace_oracle``,
    ``minpoly_trace_check``) compare against it, so it must not use the
    precomputed trace or Frobenius maps.  The result's coefficient vector is
    checked to lie in ``sub`` (its packed value is below |sub|).
    """
    ctx = x.ctx
    m = relative_degree(ctx, sub)
    s = sub.order
    acc = t = x.val
    for _ in range(m - 1):
        t = ctx.pow_v(t, s)
        acc = ctx.add_v(acc, t)
    if acc >= s:
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
