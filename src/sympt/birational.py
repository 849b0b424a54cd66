"""Exact birational self-maps of the plane in two variables.

Maps are pairs of rational functions with integer-coefficient Laurent
polynomials for numerator and denominator; nothing is ever reduced to lowest
terms, so equality tests cross-multiply.  Symbolic composition substitutes
one map into another, cancels common factors with a polynomial gcd in
Z[x, y] (reduce_fraction: the heuristic gcd, checked by exact division, with
a primitive remainder sequence behind it) and is capped at short words; long
words are compared pointwise modulo large primes: a pass carries a
Schwartz-Zippel error bound, and a moved point is an exact disproof.  All
arithmetic is plain integer arithmetic.

The symplectic structure is the log form dx∧dy/(xy): a map (f1, f2) preserves
it exactly when x·y·det J(f1,f2) = f1·f2.  Tropicalization reads off leading
exponents along x = t^a, y = t^b as t -> 0+, where the smallest exponent
dominates, and returns the exact piecewise-linear shadow.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .plcore import (
    GEN_MATS, PLAut, from_function, is_prime, mat_inv, power, primitive)
from .words import word_inverse, word_length

# primes just above 2^61, 2^61 + 10^6, 2^62, 2^63
PRIMES = (
    2305843009213693967,
    2305843009214693957,
    4611686018427388039,
    9223372036854775837,
)

Monomial = tuple[int, int]


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in x, y (sparse dict)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        clean = {m: c for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c: int = 1) -> "LaurentPoly":
        return LaurentPoly({(i, j): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Monomial, int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, LaurentPoly.__mul__) if k else ONE

    def shift(self, i: int, j: int) -> "LaurentPoly":
        """Multiply by the monomial x^i y^j."""
        return LaurentPoly({(a + i, b + j): c for (a, b), c in self.terms.items()})

    def dx(self) -> "LaurentPoly":
        return LaurentPoly({(i - 1, j): c * i
                            for (i, j), c in self.terms.items() if i})

    def dy(self) -> "LaurentPoly":
        return LaurentPoly({(i, j - 1): c * j
                            for (i, j), c in self.terms.items() if j})

    def eval_mod(self, x: int, y: int, p: int) -> int:
        acc = 0
        for (i, j), c in self.terms.items():
            xi = pow(x, i, p) if i >= 0 else pow(pow(x, -1, p), -i, p)
            yj = pow(y, j, p) if j >= 0 else pow(pow(y, -1, p), -j, p)
            acc = (acc + c * xi * yj) % p
        return acc

    def eval_exact(self, x: Fraction, y: Fraction) -> Fraction:
        acc = Fraction(0)
        for (i, j), c in self.terms.items():
            acc += c * x ** i * y ** j
        return acc

    def support(self) -> list[Monomial]:
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            s = "" if c == 1 and (i or j) else str(c)
            if i:
                s += "x" if i == 1 else "x^%d" % i
            if j:
                s += "y" if j == 1 else "y^%d" % j
            bits.append(s or str(c))
        return " + ".join(bits)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
X = LaurentPoly.monomial(1, 0)
Y = LaurentPoly.monomial(0, 1)


class RationalFn:
    """Quotient of Laurent polynomials, never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFn is immutable")

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + RationalFn(-other.num, other.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __repr__(self):
        if self.den == ONE:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# polynomial gcd in Z[x, y]
#
# Dense recursive form: a polynomial in k variables is the list of its
# coefficients, polynomials in k - 1 variables, lowest degree first and with
# no trailing zero; in 0 variables it is an int.  Z[x, y] is Z[y][x], so the
# leading coefficient of a bivariate polynomial is that of its highest power
# of x, and its ground leading coefficient is that of the lex-largest
# monomial with x > y.

def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, k: int):
    if not k:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if k == 1:
        for i, c in enumerate(b):
            out[i] += c
    else:
        for i, c in enumerate(b):
            out[i] = _add(out[i], c, k - 1)
    return _trim(out)


def _neg(a, k: int):
    return -a if not k else [_neg(c, k - 1) for c in a]


def _mul(a, b, k: int):
    if not k:
        return a * b
    if not a or not b:
        return []
    if k == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            for j, d in enumerate(b):
                out[i + j] += c * d
        return out
    out = [[]] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = _add(out[i + j], _mul(c, d, k - 1), k - 1)
    return out


def _quo(a, b, k: int):
    """a / b when b divides a exactly; ArithmeticError otherwise."""
    if not k:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division")
        return q
    zero = 0 if k == 1 else []
    q = [zero] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        n = len(a) - len(b)
        c = _quo(a[-1], b[-1], k - 1)
        q[n] = c
        a = _add(a, [zero] * n + _mul(b, [_neg(c, k - 1)], k), k)
    if a:
        raise ArithmeticError("inexact division")
    return q


def _ints(a, k: int):
    """The integer coefficients of a."""
    if not k:
        yield a
    else:
        for c in a:
            yield from _ints(c, k - 1)


def _map(a, k: int, fn):
    """fn applied to every integer coefficient of a."""
    return fn(a) if not k else _trim([_map(c, k - 1, fn) for c in a])


def _gcd(a, b, k: int):
    """gcd in Z[x_1..x_k] with positive ground leading coefficient."""
    if not k:
        return gcd(a, b)
    g = (_heu_gcd(a, b, k) or _prs_gcd(a, b, k)) if a and b else a or b
    lead = g
    for _ in range(k):
        lead = lead[-1] if lead else 0
    return _neg(g, k) if lead < 0 else g


def _heu_gcd(a, b, k: int):
    """The heuristic gcd of Char, Geddes and Gonnet (J. Symb. Comp. 7,
    1989), or None when six evaluation points all fail.

    Evaluate the main variable at a large integer xi, take the gcd of the
    images one level down, and read its xi-adic digits back as
    coefficients.  With xi > 2 min(|a|, |b|) + 2 in the max norm, a
    primitive candidate that divides a and b exactly is the gcd.
    """
    c = gcd(*_ints(a, k), *_ints(b, k))
    a, b = (_map(f, k, lambda v: v // c) for f in (a, b))
    xi = 2 * min(max(map(abs, _ints(f, k))) for f in (a, b)) + 29
    for _ in range(6):
        fa, fb = (_at(f, xi, k) for f in (a, b))
        if fa and fb:
            h = _interpolate(_gcd(fa, fb, k - 1), xi, k)
            hc = gcd(*_ints(h, k))
            h = _map(h, k, lambda v: v // hc)
            try:
                _quo(a, h, k), _quo(b, h, k)
            except ArithmeticError:
                pass
            else:
                return _map(h, k, lambda v: v * c)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _at(a, xi: int, k: int):
    """a with its main variable set to xi, in k - 1 variables."""
    acc = 0 if k == 1 else []
    for c in reversed(a):
        acc = _add(_map(acc, k - 1, lambda v: v * xi), c, k - 1)
    return acc


def _interpolate(h, xi: int, k: int):
    """The polynomial in k variables whose value at xi is h (in k - 1
    variables), with coefficients the symmetric xi-adic digits of h's."""
    def digit(v):
        v %= xi
        return v - xi if v > xi // 2 else v

    out = []
    while h:
        d = _map(h, k - 1, digit)
        out.append(d)
        h = _map(_add(h, _neg(d, k - 1), k - 1), k - 1, lambda v: v // xi)
    return out


def _content(a, k: int):
    """gcd of the coefficients of a, with positive ground leading coefficient."""
    g = 0 if k == 1 else []
    for c in a:
        g = _gcd(g, c, k - 1)
    return g


def _prs_gcd(a, b, k: int):
    """gcd of nonzero a, b up to sign, by the primitive polynomial remainder
    sequence over the coefficient ring (W. S. Brown, JACM 18 (1971))."""
    ca, cb = _content(a, k), _content(b, k)
    a = [_quo(c, ca, k - 1) for c in a]
    b = [_quo(c, cb, k - 1) for c in b]
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b, up to a factor the content absorbs
        lb = b[-1]
        while len(a) >= len(b):
            la = _neg(a[-1], k - 1)
            a = _add(_mul(a, [lb], k),
                     [0 if k == 1 else []] * (len(a) - len(b))
                     + _mul(b, [la], k), k)
        if a:
            cr = _content(a, k)
            a = [_quo(c, cr, k - 1) for c in a]
        a, b = b, a
    return _mul(a, [_gcd(ca, cb, k - 1)], k)


def reduce_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Cancel the polynomial gcd and monomial content of num/den.

    Composition never reduces on its own; without this the unreduced
    representations grow exponentially with word length.  The gcd is taken
    in Z[x, y] after both sides are shifted to nonnegative exponents; it
    carries the gcd of the integer contents and a positive leading
    coefficient in lex order with x > y, and both quotients are exact.
    """
    if not num:
        return ZERO, ONE
    shift_n = (min(i for i, _ in num.terms), min(j for _, j in num.terms))
    shift_d = (min(i for i, _ in den.terms), min(j for _, j in den.terms))
    pn, pd = (_dense(poly, shift) for poly, shift in ((num, shift_n),
                                                      (den, shift_d)))
    g = _gcd(pn, pd, 2)
    if g != [[1]]:
        pn, pd = _quo(pn, g, 2), _quo(pd, g, 2)
    num, den = (LaurentPoly({(i, j): c for i, row in enumerate(poly)
                             for j, c in enumerate(row) if c})
                for poly in (pn, pd))
    # park the net monomial x^i y^j on the numerator
    num = num.shift(shift_n[0] - shift_d[0], shift_n[1] - shift_d[1])
    if len(den.terms) == 1:
        ((di, dj), dc) = next(iter(den.terms.items()))
        if dc in (1, -1):
            return num.shift(-di, -dj) if dc == 1 else (-num).shift(-di, -dj), ONE
    return num, den


def _dense(poly: LaurentPoly, shift: Monomial) -> list:
    """poly / x^shift[0] y^shift[1] in the dense form of Z[y][x]."""
    rows = [[] for _ in range(1 + max(i for i, _ in poly.terms) - shift[0])]
    for (i, j), c in poly.terms.items():
        row = rows[i - shift[0]]
        row.extend([0] * (j - shift[1] + 1 - len(row)))
        row[j - shift[1]] = c
    return _trim(rows)


def _subs_poly(poly: LaurentPoly, g1: RationalFn, g2: RationalFn) -> RationalFn:
    """poly(g1, g2) over the common denominator (n1 d1)^A (n2 d2)^B."""
    if not poly.terms:
        return RationalFn(ZERO)
    A = max(abs(i) for i, _ in poly.terms)
    B = max(abs(j) for _, j in poly.terms)
    num = ZERO
    for (i, j), c in poly.terms.items():
        term = LaurentPoly.const(c)
        term = term * g1.num ** (A + i) * g1.den ** (A - i)
        term = term * g2.num ** (B + j) * g2.den ** (B - j)
        num = num + term
    den = (g1.num * g1.den) ** A * (g2.num * g2.den) ** B
    return RationalFn(num, den)


class BirMap:
    """Birational map (x, y) -> (f1, f2)."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: RationalFn, f2: RationalFn):
        if not f1.num or not f2.num:
            raise ValueError("component of a birational map cannot be zero")
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    def __setattr__(self, *a):
        raise AttributeError("BirMap is immutable")

    def __eq__(self, other):
        if not isinstance(other, BirMap):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __mul__(self, other: "BirMap") -> "BirMap":
        return compose_bir(self, other)

    def apply_mod(self, point: tuple[int, int], p: int) -> tuple[int, int]:
        """Image of a point over F_p; ZeroDivisionError on the exceptional locus."""
        x, y = point
        out = []
        for f in (self.f1, self.f2):
            d = f.den.eval_mod(x, y, p)
            if d == 0:
                raise ZeroDivisionError("point on the pole locus")
            out.append(f.num.eval_mod(x, y, p) * pow(d, -1, p) % p)
        if out[0] == 0 or out[1] == 0:
            raise ZeroDivisionError("image on a coordinate axis")
        return (out[0], out[1])

    def apply_exact(self, point) -> tuple[Fraction, Fraction]:
        x, y = Fraction(point[0]), Fraction(point[1])
        out = []
        for f in (self.f1, self.f2):
            d = f.den.eval_exact(x, y)
            if d == 0:
                raise ZeroDivisionError("point on the pole locus")
            out.append(f.num.eval_exact(x, y) / d)
        if out[0] == 0 or out[1] == 0:
            raise ZeroDivisionError("image on a coordinate axis")
        return (out[0], out[1])

    def size(self) -> int:
        return sum(len(f.num.terms) + len(f.den.terms)
                   for f in (self.f1, self.f2))

    def __repr__(self):
        return "BirMap(%r, %r)" % (self.f1, self.f2)

    def to_json(self) -> dict:
        def poly(pl: LaurentPoly) -> list:
            return [[i, j, c] for (i, j), c in sorted(pl.terms.items())]

        return {"f1": {"num": poly(self.f1.num), "den": poly(self.f1.den)},
                "f2": {"num": poly(self.f2.num), "den": poly(self.f2.den)}}

    @staticmethod
    def from_json(data: dict) -> "BirMap":
        def poly(terms) -> LaurentPoly:
            return LaurentPoly({(int(i), int(j)): int(c) for i, j, c in terms})

        return BirMap(
            RationalFn(poly(data["f1"]["num"]), poly(data["f1"]["den"])),
            RationalFn(poly(data["f2"]["num"]), poly(data["f2"]["den"])))


def identity_bir() -> BirMap:
    return BirMap(RationalFn(X), RationalFn(Y))


def monomial_bir(a: int, b: int, c: int, d: int) -> BirMap:
    """(x, y) -> (x^a y^b, x^c y^d); unimodular exponent matrix required."""
    if abs(a * d - b * c) != 1:
        raise ValueError("exponent matrix must have determinant +-1")
    return BirMap(RationalFn(LaurentPoly.monomial(a, b)),
                  RationalFn(LaurentPoly.monomial(c, d)))


def parse_rational(token: str) -> Fraction:
    """The rational spelled by token, such as "3" or "-2/5".  A zero
    denominator is refused as input (ValueError naming the token), so it is
    not mistaken for a pole met on the way."""
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % token) from None


def scaling_bir(lam1: Fraction, lam2: Fraction) -> BirMap:
    """(x, y) -> (lam1 x, lam2 y) with nonzero rational constants."""
    lam1, lam2 = Fraction(lam1), Fraction(lam2)
    if lam1 == 0 or lam2 == 0:
        raise ValueError("scaling constants must be nonzero")
    return BirMap(
        RationalFn(X * LaurentPoly.const(lam1.numerator),
                   LaurentPoly.const(lam1.denominator)),
        RationalFn(Y * LaurentPoly.const(lam2.numerator),
                   LaurentPoly.const(lam2.denominator)),
    )


def generator_bir(name: str) -> BirMap:
    """P: (x,y) -> (y, (1+y)/x); C, I and U are the monomial maps of their
    plcore.GEN_MATS matrices."""
    if name == "P":
        return BirMap(RationalFn(Y), RationalFn(ONE + Y, X))
    if name == "L":  # P^-1
        return BirMap(RationalFn(ONE + X, Y), RationalFn(X))
    if name in GEN_MATS:
        return monomial_bir(*GEN_MATS[name])
    if name == "mu":  # I∘P: (x, y) -> (x/(1+y), y)
        return BirMap(RationalFn(X, ONE + Y), RationalFn(Y))
    raise ValueError("unknown generator %r" % name)


def generator_bir_inverse(name: str) -> BirMap:
    """Exact inverse of a named generator."""
    if name == "P":
        return generator_bir("L")
    if name == "L":
        return generator_bir("P")
    if name in GEN_MATS:
        return monomial_bir(*mat_inv(GEN_MATS[name]))
    if name == "mu":
        return BirMap(RationalFn(X * (ONE + Y)), RationalFn(Y))
    raise ValueError("unknown generator %r" % name)


def compose_bir(f: BirMap, g: BirMap) -> BirMap:
    """f after g, by substitution; the result is reduced to lowest terms."""
    parts = []
    for comp in (f.f1, f.f2):
        n = _subs_poly(comp.num, g.f1, g.f2)
        d = _subs_poly(comp.den, g.f1, g.f2)
        parts.append(RationalFn(*reduce_fraction(n.num * d.den, n.den * d.num)))
    return BirMap(parts[0], parts[1])


def is_symplectic(f: BirMap) -> bool:
    """Does f preserve dx∧dy/(xy)?  Exact: checks x y det J = f1 f2."""
    f1, f2 = f.f1, f.f2
    d1, d2 = f1.den, f2.den

    def partial(num, den, ddx):
        if ddx:
            n, d = num.dx() * den - num * den.dx(), den * den
        else:
            n, d = num.dy() * den - num * den.dy(), den * den
        if not n:
            return RationalFn(ZERO)
        return RationalFn(*reduce_fraction(n, d))

    f1x = partial(f1.num, d1, True)
    f1y = partial(f1.num, d1, False)
    f2x = partial(f2.num, d2, True)
    f2y = partial(f2.num, d2, False)
    det = f1x * f2y - f1y * f2x
    lhs = RationalFn(X * Y) * det
    return lhs == f1 * f2


# ---------------------------------------------------------------------------
# randomized word equality

def _apply_word_mod(word, point, p):
    """Apply a core word to a point mod p, rightmost factor first.

    point holds two nonzero residues mod p.  The point is carried as
    (a, b, d) with x = a/d and y = b/d, so a letter costs a few products
    and a call makes one inversion, at the end.  The letters, as maps and
    on (a, b, d):

        P     (y, (1 + y)/x)   (ab, d(d + b), ad)
        P^-1  ((1 + x)/y, x)   (d(d + a), ab, bd)
        C     (y/x, 1/x)       (b, d, a)
        C^-1  (1/y, x/y)       (d, a, b)
        I     (1/y, x)         (d^2, ab, bd)
        I^-1  (y, 1/x)         (ab, d^2, ad)

    ZeroDivisionError is raised at exactly the points where applying
    BirMap.apply_mod letter by letter raises.  By induction a, b and d
    stay nonzero: each new entry is a product of nonzero ones, save d + b
    and d + a, which are checked.  So x and y stay nonzero.  On such a
    point the monomial letters have no denominator and nonzero images, so
    apply_mod never raises there.  P has denominators 1 and x and images
    y and (1 + y)/x, so it raises iff y = -1, i.e. d + b = 0; P^-1 has
    denominators y and 1 and images (1 + x)/y and x, so it raises iff
    x = -1, i.e. d + a = 0.  With d nonzero the final inversion cannot
    fail, and the image is (a/d, b/d), as apply_mod computes it.
    """
    a, b = point
    d = 1
    for sym, exp in reversed(word):
        n = exp if exp > 0 else -exp
        if sym == "P":
            if exp > 0:
                for _ in range(n):
                    s = (d + b) % p
                    if not s:
                        raise ZeroDivisionError("image on a coordinate axis")
                    a, b, d = a * b % p, d * s % p, a * d % p
            else:
                for _ in range(n):
                    s = (d + a) % p
                    if not s:
                        raise ZeroDivisionError("image on a coordinate axis")
                    a, b, d = d * s % p, a * b % p, b * d % p
        elif sym == "C":
            for _ in range(n):
                a, b, d = (b, d, a) if exp > 0 else (d, a, b)
        elif sym == "I":
            for _ in range(n):
                if exp > 0:
                    a, b, d = d * d % p, a * b % p, b * d % p
                else:
                    a, b, d = a * b % p, d * d % p, a * d % p
        else:
            raise ValueError("letter %r is not in the core alphabet P, C, I"
                             % (sym,))
    inv = pow(d, -1, p)
    return (a * inv % p, b * inv % p)


# A prime is checked once per process, by the bounded memo; the built-in
# ones and a few given with --prime fit in it.
_is_prime = lru_cache(maxsize=32)(is_prime)


def _sample_images(word, primes, per_prime: int, rng: random.Random):
    """Yield (p, point, image) for per_prime points over each prime, drawn
    from [2, p-2]^2 off the pole locus; ValueError before any draw if a
    letter of the word is not P, C or I or a modulus is not prime,
    RuntimeError after 100 draws per point on one prime."""
    for sym, _ in word:
        if sym not in ("P", "C", "I"):
            raise ValueError("letter %r is not in the core alphabet P, C, I; "
                             "expand the word first" % (sym,))
    for p in primes:
        # the Schwartz-Zippel bound holds over a field only
        if not _is_prime(p):
            raise ValueError("p=%d is not prime" % p)
    for p in primes:
        done = 0
        attempts = 0
        while done < per_prime:
            attempts += 1
            if attempts > 100 * per_prime:
                raise RuntimeError("could not sample off the pole locus")
            point = (rng.randrange(2, p - 1), rng.randrange(2, p - 1))
            try:
                image = _apply_word_mod(word, point, p)
            except ZeroDivisionError:
                continue
            done += 1
            yield p, point, image


def word_equals_identity(word, primes=None, trials: int = 20,
                         seed: int = 0) -> dict:
    """Probabilistic identity test for a word over {P, C, I}.

    Samples points over each prime field and compares the word's action with
    the identity.  Returns the verdict with the evidence needed to replay it:
    primes, per-prime sample counts, and, for a pass, the Schwartz-Zippel
    bound on the probability that a nonidentity word passed every sample.

    A failing verdict is exact and carries no bound.  P, C, I and their
    inverses have integer coefficients (P^-1 = ((1 + x)/y, x)), so a word
    that is the identity over Q reduces to the identity over every F_p.  A
    sample point that moves, with every letter regular along the way,
    therefore proves that the word is not 1.  Only a pass needs the bound,
    so only a pass of a word too long for one at 2^61 primes is refused,
    with a ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    primes = tuple(primes or PRIMES[:2])
    for p in primes:
        if p <= 2 ** 61:
            raise ValueError("prime %d is not above 2^61" % p)
    length = word_length(word)
    samples = 0
    mismatch = None
    for p, point, image in _sample_images(word, primes, trials,
                                          random.Random(seed)):
        samples += 1
        if image != point and mismatch is None:
            mismatch = {"prime": p, "point": list(point),
                        "image": list(image)}
    evidence = {
        "primes": list(primes),
        "trials_per_prime": trials,
        "samples": samples,
        "word_length": length,
    }
    if mismatch:
        evidence["mismatch"] = mismatch
        evidence["exact"] = True
    else:
        # deg(components) <= 2^(length+1); each sample misleads with
        # probability <= deg/(p-1) <= 2^(length+1-61)
        exponent_per_sample = 61 - (length + 1)
        if exponent_per_sample <= 0:
            raise ValueError(
                "word too long for a meaningful bound at 2^61 primes")
        evidence["error_bound"] = "2^-%d" % (exponent_per_sample * samples)
    return {"equal": mismatch is None, "evidence": evidence}


def word_equals(word_a, word_b, primes=None, trials: int = 20,
                seed: int = 0) -> dict:
    """Randomized equality of two core words: tests a b^-1 = identity."""
    return word_equals_identity(tuple(word_a) + word_inverse(tuple(word_b)),
                                primes, trials, seed)


# ---------------------------------------------------------------------------
# orbits and probes

def orbit_exact(f: BirMap, start, steps: int) -> list:
    """Exact rational orbit start, f(start), ..., f^steps(start)."""
    pts = [(Fraction(start[0]), Fraction(start[1]))]
    for _ in range(steps):
        pts.append(f.apply_exact(pts[-1]))
    return pts


def kernel_probe(word, npoints: int = 100, primes=None, seed: int = 0) -> dict:
    """Evaluate a word at many points over several primes.

    Reports whether the word acted as the identity on every sampled point;
    the verdict is experimental data about the candidate kernel element,
    never an assertion about the group.  Raises RuntimeError when the points
    cannot be drawn off the pole locus.
    """
    if npoints < 1:
        raise ValueError("npoints must be at least 1, got %d" % npoints)
    primes = tuple(primes or PRIMES[:3])
    per = -(-npoints // len(primes))  # ceil
    agree = 0
    disagree = 0
    first = None
    for p, point, image in _sample_images(word, primes, per,
                                          random.Random(seed)):
        if image == point:
            agree += 1
        else:
            disagree += 1
            if first is None:
                first = {"prime": p, "point": list(point),
                         "image": list(image)}
    verdict = "identity" if disagree == 0 else "nonidentity"
    if agree and disagree:
        verdict = "inconsistent"
    out = {
        "verdict": verdict,
        "points_identity": agree,
        "points_moved": disagree,
        "primes": list(primes),
    }
    if first:
        out["witness"] = first
    return out


# ---------------------------------------------------------------------------
# tropicalization

def _edge_normals(poly: LaurentPoly):
    """Directions along which two support monomials tie for the minimum."""
    rays = set()
    pts = poly.support()
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            di = pts[b][0] - pts[a][0]
            dj = pts[b][1] - pts[a][1]
            if di == 0 and dj == 0:
                continue
            g = gcd(di, dj)
            rays.add((dj // g, -di // g))
            rays.add((-dj // g, di // g))
    return rays


def _trop_exponent(poly: LaurentPoly, v) -> int:
    # as t -> 0+, the monomial with the smallest exponent dominates
    return min(i * v[0] + j * v[1] for i, j in poly.terms)


def tropicalize(f: BirMap) -> PLAut:
    """Exact piecewise-linear shadow of f along x = t^a, y = t^b, t -> 0+.

    Raises ValueError if the shadow is not an integral piecewise-linear
    automorphism (non-unimodular piece or hidden breakpoint).
    """
    polys = (f.f1.num, f.f1.den, f.f2.num, f.f2.den)

    def shadow(v):
        return (_trop_exponent(polys[0], v) - _trop_exponent(polys[1], v),
                _trop_exponent(polys[2], v) - _trop_exponent(polys[3], v))

    hints = set()
    for poly in polys:
        hints |= _edge_normals(poly)
    return from_function(shadow, [primitive(r) for r in hints])
