"""Exact birational self-maps of the plane in two variables.

Maps are pairs of rational functions with integer-coefficient Laurent
polynomials for numerator and denominator; a RationalFn is never reduced on
its own, so equality tests cross-multiply.  Symbolic composition multiplies
a word one letter at a time (compose_letters), substituting each letter into
the product so far, each component over one denominator.  A letter can
create only a few common factors in a product that was in lowest terms:
integer content, powers of 1 + x or 1 + y, and monomials; reduce_fraction
cancels exactly those, with no polynomial gcd.  Composition is capped at
short words; long words are compared pointwise modulo large primes: a pass
carries a Schwartz-Zippel error bound, and a moved point is an exact
disproof.  All arithmetic is plain integer arithmetic.

The symplectic structure is the log form dx∧dy/(xy): a map (f1, f2) preserves
it exactly when x·y·det J(f1,f2) = f1·f2.  Tropicalization reads off leading
exponents along x = t^a, y = t^b as t -> 0+, where the smallest exponent
dominates, from the corners and edge normals of the four Newton polygons,
and returns the exact piecewise-linear shadow.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .plcore import (
    GEN_MATS, Frozen, PLAut, _json_ints, _json_list, _json_object,
    from_function, is_prime, mat_inv, power, wedge)
from .words import word_inverse, word_length

# primes just above 2^61, 2^61 + 10^6, 2^62, 2^63
PRIMES = (
    2305843009213693967,
    2305843009214693957,
    4611686018427388039,
    9223372036854775837,
)

# the longest product that the CLI composes symbolically, in core letters
# (eval --backend bir) or factors (trop); a longer one is refused
COMPOSE_CAP = 8

Monomial = tuple[int, int]


class LaurentPoly(Frozen):
    """Integer-coefficient Laurent polynomial in x, y (sparse dict)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self._init({m: c for m, c in (terms or {}).items() if c})

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c: int = 1) -> "LaurentPoly":
        return LaurentPoly({(i, j): c})

    def __bool__(self):
        return bool(self.terms)

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


class RationalFn(Frozen):
    """Quotient of Laurent polynomials, never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        self._init(num, den)

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equal fractions need not be reduced alike, and reducing an arbitrary
    # one to hash it needs a polynomial gcd, so there is no cheap canonical
    # hash
    __hash__ = None

    def __repr__(self):
        if self.den == ONE:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# reduction to lowest terms

def reduce_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Cancel from num/den their integer content, their common powers of
    1 + x and of 1 + y, and their monomial content.

    Composition never reduces on its own; without this the unreduced
    representations grow exponentially with word length.  The cancelled
    factors have positive leading coefficients, and the net monomial is
    parked on the numerator, so that den has lowest exponents 0.  The sign
    makes the coefficient of den's least exponent pair positive, so a
    denominator left at +-1 becomes 1.

    That is the whole gcd in Z[x^+-1, y^+-1] when num/den is a component of
    compose_bir(f, g) with f in lowest terms and g one letter: P or P^-1, a
    monomial map or a torus scaling.  Write A for that ring, a UFD whose
    units are the signed monomials, and n/d for the component of f.
    compose_bir returns num = n(g) M and den = d(g) M, where M, which
    clears the denominators of g, is a product of powers of monomials, and
    of 1 + y for P, of 1 + x for P^-1 and of integers for a scaling.
    - P: the substitution h -> h(y, (1 + y)/x) is a ring isomorphism from
      A[1/(1+x)] onto A[1/(1+y)], whose inverse substitutes P^-1 =
      ((1 + x)/y, x).  Coprime n and d stay coprime in the localization
      A[1/(1+x)], so n(g) and d(g) are coprime in A[1/(1+y)], where M is a
      unit.  A common factor of num and den in A is then a unit of
      A[1/(1+y)]: a signed monomial times a power of the prime 1 + y.
    - P^-1: the same with x and y exchanged.
    - a monomial map: the substitution is an automorphism of A itself, and
      M is a monomial, so only a monomial is shared.
    - a scaling: the substitution is an automorphism of Q[x^+-1, y^+-1],
      where n and d stay coprime (Gauss's lemma), so only a monomial times
      an integer is shared.
    For any other input the result is correct but may be unreduced.
    """
    if not num:
        return ZERO, ONE
    g = 0
    for c in (*num.terms.values(), *den.terms.values()):
        g = gcd(g, c)
    if g > 1:
        num, den = (LaurentPoly({m: c // g for m, c in poly.terms.items()})
                    for poly in (num, den))
    for axis in (0, 1):
        while (qn := _over_one_plus(num, axis)) and \
                (qd := _over_one_plus(den, axis)):
            num, den = qn, qd
    di, dj = min(i for i, _ in den.terms), min(j for _, j in den.terms)
    num, den = num.shift(-di, -dj), den.shift(-di, -dj)
    if den.terms[min(den.terms)] < 0:
        num, den = -num, -den
    return num, den


def _over_one_plus(poly: LaurentPoly, axis: int) -> LaurentPoly | None:
    """poly / (1 + x) for axis 0, poly / (1 + y) for axis 1, or None when
    the division is not exact.  Along the axis each line of poly is divided
    on its own, from its lowest power up."""
    lines: dict[int, dict[int, int]] = {}
    for m, c in poly.terms.items():
        lines.setdefault(m[1 - axis], {})[m[axis]] = c
    out = {}
    for k, line in lines.items():
        q = 0
        top = max(line)
        for e in range(min(line), top):
            q = line.get(e, 0) - q
            out[(e, k) if axis == 0 else (k, e)] = q
        if q != line[top]:
            return None
    return LaurentPoly(out)


class BirMap(Frozen):
    """Birational map (x, y) -> (f1, f2)."""

    __slots__ = ("f1", "f2")

    # its components are RationalFn, which compare by cross-multiplying
    __hash__ = None

    def __init__(self, f1: RationalFn, f2: RationalFn):
        if not f1.num or not f2.num:
            raise ValueError("component of a birational map cannot be zero")
        self._init(f1, f2)

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
        # the maps act on the torus, off the axes, where every Laurent
        # monomial has a value
        if x == 0 or y == 0:
            raise ZeroDivisionError("point on a coordinate axis")
        out = []
        for f in (self.f1, self.f2):
            d = f.den.eval_exact(x, y)
            if d == 0:
                raise ZeroDivisionError("point on the pole locus")
            out.append(f.num.eval_exact(x, y) / d)
        if out[0] == 0 or out[1] == 0:
            raise ZeroDivisionError("image on a coordinate axis")
        return (out[0], out[1])

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
            rows = [_json_ints(t, "polynomial term", 3)
                    for t in _json_list(terms, "polynomial", of="terms")]
            coeffs = {(i, j): c for i, j, c in rows}
            if len(coeffs) < len(rows):
                raise ValueError("polynomial repeats an exponent pair, got %r"
                                 % (terms,))
            return LaurentPoly(coeffs)

        def fraction(part) -> RationalFn:
            return RationalFn(*map(poly, _json_object(
                part, "rational function", ("num", "den"))))

        return BirMap(*map(fraction, _json_object(data, "BirMap",
                                                  ("f1", "f2"))))


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
    """f after g, by substitution, each component through reduce_fraction.

    For g = (a1/b1, a2/b2) and a component n/d of f whose exponents, n's
    and d's together, span [lo0, hi0] x [lo1, hi1], n(g) and d(g) are both
    multiplied by a1^-lo0 b1^hi0 a2^-lo1 b2^hi1, so that x^i y^j becomes
    a1^(i - lo0) b1^(hi0 - i) a2^(j - lo1) b2^(hi1 - j); each power of a1,
    b1, a2 and b2 is formed once per call.  The result is in lowest terms
    when f is and g is one letter: P, P^-1, a monomial map or a torus
    scaling.  Otherwise it is correct but may be unreduced.
    """
    gens = (g.f1.num, g.f1.den, g.f2.num, g.f2.den)
    power_of = lru_cache(maxsize=None)(lambda k, e: gens[k] ** e)
    # a1^e b1^h for k = 0, a2^e b2^h for k = 1
    factor = lru_cache(maxsize=None)(
        lambda k, e, h: power_of(2 * k, e) * power_of(2 * k + 1, h))

    def image(poly, lo0, hi0, lo1, hi1):
        out = {}
        for (i, j), c in poly.terms.items():
            term = factor(0, i - lo0, hi0 - i) * factor(1, j - lo1, hi1 - j)
            for m, v in term.terms.items():
                out[m] = out.get(m, 0) + c * v
        return LaurentPoly(out)

    parts = []
    for comp in (f.f1, f.f2):
        box = [e(col) for col in zip(*comp.num.terms, *comp.den.terms)
               for e in (min, max)]
        parts.append(RationalFn(*reduce_fraction(
            image(comp.num, *box), image(comp.den, *box))))
    return BirMap(*parts)


def word_letters(word) -> list:
    """The maps of the letters of a word over generator names, each factor
    s^e as |e| copies of s or of its inverse, leftmost first."""
    return [(generator_bir if e > 0 else generator_bir_inverse)(s)
            for s, e in word for _ in range(abs(e))]


def compose_letters(letters: list) -> BirMap:
    """The product of a list of letters, leftmost first, or the identity
    for none.  It folds from the leftmost letter, keeping the product on the
    left, acc <- compose_bir(acc, letter), so that every product is in
    lowest terms."""
    if not letters:
        return identity_bir()
    acc = letters[0]
    for g in letters[1:]:
        acc = compose_bir(acc, g)
    return acc


def is_symplectic(f: BirMap) -> bool:
    """Does f preserve dx∧dy/(xy)?  Exact: f does when x y det J = f1 f2.

    With fi = ni / di the quotient rule gives the partials of f1 as a / d1^2
    and b / d1^2, a = n1_x d1 - n1 d1_x and b = n1_y d1 - n1 d1_y, and those
    of f2 as c / d2^2 and e / d2^2 likewise.  So det J = (a e - b c) /
    (d1 d2)^2, and clearing the nonzero (d1 d2)^2 leaves one identity of
    Laurent polynomials, x y (a e - b c) = n1 n2 d1 d2: no division, no gcd.
    """
    (n1, d1), (n2, d2) = (f.f1.num, f.f1.den), (f.f2.num, f.f2.den)
    a = n1.dx() * d1 - n1 * d1.dx()
    b = n1.dy() * d1 - n1 * d1.dy()
    c = n2.dx() * d2 - n2 * d2.dx()
    e = n2.dy() * d2 - n2 * d2.dy()
    return (a * e - b * c).shift(1, 1) == n1 * n2 * d1 * d2


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
        else:  # I
            for _ in range(n):
                if exp > 0:
                    a, b, d = d * d % p, a * b % p, b * d % p
                else:
                    a, b, d = a * b % p, d * d % p, a * d % p
    inv = pow(d, -1, p)
    return (a * inv % p, b * inv % p)


# A prime is checked once per process, by the bounded memo; the built-in
# ones and a few given with --prime fit in it.
_is_prime = lru_cache(maxsize=32)(is_prime)


def _sample_moved(word, primes, per_prime: int, seed: int):
    """(samples, moved, witness) for per_prime points over each prime,
    drawn from [2, p-2]^2 off the pole locus: how many, how many the word
    moved, and the first moved one, or None.  ValueError before any draw if
    a letter of the word is not P, C or I or a modulus is not prime,
    RuntimeError after 100 draws per point on one prime."""
    for sym, _ in word:
        if sym not in ("P", "C", "I"):
            raise ValueError("letter %r is not in the core alphabet P, C, I; "
                             "expand the word first" % (sym,))
    for p in primes:
        # the Schwartz-Zippel bound holds over a field only
        if not _is_prime(p):
            raise ValueError("p=%d is not prime" % p)
    rng = random.Random(seed)
    moved = 0
    witness = None
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
            if image != point:
                moved += 1
                if witness is None:
                    witness = {"prime": p, "point": list(point),
                               "image": list(image)}
    return per_prime * len(primes), moved, witness


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
    samples, _, mismatch = _sample_moved(word, primes, trials, seed)
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

    Reports whether the word acted as the identity on every sampled point.
    One moved point disproves it exactly, as in word_equals_identity; a
    pass is experimental data about the candidate kernel element, never an
    assertion about the group.  Raises RuntimeError when the points
    cannot be drawn off the pole locus.
    """
    if npoints < 1:
        raise ValueError("npoints must be at least 1, got %d" % npoints)
    primes = tuple(primes or PRIMES[:3])
    per = -(-npoints // len(primes))  # ceil
    samples, moved, witness = _sample_moved(word, primes, per, seed)
    out = {
        "verdict": "nonidentity" if moved else "identity",
        "points_identity": samples - moved,
        "points_moved": moved,
        "primes": list(primes),
    }
    if witness:
        out["witness"] = witness
        out["exact"] = True
    return out


# ---------------------------------------------------------------------------
# tropicalization

def newton_polygon(poly: LaurentPoly) -> list[Monomial]:
    """The corners of the convex hull of poly's exponents, counterclockwise
    from the least, by Andrew's monotone chain: the lower and the upper
    chain drop each point where they do not turn counterclockwise."""
    pts = sorted(poly.terms)
    if len(pts) < 3:
        return pts
    hull = []
    for run in (pts, pts[::-1]):
        chain = []
        for q in run:
            while len(chain) > 1 and wedge(
                    (chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1]),
                    (q[0] - chain[-1][0], q[1] - chain[-1][1])) <= 0:
                chain.pop()
            chain.append(q)
        hull += chain[:-1]
    return hull


def tropicalize(f: BirMap) -> PLAut:
    """Exact piecewise-linear shadow of f along x = t^a, y = t^b, t -> 0+.

    A Laurent polynomial is then dominated by its terms of least exponent
    a i + b j, among which is a corner of its Newton polygon, so each of the
    four shadows is a minimum over corners, linear on each cone of the
    polygon's normal fan.  Its rays are edge normals, so the edge normals
    of both signs of the four polygons bound cones where f's shadow is linear.

    Raises ValueError if the shadow is not an integral piecewise-linear
    automorphism (non-unimodular piece or hidden breakpoint).
    """
    corners = [newton_polygon(poly)
               for poly in (f.f1.num, f.f1.den, f.f2.num, f.f2.den)]

    def shadow(v):
        low = [min(i * v[0] + j * v[1] for i, j in pts) for pts in corners]
        return (low[0] - low[1], low[2] - low[3])

    return from_function(shadow, [
        (s * (j1 - j0), s * (i0 - i1)) for pts in corners if len(pts) > 1
        for (i0, j0), (i1, j1) in zip(pts, pts[1:] + pts[:1])
        for s in (1, -1)])
