"""Linear representation of the group on a Picard-type lattice.

The lattice is spanned by several families of symbols:

* ``plpart(F)``: an integer piecewise-linear function on the plane, taken
  modulo globally linear functions, held as one integral covector per cone
  of a fan.  Its index of non-linearity d(F, a) at a primitive ray a is the
  c with L_after - L_before = c (a ^ .) (derived at BreakFn), and indexes
  define a pairing with finitely supported functions on rays.
* ``delta(s, k)``: an infinite tower of classes over each primitive ray s,
  with a self-product of -1 and orthogonal to everything else.  The group
  acts on plpart + delta by the five L-rules, with correction terms mixing
  the two families.
* ``b(a)`` and ``e(a, k)``: the index encoding of plpart classes and the
  differences of consecutive tower levels; mutation acts by eight rules.
* ``p(w)``: a change of basis indexed by all nonzero lattice vectors,
  with p of a multiple kv expanding into e-levels and b.
* the W[q] model: e symbols with Z[q] coefficients, carrying the canonical
  mutation action, a wedge form, and the invariant subspace V (vectors
  whose Z[q]-weighted index sum vanishes).

Coefficients are polynomials in q; the commutative picture is q = 1.

Word action: a word in P, C, I acts on W[q] vectors only (PicOperator
refuses any other family with a ValueError).  C and I relabel the e
symbols by a matrix, and P^(+-1) is the canonical mutation or its inverse
next to I^(-+1), so the word is compiled once into mutation steps, each
preceded by one fused relabel matrix.  One loop, _run, runs such steps on
plain dicts {(x, y, level): (coefficient, bound)}, one per power of q,
for the operator, the sampled identity test and the three mutations, each
of which is a one-step program; a PicVec is built only at the boundary,
where its keys are validated.  On V with integer coefficients no step
carries (the carry lemma at _mutate, by which _run computes carries), so
the sampled identity test packs all its vectors into one such dict, the
coefficient of vector r being digit r of one integer in base 2^w, and
refuses an image outside V.

Sign convention: the mutation rule on e_(x,y) with y < 0 carries the
coefficient -q*y.  That sign is forced by exactness: it is the unique
choice under which V is invariant and the wedge form is preserved
exactly in Z[q], and at q = 1 it coincides with the p-basis action.
The b/e and the p rules agree on the kernel of pi: b_a, p_w -> a, w,
where be_encode lands, and differ by -wedge(w, v) b_(-v) on one p_w (see
mu_be_action); cross_basis_report shows that difference with witnesses.
"""

import functools
import random
from collections import namedtuple
from math import gcd
from types import MappingProxyType

from .plcore import (
    AXES,
    GEN_MATS,
    MAT_ID,
    Fan,
    Frozen,
    Mat,
    PLAut,
    Vec,
    _json_int,
    _json_ints,
    _json_list,
    _json_object,
    ccw_key,
    cone_covector,
    cone_index,
    generator_pl,
    linear_pl,
    mat_apply,
    mat_inv,
    mat_mul,
    primitive,
    vec_add,
    wedge,
)

__all__ = [
    "QPoly",
    "BreakFn",
    "PicVec",
    "ample_A",
    "zero_breakfn",
    "compose_breakfn",
    "index",
    "pairing",
    "is_ample",
    "is_effective",
    "b_vec",
    "e_vec",
    "delta_vec",
    "p_vec",
    "chain_vec",
    "plpart_vec",
    "delta_L_action",
    "pic_product",
    "f_prime",
    "be_encode",
    "sigma_v",
    "mu_be_action",
    "p_basis",
    "p_expand",
    "mu_p_action",
    "mu_p_vector",
    "gamma_action",
    "mu_Wq_action",
    "mu_Wq_inverse",
    "mu_Wq_at",
    "v_membership",
    "wedge_form",
    "random_v_vector",
    "word_operator",
    "word_acts_as_identity",
    "cross_basis_report",
]


# ---------------------------------------------------------------------------
# polynomials in q

def _add_scaled(acc: list, n: int, c: tuple, shift: int) -> None:
    """acc += n q^shift c, on ascending coefficient lists."""
    grow = len(c) + shift - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    for i, ci in enumerate(c, shift):
        acc[i] += n * ci


class QPoly(Frozen):
    """Polynomial in q with integer coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self._init(coeffs)

    @staticmethod
    def const(n) -> "QPoly":
        return QPoly((int(n),))

    @staticmethod
    def lift(x) -> "QPoly":
        if isinstance(x, QPoly):
            return x
        return QPoly.const(x)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant, zero included, equals its int and so hashes like it
        c = self.coeffs
        return hash(c if len(c) > 1 else sum(c))

    def __add__(self, other):
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        acc = list(self.coeffs)
        _add_scaled(acc, 1, QPoly.lift(other).coeffs, 0)
        return QPoly(acc)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        return self + (-QPoly.lift(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        return QPoly.lift(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        acc = []
        for i, a in enumerate(QPoly.lift(other).coeffs):
            _add_scaled(acc, a, self.coeffs, i)
        return QPoly(acc)

    __rmul__ = __mul__

    def at_one(self) -> int:
        return sum(self.coeffs)

    def constant_value(self) -> int:
        """Integer value of a constant polynomial; error otherwise."""
        if len(self.coeffs) > 1:
            raise ValueError("coefficient %r is not constant in q" % (self,))
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%d*q" % c if c not in (1, -1) else ("q" if c == 1 else "-q"))
            else:
                parts.append("%d*q^%d" % (c, i) if c not in (1, -1)
                             else ("q^%d" % i if c == 1 else "-q^%d" % i))
        return " + ".join(parts).replace("+ -", "- ")


Q_ZERO = QPoly()
Q_ONE = QPoly((1,))


# ---------------------------------------------------------------------------
# piecewise-linear functions modulo linear functions

def _content_and_primitive(v: Vec):
    k = gcd(v[0], v[1])
    return k, (v[0] // k, v[1] // k)


def egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _jump(a: Vec, before, after) -> int:
    """The c with after - before = c (a ^ .), for covectors equal at a."""
    if a[0]:
        return (after[1] - before[1]) // a[0]
    return (before[0] - after[0]) // a[1]


class BreakFn(Frozen):
    """Integer PL function on the plane, canonical modulo linear functions.

    Built from a complete fan and one integer value per ray, and held as
    the rays and one integral covector per cone (plcore.cone_covector),
    normalized to vanish at (1,0) and (0,1).  The index at a primitive ray
    a is the jump there: the covector L_a after a less the one L_b before
    it vanishes at a, so it is c (a ^ .) for an integer c.  For u in the
    cone before a and w in the one after, with u ^ a = a ^ w = 1 and
    u + w = k a, F(u) + F(w) - k F(a) = -(L_a - L_b)(u) = c (u ^ a) = c.
    Equality and hashing use the set of nonzero indexes, which determines
    the function up to a linear summand.
    """

    __slots__ = ("_rays", "_covs", "_key")

    def __init__(self, rays, values):
        rays = [tuple(r) for r in rays]
        values = [int(x) for x in values]
        if len(rays) != len(values):
            raise ValueError("need one value per ray")
        pairs = sorted(zip(rays, values), key=lambda p: ccw_key(p[0]))
        rays = tuple(r for r, _ in pairs)
        Fan(rays)  # raises unless the rays form a complete fan
        covs = []
        for i, (a, fa) in enumerate(pairs):
            b, fb = pairs[(i + 1) % len(pairs)]
            L = cone_covector(a, b, fa, fb)
            if L is None:
                raise ValueError(
                    "function is not integer-valued on cone %r,%r" % (a, b))
            covs.append(L)
        # normalize away the linear part
        x = covs[cone_index(rays, (1, 0))][0]
        y = covs[cone_index(rays, (0, 1))][1]
        covs = tuple((l0 - x, l1 - y) for l0, l1 in covs)
        key = frozenset((a, c) for j, a in enumerate(rays)
                        if (c := _jump(a, covs[j - 1], covs[j])))
        self._init(rays, covs, key)

    def __reduce__(self):
        return BreakFn, (self._rays, self._values())

    def _values(self) -> list:
        return [L[0] * r[0] + L[1] * r[1]
                for L, r in zip(self._covs, self._rays)]

    def __call__(self, v) -> int:
        v = tuple(v)
        if v == (0, 0):
            return 0
        L = self._covs[cone_index(self._rays, v)]
        return L[0] * v[0] + L[1] * v[1]

    @property
    def break_rays(self):
        """Rays with nonzero index, counterclockwise."""
        idx = self.indexes()
        return tuple(r for r in self._rays if r in idx)

    def indexes(self) -> dict:
        return {a: d for a, d in self._key}

    def is_linear(self) -> bool:
        return not self._key

    def __eq__(self, other):
        if not isinstance(other, BreakFn):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __add__(self, other):
        if not isinstance(other, BreakFn):
            return NotImplemented
        rays = sorted(set(self._rays) | set(other._rays))
        return BreakFn(rays, [self(r) + other(r) for r in rays])

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = int(c)
        return BreakFn(self._rays, [c * x for x in self._values()])

    def __repr__(self):
        if self.is_linear():
            return "BreakFn(0)"
        return "BreakFn(%s)" % ", ".join(
            "%r:%d" % (r, d) for r, d in sorted(self._key))

    def to_json(self):
        return {"rays": [list(r) for r in self._rays],
                "values": self._values()}

    @staticmethod
    def from_json(data) -> "BreakFn":
        rays, values = _json_object(data, "BreakFn", ("rays", "values"))
        return BreakFn([tuple(_json_ints(r, "ray", 2))
                        for r in _json_list(rays, "rays", of="rays")],
                       _json_ints(values, "values"))


def zero_breakfn() -> BreakFn:
    return BreakFn(AXES, (0, 0, 0, 0))


def ample_A() -> BreakFn:
    """The function max(0, -y); not linear only at (1,0) and (-1,0)."""
    return BreakFn(AXES, (0, 0, 0, 1))


def compose_breakfn(F: BreakFn, g: PLAut) -> BreakFn:
    """The function v -> F(g(v))."""
    ginv = ~g
    rays = set(g.rays) | set(AXES)
    rays.update(ginv(r) for r in F.break_rays)
    rays = sorted(rays)
    return BreakFn(rays, [F(g(r)) for r in rays])


def index(F: BreakFn, a: Vec, shift: int = 0) -> int:
    """Index of non-linearity d(F, a) at a primitive ray.

    At shift 0 it is read off the jumps of F's covectors (see BreakFn).
    Otherwise it is F(u) + F(w) - k F(a), where u + w = k a, for the
    companions of a (see _companions) moved by shift*a; a shift >= 0 keeps
    them in their cones, so the result does not depend on it.  A negative
    shift can move them out, and is refused.
    """
    a = tuple(a)
    if primitive(a) != a:
        raise ValueError("index is defined at primitive rays only")
    if shift < 0:
        raise ValueError("shift must be at least 0, got %d" % shift)
    if shift == 0:
        return F.indexes().get(a, 0)
    u, w = _companions(F, a)
    u = (u[0] + shift * a[0], u[1] + shift * a[1])
    w = (w[0] + shift * a[0], w[1] + shift * a[1])
    s = vec_add(u, w)
    k = s[0] // a[0] if a[0] else s[1] // a[1]
    return F(u) + F(w) - k * F(a)


def _companions(F: BreakFn, a: Vec):
    """u, w with u ^ a = a ^ w = 1 in the cones of F just before and just
    after a.  With u0 = (t, -s) from s a_x + t a_y = 1, u = u0 + m a and
    w = n a - u0 for the least m with p ^ u >= 0 and the least n with
    w ^ q >= 0, where p and q are the far rays of those cones.
    """
    rays = F._rays
    i = cone_index(rays, a)
    # the cone before a is cone i - 1 if a is ray i, else cone i itself
    p, q = rays[i - (rays[i] == a)], rays[(i + 1) % len(rays)]
    _, s, t = egcd(a[0], a[1])
    u0 = (t, -s)
    m = -(wedge(p, u0) // wedge(p, a))
    n = -(-wedge(u0, q) // wedge(a, q))
    return ((u0[0] + m * a[0], u0[1] + m * a[1]),
            (n * a[0] - u0[0], n * a[1] - u0[1]))


def pairing(F: BreakFn, G: dict) -> int:
    """Sum of d(F, a) G(a) over the support of G."""
    total = 0
    for a, c in G.items():
        total += index(F, tuple(a)) * int(c)
    return total


def is_ample(F: BreakFn) -> bool:
    """Every index of F is non-negative, as for a convex F.  An ample F
    pairs non-negatively with an effective G, since each term of the
    pairing is a product of two non-negative numbers."""
    return all(d >= 0 for _, d in F._key)


def is_effective(G: dict) -> bool:
    """Every coefficient of the finitely supported G is non-negative."""
    return all(int(c) >= 0 for c in G.values())


# ---------------------------------------------------------------------------
# sparse vectors over the symbol families

# primitive: the argument is a primitive vector, else nonzero; level: the
# key carries a level k >= 1 after the argument
_Family = namedtuple("_Family", "primitive level")


# The key of a term is (family, argument) or (family, argument, level).
# plpart is the one family outside the table: its key holds a BreakFn.
_FAMILIES = {
    "b": _Family(primitive=True, level=False),
    "e": _Family(primitive=True, level=True),
    "delta": _Family(primitive=True, level=True),
    "p": _Family(primitive=False, level=False),
    "chain": _Family(primitive=True, level=False),
}


def _family(fam) -> _Family:
    try:
        return _FAMILIES[fam]
    except (KeyError, TypeError):
        raise ValueError("unknown symbol family %r" % (fam,)) from None


def _check_primitive(a):
    a = tuple(a)
    if a == (0, 0) or primitive(a) != a:
        raise ValueError("ray index must be primitive, got %r" % (a,))
    return a


class PicVec(Frozen):
    """Finite Z[q]-combination of symbols; plpart terms are merged."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        merged = {}
        plsum = None
        for key, coeff in terms:
            coeff = QPoly.lift(coeff)
            if not coeff:
                continue
            fam = key[0]
            if fam == "plpart":
                F = key[1]
                if not isinstance(F, BreakFn):
                    raise ValueError("plpart key must hold a BreakFn")
                c = coeff.constant_value()
                if c == 0:
                    continue
                scaled = c * F
                plsum = scaled if plsum is None else plsum + scaled
                continue
            key = self._check_key(fam, key)
            if key in merged:
                merged[key] = merged[key] + coeff
            else:
                merged[key] = coeff
        if plsum is not None and not plsum.is_linear():
            merged[("plpart", plsum)] = Q_ONE
        self._init({k: c for k, c in merged.items() if c})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _check_key(fam, key):
        spec = _family(fam)
        if spec.primitive:
            a = _check_primitive(key[1])
        else:
            a = tuple(key[1])
            if a == (0, 0):
                raise ValueError("%s key cannot be the origin" % fam)
        if not spec.level:
            return (fam, a)
        k = int(key[2])
        if k < 1:
            raise ValueError("level must be >= 1, got %d" % k)
        return (fam, a, k)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> QPoly:
        return self.terms.get(key, Q_ZERO)

    def __add__(self, other):
        if not isinstance(other, PicVec):
            return NotImplemented
        return PicVec(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = QPoly.lift(c)
        return PicVec([(k, c * v) for k, v in self.terms.items()])

    def at_one(self) -> "PicVec":
        """Specialize all coefficients at q = 1."""
        return PicVec([(k, QPoly.const(v.at_one()))
                       for k, v in self.terms.items()])

    def __repr__(self):
        if not self.terms:
            return "PicVec(0)"
        bits = []
        for key in sorted(self.terms, key=repr):
            bits.append("(%s)*%s" % (self.terms[key], _key_repr(key)))
        return "PicVec(%s)" % " + ".join(bits)

    def to_json(self):
        out = []
        for key in sorted(self.terms, key=repr):
            fam = key[0]
            if fam == "plpart":
                term = {"family": fam, "fn": key[1].to_json()}
            else:
                term = {"family": fam, "arg": list(key[1])}
                if _FAMILIES[fam].level:
                    term["level"] = key[2]
            term["coef"] = list(self.terms[key].coeffs)
            out.append(term)
        return {"terms": out}

    @staticmethod
    def from_json(data) -> "PicVec":
        (raw,) = _json_object(data, "PicVec", ("terms",))
        terms = []
        for t in _json_list(raw, "terms", of="term objects"):
            fam, coef = _json_object(t, "PicVec term", ("family", "coef"))
            coeff = QPoly(_json_ints(coef, "coef"))
            if fam == "plpart":
                (fn,) = _json_object(t, "PicVec term", ("fn",))
                key = (fam, BreakFn.from_json(fn))
            elif _family(fam).level:
                arg, level = _json_object(t, "PicVec term", ("arg", "level"))
                key = (fam, tuple(_json_ints(arg, "arg", 2)),
                       _json_int(level, "level"))
            else:
                (arg,) = _json_object(t, "PicVec term", ("arg",))
                key = (fam, tuple(_json_ints(arg, "arg", 2)))
            terms.append((key, coeff))
        return PicVec(terms)


def _key_repr(key):
    if key[0] == "plpart":
        return "plpart[%r]" % (key[1],)
    if _FAMILIES[key[0]].level:
        return "%s%r^%d" % key
    return "%s%r" % key


ZERO_VEC = PicVec()


def b_vec(a) -> PicVec:
    return PicVec([(("b", tuple(a)), Q_ONE)])


def e_vec(w, level=None) -> PicVec:
    """e symbol; e_w for a lattice vector w is e at primitive(w) with the
    content as level, and e at the origin is zero."""
    w = tuple(w)
    if level is not None:
        return PicVec([(("e", w, int(level)), Q_ONE)])
    if w == (0, 0):
        return ZERO_VEC
    k, a = _content_and_primitive(w)
    return PicVec([(("e", a, k), Q_ONE)])


def delta_vec(a, k=1) -> PicVec:
    return PicVec([(("delta", tuple(a), int(k)), Q_ONE)])


def p_vec(w) -> PicVec:
    w = tuple(w)
    if w == (0, 0):
        return ZERO_VEC
    return PicVec([(("p", w), Q_ONE)])


def chain_vec(a) -> PicVec:
    return PicVec([(("chain", tuple(a)), Q_ONE)])


def plpart_vec(F: BreakFn) -> PicVec:
    return PicVec([(("plpart", F), Q_ONE)])


def _e_key_vector(key) -> Vec:
    _, a, k = key
    return (k * a[0], k * a[1])


def _extend(x: PicVec, rule) -> PicVec:
    """The image of x under the linear extension of rule, a map from one
    key to the PicVec it goes to."""
    return PicVec([(k, c * d) for key, c in x.terms.items()
                   for k, d in rule(key).terms.items()])


# ---------------------------------------------------------------------------
# the L-action on delta towers and PL parts

def delta_L_action(x: PicVec) -> PicVec:
    """One application of L to a vector over delta and plpart symbols.
    L has order five here, the lattice image of P^5 = 1."""
    L = generator_pl("L")
    Linv = generator_pl("P")

    def rule(key):
        if key[0] == "delta":
            _, s, k = key
            if s == (0, -1):
                return delta_vec((1, 0), k + 1)
            if s != (0, 1):
                return delta_vec(L(s), k)
            if k >= 2:
                return delta_vec((-1, 0), k - 1)
            return -delta_vec((1, 0), 1) + plpart_vec(ample_A())
        if key[0] == "plpart":
            F = key[1]
            return (plpart_vec(compose_breakfn(F, Linv))
                    - F((0, -1)) * delta_vec((1, 0), 1)
                    + F((0, 1)) * (-delta_vec((1, 0), 1)
                                   + plpart_vec(ample_A())))
        raise ValueError(
            "L-action is defined on delta and plpart terms, got %r"
            % (key[0],))

    return _extend(x, rule)


def pic_product(x: PicVec, y: PicVec):
    """Intersection product where the lattice defines one.

    delta terms square to -1 levelwise and are orthogonal to everything
    else; plpart pairs with chain through the index pairing.  Pairs with
    no defined product (plpart with plpart, chain with chain, or any b, e,
    p term) raise an error.
    """
    total = Q_ZERO
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            f1, f2 = k1[0], k2[0]
            if f1 in ("b", "e", "p") or f2 in ("b", "e", "p"):
                raise ValueError("product undefined for this pair")
            if f1 == "delta" or f2 == "delta":
                if k1 == k2:
                    total = total - c1 * c2
                continue
            if f1 == "plpart" and f2 == "chain":
                total = total + c1 * c2 * index(k1[1], k2[1])
            elif f1 == "chain" and f2 == "plpart":
                total = total + c1 * c2 * index(k2[1], k1[1])
            else:
                raise ValueError("product undefined for this pair")
    return total.constant_value() if len(total.coeffs) <= 1 else total


def f_prime(F: BreakFn) -> PicVec:
    """plpart(F) minus the level-one deltas weighted by the indexes.  It
    is additive in F and zero on a linear F, so it is defined on the
    classes of PL functions modulo linear ones."""
    return PicVec([(("plpart", F), Q_ONE)] + [
        (("delta", a, 1), -d) for a, d in F.indexes().items()])


def be_encode(F: BreakFn) -> PicVec:
    """Index encoding in B; lands in the kernel of b_a -> a."""
    idx = F.indexes()
    checksum = (sum(d * a[0] for a, d in idx.items()),
                sum(d * a[1] for a, d in idx.items()))
    if checksum != (0, 0):
        raise AssertionError("index checksum %r is nonzero" % (checksum,))
    return PicVec([(("b", a), d) for a, d in idx.items()])


# ---------------------------------------------------------------------------
# mutation actions

def sigma_v(w: Vec, v: Vec) -> Vec:
    """Mutation on lattice indices: w - min(v^w, 0)v off the v-line,
    w - v on it.  Returns (0,0) exactly for w = v; callers treat the
    origin symbol as zero."""
    v = _check_primitive(v)
    w = tuple(w)
    if w == (0, 0):
        raise ValueError("sigma is defined on nonzero vectors")
    if wedge(w, v) != 0:
        m = wedge(v, w)
        if m < 0:
            return (w[0] - m * v[0], w[1] - m * v[1])
        return w
    return (w[0] - v[0], w[1] - v[1])


def mu_be_action(x: PicVec, v: Vec) -> PicVec:
    """Mutation at v on b/e terms, by the eight listed rules.  On p
    symbols, mu_be_action(p_expand(w), v) - p_expand(mu_p_action(w, v)) =
    -wedge(w, v) b_(-v), so it agrees with the p rule on the kernel of pi."""
    v = _check_primitive(v)
    nv = (-v[0], -v[1])

    def rule(key):
        if key[0] == "b":
            w = key[1]
            if w == v:
                return -b_vec(nv)
            if w == nv:
                return e_vec(nv, 1) + b_vec(nv)
            if wedge(w, v) > 0:
                return b_vec(sigma_v(w, v))
            return b_vec(sigma_v(w, v)) + wedge(v, w) * b_vec(nv)
        if key[0] == "e":
            _, a, k = key
            if a == v:
                return (b_vec(v) + b_vec(nv)) if k == 1 else e_vec(v, k - 1)
            if a == nv:
                return e_vec(nv, k + 1)
            return e_vec(sigma_v(a, v), k)
        raise ValueError("mutation on b/e vectors only, got %r" % (key[0],))

    return _extend(x, rule)


def p_basis(k: int, v: Vec) -> PicVec:
    """p at kv: e levels 1..k-1 with weights k-1..1, plus k b_v."""
    k = int(k)
    if k < 1:
        raise ValueError("level must be >= 1")
    v = _check_primitive(v)
    return PicVec([(("b", v), k)] + [(("e", v, j), k - j)
                                      for j in range(1, k)])


def p_expand(w: Vec) -> PicVec:
    """b/e expansion of the p symbol at any nonzero lattice vector."""
    w = tuple(w)
    if w == (0, 0):
        return ZERO_VEC
    return p_basis(*_content_and_primitive(w))


def mu_p_action(w: Vec, v: Vec) -> PicVec:
    """Mutation at v of the p symbol at w, in p symbols."""
    v = _check_primitive(v)
    w = tuple(w)
    if w == (0, 0):
        raise ValueError("p symbol needs a nonzero vector")
    s = wedge(w, v)
    coeff = s if s > 0 else (0 if s < 0 else -1)
    out = p_vec(sigma_v(w, v))
    if coeff:
        out = out + coeff * p_vec((-v[0], -v[1]))
    return out


def mu_p_vector(x: PicVec, v: Vec) -> PicVec:
    """Mutation at v of a vector of p symbols, by mu_p_action."""
    v = _check_primitive(v)

    def rule(key):
        if key[0] != "p":
            raise ValueError(
                "basis p mutates p-family vectors only; found %r" % (key,))
        return mu_p_action(key[1], v)

    return _extend(x, rule)


# ---------------------------------------------------------------------------
# the W[q] model

def gamma_action(x: PicVec, m: Mat) -> PicVec:
    """Natural index action of a lattice automorphism on symbol families."""
    out = []
    for key, c in x.terms.items():
        if key[0] == "plpart":
            img = compose_breakfn(key[1], linear_pl(mat_inv(m)))
            out.append((("plpart", img), c))
        else:
            # the level, where the family has one, stays
            out.append(((key[0], mat_apply(m, key[1])) + key[2:], c))
    return PicVec(out)


# Inside the word action a W[q] layer is a plain dict {(x, y, k): (c, b)}:
# the e symbol at primitive direction (x, y) and level k, its coefficient c
# and a bound b on c's digits.  One layer holds n integer vectors at once,
# by Kronecker substitution: vector r's coefficient of a symbol is digit r
# of c in balanced base 2^w (_pack, _digits), and b is at least the
# magnitude of every digit.  A single vector is the case n = 1, with c its
# coefficient and b = |c|.  A vector over Z[q] is the list of its q-degree
# layers, layer j holding the coefficients of q^j.  PicVec validates every
# key it is built from, so vectors cross into this form once on the way
# in and once on the way out.

def _e_layers(x: PicVec, what: str = "W[q] action") -> list:
    layers = []
    for key, c in x.terms.items():
        if key[0] != "e":
            raise ValueError("%s needs e terms, got %r" % (what, key[0]))
        layers.extend({} for _ in range(len(c.coeffs) - len(layers)))
        (a0, a1), k = key[1], key[2]
        for layer, n in zip(layers, c.coeffs):
            if n:
                layer[a0, a1, k] = (n, abs(n))
    return layers


def _picvec(layers: list) -> PicVec:
    coeffs = {}
    for j, layer in enumerate(layers):
        for key, (n, _) in layer.items():
            coeffs.setdefault(key, [0] * len(layers))[j] = n
    return PicVec([(("e", (x, y), k), QPoly(c))
                   for (x, y, k), c in coeffs.items()])


def _pack(vectors, w: int) -> dict:
    """One layer holding the integer vectors {(x, y, k): n}: vector r's
    coefficient is digit r, of weight 2^(w r), and each bound is the
    largest magnitude among a symbol's digits."""
    layer = {}
    for r, raw in enumerate(vectors):
        for key, n in raw.items():
            c, b = layer.get(key, (0, 0))
            layer[key] = (c + (n << w * r), max(b, abs(n)))
    return layer


def _digits(layer: dict, r: int, w: int) -> dict:
    """Vector r of a layer packed at width w, {(x, y, k): n} with n != 0;
    exact while every digit lies strictly between -2^(w-1) and 2^(w-1).
    The digits below r sum to less than 2^(w r - 1) in magnitude, so
    adding that much and shifting drops them."""
    half = 1 << (w - 1)
    raw = {}
    for key, (c, _) in layer.items():
        if r:
            c = (c + (half << w * (r - 1))) >> w * r
        n = ((c + half) & (2 * half - 1)) - half
        if n:
            raw[key] = n
    return raw


def _index_sum(layer: dict) -> tuple:
    """The weighted index sum (X, Y) = sum c k (x, y) over a layer's terms,
    packed like the coefficients."""
    sx = sy = 0
    for (x, y, k), (c, _) in layer.items():
        sx += k * x * c
        sy += k * y * c
    return sx, sy


def _sum_bound(layer: dict) -> int:
    """sum b k (|x| + |y|) over a layer's terms: a bound on every digit of
    its index sums X and Y and, since k (|x| + |y|) >= 1, on every digit
    of the layer."""
    return sum(k * (abs(x) + abs(y)) * b
               for (x, y, k), (_, b) in layer.items())


def _mutate(raw: dict, sign: int, m: Mat = MAT_ID, at_t=(0, 0)) -> dict:
    """The q^0 part of the canonical mutation (sign 1) or its inverse
    (sign -1) of the layer relabelled by m, plus at_t e_t, at_t being the
    carry of the layer below as a (coefficient, bound) pair.

    With s = sign and t = (-s, 0), e_w for w = (x, y) goes to
    e_w + (1-q) y e_t when y > 0, to e_(x-s*y, y) - q y e_t when y < 0,
    and to e_(x-s, 0) - e_t when y = 0, e at the origin being zero.  The
    index map is injective and never hits e_t (y is kept, and x-s = -s
    would need w = 0), so only the e_t coefficient sums several terms.

    Packed digits.  Each coefficient moves to one key and may also enter
    the e_t sum, with the integer factor k y or -1, so the step is
    Z-linear: a packed coefficient sum_r 2^(w r) d_r goes to sum_r 2^(w r)
    times the image of d_r, exactly, whatever the digits.  A bound moves
    with its coefficient, and e_t's grows by |factor| times the bound of
    each coefficient that enters it, so every bound stays at least the
    magnitude of its digits, and every bound reaches the image with a
    factor of at least 1.  A packed e_t sum of 0 can hide digits of 2^w or
    more that cancel, so e_t is left out only when nothing entered it.

    Carry lemma.  The coefficient of q e_t, the carry, is -sum n k y over
    the terms n e_(x,y)^k of the relabelled layer, since a term with y = 0
    adds nothing to it: minus the y part of m applied to the layer's
    weighted index sum sum n k (x, y).  _run computes every carry so.  On
    V that sum vanishes, so an integer vector of V has carry 0: its image
    is an integer vector, again in V, and the W[q] word action on it
    equals its q = 1 specialization.  Off V the sum stays nonzero: the q^0
    part's index sum is (X - s Y, Y), for (X, Y) the relabelled one.
    """
    m0, m1, m2, m3 = m
    t, bt = at_t
    out = {}
    for (x, y, k), v in raw.items():
        ax = m0 * x + m1 * y
        ay = m2 * x + m3 * y
        if ay > 0:
            out[ax, ay, k] = v
            f = k * ay
            t += f * v[0]
            bt += f * v[1]
        elif ay < 0:
            # the shear keeps the content, so the level stays k
            out[ax - sign * ay, ay, k] = v
        else:
            wx = k * ax - sign
            if wx:
                out[1 if wx > 0 else -1, 0, abs(wx)] = v
            t -= v[0]
            bt += v[1]
    if bt:
        out[-sign, 0, 1] = (t, bt)
    return out


def _run(layers: list, steps: tuple, last: Mat = MAT_ID, sums=None) -> list:
    """The q-degree layers of a vector after the mutation steps (m, sign),
    each a _mutate, and then the relabel by last.

    Each layer mutates on its own and starts its e_t coefficient from the
    carry of the layer below, so a layer is added exactly when the top one
    carries.  The carries come from the carry lemma at _mutate: a step
    maps a layer's index sum (X, Y), relabelled by m, to (X - s (Y + carry
    in), Y) and carries -Y.  sums, the layers' index sums (X, Y), are
    computed here unless given.  A carry's bound is its magnitude, the
    bound of its one digit in a one-vector run; a packed run of V vectors
    never carries, and word_acts_as_identity reads layer 0 alone, which no
    carry enters.
    """
    if sums is None:
        sums = list(map(_index_sum, layers))
    for m, sign in steps:
        m0, m1, m2, m3 = m
        out, out_sums = [], []
        carry = 0
        for layer, (sx, sy) in zip(layers, sums):
            out.append(_mutate(layer, sign, m, (carry, abs(carry))))
            x, y = m0 * sx + m1 * sy, m2 * sx + m3 * sy
            out_sums.append((x - sign * (y + carry), y))
            carry = -y
        if carry:
            out.append({(-sign, 0, 1): (carry, abs(carry))})
            out_sums.append((-sign * carry, 0))
        layers, sums = out, out_sums
    if last != MAT_ID:
        layers = [_relabel(layer, last) for layer in layers]
    return layers


def _relabel(raw: dict, m: Mat) -> dict:
    m0, m1, m2, m3 = m
    return {(m0 * x + m1 * y, m2 * x + m3 * y, k): v
            for (x, y, k), v in raw.items()}


def mu_Wq_action(x: PicVec) -> PicVec:
    """Canonical mutation on W[q] vectors (e symbols, Z[q] coefficients),
    by the rule stated at _mutate."""
    return _picvec(_run(_e_layers(x), ((MAT_ID, 1),)))


def mu_Wq_inverse(x: PicVec) -> PicVec:
    return _picvec(_run(_e_layers(x), ((MAT_ID, -1),)))


def mu_Wq_at(x: PicVec, v: Vec) -> PicVec:
    """The W[q] mutation along the primitive direction v: mu_Wq_action
    conjugated by a unimodular m with m(1,0) = v."""
    v = tuple(v)
    if primitive(v) != v:
        raise ValueError("mutation direction must be primitive; got %r" % (v,))
    _, s, t = egcd(v[0], v[1])
    m = (v[0], -t, v[1], s)
    return _picvec(_run(_e_layers(x), ((mat_inv(m), 1),), m))


def v_membership(x: PicVec) -> bool:
    """Whether the Z[q]-weighted sum of the e indices vanishes."""
    return all(_index_sum(layer) == (0, 0)
               for layer in _e_layers(x, "V membership"))


def wedge_form(x: PicVec, y: PicVec) -> QPoly:
    """Pull-back of the wedge product: e_u wedge e_w = u ^ w, bilinear."""
    total = Q_ZERO
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            if k1[0] != "e" or k2[0] != "e":
                raise ValueError("wedge form applies to e terms")
            total = total + c1 * c2 * wedge(_e_key_vector(k1),
                                            _e_key_vector(k2))
    return total


def _random_v_terms(rng: random.Random, size: int) -> dict:
    """random_v_vector in the raw form of the word action."""
    while True:
        acc = {}
        for _ in range(rng.randint(1, size)):
            c = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                u = (rng.randint(-3, 3), rng.randint(-3, 3))
                w = (rng.randint(-3, 3), rng.randint(-3, 3))
                s = vec_add(u, w)
                if u == (0, 0) or w == (0, 0) or s == (0, 0):
                    continue
                parts = ((u, c), (w, c), (s, -c))
            else:
                k = rng.randint(2, 4)
                a = (rng.randint(-2, 2), rng.randint(-2, 2))
                if a == (0, 0):
                    continue
                a = primitive(a)
                parts = ((a, k * c), ((k * a[0], k * a[1]), -c))
            for v, n in parts:
                k, (x, y) = _content_and_primitive(v)
                acc[x, y, k] = acc.get((x, y, k), 0) + n
        raw = {key: n for key, n in acc.items() if n}
        if raw:
            return raw


def random_v_vector(rng: random.Random, size: int = 3) -> PicVec:
    """Random nonzero member of V with small integer data."""
    return _picvec([_pack([_random_v_terms(rng, size)], _WIDTH)])


# ---------------------------------------------------------------------------
# word action

_I_MAT = GEN_MATS["I"]
_I_INV = mat_inv(_I_MAT)


def _compile(word):
    """Mutation steps (m, sign), each relabelling by m before it mutates,
    and the relabel that ends the word; rightmost letter first.

    C and I only relabel, and P = I^-1 mu, P^-1 = mu^-1 I with mu = I P
    the canonical mutation, so every run of relabels between two
    mutations fuses into one matrix.
    """
    steps = []
    m = MAT_ID
    for sym, exp in reversed(word):
        sign = 1 if exp > 0 else -1
        if sym in ("C", "I"):
            g = GEN_MATS[sym] if sign > 0 else mat_inv(GEN_MATS[sym])
            for _ in range(abs(exp)):
                m = mat_mul(g, m)
        elif sym == "P":
            for _ in range(abs(exp)):
                if sign > 0:
                    steps.append((m, 1))
                    m = _I_INV
                else:
                    steps.append((mat_mul(_I_MAT, m), -1))
                    m = MAT_ID
        else:
            raise ValueError(
                "unsupported letter %r in the lattice action" % (sym,))
    return tuple(steps), m


class PicOperator(Frozen):
    """Word in P, C, I acting on W[q] vectors, rightmost letter first.

    The word is compiled once into mutation steps and relabels; calls
    accept vectors of e terms only.  Two operators are equal when they
    come from the same word.
    """

    __slots__ = ("word", "_steps", "_last")

    def __init__(self, word):
        word = tuple(word)
        self._init(word, *_compile(word))

    def __reduce__(self):
        return PicOperator, (self.word,)

    def __call__(self, x: PicVec) -> PicVec:
        return _picvec(_run(_e_layers(x), self._steps, self._last))

    def __repr__(self):
        from .words import format_word
        return "PicOperator(%s)" % format_word(self.word)

    def to_json(self):
        return {"operator": [[s, e] for s, e in self.word]}


def word_operator(word) -> PicOperator:
    return PicOperator(word)


# Every relation of a suite draws the same seeded V vectors, so the last
# 32 draws of at most _V_KEPT vectors are kept, packed and keyed by (seed,
# n, width), as read-only mappings; a longer draw is made afresh and not
# kept.  Packing starts at _WIDTH bits a digit: on the shipped suites the
# largest image bound that word_acts_as_identity tests is below 2^66.
_V_KEPT = 64
_WIDTH = 96


@functools.lru_cache(maxsize=32)
def _v_layer(seed, n: int, w: int) -> tuple:
    """The first n vectors _random_v_terms(Random(seed), 3) draws, packed
    at width w, and their index sums."""
    rng = random.Random(seed)
    layer = _pack([_random_v_terms(rng, 3) for _ in range(n)], w)
    return MappingProxyType(layer), _index_sum(layer)


def word_acts_as_identity(word, nvectors: int = 20, seed: int = 0) -> dict:
    """Test a word on nvectors random V vectors with integer coefficients,
    the ones random_v_vector draws from Random(seed); calls with the same
    seed and nvectors share the draws (_v_layer).

    The vectors run as one packed layer, each step once over the union of
    their symbols (see _mutate).  Digits are compared or read only when
    the image's _sum_bound, which bounds every digit of the image and so
    of the draw, is below 2^(w-1); otherwise the draw is packed again at
    the width doubled until it is, and runs again.  The memo keeps each
    draw's index sums, which are also those of an image equal to it.

    By the carry lemma of _mutate the W[q] action on such a vector equals
    its q = 1 specialization, so identity_in_Zq and identity_at_q1, both
    reported, agree on every sample.  A failure is exact: its witness is
    the first vector the word moves, an integer vector of V, read at the
    lowest nonzero digit of any symbol's change.  An image outside V is
    refused; that covers every vector that carries, since a step carries
    only when the q^0 index sum is nonzero, and each step keeps it so.
    """
    if nvectors < 1:
        raise ValueError("nvectors must be at least 1, got %d" % nvectors)
    op = word_operator(word)
    draw = _v_layer if nvectors <= _V_KEPT else _v_layer.__wrapped__
    w = _WIDTH
    while True:
        layer, sums = draw(seed, nvectors, w)
        image = _run([layer], op._steps, op._last, [sums])[0]
        bound = _sum_bound(image)
        if bound < 1 << (w - 1):
            break
        while bound >= 1 << (w - 1):
            w *= 2
    coeffs = {key: c for key, (c, _) in image.items() if c}
    identity = coeffs == {key: c for key, (c, _) in layer.items()}
    # an image equal to its draw has the draw's index sums
    if (sums if identity else _index_sum(image)) != (0, 0):
        raise AssertionError("image left the V subspace")
    witness = None
    if not identity:
        # digit r of a change is vector r's; the lowest set bit of a
        # change lies in its lowest nonzero digit, since each digit is
        # below 2^w
        changes = [c - layer.get(key, (0, 0))[0] for key, c in coeffs.items()]
        changes += [-c for key, (c, _) in layer.items() if key not in coeffs]
        r = (min((d & -d).bit_length() for d in changes if d) - 1) // w
        witness = {name: _picvec([_pack([_digits(lay, r, w)], w)]).to_json()
                   for name, lay in (("vector", layer), ("image", image))}
    return {
        "identity": identity,
        "evidence": {
            "vectors": nvectors,
            "identity_at_q1": identity,
            "identity_in_Zq": identity,
            **({"witness": witness, "exact": True} if witness else {}),
        },
    }


def cross_basis_report(samples: int = 30, seed: int = 0) -> dict:
    """Compare the three mutation pictures on p symbols at v = (1, 0),
    the one direction at which the W[q] rules are stated.

    For sampled lattice vectors w the report checks whether the W[q]
    action at q = 1 (read through e_w <-> p_w) and the b/e rule list
    (through the p-basis expansion) give the p-rule value.  On one p_w the
    b/e value is off by -wedge(w, v) b_(-v) (see mu_be_action), so
    be_matches_p_rule fails exactly off the v-line; nothing is patched.
    """
    if not 1 <= samples <= 80:
        raise ValueError("samples must be between 1 and 80, the number of "
                         "w != 0 with |w_x|, |w_y| <= 4; got %r" % (samples,))
    v = (1, 0)
    rng = random.Random(seed)
    entries = []
    mismatches = 0
    seen = set()
    while len(entries) < samples:
        w = (rng.randint(-4, 4), rng.randint(-4, 4))
        if w == (0, 0) or w in seen:
            continue
        seen.add(w)
        p_rule = mu_p_action(w, v)

        wq_as_p = _extend(mu_Wq_action(e_vec(w)).at_one(),
                          lambda key: p_vec(_e_key_vector(key)))
        wq_agrees = wq_as_p == p_rule

        be = mu_be_action(p_expand(w), v)
        p_expanded = _extend(p_rule, lambda key: p_expand(key[1]))
        be_agrees = be == p_expanded

        entry = {"w": list(w),
                 "wq_matches_p_rule": wq_agrees,
                 "be_matches_p_rule": be_agrees}
        if not (wq_agrees and be_agrees):
            mismatches += 1
            entry["witness"] = {
                "p_rule": p_rule.to_json(),
                "wq_at_q1_as_p": wq_as_p.to_json(),
                "be_of_p_expansion": be.to_json(),
                "p_rule_expanded": p_expanded.to_json(),
            }
        entries.append(entry)
    return {
        "vector": list(v),
        "samples": entries,
        "mismatches": mismatches,
        "conventions": {
            "mu": "I o P, acting as (x - min(0, y), y) on indices",
            "wq_y_negative_coefficient": "-q*y; the +q*y variant breaks "
            "exact wedge preservation and V-invariance",
            "e_w_means": "e_w^1, with e at k*alpha read as level k",
        },
        "note": "discrepancies are reported with witnesses, not patched",
    }
