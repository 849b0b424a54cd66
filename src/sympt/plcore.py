"""Piecewise-linear automorphisms of Z^2, exact and canonical.

An element is a cyclic fan of primitive breakpoint rays (counterclockwise)
with one SL(2,Z) matrix per cone; a globally linear element stores a single
matrix and no rays.  All arithmetic is integer arithmetic.  Canonical form
merges adjacent cones carrying the same matrix and rotates the ray list to
start at the lexicographically smallest ray, so equality and hashing are
plain tuple comparisons.

Vectors are (a, b) tuples, matrices are row-major 4-tuples
(m11, m12, m21, m22).  The wedge product is normalized so that
wedge((1,0), (0,1)) == 1.

Composition is one counterclockwise merge of the first factor's rays with
the image rays of the second, O(n + m) for n and m rays; the cone that
holds a vector is found by bisection, O(log n).

This module alone defines the lattice facts the other models share: the
counterclockwise order of directions (ccw_key), the cone of a fan that
holds a vector (cone_index) and the matrices of the named generators
(GEN_MATS).
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd, isqrt

Vec = tuple[int, int]
Mat = tuple[int, int, int, int]

MAT_ID: Mat = (1, 0, 0, 1)


def wedge(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def primitive(v: Vec) -> Vec:
    """Primitive vector on the ray through v.  v must be nonzero."""
    a, b = v
    if a == 0 and b == 0:
        raise ValueError("zero vector has no direction")
    g = gcd(a, b)
    return (a // g, b // g)


def vec_add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def cone_runs(u: Vec, v: Vec, w: Vec) -> list[int]:
    """Stern-Brocot run lengths of w in the unimodular cone (u, v).

    The mediant descent from (u, v) to w first replaces v by the mediant
    runs[0] times (steps towards u), then u by the mediant runs[1] times,
    and so on alternately, until w is the mediant of the pair.  The runs are
    the partial quotients of Euclid's algorithm on the cone coordinates
    (w ^ v, u ^ w), the last one less one, so they cost O(#quotients)
    integer operations.  w must be primitive and strictly inside the cone.
    """
    if wedge(u, v) != 1:
        raise ValueError("cone %r, %r is not unimodular" % (u, v))
    a, b = wedge(w, v), wedge(u, w)
    if a <= 0 or b <= 0:
        raise ValueError("%r is not strictly inside cone %r, %r" % (w, u, v))
    runs = []
    while b:
        q, r = divmod(a, b)
        runs.append(q)
        a, b = b, r
    if a != 1:
        raise ValueError("vector must be primitive: %s" % (w,))
    runs[-1] -= 1
    return runs


def cone_parents(u: Vec, v: Vec, runs) -> tuple[Vec, Vec]:
    """The unimodular pair the mediant descent from (u, v) reaches after the
    given runs (see cone_runs); its mediant is the vector with these runs."""
    for i, c in enumerate(runs):
        if i % 2:
            u = (u[0] + c * v[0], u[1] + c * v[1])
        else:
            v = (v[0] + c * u[0], v[1] + c * u[1])
    return u, v


def mat_apply(m: Mat, v: Vec) -> Vec:
    return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def mat_det(m: Mat) -> int:
    return m[0] * m[3] - m[1] * m[2]


def mat_inv(m: Mat) -> Mat:
    d = mat_det(m)
    if d == 1:
        return (m[3], -m[1], -m[2], m[0])
    if d == -1:
        return (-m[3], m[1], m[2], -m[0])
    raise ValueError("matrix is not unimodular: det=%d" % d)


# Miller-Rabin to the first 13 prime bases is exact for every n below
# _MR_EXACT_BELOW (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n.

    Below 3.3*10^24 a Miller-Rabin test to the first 13 prime bases, which
    is proven exact there.  Above it, the Baillie-PSW test: Miller-Rabin to
    base 2 and a strong Lucas test with Selfridge's parameters (Baillie and
    Wagstaff, "Lucas pseudoprimes", Math. Comp. 35 (1980)).  No composite is
    known to pass it, but none is proven not to exist.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 1 with Selfridge's parameters: the
    first D of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False  # |D| has a proper factor in common with n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s

    def half(v):
        return (v if v & 1 == 0 else v + n) >> 1

    # U_k, V_k, Q^k mod n, climbing k from 1 to d by the bits of d, P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# Named generators.  C and I generate SL(2,Z) inside the group; U is the
# standard unipotent; P is the tropical Lyness map and mu the x-shear that
# equals I*P.
GEN_MATS: dict[str, Mat] = {
    "C": (-1, 1, -1, 0),
    "I": (0, -1, 1, 0),
    "U": (1, 1, 0, 1),
}


# ---------------------------------------------------------------------------
# cyclic order of directions

def _quadrant(v: Vec) -> int:
    x, y = v
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def dir_less(u: Vec, v: Vec) -> bool:
    """Strict counterclockwise order of directions, anchored at (1,0)."""
    qu, qv = _quadrant(u), _quadrant(v)
    if qu != qv:
        return qu < qv
    return wedge(u, v) > 0


def _ccw_cmp(u: Vec, v: Vec) -> int:
    return -1 if dir_less(u, v) else int(dir_less(v, u))


# sort key of the counterclockwise order anchored at (1,0)
ccw_key = cmp_to_key(_ccw_cmp)


def _sort_ccw(rays):
    # distinct primitive rays, so the exact order is total
    return sorted(set(rays), key=ccw_key)


def _ccw_start(rays) -> int:
    """Index of the first ray at or after (1,0), for distinct rays winding
    once counterclockwise: rays[1:k] follow rays[0] in the order anchored
    at (1,0) and rays[k:] precede it, so k is found by bisection."""
    first = rays[0]
    lo, hi = 1, len(rays)
    while lo < hi:
        mid = (lo + hi) // 2
        if dir_less(rays[mid], first):
            hi = mid
        else:
            lo = mid + 1
    return lo % len(rays)


def cone_index(rays, v: Vec) -> int:
    """Index i of the half-open cone [rays[i], rays[i+1]) that holds the
    direction of v (nonzero), for rays winding once counterclockwise; the
    last cone closes back to rays[0].

    Two bisections, O(log n) calls of dir_less: one for the ray at or
    after (1,0) and one, in the order starting there, for the last ray at
    or before v.  No ray at or before v means v lies in the cone that
    crosses (1,0).
    """
    n = len(rays)
    start = _ccw_start(rays)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if dir_less(v, rays[(start + mid) % n]):
            hi = mid
        else:
            lo = mid + 1
    return (start + lo - 1) % n


# ---------------------------------------------------------------------------
# immutable records

class Frozen:
    """Immutable record over the fields its subclass names in __slots__.

    Two records are equal when they have the same class and equal fields,
    and hash like the tuple of their fields; the repr is
    Name(field=value, ...).  Assigning or deleting any attribute raises
    AttributeError.  A subclass sets its fields in __init__ through
    _init.  (The standard library's record decorator would do the same,
    but its import loads inspect, ast and dis on every CLI call.)
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


# ---------------------------------------------------------------------------
# fans

class Fan(Frozen):
    """Complete cyclic fan of primitive rays, counterclockwise.

    Consecutive rays must span a positively oriented cone (wedge >= 1) and
    the list must turn exactly once around the origin.
    """

    __slots__ = ("rays",)

    def __init__(self, rays: tuple[Vec, ...]):
        self._init(rays)
        if len(rays) < 3:
            raise ValueError("a fan needs at least 3 rays")
        wraps = 0
        for i, r in enumerate(rays):
            if primitive(r) != r:
                raise ValueError("ray %r is not primitive" % (r,))
            s = rays[(i + 1) % len(rays)]
            if wedge(r, s) < 1:
                raise ValueError("rays %r, %r do not span a positive cone" % (r, s))
            if not dir_less(r, s):
                wraps += 1
        if wraps != 1:
            raise ValueError("rays do not wind once counterclockwise")

    def subdivide(self, i: int) -> "Fan":
        """Insert the mediant of rays i and i+1 (blow-up of the chain)."""
        rays = list(self.rays)
        a = rays[i % len(rays)]
        b = rays[(i + 1) % len(rays)]
        m = vec_add(a, b)
        if primitive(m) != m:
            raise ValueError("mediant %r is not primitive" % (m,))
        rays.insert(i % len(rays) + 1, m)
        return Fan(tuple(rays))


def chain_fan() -> Fan:
    """Initial coordinate-triangle fan; mediants of it give all blow-ups."""
    return Fan(((1, 0), (0, 1), (-1, -1)))


# ---------------------------------------------------------------------------
# piecewise-linear automorphisms

class PLAut:
    """Orientation-preserving piecewise-linear automorphism of Z^2.

    rays and mats have equal length n >= 2 and mats[i] acts on the cone
    from rays[i] counterclockwise to rays[i+1]; a linear element has
    rays == () and a single matrix.  Instances are immutable and always
    canonical.
    """

    __slots__ = ("rays", "mats")

    def __init__(self, rays, mats):
        rays = tuple(rays)
        mats = tuple(mats)
        rays, mats = _canonicalize(rays, mats)
        _validate(rays, mats)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "mats", mats)

    def __setattr__(self, *a):
        raise AttributeError("PLAut is immutable")

    @property
    def is_linear(self) -> bool:
        return not self.rays

    def matrix(self) -> Mat:
        if not self.is_linear:
            raise ValueError("element is not globally linear")
        return self.mats[0]

    def matrix_at(self, v: Vec) -> Mat:
        """Matrix of the cone containing v (nonzero)."""
        if v == (0, 0):
            raise ValueError("the origin lies in every cone")
        if self.is_linear:
            return self.mats[0]
        return self.mats[cone_index(self.rays, v)]

    def __call__(self, v: Vec) -> Vec:
        if v == (0, 0):
            return (0, 0)
        return mat_apply(self.matrix_at(v), v)

    def apply(self, v: Vec) -> Vec:
        return self(v)

    def __mul__(self, other: "PLAut") -> "PLAut":
        return compose_pl(self, other)

    def __invert__(self) -> "PLAut":
        return inverse_pl(self)

    def __pow__(self, k: int) -> "PLAut":
        if k == 0:
            return identity_pl()
        return power(inverse_pl(self) if k < 0 else self, abs(k), compose_pl)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLAut):
            return NotImplemented
        return self.rays == other.rays and self.mats == other.mats

    def __hash__(self):
        return hash((self.rays, self.mats))

    def is_identity(self) -> bool:
        return self.is_linear and self.mats[0] == MAT_ID

    def breakpoints(self) -> tuple[Vec, ...]:
        return self.rays

    def __repr__(self):
        if self.is_linear:
            return "PLAut(linear=%r)" % (self.mats[0],)
        return "PLAut(%s)" % ", ".join(
            "%r:%r" % (r, m) for r, m in zip(self.rays, self.mats)
        )

    def to_json(self) -> dict:
        # external form lists rays in the clockwise (hour-hand) direction
        if self.is_linear:
            return {"orientation": "clockwise", "linear": _mat_rows(self.mats[0])}
        pairs = list(zip(self.rays, self.mats))
        pairs = [pairs[0]] + pairs[:0:-1]
        return {
            "orientation": "clockwise",
            "pieces": [
                {"ray": list(r), "matrix": _mat_rows(m)} for r, m in pairs
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "PLAut":
        if data.get("orientation", "clockwise") != "clockwise":
            raise ValueError("unknown orientation %r" % data.get("orientation"))
        if "linear" in data:
            return PLAut((), (_mat_flat(data["linear"]),))
        pairs = [
            (tuple(p["ray"]), _mat_flat(p["matrix"])) for p in data["pieces"]
        ]
        pairs = [pairs[0]] + pairs[:0:-1]
        return PLAut(tuple(r for r, _ in pairs), tuple(m for _, m in pairs))


def _mat_rows(m: Mat):
    return [[m[0], m[1]], [m[2], m[3]]]


def _mat_flat(rows) -> Mat:
    return (rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def _canonicalize(rays, mats):
    if not rays:
        if len(mats) != 1:
            raise ValueError("linear element must carry exactly one matrix")
        return (), mats
    if len(rays) != len(mats):
        raise ValueError("rays and mats must have equal length")
    n = len(rays)
    keep_r, keep_m = [], []
    for i in range(n):
        if mats[i] != mats[i - 1]:
            keep_r.append(rays[i])
            keep_m.append(mats[i])
    if not keep_r:
        return (), (mats[0],)
    k = keep_r.index(min(keep_r))
    return tuple(keep_r[k:] + keep_r[:k]), tuple(keep_m[k:] + keep_m[:k])


def _validate(rays, mats):
    for m in mats:
        if mat_det(m) != 1:
            raise ValueError("piece matrix %r has det %d, not 1" % (m, mat_det(m)))
    if not rays:
        return
    n = len(rays)
    if n == 1:
        raise AssertionError("one breakpoint cannot survive canonicalization")
    wraps = 0
    for i in range(n):
        r, s = rays[i], rays[(i + 1) % n]
        if primitive(r) != r:
            raise ValueError("ray %r is not primitive" % (r,))
        if r == s:
            raise ValueError("repeated ray %r" % (r,))
        if not dir_less(r, s):
            wraps += 1
        # adjacent pieces must agree on the shared ray s
        if mat_apply(mats[i], s) != mat_apply(mats[(i + 1) % n], s):
            raise ValueError("pieces disagree on shared ray %r" % (s,))
    if wraps != 1:
        raise ValueError("breakpoint rays do not wind once counterclockwise")
    # the image rays must again wind once, which makes the map bijective
    images = [mat_apply(m, r) for r, m in zip(rays, mats)]
    wraps = 0
    for i in range(n):
        if not dir_less(images[i], images[(i + 1) % n]):
            wraps += 1
    if wraps != 1:
        raise ValueError("image rays do not wind once; map is not bijective")


def identity_pl() -> PLAut:
    return PLAut((), (MAT_ID,))


def linear_pl(m: Mat) -> PLAut:
    return PLAut((), (tuple(m),))


def generator_pl(name: str) -> PLAut:
    """Named generators: P, L = P^-1, mu = I*P, and the matrices C, I, U."""
    if name in GEN_MATS:
        return linear_pl(GEN_MATS[name])
    if name == "P":
        # (a,b) -> (b, min(0,b) - a): one matrix above the x-axis, one below
        return PLAut(((1, 0), (-1, 0)), ((0, 1, -1, 0), (0, 1, -1, 1)))
    if name == "L":
        return inverse_pl(generator_pl("P"))
    if name == "mu":
        # (a,b) -> (a - min(0,b), b)
        return PLAut(((1, 0), (-1, 0)), (MAT_ID, (1, -1, 0, 1)))
    raise ValueError("unknown generator %r" % name)


AXES: tuple[Vec, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def from_function(fn, hint_rays) -> PLAut:
    """Build the PLAut equal to fn, given rays subordinating its linearity.

    fn maps Z^2 -> Z^2 and must be linear on every cone of the fan spanned
    by hint_rays plus the coordinate axes.  Every cone's matrix is solved
    from the two spanning rays and checked on the mediant, so a hidden
    breakpoint or a non-unimodular piece raises ValueError.
    """
    rays = _sort_ccw([primitive(r) for r in hint_rays] + list(AXES))
    images = [fn(r) for r in rays]
    mats = []
    n = len(rays)
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        wa, wb = images[i], images[(i + 1) % n]
        d = wedge(a, b)
        if d <= 0:
            raise AssertionError("candidate rays out of order")
        num = (
            wa[0] * b[1] - wb[0] * a[1],
            -wa[0] * b[0] + wb[0] * a[0],
            wa[1] * b[1] - wb[1] * a[1],
            -wa[1] * b[0] + wb[1] * a[0],
        )
        if any(x % d for x in num):
            raise ValueError("map is not integrally linear on cone %r,%r" % (a, b))
        m: Mat = tuple(x // d for x in num)  # type: ignore[assignment]
        if mat_det(m) != 1:
            raise ValueError(
                "piece on cone %r,%r has det %d, not 1" % (a, b, mat_det(m))
            )
        mid = vec_add(a, b)
        if fn(mid) != mat_apply(m, mid):
            raise ValueError("hidden breakpoint inside cone %r,%r" % (a, b))
        mats.append(m)
    return PLAut(tuple(rays), tuple(mats))


def compose_pl(f: PLAut, g: PLAut) -> PLAut:
    """f after g; the word "FG" acts as compose_pl(F, G).

    One counterclockwise merge, O(n + m) for n rays of g and m of f.  g
    preserves orientation, so its image rays u_i = B_i r_i wind once
    counterclockwise like f's rays s_j.  Walking both lists from (1,0),
    each u_i is a breakpoint at r_i and each other s_j one at B_i^-1 s_j,
    where i is g's image cone holding s_j; the cone after it carries
    A_j B_i.  PLAut then drops the rays where nothing bends.
    """
    if g.is_linear:
        B = g.mats[0]
        if f.is_linear:
            return linear_pl(mat_mul(f.mats[0], B))
        Binv = mat_inv(B)
        return PLAut(tuple(mat_apply(Binv, s) for s in f.rays),
                     tuple(mat_mul(A, B) for A in f.mats))
    if f.is_linear:
        A = f.mats[0]
        return PLAut(g.rays, tuple(mat_mul(A, B) for B in g.mats))
    us = [mat_apply(B, r) for r, B in zip(g.rays, g.mats)]
    k, l = _ccw_start(us), _ccw_start(f.rays)
    # the cones of g by image ray and the cones of f, in the order from (1,0)
    gs = list(zip(us, g.rays, g.mats))
    gs = gs[k:] + gs[:k]
    fs = list(zip(f.rays, f.mats))
    fs = fs[l:] + fs[:l]
    # (1,0) lies in the last cone of each
    B, A = gs[-1][2], fs[-1][1]
    rays, mats = [], []
    a = b = 0
    while a < len(gs) or b < len(fs):
        if b == len(fs) or (a < len(gs) and not dir_less(fs[b][0], gs[a][0])):
            u, r, B = gs[a]
            a += 1
            if b < len(fs) and fs[b][0] == u:
                A = fs[b][1]
                b += 1
            rays.append(r)
        else:
            s, A = fs[b]
            b += 1
            rays.append(mat_apply(mat_inv(B), s))
        mats.append(mat_mul(A, B))
    return PLAut(rays, mats)


def power(x, n: int, mul):
    """x^n for n >= 1 by repeated squaring: O(log n) calls of mul, which
    must be associative; powers of one element commute, so the grouping
    does not change the value."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if not n:
            return out
        x = mul(x, x)


def product(factors, mul, identity):
    """The product of the list factors in order, or identity for none,
    reduced pairwise in a balanced tree: n - 1 calls of mul, which must be
    associative, in about log2 n rounds.  Symbolic values then grow
    evenly, not lopsidedly."""
    if not factors:
        return identity
    while len(factors) > 1:
        paired = [mul(factors[i], factors[i + 1])
                  for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def inverse_pl(f: PLAut) -> PLAut:
    if f.is_linear:
        return linear_pl(mat_inv(f.mats[0]))
    rays = tuple(mat_apply(m, r) for r, m in zip(f.rays, f.mats))
    mats = tuple(mat_inv(m) for m in f.mats)
    return PLAut(rays, mats)


def order_pl(f: PLAut, bound: int = 64):
    """Order of f if at most bound, else None."""
    g = f
    for n in range(1, bound + 1):
        if g.is_identity():
            return n
        g = compose_pl(g, f)
    return None
