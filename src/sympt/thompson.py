"""Circle models of the piecewise-linear group.

A piecewise-linear automorphism of the plane permutes primitive integer
vectors, and the Stern-Brocot correspondence identifies primitive vectors
with dyadic points on the circle R/Z.  Under that identification every
element of the group becomes a piecewise-affine circle homeomorphism whose
breakpoints are dyadic and whose slopes are powers of two, i.e. an element
of Thompson's circle group.  This module implements two exact presentations
of those circle maps and the conversions between all three pictures:

* ``DyadicPL``: the map as a list of (point, image) breakpoint pairs.
* ``TreePair``: the combinatorial form, a pair of binary trees with a
  rotation offset matching domain leaves to range leaves.

The correspondence sends 0, 1/2, 3/4 to the vectors (1,0), (0,1), (-1,-1)
and interval midpoints to vector mediants.  On each base cell [lo, hi) with
corner rays u, v it is Minkowski's question-mark function: w goes to
lo + (hi - lo) * ?(b / (a + b)), where (a, b) = (w ^ v, u ^ w) are the cone
coordinates of w.  Both directions are computed from continued fractions:
the partial quotients of a / b are the run lengths of the binary digits of
?(x) (``plcore.cone_runs``), so a conversion costs O(#partial quotients)
integer operations.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd

from .plcore import (
    PLAut,
    Vec,
    cone_parents,
    cone_runs,
    from_function,
    generator_pl,
    inverse_pl,
    primitive,
    vec_add,
    wedge,
)

__all__ = [
    "DyadicPL",
    "TreePair",
    "dyadic_to_vector",
    "vector_to_dyadic",
    "dyadic_identity",
    "dyadic_compose",
    "treepair_identity",
    "treepair_compose",
    "plaut_to_dyadic",
    "dyadic_to_plaut",
    "dyadic_to_treepair",
    "treepair_to_dyadic",
    "plaut_to_treepair",
    "treepair_to_plaut",
    "cfp_generators",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Base cells of the correspondence: (c, e, left ray, right ray) for the
# standard dyadic interval [c/2^e, (c+1)/2^e).  Midpoint of a cell
# corresponds to the mediant of its rays.
_BASE_CELLS = (
    (0, 1, (1, 0), (0, 1)),
    (2, 2, (0, 1), (-1, -1)),
    (3, 2, (-1, -1), (1, 0)),
)

_ANCHOR_T = (_ZERO, Fraction(1, 2), Fraction(3, 4))
_ANCHOR_VECS = ((1, 0), (0, 1), (-1, -1))

_MAX_DEPTH = 4096


def _mod1(t: Fraction) -> Fraction:
    return t % 1


def _exact(t) -> Fraction:
    """t as a Fraction.  Floats are refused: every float is a dyadic
    rational, so 0.1 would silently become a 55-bit dyadic."""
    if isinstance(t, float):
        raise ValueError("circle points must be exact, got float %r" % (t,))
    return Fraction(t)


def _twos(n: int) -> int:
    """Exponent of 2 in a nonzero integer."""
    return (n & -n).bit_length() - 1


def _is_dyadic(t: Fraction) -> bool:
    d = t.denominator
    return d & (d - 1) == 0


def _dyadic_pair(t: Fraction):
    """Encode a dyadic fraction as (numerator, log2 of denominator)."""
    if not _is_dyadic(t):
        raise ValueError("not a dyadic rational: %s" % (t,))
    return [t.numerator, t.denominator.bit_length() - 1]


def _from_dyadic_pair(pair) -> Fraction:
    num, log2den = pair
    for x in (num, log2den):
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("dyadic pair entries must be integers, got %r"
                             % (x,))
    if log2den < 0:
        raise ValueError("negative denominator exponent")
    return Fraction(num, 1 << log2den)


def dyadic_to_vector(t) -> Vec:
    """Primitive integer vector corresponding to a dyadic circle point."""
    n, k = _dyadic_pair(_mod1(_exact(t)))
    if k < 2:
        n, k = n << (2 - k), 2
    c, e, u, v = _BASE_CELLS[max(0, (n >> (k - 2)) - 1)]
    # t = lo + (hi - lo) * x with x = rel / 2^k in [0, 1)
    rel, k = n - (c << (k - e)), k - e
    if not rel:
        return u
    z = _twos(rel)
    rel, k = rel >> z, k - z
    # x = ?(b / (a + b)) has binary digits 0^r0 1^r1 0^r2 ... and then a
    # final 1, where r0, r1, ... are the runs of the descent to the vector
    digits = format(rel >> 1, "0%db" % (k - 1)) if k > 1 else ""
    runs = []
    pos, digit = 0, "1"
    while pos < len(digits):
        end = digits.find(digit, pos)
        if end < 0:
            end = len(digits)
        runs.append(end - pos)
        pos, digit = end, "0" if digit == "1" else "1"
    return vec_add(*cone_parents(u, v, runs))


def vector_to_dyadic(w: Vec) -> Fraction:
    """Dyadic circle point corresponding to a primitive integer vector."""
    if primitive(w) != w:
        raise ValueError("vector must be primitive: %s" % (w,))
    for c, e, u, v in _BASE_CELLS:
        if w == u:
            return Fraction(c, 1 << e)
        if wedge(u, w) > 0 and wedge(w, v) > 0:
            break
    else:
        raise ValueError("vector not located in any base cell: %s" % (w,))
    # t = lo + (hi - lo) * ?(x); the binary digits of ?(x) are the runs of
    # the descent to w, alternately 0s and 1s, and then a final 1
    digits = "".join("01"[i % 2] * r
                     for i, r in enumerate(cone_runs(u, v, w))) + "1"
    k = len(digits)
    return Fraction((c << k) + int(digits, 2), 1 << (e + k))


class DyadicPL:
    """Orientation-preserving circle map, affine between dyadic breakpoints.

    Given by ``points``, a tuple of (t, f(t)) pairs with strictly increasing
    dyadic t in [0,1), holding only genuine slope-change points.  A rigid
    rotation is the single pair ((0, c),).  Slopes are validated to be powers
    of two and the map to be a degree-one circle bijection.

    The points are stored as integers over 2**_exp, their least common
    denominator: ``_ts`` the abscissae, ``_ys`` their images and ``_shifts``
    the slope exponent of the piece starting at each.  Evaluation finds the
    piece by bisection and applies the slope as a shift.
    """

    __slots__ = ("_exp", "_ts", "_ys", "_shifts")

    def __init__(self, points):
        pts = []
        for t, y in points:
            t, y = _exact(t), _exact(y)
            if not _is_dyadic(t) or not _is_dyadic(y):
                raise ValueError("breakpoint not dyadic: (%s, %s)"
                                 % (_mod1(t), _mod1(y)))
            pts.append((t, y))
        if not pts:
            raise ValueError("need at least one breakpoint")
        exp = max(x.denominator.bit_length() - 1 for pt in pts for x in pt)
        mask = (1 << exp) - 1
        self._set(exp, [
            tuple(x.numerator << (exp + 1 - x.denominator.bit_length()) & mask
                  for x in pt)
            for pt in pts])

    @classmethod
    def _from_ints(cls, exp, pairs) -> "DyadicPL":
        """The map through the points (t/2^exp, y/2^exp) of the int pairs."""
        self = object.__new__(cls)
        self._set(exp, pairs)
        return self

    def _set(self, exp, pairs):
        """Validate integer pairs over 2**exp and store the canonical form."""
        one = 1 << exp
        pairs.sort()
        n = len(pairs)
        for (t1, _), (t2, _) in zip(pairs, pairs[1:]):
            if t1 == t2:
                raise ValueError(
                    "repeated breakpoint at t=%s" % (Fraction(t1, one),))
        keep = []
        if n > 1:
            shifts = []
            total = 0
            for i in range(n):
                t1, y1 = pairs[i]
                t2, y2 = pairs[(i + 1) % n]
                dt = (t2 - t1) % one
                dy = (y2 - y1) % one
                if dy == 0:
                    raise ValueError("map is not injective near t=%s"
                                     % (Fraction(t1, one),))
                zt, zy = _twos(dt), _twos(dy)
                if dt >> zt != dy >> zy:
                    raise ValueError("slope %s is not a power of two"
                                     % (Fraction(dy, dt),))
                shifts.append(zy - zt)
                total += dy
            if total != one:
                raise ValueError("total winding is %s, expected 1"
                                 % (Fraction(total, one),))
            keep = [(t, y, s) for (t, y), s, before
                    in zip(pairs, shifts, shifts[-1:] + shifts[:-1])
                    if s != before]
        if not keep:
            t0, y0 = pairs[0]
            keep = [(0, (y0 - t0) % one, 0)]
        low = max([exp - _twos(x) for t, y, _ in keep for x in (t, y) if x],
                  default=0)
        set_ = object.__setattr__
        set_(self, "_exp", low)
        set_(self, "_ts", tuple(t >> (exp - low) for t, _, _ in keep))
        set_(self, "_ys", tuple(y >> (exp - low) for _, y, _ in keep))
        set_(self, "_shifts", tuple(s for _, _, s in keep))

    def __setattr__(self, name, value):
        raise AttributeError("DyadicPL is immutable")

    @property
    def points(self):
        """(t, f(t)) Fraction pairs by increasing t."""
        den = 1 << self._exp
        return tuple((Fraction(t, den), Fraction(y, den))
                     for t, y in zip(self._ts, self._ys))

    @property
    def is_rotation(self) -> bool:
        return len(self._ts) == 1

    @property
    def breakpoints(self):
        """Slope-change points; empty for a rotation."""
        if self.is_rotation:
            return ()
        return tuple(Fraction(t, 1 << self._exp) for t in self._ts)

    def is_identity(self) -> bool:
        return self._ts == self._ys == (0,)

    def __call__(self, t) -> Fraction:
        t = _exact(t)
        return Fraction(*self._image(t.numerator % t.denominator,
                                     t.denominator))

    def _image(self, n, d):
        """Image of n/d in [0, 1) as an unreduced fraction (y, den)."""
        exp = self._exp
        # den is a common denominator of n/d and the points, unit = den/2^exp
        k = max(0, exp - _twos(d))
        den, x = d << k, n << k
        unit = den >> exp
        i = bisect_right(self._ts, x // unit) - 1
        dt = x - self._ts[i] * unit
        if dt < 0:
            # before the first breakpoint: on the last piece, across 0
            dt += den
        y = self._ys[i] * unit
        s = self._shifts[i]
        if s >= 0:
            y += dt << s
        else:
            y = (y << -s) + dt
            den <<= -s
        if y >= den:
            y -= den
        return y, den

    def __eq__(self, other):
        if not isinstance(other, DyadicPL):
            return NotImplemented
        return (self._exp, self._ts, self._ys) == (
            other._exp, other._ts, other._ys)

    def __hash__(self):
        return hash(("DyadicPL", self._exp, self._ts, self._ys))

    def __invert__(self) -> "DyadicPL":
        return DyadicPL._from_ints(
            self._exp, [(y, t) for t, y in zip(self._ts, self._ys)])

    def __mul__(self, other) -> "DyadicPL":
        if not isinstance(other, DyadicPL):
            return NotImplemented
        return dyadic_compose(self, other)

    def __repr__(self):
        body = ", ".join("%s:%s" % (t, y) for t, y in self.points)
        return "DyadicPL(%s)" % body

    def to_json(self):
        return {
            "breakpoints": [
                [_dyadic_pair(t), _dyadic_pair(y)] for t, y in self.points
            ]
        }

    @classmethod
    def from_json(cls, data) -> "DyadicPL":
        pts = [
            (_from_dyadic_pair(px), _from_dyadic_pair(py))
            for px, py in data["breakpoints"]
        ]
        return cls(pts)


def dyadic_identity() -> DyadicPL:
    return DyadicPL([(_ZERO, _ZERO)])


def dyadic_compose(f: DyadicPL, g: DyadicPL) -> DyadicPL:
    """Composite f(g(t)); breakpoints of g joined with g-preimages of f's."""
    # candidate breakpoints as (numerator, power-of-two denominator)
    cand = []
    if not g.is_rotation:
        cand += [(t, 1 << g._exp) for t in g._ts]
    if not f.is_rotation:
        ginv = ~g
        cand += [ginv._image(b, 1 << f._exp) for b in f._ts]
    if not cand:
        cand = [(0, 1)]
    den = max(d for _, d in cand)
    images = []
    for t in {n * (den // d) for n, d in cand}:
        y, dy = f._image(*g._image(t, den))
        images.append((t, y, dy))
    top = max(den, max(dy for _, _, dy in images))
    return DyadicPL._from_ints(top.bit_length() - 1, [
        (t * (top // den), y * (top // dy)) for t, y, dy in images])


def _nleaves(tree) -> int:
    if tree is None:
        return 1
    return _nleaves(tree[0]) + _nleaves(tree[1])


def _sup_tree(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (_sup_tree(a[0], b[0]), _sup_tree(a[1], b[1]))


def _subtrees_over_leaves(big, small):
    """Subtrees of ``big`` hanging over each leaf of ``small`` (small <= big)."""
    if small is None:
        return [big]
    if big is None:
        raise ValueError("tree is not a refinement")
    return _subtrees_over_leaves(big[0], small[0]) + _subtrees_over_leaves(
        big[1], small[1]
    )


def _graft(tree, subs_iter):
    if tree is None:
        return next(subs_iter)
    return (_graft(tree[0], subs_iter), _graft(tree[1], subs_iter))


def _leaf_intervals(tree, lo=_ZERO, hi=_ONE):
    if tree is None:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    return _leaf_intervals(tree[0], lo, mid) + _leaf_intervals(tree[1], mid, hi)


def _carets(tree):
    """Leaf index i for every internal node whose two children are leaves."""
    out = []

    def walk(t, base):
        if t is None:
            return 1
        nl = walk(t[0], base)
        nr = walk(t[1], base + nl)
        if t[0] is None and t[1] is None:
            out.append(base)
        return nl + nr

    walk(tree, 0)
    return out


def _drop_caret(tree, i):
    """Replace the caret whose left leaf has index i by a single leaf."""

    def walk(t, base):
        if t is None:
            return None, 1
        nl = _nleaves(t[0])
        if t[0] is None and t[1] is None and base == i:
            return None, 2
        left, ln = walk(t[0], base)
        right, rn = walk(t[1], base + nl)
        return (left, right), ln + rn

    new, _ = walk(tree, 0)
    return new


def _validate_tree(t):
    if t is None:
        return
    if not (isinstance(t, tuple) and len(t) == 2):
        raise ValueError("tree nodes must be None or 2-tuples")
    _validate_tree(t[0])
    _validate_tree(t[1])


class TreePair:
    """Reduced tree-pair form of a dyadic circle map.

    ``domain`` and ``range`` are binary trees (None = leaf, (l, r) = caret)
    with the same number of leaves N; ``rotation`` r matches domain leaf i
    with range leaf (r + i) mod N.  Construction reduces the pair: any caret
    present in both trees at matched positions is cancelled.
    """

    __slots__ = ("domain", "range", "rotation")

    def __init__(self, domain, range_, rotation):
        _validate_tree(domain)
        _validate_tree(range_)
        n = _nleaves(domain)
        if _nleaves(range_) != n:
            raise ValueError("domain and range trees must have equal leaf counts")
        rotation = int(rotation) % n
        domain, range_, rotation = _reduce_pair(domain, range_, rotation)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "range", range_)
        object.__setattr__(self, "rotation", rotation)

    def __setattr__(self, name, value):
        raise AttributeError("TreePair is immutable")

    @property
    def leaf_count(self) -> int:
        return _nleaves(self.domain)

    def is_identity(self) -> bool:
        return self.domain is None and self.range is None and self.rotation == 0

    def __eq__(self, other):
        if not isinstance(other, TreePair):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.range == other.range
            and self.rotation == other.rotation
        )

    def __hash__(self):
        return hash(("TreePair", self.domain, self.range, self.rotation))

    def __invert__(self) -> "TreePair":
        return TreePair(self.range, self.domain, -self.rotation)

    def __mul__(self, other) -> "TreePair":
        if not isinstance(other, TreePair):
            return NotImplemented
        return treepair_compose(self, other)

    def __repr__(self):
        return "TreePair(%r, %r, %d)" % (self.domain, self.range, self.rotation)

    def to_json(self):
        return {
            "domain": _tree_to_json(self.domain),
            "range": _tree_to_json(self.range),
            "rotation": self.rotation,
        }

    @classmethod
    def from_json(cls, data) -> "TreePair":
        rotation = data["rotation"]
        if not isinstance(rotation, int) or isinstance(rotation, bool):
            raise ValueError("tree-pair rotation must be an integer, got %r"
                             % (rotation,))
        return cls(
            _tree_from_json(data["domain"]),
            _tree_from_json(data["range"]),
            rotation,
        )


def _tree_to_json(t):
    if t is None:
        return 0
    return [_tree_to_json(t[0]), _tree_to_json(t[1])]


def _tree_from_json(data):
    if data == 0:
        return None
    if isinstance(data, (list, tuple)) and len(data) == 2:
        return (_tree_from_json(data[0]), _tree_from_json(data[1]))
    raise ValueError("tree nodes must be 0 or [left, right]")


def _reduce_pair(domain, range_, rotation):
    while True:
        n = _nleaves(domain)
        if n == 1:
            return None, None, 0
        dcarets = _carets(domain)
        rcarets = set(_carets(range_))
        for i in dcarets:
            j = (rotation + i) % n
            if j != n - 1 and j in rcarets:
                domain = _drop_caret(domain, i)
                range_ = _drop_caret(range_, j)
                if rotation > j:
                    rotation -= 1
                rotation %= n - 1
                break
        else:
            return domain, range_, rotation


def treepair_identity() -> TreePair:
    return TreePair(None, None, 0)


def treepair_compose(f: TreePair, g: TreePair) -> TreePair:
    """Composite f(g(t)) via the common refinement of g.range and f.domain."""
    z = _sup_tree(g.range, f.domain)
    n = _nleaves(z)

    m = g.leaf_count
    gsubs = _subtrees_over_leaves(z, g.range)
    gdom = _graft(g.domain, iter(gsubs[(g.rotation + i) % m] for i in range(m)))
    grot = sum(_nleaves(gsubs[p]) for p in range(g.rotation))

    k = f.leaf_count
    fsubs = _subtrees_over_leaves(z, f.domain)
    frange = _graft(f.range, iter(fsubs[(q - f.rotation) % k] for q in range(k)))
    frot = sum(_nleaves(fsubs[(q - f.rotation) % k]) for q in range(f.rotation))

    return TreePair(gdom, frange, (frot + grot) % n)


def treepair_to_dyadic(tp: TreePair) -> DyadicPL:
    """Breakpoints: domain leaf i starts where range leaf (rot+i) mod N starts."""
    dom = _leaf_intervals(tp.domain)
    rng = _leaf_intervals(tp.range)
    n = len(dom)
    pts = [(dom[i][0], rng[(tp.rotation + i) % n][0]) for i in range(n)]
    return DyadicPL(pts)


def _tree_from_cuts(cuts, lo=_ZERO, hi=_ONE):
    if not any(lo < c < hi for c in cuts):
        return None
    mid = (lo + hi) / 2
    return (_tree_from_cuts(cuts, lo, mid), _tree_from_cuts(cuts, mid, hi))


def dyadic_to_treepair(d: DyadicPL) -> TreePair:
    """Tree-pair form: refine [0,1) until every piece maps onto a standard
    dyadic interval, then read both partitions as binary trees."""
    dinv = ~d
    cuts = {_ZERO, dinv(_ZERO)} | set(d.breakpoints)
    for _ in range(_MAX_DEPTH):
        dom = _leaf_intervals(_tree_from_cuts(cuts))
        bad = []
        for lo, hi in dom:
            length = hi - lo
            y = d(lo)
            # image interval [y, y + slope*length) must be standard: its
            # length is a power of two dividing its left endpoint
            ylen = _mod1(d(lo + length / 2) - y) * 2
            if (y / ylen).denominator != 1:
                bad.append((lo + hi) / 2)
        if not bad:
            break
        cuts.update(bad)
    else:
        raise RuntimeError("interval refinement did not terminate")
    dtree = _tree_from_cuts(cuts)
    dom = _leaf_intervals(dtree)
    image_cuts = sorted(d(lo) for lo, _ in dom)
    rtree = _tree_from_cuts(set(image_cuts))
    if [lo for lo, _ in _leaf_intervals(rtree)] != image_cuts:
        raise RuntimeError("image partition is not a tree partition")
    rotation = image_cuts.index(d(_ZERO))
    return TreePair(dtree, rtree, rotation)


def _required_rays(f: PLAut):
    finv = inverse_pl(f)
    rays = set(f.rays) | set(_ANCHOR_VECS)
    for a in _ANCHOR_VECS:
        rays.add(finv(a))
    return rays


def _refined_cells(required):
    """Mediant-refine the base cells until required rays are endpoints.

    Rays come out counterclockwise: a cone is split at its mediant while a
    required ray lies strictly inside, and the halves are visited in order
    from an explicit stack, since a descent can be thousands of steps deep.
    """
    rays = []
    for _, _, u, v in _BASE_CELLS:
        # entries: (ray, None) emits a ray, (u, v, inside) splits a cone
        stack = [(u, v, required), (u, None)]
        while stack:
            entry = stack.pop()
            if entry[1] is None:
                rays.append(entry[0])
                continue
            a, b, req = entry
            inside = [s for s in req if wedge(a, s) > 0 and wedge(s, b) > 0]
            if inside:
                m = vec_add(a, b)
                stack += [(m, b, inside), (m, None), (a, m, inside)]
    return rays


def plaut_to_dyadic(f: PLAut) -> DyadicPL:
    """Circle form of a plane automorphism via the dyadic/vector walk."""
    rays = _refined_cells(_required_rays(f))
    pts = [(vector_to_dyadic(r), vector_to_dyadic(f(r))) for r in rays]
    d = DyadicPL(pts)
    n = len(rays)
    for i in range(n):
        u, v = rays[i], rays[(i + 1) % n]
        t_mid = _mod1(
            vector_to_dyadic(u)
            + _mod1(vector_to_dyadic(v) - vector_to_dyadic(u)) / 2
        )
        if d(t_mid) != vector_to_dyadic(primitive(vec_add(f(u), f(v)))):
            raise RuntimeError("midpoint/mediant certification failed")
    return d


def dyadic_to_plaut(d: DyadicPL) -> PLAut:
    """Plane form of a circle map; fails if the map does not come from one."""
    dinv = ~d
    required_t = {_ZERO} | set(d.breakpoints) | set(_ANCHOR_T)
    for a in _ANCHOR_T:
        required_t.add(dinv(a))
    rays = _refined_cells({dyadic_to_vector(t) for t in required_t})

    def fn(v: Vec) -> Vec:
        k = gcd(v[0], v[1])
        p = (v[0] // k, v[1] // k)
        w = dyadic_to_vector(d(vector_to_dyadic(p)))
        return (k * w[0], k * w[1])

    return from_function(fn, hint_rays=rays)


def plaut_to_treepair(f: PLAut) -> TreePair:
    return dyadic_to_treepair(plaut_to_dyadic(f))


def treepair_to_plaut(tp: TreePair) -> PLAut:
    return dyadic_to_plaut(treepair_to_dyadic(tp))


def cfp_generators():
    """Standard generating triple (A, B, C) of the circle group, realized as
    DyadicPL maps through the plane model.  A and B generate the stabilizer
    side, C is the order-three piece permutation; the triple satisfies the
    classical circle-group presentation relations."""
    P = generator_pl("P")
    C = generator_pl("C")
    Cinv = inverse_pl(C)
    R = P * P * C
    a = C * R * R
    b = Cinv * inverse_pl(R)
    return (plaut_to_dyadic(a), plaut_to_dyadic(b), plaut_to_dyadic(Cinv))
