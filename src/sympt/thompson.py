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
  rotation offset matching domain leaves to range leaves.  A tree is the
  flat tuple of its leaf depths, so no step recurses: a pair is reduced in
  one stack pass, composed through a two-pointer common refinement and
  read off a ``DyadicPL``'s breakpoints by ``_leaves``, the one walk that
  also cuts the circle into the cones of the plane form.

The correspondence sends 0, 1/2, 3/4 to the vectors (1,0), (0,1), (-1,-1)
and interval midpoints to vector mediants.  On each base cell [lo, hi) with
corner rays u, v it is Minkowski's question-mark function: w goes to
lo + (hi - lo) * ?(b / (a + b)), where (a, b) = (w ^ v, u ^ w) are the cone
coordinates of w.  One point or vector is converted from continued
fractions: the partial quotients of a / b are the run lengths of the binary
digits of ?(x) (``plcore.cone_runs``), so it costs O(#partial quotients)
integer operations.  A whole map walks no point but its required rays: its
breakpoints come in circle order and cut the circle into cells, so each
side of ``plaut_to_dyadic`` and ``dyadic_to_plaut`` is one descent of the
mediant tree, one vector addition per cell.

Inside the module a circle point is a (numerator, exponent) pair of
integers, the point n / 2^k: both walks (``_vector_to_pair`` and
``_pair_to_vector``), evaluation, composition and the conversions to and
from the plane rescale such pairs by shifts; the circle is ordered by
numerators over one power of two, never by plane angle, and a descent only
asks whether a ray lies inside a cell's cone.  ``Fraction`` is
only at the API boundary: ``vector_to_dyadic``, ``dyadic_to_vector``,
calling a ``DyadicPL`` on a number, and its ``points``.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from .plcore import (
    Frozen,
    PLAut,
    Vec,
    _json_ints,
    _json_list,
    _json_object,
    cone_parents,
    cone_runs,
    generator_pl,
    inverse_pl,
    mat_apply,
    mat_mul,
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
    "POINT_BUDGET",
    "within_budget",
]

# Base cells of the correspondence: (c, e, left ray, right ray) for the
# standard dyadic interval [c/2^e, (c+1)/2^e).  Midpoint of a cell
# corresponds to the mediant of its rays.
_BASE_CELLS = (
    (0, 1, (1, 0), (0, 1)),
    (2, 2, (0, 1), (-1, -1)),
    (3, 2, (-1, -1), (1, 0)),
)

_ANCHOR_VECS = ((1, 0), (0, 1), (-1, -1))

# The most points a circle form may hold: the leaves of each tree of a
# TreePair, the breakpoints of a DyadicPL, and the binary digits of each
# point.  U^5000's forms hold about 10^4 points; U^n doubles them with n,
# so a power like U^99999999999 is refused after a dozen squarings rather
# than run without bound.
POINT_BUDGET = 2 ** 14


def _past_budget(what: str) -> ValueError:
    return ValueError("circle form past the budget of %d points: %s"
                      % (POINT_BUDGET, what))


def within_budget(g):
    """g, a TreePair or a DyadicPL, when it holds at most POINT_BUDGET
    points of at most POINT_BUDGET binary digits; ValueError otherwise.  A
    tree of n leaves is less than n deep, so a TreePair is measured by its
    leaves alone."""
    if isinstance(g, TreePair):
        points, digits = g.leaf_count, 0
    else:
        points, digits = len(g._ts), g._exp
    if points > POINT_BUDGET:
        raise _past_budget("it holds %d" % points)
    if digits > POINT_BUDGET:
        raise _past_budget("a point needs %d binary digits" % digits)
    return g


def _exact(t) -> Fraction:
    """t as a Fraction.  Floats are refused: every float is a dyadic
    rational, so 0.1 would silently become a 55-bit dyadic."""
    if isinstance(t, float):
        raise ValueError("circle points must be exact, got float %r" % (t,))
    return Fraction(t)


def _twos(n: int) -> int:
    """Exponent of 2 in a nonzero integer."""
    return (n & -n).bit_length() - 1


def _dyadic(t) -> tuple[int, int]:
    """The point t mod 1 as (n, k), t = n / 2^k in lowest terms and
    0 <= n < 2^k; ValueError for a float or a non-dyadic t."""
    t = _exact(t)
    d = t.denominator
    if d & (d - 1):
        raise ValueError("not a dyadic rational: %s" % (t,))
    return t.numerator % d, d.bit_length() - 1


def _common_exponent(pts):
    """(exp, pairs): the (point, image) pairs of (n, k) points as int
    pairs over 2^exp, the largest k, each taken mod 1."""
    if not pts:
        raise ValueError("need at least one breakpoint")
    exp = max(k for pt in pts for _, k in pt)
    mask = (1 << exp) - 1
    return exp, [tuple(n << (exp - k) & mask for n, k in pt) for pt in pts]


def _pair_to_vector(n: int, k: int) -> Vec:
    """Primitive integer vector of the dyadic point n / 2^k in [0, 1)."""
    if k < 2:
        n, k = n << (2 - k), 2
    c, e, u, v = _BASE_CELLS[max(0, (n >> (k - 2)) - 1)]
    # t = lo + (hi - lo) * x with x = rel / 2^k in [0, 1)
    rel, k = n - (c << (k - e)), k - e
    if not rel:
        return u
    z = _twos(rel)
    rel, k = rel >> z, k - z
    # x = ?(b / (a + b)) has the k binary digits 0^r0 1^r1 0^r2 ... and
    # then a final 1, where r0, r1, ... are the runs of the descent to the
    # vector; they are read off from the lowest digit up
    x = rel >> 1
    runs = []
    while x:
        zeros = (x & -x).bit_length() - 1
        x >>= zeros
        ones = ((x + 1) & ~x).bit_length() - 1
        x >>= ones
        runs += (zeros, ones)
    runs.append(k - 1 - sum(runs))
    runs.reverse()
    return vec_add(*cone_parents(u, v, runs))


def _vector_to_pair(w: Vec, budget: bool = False) -> tuple[int, int]:
    """(n, k) with n / 2^k in [0, 1) the dyadic point of a primitive
    integer vector; with budget, ValueError for a point of more than
    POINT_BUDGET binary digits, before any digit is built."""
    if primitive(w) != w:
        raise ValueError("vector must be primitive: %s" % (w,))
    for c, e, u, v in _BASE_CELLS:
        if w == u:
            return c, e
        if wedge(u, w) > 0 and wedge(w, v) > 0:
            break
    else:
        raise ValueError("vector not located in any base cell: %s" % (w,))
    # t = lo + (hi - lo) * ?(x); the binary digits of ?(x) are the runs of
    # the descent to w, alternately 0s and 1s, and then a final 1
    runs = cone_runs(u, v, w)
    if budget and e + sum(runs) + 1 > POINT_BUDGET:
        raise _past_budget("a ray's point needs %d binary digits"
                           % (e + sum(runs) + 1))
    x = k = 0
    for i, r in enumerate(runs):
        x <<= r
        if i % 2:
            x |= (1 << r) - 1
        k += r
    return (c << (k + 1)) + (x << 1 | 1), e + k + 1


def dyadic_to_vector(t) -> Vec:
    """Primitive integer vector corresponding to a dyadic circle point."""
    return _pair_to_vector(*_dyadic(t))


def vector_to_dyadic(w: Vec) -> Fraction:
    """Dyadic circle point corresponding to a primitive integer vector."""
    n, k = _vector_to_pair(w)
    return Fraction(n, 1 << k)


class DyadicPL(Frozen):
    """Orientation-preserving circle map, affine between dyadic breakpoints.

    Given by ``points``, a tuple of (t, f(t)) pairs with strictly increasing
    dyadic t in [0,1), holding only genuine slope-change points.  A rigid
    rotation is the single pair ((0, c),).

    The points are stored as integers over 2**_exp, their least common
    denominator: ``_ts`` the abscissae, ``_ys`` their images and ``_shifts``
    the slope exponent of the piece starting at each.  Evaluation finds the
    piece by bisection and applies the slope as a shift.

    Outside input enters through the constructor, from_json and
    __reduce__ (copy and pickle), all through _checked_form, which refuses
    a slope that is not a power of two or a map that is not a degree-one
    circle bijection.  The kernels, dyadic_compose, ~, plaut_to_dyadic and
    treepair_to_dyadic, know each slope and build through _trusted, which
    only canonicalizes; each proves its map valid in its docstring.
    """

    __slots__ = ("_exp", "_ts", "_ys", "_shifts")

    def __init__(self, points):
        self._init(*_checked_form(*_common_exponent(
            [(_dyadic(t), _dyadic(y)) for t, y in points])))

    @classmethod
    def _from_ints(cls, exp, pairs) -> "DyadicPL":
        """The map through the points (t/2^exp, y/2^exp) of the int pairs,
        checked as outside input."""
        return cls._new(*_checked_form(exp, pairs))

    @classmethod
    def _trusted(cls, exp, ts, ys, shifts, first=0) -> "DyadicPL":
        """The canonical form of a map that a kernel proves valid: points
        ts[i] / 2^exp that increase around the circle from index first,
        their images ys[i] / 2^exp, and the slope exponent shifts[i] of the
        piece from each.  No sort and no check."""
        if first:
            ts, ys = ts[first:] + ts[:first], ys[first:] + ys[:first]
            shifts = shifts[first:] + shifts[:first]
        return cls._new(*_canonical(exp, ts, ys, shifts))

    def __reduce__(self):
        return DyadicPL._from_ints, (self._exp, list(zip(self._ts, self._ys)))

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
        d = t.denominator
        z = _twos(d)
        y, m = self._image(t.numerator % d, z, d >> z)
        return Fraction(y, d >> z << m)

    def _image(self, x, m, odd=1):
        """Image of x / (odd * 2^m) in [0, 1), for odd odd, as the pair
        (y, m') of the point y / (odd * 2^m'), unreduced.

        The one piece lookup: bisection finds the piece, and its slope is
        applied as a shift.  A dyadic point has odd = 1, and then every
        step is a shift of its numerator.
        """
        exp = self._exp
        if m < exp:
            x, m = x << (exp - m), exp
        # over odd * 2^m a point t / 2^exp has numerator t * odd << up
        up = m - exp
        i = bisect_right(self._ts, x // odd >> up) - 1
        dt = x - (self._ts[i] * odd << up)
        if dt < 0:
            # before the first breakpoint: on the last piece, across 0
            dt += odd << m
        y = self._ys[i] * odd << up
        s = self._shifts[i]
        if s >= 0:
            y += dt << s
        else:
            y, m = (y << -s) + dt, m - s
        if y >> m >= odd:
            y -= odd << m
        return y, m

    def __invert__(self) -> "DyadicPL":
        """The inverse map: its points are the images y_i, with images t_i,
        and its piece from y_i is the image of the piece from t_i, with
        slope exponent -s_i.  The y_i increase around the circle from the
        least, since the map is a degree-one bijection."""
        ys = self._ys
        return DyadicPL._trusted(self._exp, ys, self._ts,
                                 tuple([-s for s in self._shifts]),
                                 ys.index(min(ys)))

    def __mul__(self, other) -> "DyadicPL":
        if not isinstance(other, DyadicPL):
            return NotImplemented
        return dyadic_compose(self, other)

    def __repr__(self):
        body = ", ".join("%s:%s" % (t, y) for t, y in self.points)
        return "DyadicPL(%s)" % body

    def to_json(self):
        exp = self._exp

        def pair(x):
            # x / 2^exp in lowest terms, as (numerator, log2 of denominator)
            z = _twos(x) if x else exp
            return [x >> z, exp - z]

        return {"breakpoints": [[pair(t), pair(y)]
                                for t, y in zip(self._ts, self._ys)]}

    @classmethod
    def from_json(cls, data) -> "DyadicPL":
        """The map of to_json's data: each point is a [numerator, log2 of
        denominator] pair of JSON integers."""
        (breakpoints,) = _json_object(data, "DyadicPL", ("breakpoints",))
        pts = [tuple(tuple(_json_ints(p, "dyadic pair", 2))
                     for p in _json_list(bp, "breakpoint", 2, "points"))
               for bp in _json_list(breakpoints, "breakpoints", of="pairs")]
        if any(k < 0 for pt in pts for _, k in pt):
            raise ValueError("negative denominator exponent")
        return cls._from_ints(*_common_exponent(pts))


def _checked_form(exp, pairs):
    """The fields of the map through the integer pairs over 2**exp, or
    ValueError if they repeat a point, or make a slope that is not a power
    of two or a map that is not a degree-one circle bijection."""
    one = 1 << exp
    pairs.sort()
    n = len(pairs)
    for (t1, _), (t2, _) in zip(pairs, pairs[1:]):
        if t1 == t2:
            raise ValueError(
                "repeated breakpoint at t=%s" % (Fraction(t1, one),))
    shifts = [0]
    if n > 1:
        shifts = []
        total = 0
        for (t1, y1), (t2, y2) in zip(pairs, pairs[1:] + pairs[:1]):
            dt = (t2 - t1) % one
            dy = (y2 - y1) % one
            if dy == 0:
                raise ValueError("map is not injective near t=%s"
                                 % (Fraction(t1, one),))
            # the slope dy / dt is a power of two when both have the same
            # odd part, and then it is 2^(zy - zt); shifting out one bit
            # past the twos leaves (odd part - 1) / 2
            zt, zy = (dt & -dt).bit_length(), (dy & -dy).bit_length()
            if dt >> zt != dy >> zy:
                raise ValueError("slope %s is not a power of two"
                                 % (Fraction(dy, dt),))
            shifts.append(zy - zt)
            total += dy
        if total != one:
            raise ValueError("total winding is %s, expected 1"
                             % (Fraction(total, one),))
    return _canonical(exp, [t for t, _ in pairs], [y for _, y in pairs],
                      shifts)


def _canonical(exp, ts, ys, shifts):
    """The fields of a valid map given by increasing points ts over
    2**exp, their images ys and the slope exponent shifts of the piece
    from each: only the points where the slope changes, or for a rotation
    the one point (0, image of 0), over the least power of two."""
    keep = [(t, y, s) for t, y, s, before
            in zip(ts, ys, shifts, shifts[-1:] + shifts[:-1]) if s != before]
    if not keep:
        keep = [(0, (ys[0] - ts[0]) % (1 << exp), 0)]
    # the fewest bits that hold every kept point: the lowest set bit of any
    # point is the lowest set bit of their OR
    bits = 0
    for t, y, _ in keep:
        bits |= t | y
    cut = _twos(bits) if bits else exp
    ts, ys, shifts = zip(*keep)
    return (exp - cut, tuple([t >> cut for t in ts]),
            tuple([y >> cut for y in ys]), shifts)


def dyadic_identity() -> DyadicPL:
    return DyadicPL._from_ints(0, [(0, 0)])


def dyadic_compose(f: DyadicPL, g: DyadicPL) -> DyadicPL:
    """Composite f(g(t)), in one walk around the circle.

    The breakpoints of f(g(t)) lie among g's breakpoints and the
    g-preimages of f's.  g's pieces, taken by image from the lowest, and
    f's pieces both come in circle order, so one merge of the two from 0
    meets each point y with the piece of g that reaches it and the piece
    of f that holds it, and (g^-1(y), f(y)) is a point of the composite.
    Points are integers over one power of two, fine enough that g^-1 and
    f are exact shifts on them.

    The map is valid as built, so DyadicPL._trusted does not check it.
    f g is a degree-one circle bijection, as f and g are.  The merge meets
    each y once, in increasing order, and g^-1 preserves the circle order,
    so the points g^-1(y) are distinct and increase around the circle from
    the least.  From each, f g runs affinely to the next: g maps that arc
    into the piece of g reached at y, and then onto the arc from y to the
    next y, inside the piece of f that holds y, since every breakpoint of
    f and every image of one of g lies among the y.  So its slope is
    2^(gsh + fsh), the exponents of those two pieces.
    """
    up = max(0, max(g._shifts), -min(f._shifts))
    top = max(g._exp, f._exp) + up
    one = 1 << top
    gu, fu = top - g._exp, top - f._exp
    k = g._ys.index(min(g._ys))
    gs = [(y << gu, t << gu, s) for y, t, s in zip(g._ys, g._ts, g._shifts)]
    gs = gs[k:] + gs[:k]
    fs = [(t << fu, y << fu, s) for t, y, s in zip(f._ts, f._ys, f._shifts)]
    # before the first point of each list, its last piece runs across 0
    gy, gt, gsh = gs[-1]
    fx, fy, fsh = fs[-1]
    ts, ys, shifts = [], [], []
    i = j = 0
    n, m = len(gs), len(fs)
    while i < n or j < m:
        if j == m or (i < n and gs[i][0] <= fs[j][0]):
            gy, gt, gsh = gs[i]
            i += 1
            y = gy
            if j < m and fs[j][0] == y:
                fx, fy, fsh = fs[j]
                j += 1
        else:
            fx, fy, fsh = fs[j]
            j += 1
            y = fx
        dt = (y - gy) % one
        dz = (y - fx) % one
        ts.append((gt + (dt >> gsh if gsh >= 0 else dt << -gsh)) % one)
        ys.append((fy + (dz << fsh if fsh >= 0 else dz >> -fsh)) % one)
        shifts.append(gsh + fsh)
    return DyadicPL._trusted(top, ts, ys, shifts, ts.index(min(ts)))


_NOT_DEPTHS = ("a tree is a non-empty list of its leaf depths, "
               "non-negative integers, e.g. [2, 2, 1]")


def _is_depth(d) -> bool:
    return isinstance(d, int) and not isinstance(d, bool) and d >= 0


def _checked_tree(depths):
    """(depths, largest depth e, leaf starts over 2**e) for leaf depths that
    tile [0, 1) by standard dyadic intervals; ValueError otherwise.

    One loop takes the starts and checks each depth and its alignment.  A
    bad depth is refused first, then a sum other than 1, then a leaf that
    does not start at a multiple of its length.  The largest depth comes
    first: it is a depth itself, so when it is not one, or the depths do
    not compare, some depth is bad."""
    if not (isinstance(depths, (list, tuple)) and depths):
        raise ValueError(_NOT_DEPTHS)
    depths = tuple(depths)
    try:
        exp = max(depths)
    except TypeError:
        raise ValueError(_NOT_DEPTHS) from None
    if not _is_depth(exp):
        raise ValueError(_NOT_DEPTHS)
    # a tree of depth e has more than e leaves; this keeps 1 << e small
    if exp >= len(depths):
        if not all(map(_is_depth, depths)):
            raise ValueError(_NOT_DEPTHS)
        raise ValueError("leaf lengths do not sum to 1")
    x = 0
    starts = [0]
    aligned = True
    for d in depths:
        # a plain int needs only its sign checked
        if (type(d) is not int and not _is_depth(d)) or d < 0:
            raise ValueError(_NOT_DEPTHS)
        step = 1 << (exp - d)
        if x & (step - 1):
            aligned = False
        x += step
        starts.append(x)
    if x != 1 << exp:
        raise ValueError("leaf lengths do not sum to 1")
    if not aligned:
        raise ValueError("a leaf does not start at a multiple of its length")
    return depths, exp, starts


def _tiled(depths):
    """What _checked_tree returns, for the leaf depths of a tree that a
    kernel built, with none of its checks."""
    exp = max(depths)
    return depths, exp, [0, *accumulate([1 << (exp - d) for d in depths])]


def _reduced(domain, range_, rotation):
    """Cancel the matched carets of a pair in one pass, for trees given as
    _checked_tree or _tiled returns them, with equal leaf counts.

    The leaves are read in domain order onto a stack, kept as four columns:
    domain depth and start, range depth and start.  The top and the next
    leaf are a caret of the pair when they are siblings in the domain, and
    their range leaves are siblings in the same order, not wrapping past 1;
    they are then merged into one leaf, which is checked against the new
    top.  Columns, not a list of 4-tuples: freeing those in bulk after each
    composition made the peak RSS of repeated compositions creep upward.
    """
    domain, dexp, dstarts = domain
    range_, rexp, rstarts = range_
    n = len(domain)
    dd_, ds_, rd_, rs_ = [], [], [], []
    for i in range(n):
        j = (rotation + i) % n
        dd, ds, rd, rs = domain[i], dstarts[i], range_[j], rstarts[j]
        while dd_ and dd_[-1] == dd and rd_[-1] == rd and not (
                ds_[-1] >> (dexp - dd) & 1 or rs_[-1] >> (rexp - rd) & 1
                or rs != rs_[-1] + (1 << (rexp - rd))):
            dd, rd = dd - 1, rd - 1
            del dd_[-1], rd_[-1]
            ds, rs = ds_.pop(), rs_.pop()
        dd_.append(dd)
        ds_.append(ds)
        rd_.append(rd)
        rs_.append(rs)
    # the range order is the domain order turned to start at range leaf 0
    first = rs_.index(0)
    return tuple(dd_), tuple(rd_[first:] + rd_[:first]), -first % len(dd_)


class TreePair(Frozen):
    """Reduced tree-pair form of a dyadic circle map.

    ``domain`` and ``range`` are binary trees with N leaves each, stored as
    the tuples of their leaf depths read left to right: (2, 2, 1) has the
    leaves [0, 1/4), [1/4, 1/2), [1/2, 1), and (0,) is one leaf.  In JSON a
    tree is the same flat list.  ``rotation`` r matches domain leaf i with
    range leaf (r + i) mod N.  A pair is stored reduced: every caret
    present in both trees at matched leaves is cancelled, in one
    left-to-right pass.

    Outside input enters through the constructor, from_json and
    __reduce__ (copy and pickle), which check that the rotation is an
    integer and that each tree's leaves tile [0, 1) by standard dyadic
    intervals, as many in each, before they cancel.  The kernels,
    treepair_compose and dyadic_to_treepair, build through _trusted,
    which cancels with no check; each proves its trees valid in its
    docstring.  ~ of a reduced pair is reduced and needs no pass.
    """

    __slots__ = ("domain", "range", "rotation")

    def __init__(self, domain, range_, rotation):
        if not isinstance(rotation, int) or isinstance(rotation, bool):
            raise ValueError("tree-pair rotation must be an integer, got %r"
                             % (rotation,))
        domain, range_ = _checked_tree(domain), _checked_tree(range_)
        if len(range_[0]) != len(domain[0]):
            raise ValueError(
                "domain and range trees must have equal leaf counts")
        self._init(*_reduced(domain, range_, rotation))

    @classmethod
    def _trusted(cls, domain, range_, rotation) -> "TreePair":
        """The reduced form of a pair that a kernel proves valid."""
        return cls._new(*_reduced(_tiled(domain), _tiled(range_), rotation))

    @property
    def leaf_count(self) -> int:
        return len(self.domain)

    def is_identity(self) -> bool:
        return self.domain == (0,)

    def __invert__(self) -> "TreePair":
        """The pair with its trees swapped, which matches range leaf j with
        domain leaf j - r, and so is reduced: a caret of it at matched
        leaves would be one of this pair."""
        return TreePair._new(self.range, self.domain,
                             -self.rotation % len(self.domain))

    def __mul__(self, other) -> "TreePair":
        if not isinstance(other, TreePair):
            return NotImplemented
        return treepair_compose(self, other)

    def __repr__(self):
        return "TreePair(%r, %r, %d)" % (self.domain, self.range, self.rotation)

    def to_json(self):
        return {
            "domain": list(self.domain),
            "range": list(self.range),
            "rotation": self.rotation,
        }

    @classmethod
    def from_json(cls, data) -> "TreePair":
        return cls(*_json_object(data, "TreePair",
                                 ("domain", "range", "rotation")))


def treepair_identity() -> TreePair:
    return TreePair((0,), (0,), 0)


def _refinement(a, b):
    """The common refinement Z of trees a and b in one merge of their leaf
    ends, each end read off the depths as the merge reaches it: the depths
    of Z's leaves, and for each the index of the leaf of a and of the leaf
    of b that holds it."""
    exp = max(max(a), max(b))
    one = 1 << exp
    # the depth 0 closing each list is never read: both end at one
    a, b = (*a, 0), (*b, 0)
    depths, under_a, under_b = [], [], []
    i = j = 0
    end_a, end_b = 1 << (exp - a[0]), 1 << (exp - b[0])
    pos = 0
    while pos < one:
        end = min(end_a, end_b)
        depths.append(exp + 1 - (end - pos).bit_length())
        under_a.append(i)
        under_b.append(j)
        if end == end_a:
            i += 1
            end_a += 1 << (exp - a[i])
        if end == end_b:
            j += 1
            end_b += 1 << (exp - b[j])
        pos = end
    return depths, under_a, under_b


def treepair_compose(f: TreePair, g: TreePair) -> TreePair:
    """Composite f(g(t)) via the common refinement Z of g.range and f.domain.

    Each leaf of g.domain is split as Z splits its matched leaf of g.range,
    and each leaf of f.range as Z splits its matched leaf of f.domain, so
    both new trees have Z's leaves.  No circle map is built, so the tree
    model stays an independent check of the dyadic one.

    The trees are valid, so TreePair._trusted only cancels carets.  Each is
    a tiling of [0, 1) by standard intervals, as many as Z has leaves: a
    standard interval split as Z splits another one, scaled onto it, is
    still split into standard intervals.
    """
    depths, under_g, under_f = _refinement(g.range, f.domain)
    m, k = len(g.domain), len(f.domain)
    gshift = [g.domain[(p - g.rotation) % m] - g.range[p] for p in range(m)]
    fshift = [f.range[(p + f.rotation) % k] - f.domain[p] for p in range(k)]
    domain = [z + gshift[p] for z, p in zip(depths, under_g)]
    range_ = [z + fshift[p] for z, p in zip(depths, under_f)]
    # both are in Z's order; the domain starts under range leaf g.rotation
    # of g, the range under the domain leaf of f that goes to 0
    a = under_g.index(g.rotation)
    b = under_f.index(-f.rotation % k)
    return TreePair._trusted(domain[a:] + domain[:a], range_[b:] + range_[:b],
                             a - b)


def treepair_to_dyadic(tp: TreePair) -> DyadicPL:
    """Breakpoints: domain leaf i starts where range leaf (rot+i) mod N
    starts, in one walk of both trees from domain leaf 0.

    The map is valid as built, so DyadicPL._trusted does not check it.
    The leaf starts increase from 0, and domain leaf i, of length 2^-a,
    goes affinely onto range leaf (rot+i) mod N, of length 2^-b, so the
    slope exponent from it is a - b; the range leaves are met once each,
    in circle order, so the map is a degree-one bijection.
    """
    exp = max(max(tp.domain), max(tp.range))
    one, r = 1 << exp, tp.rotation
    # domain leaf 0 goes onto range leaf r, which starts where leaf r - 1
    # ends
    y = sum(one >> e for e in tp.range[:r])
    x, ts, ys, shifts = 0, [], [], []
    for a, b in zip(tp.domain, tp.range[r:] + tp.range[:r]):
        ts.append(x)
        ys.append(y % one)
        shifts.append(a - b)
        x += one >> a
        y += one >> b
    return DyadicPL._trusted(exp, ts, ys, shifts)


def _leaves(d: DyadicPL, floor=0):
    """The tree pair of d's leaves, (domain, range, first): the maximal
    standard dyadic intervals of depth at least floor that d sends
    affinely onto standard intervals of depth at least floor.  domain
    holds their depths from 0, range the depths of their images from the
    one at 0, and first is the index of the leaf going onto 0.

    Each piece of d, taken from 0, is split from the left into such
    intervals, largest first; an image aligned to its own length ends by
    1, so no leaf straddles d^-1(0).  Points are integers over 2^big, big =
    exp + S + floor with S the largest |slope exponent|: then every leaf
    and its image are at least one unit long.
    """
    up = max(abs(s) for s in d._shifts) + floor
    big = d._exp + up
    one = 1 << big
    ts = [t << up for t in d._ts]
    ys = [y << up for y in d._ys]
    shifts = list(d._shifts)
    if ts[0]:
        # the last piece runs across 0: start the domain there
        s = shifts[-1]
        dt = one - ts[-1]
        ts.insert(0, 0)
        ys.insert(0, (ys[-1] + (dt << s if s >= 0 else dt >> -s)) % one)
        shifts.insert(0, s)
    domain, range_ = [], []
    for x, end, y, s in zip(ts, ts[1:] + [one], ys, shifts):
        while x < end:
            # x | one: 0 <= x < one, and 0 is aligned up to the whole circle
            k = min(_twos(x | one), _twos(y | one) - s,
                    (end - x).bit_length() - 1, big - floor, big - floor - s)
            if not y:
                first = len(domain)
            domain.append(big - k)
            range_.append(big - k - s)
            x += 1 << k
            y = (y + (1 << (k + s))) % one
    return domain, range_[first:] + range_[:first], first


def dyadic_to_treepair(d: DyadicPL) -> TreePair:
    """Reduced tree-pair form: the pair of _leaves(d), which is already
    reduced.  Its trees are valid, so TreePair._trusted does not check
    them: each list holds the depths of standard intervals that tile
    [0, 1) from 0, the domain leaves in order and their images from the
    one at 0, one image per leaf."""
    domain, range_, first = _leaves(d)
    return TreePair._trusted(domain, range_, -first)


def _required_rays(f: PLAut):
    finv = inverse_pl(f)
    rays = set(f.rays) | set(_ANCHOR_VECS)
    for a in _ANCHOR_VECS:
        rays.add(finv(a))
    return rays


def _descend(targets, exact=False):
    """Rays and points of the cells of the mediant tree cut at targets.

    targets are primitive vectors in circle order after (1, 0), which
    closes them.  From 0, a cell with corner rays a, b and point x / 2^k
    splits at its mediant a + b, the ray of (2x + 1) / 2^(k + 1), while the
    next target t lies strictly inside its cone, wedge(a, t) > 0 <
    wedge(t, b); a cell left whole emits a and (x, k).  A cell lies in one
    base cell, less than a half-turn, so the two wedges decide.  Each cell
    costs one vector addition, and no point is walked.  With exact, every
    cell must end at the next target, so that the cells are the arcs
    between targets and their points those of (1, 0) and the targets;
    RuntimeError at the first cell that does not.
    """
    targets = list(targets) + [(1, 0)]
    rays, points = [], []
    j = 0
    stack = [(u, v, c, e) for c, e, u, v in reversed(_BASE_CELLS)]
    while stack:
        a, b, x, k = stack.pop()
        t = targets[j]
        while a[0] * t[1] > a[1] * t[0] and t[0] * b[1] > t[1] * b[0]:
            m = (a[0] + b[0], a[1] + b[1])
            stack.append((m, b, 2 * x + 1, k + 1))
            b, x, k = m, 2 * x, k + 1
        rays.append(a)
        points.append((x, k))
        if t == b:
            j += 1
        elif exact:
            raise RuntimeError("midpoint/mediant certification failed")
    return rays, points


def _refined_cells(required):
    """Mediant-refine the base cells until required rays are endpoints.

    Returns the rays counterclockwise and, for each, its dyadic point
    (n, k), the point n / 2^k, not always in lowest terms.  The circle is
    ordered by numerators, so the required rays are walked once and sorted
    as numerators over 2^big, and then _descend cuts the cells at them.  A
    ray whose point needs more than POINT_BUDGET binary digits is refused
    before the descent, from its Stern-Brocot runs.
    """
    pairs = [(_vector_to_pair(s, budget=True), s) for s in required]
    big = max([0] + [k for (_, k), _ in pairs])
    pairs.sort(key=lambda p: p[0][0] << (big - p[0][1]))
    return _descend([s for _, s in pairs if s != (1, 0)])


def plaut_to_dyadic(f: PLAut) -> DyadicPL:
    """Circle form of a plane automorphism, in one descent of the mediant
    tree per side.

    The rays' points come from the refinement.  f sends the rays, taken
    counterclockwise, to images in circle order, and the images hold the
    base rays, since the required rays hold their preimages; so one
    descent from the image (1, 0) gives every image's point, each cell of
    it the arc from one image to the next.  A form past POINT_BUDGET is
    refused, as the circle folds refuse it.

    The descent also certifies that each piece sends the midpoint of its
    cell to the point of w + w', the mediant of the images w, w' of the
    cell's corners.  The circle form is affine on the piece, so this says
    that the midpoint of the image arc J from w to w' is the point of
    w + w', which holds exactly when J is one cell.  If it is, its corners
    are w, w' and its midpoint the point of their mediant, by the
    correspondence.
    Conversely, the base rays are images, so J lies in one base cell and
    its midpoint is the midpoint of one cell K, with corners a, b.  The
    corners of a cell are a unimodular pair and f has determinant 1 on it,
    so wedge(w, w') = 1; if w + w' = a + b = m, then w = a + tm and w' =
    b - tm for an integer t, since wedge(x, m) = 1 holds exactly on
    a + Zm.  For t > 0, w lies strictly between a and m, so J, centred on
    the midpoint of K, lies inside K, yet w' = -ta + (1 - t)b lies outside
    its cone; t < 0 fails alike.  So t = 0 and J = K.

    So the map is valid as built, and DyadicPL._trusted does not check it.
    The cells' points increase from 0, f is a bijection that preserves
    orientation, so the image cells, each one cell of the descent, are met
    once each in circle order, and a cell of depth k that goes affinely
    onto an image cell of depth j has slope exponent k - j.
    """
    rays, ts = _refined_cells(_required_rays(f))
    # f bends only at required rays, so each cell takes the matrix of the
    # last of f's rays at or before it
    bends = dict(zip(f.rays, f.mats))
    m = f.matrix_at((1, 0))
    images = []
    for r in rays:
        m = bends.get(r, m)
        images.append(mat_apply(m, r))
    first = images.index((1, 0))
    _, ys = _descend(images[first + 1:] + images[:first], exact=True)
    ys = ys[-first:] + ys[:-first]
    exp = max(k for _, k in ts + ys)
    return within_budget(DyadicPL._trusted(
        exp, [t << (exp - k) for t, k in ts], [y << (exp - j) for y, j in ys],
        [k - j for (_, k), (_, j) in zip(ts, ys)]))


def _corners(depths):
    """The corner rays (left, right) of each leaf of a tiling of [0, 1) by
    standard intervals of these depths, each at least 2, from 0: one
    descent of the mediant tree, one vector addition a split."""
    stack = [(u, v, e) for _, e, u, v in reversed(_BASE_CELLS)]
    corners = []
    for depth in depths:
        a, b, e = stack.pop()
        while e < depth:
            m = (a[0] + b[0], a[1] + b[1])
            e += 1
            stack.append((m, b, e))
            b = m
        corners.append((a, b))
    return corners


def dyadic_to_plaut(d: DyadicPL) -> PLAut:
    """Plane form of a circle map.

    The leaves of _leaves(d, 2) have depth at least 2 on both sides, so
    each is a unimodular cone in one base cell that the plane map sends
    linearly onto another.  Their starts increase, which is the
    counterclockwise order of their rays, and their images, from the one
    at 0, tile [0, 1) as well.  So one descent by depth per side gives
    each leaf's corner rays, (a, b) for a domain leaf and (c, e) for its
    image, and the plane map on the leaf's cone is the one matrix
    [c e] [a b]^-1 that sends a to c and b to e.  No point is walked and
    no cone is solved.  The breakpoints of d alone do not suffice: the
    plane map can bend where the slope of d does not change.

    Every DyadicPL converts, since its breakpoints are dyadic and its
    slopes powers of two, so nothing is refused here: d's checked entries
    refuse a map that is not a dyadic circle bijection, and its kernels
    prove theirs valid.  The pieces are valid as built, so PLAut._trusted
    only canonicalizes them.  Both corner pairs are cells of the mediant
    tree, so wedge(a, b) = wedge(c, e) = 1: [a b]^-1 is integral and each
    piece is integral with determinant 1.  The piece sends the cone's
    mediant a + b to c + e, the mediant of the image leaf, so the check
    that the midpoint of a leaf goes to the midpoint of its image holds
    by construction.  Adjacent leaves share a corner, b of one being a of
    the next, and so do their images, since d preserves the circle
    order, so adjacent pieces agree on their shared ray.  The rays are
    mediant-tree vectors, so primitive, in counterclockwise order, and
    their images, the left corners of the image leaves, meet every leaf
    once in circle order, so they wind once.
    """
    domain, range_, first = _leaves(d, 2)
    images = _corners(range_)
    images = images[-first:] + images[:-first]
    rays = _corners(domain)
    return PLAut._trusted([a for a, _ in rays], [
        mat_mul((c[0], e[0], c[1], e[1]), (b[1], -b[0], -a[1], a[0]))
        for (a, b), (c, e) in zip(rays, images)])


def plaut_to_treepair(f: PLAut) -> TreePair:
    return dyadic_to_treepair(plaut_to_dyadic(f))


def treepair_to_plaut(tp: TreePair) -> PLAut:
    return dyadic_to_plaut(treepair_to_dyadic(tp))


def cfp_generators():
    """Standard generating triple (A, B, C) of the circle group, realized as
    DyadicPL maps through the plane model.  A and B generate the stabilizer
    side, C is the order-three piece permutation; the triple satisfies the
    classical circle-group presentation relations.  Kept on purpose as the
    second route to A and B, products in the plane then converted, which
    acceptance check 3 compares with the fold of words.EXPANSIONS."""
    P = generator_pl("P")
    C = generator_pl("C")
    Cinv = inverse_pl(C)
    R = P * P * C
    a = C * R * R
    b = Cinv * inverse_pl(R)
    return (plaut_to_dyadic(a), plaut_to_dyadic(b), plaut_to_dyadic(Cinv))
