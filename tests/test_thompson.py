import functools
import json
import random
from bisect import bisect_left
from fractions import Fraction as F
from math import gcd

import pytest

from sympt import plcore, thompson
from sympt.plcore import (ccw_key, cone_parents, from_cones, from_function,
                          generator_pl, identity_pl, inverse_pl, linear_pl,
                          order_pl, vec_add, primitive, wedge)
from sympt.thompson import (
    _BASE_CELLS,
    DyadicPL,
    TreePair,
    cfp_generators,
    dyadic_compose,
    dyadic_identity,
    dyadic_to_plaut,
    dyadic_to_treepair,
    dyadic_to_vector,
    plaut_to_dyadic,
    plaut_to_treepair,
    treepair_compose,
    treepair_identity,
    treepair_to_dyadic,
    treepair_to_plaut,
    vector_to_dyadic,
    _descend,
    _leaves,
    _pair_to_vector,
    _refined_cells,
    _required_rays,
    _vector_to_pair,
)
from sympt.words import check_suite, evaluate

GEN_NAMES = ("P", "C", "I", "U", "mu", "L")

# Several tests convert the same powers of U, up to U^5000, between the plane
# and the circle, and those conversions are among the slowest steps of the
# suite.  These memos build each such value once per session; every value
# is immutable, so the tests share it.
circle_form = functools.cache(plaut_to_dyadic)
plane_form = functools.cache(dyadic_to_plaut)


def _leaf_starts(depths, exp):
    """Leaf starts and then the end, as integers over 2**exp >= 2**depth:
    the start lists that the conversions once built, kept as an oracle."""
    starts = [0]
    for d in depths:
        starts.append(starts[-1] + (1 << (exp - d)))
    return starts


@functools.cache
def u_power(n, model):
    """U^n evaluated in one model."""
    return evaluate("U^%d" % n, model)


def random_plaut(rng, length):
    g = identity_pl()
    for _ in range(length):
        g = g * evaluate(rng.choice(GEN_NAMES), "pl")
    return g


def test_walk_anchors():
    assert dyadic_to_vector(F(0)) == (1, 0)
    assert dyadic_to_vector(F(1, 2)) == (0, 1)
    assert dyadic_to_vector(F(3, 4)) == (-1, -1)
    assert dyadic_to_vector(F(1, 4)) == (1, 1)
    assert dyadic_to_vector(F(7, 8)) == (0, -1)
    assert vector_to_dyadic((1, 0)) == 0
    assert vector_to_dyadic((1, 1)) == F(1, 4)
    assert vector_to_dyadic((0, -1)) == F(7, 8)


def test_walk_round_trip():
    for num in range(128):
        t = F(num, 128)
        assert vector_to_dyadic(dyadic_to_vector(t)) == t


def test_walk_midpoint_is_mediant():
    # midpoint of a standard interval inside one base cell corresponds to
    # the vector mediant; length <= 1/4 keeps the interval inside a cell
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(2, 6)
        num = rng.randrange(2**k)
        lo, hi = F(num, 2**k), F(num + 1, 2**k)
        u, v = dyadic_to_vector(lo), dyadic_to_vector(hi % 1)
        m = dyadic_to_vector((lo + hi) / 2)
        assert m == (u[0] + v[0], u[1] + v[1])


def test_walk_rejects_bad_input():
    with pytest.raises(ValueError):
        dyadic_to_vector(F(1, 3))
    with pytest.raises(ValueError):
        vector_to_dyadic((2, 4))


# The mediant walks the closed form replaced, kept as the reference.
_CELLS = (
    (F(0), F(1, 2), (1, 0), (0, 1)),
    (F(1, 2), F(3, 4), (0, 1), (-1, -1)),
    (F(3, 4), F(1), (-1, -1), (1, 0)),
)


def walk_dyadic_to_vector(t):
    t = t % 1
    for lo, hi, u, v in _CELLS:
        if lo <= t < hi:
            break
    while True:
        if t == lo:
            return u
        mid = (lo + hi) / 2
        m = (u[0] + v[0], u[1] + v[1])
        if t == mid:
            return m
        if t < mid:
            hi, v = mid, m
        else:
            lo, u = mid, m


def walk_vector_to_dyadic(w):
    for lo, hi, u, v in _CELLS:
        if w == u:
            return lo
        if wedge(u, w) > 0 and wedge(w, v) > 0:
            break
    while True:
        mid = (lo + hi) / 2
        m = (u[0] + v[0], u[1] + v[1])
        if w == m:
            return mid
        if wedge(u, w) > 0 and wedge(w, m) > 0:
            hi, v = mid, m
        else:
            lo, u = mid, m


def random_primitive(rng, top):
    while True:
        w = (rng.randint(-top, top), rng.randint(-top, top))
        if w != (0, 0) and primitive(w) == w:
            return w


def test_walk_agrees_with_mediant_walk():
    rng = random.Random(61)
    extremes = [(300, 1), (1, 300), (-300, 1), (1, -300), (-300, -299),
                (299, -300), (300, 299), (-1, 300)]
    for w in extremes + [random_primitive(rng, 300) for _ in range(1500)]:
        t = vector_to_dyadic(w)
        assert t == walk_vector_to_dyadic(w)
        assert dyadic_to_vector(t) == walk_dyadic_to_vector(t) == w


def test_walk_round_trips_large_vectors():
    rng = random.Random(67)
    for _ in range(2000):
        w = random_primitive(rng, 10**12)
        assert dyadic_to_vector(vector_to_dyadic(w)) == w
    # n - 1 mediant steps deep, past the old depth cap of 4096
    for n in [2, 3, 4096, 5000, 99999, 100000] + rng.sample(
            range(2, 100000), 4):
        for w in ((n, 1), (-n, 1), (1, -n)):
            assert dyadic_to_vector(vector_to_dyadic(w)) == w
    assert vector_to_dyadic((5000, 1)) == F(1, 2**5001)


def test_walk_round_trips_long_dyadics():
    rng = random.Random(71)
    for _ in range(1000):
        k = rng.randint(0, 300)
        t = F(rng.randrange(2**k), 2**k)
        assert vector_to_dyadic(dyadic_to_vector(t)) == t
        assert dyadic_to_vector(t + rng.randint(-2, 2)) == (
            dyadic_to_vector(t))


def test_pair_walks_invert_each_other():
    rng = random.Random(73)
    vecs = [u for _, _, u, _ in _BASE_CELLS]
    vecs += [random_primitive(rng, rng.choice((5, 300, 10**9)))
             for _ in range(600)]
    # vectors whose descents have runs over 1000
    for runs in ([1200], [0, 1500], [1001, 2, 1300], [3, 1999, 1, 1024, 7]):
        for _, _, u, v in _BASE_CELLS:
            vecs.append(vec_add(*cone_parents(u, v, runs)))
    vecs += [(5000, 1), (-4999, 1), (1, -3000)]
    for w in vecs:
        n, k = _vector_to_pair(w)
        assert 0 <= n < 1 << k
        assert _pair_to_vector(n, k) == w
    for _ in range(600):
        k = rng.choice((0, 1, 2, 40, 1100, 3000))
        n = rng.randrange(1 << k)
        m, j = _vector_to_pair(_pair_to_vector(n, k))
        assert m << k == n << j


@pytest.mark.parametrize("n", (5000, -5000))
def test_large_power_round_trips_through_the_circle(n):
    u = u_power(n, "pl")
    assert u == linear_pl((1, n, 0, 1))
    d = circle_form(u)
    assert d == u_power(n, "dyadic")
    assert plane_form(d) == u


def scan_evaluate(d, t):
    """Reference: find the piece of d holding t by a linear scan."""
    t = t % 1
    pts = d.points
    if len(pts) == 1:
        return (t + pts[0][1]) % 1
    n = len(pts)
    i = n - 1
    for j in range(n):
        if pts[j][0] <= t:
            i = j
    t1, y1 = pts[i]
    t2, y2 = pts[(i + 1) % n]
    slope = ((y2 - y1) % 1) / ((t2 - t1) % 1)
    return (y1 + slope * ((t - t1) % 1)) % 1


def test_bisect_evaluation_matches_linear_scan():
    rng = random.Random(73)
    letters = ("P", "C", "I", "U", "mu", "L")
    maps = [DyadicPL([(F(0), F(c, 16))]) for c in range(16)]
    maps += [evaluate(" ".join(rng.choice(letters)
                               for _ in range(rng.randint(1, 40))), "dyadic")
             for _ in range(60)]
    for d in maps:
        pts = d.points
        probes = [t for t, _ in pts] + [pts[0][0] / 2, F(0), F(1, 3)]
        probes += [(t + F(1, 2**40)) % 1 for t, _ in pts]
        probes += [(t - F(1, 2**40)) % 1 for t, _ in pts]
        for _ in range(20):
            k = rng.randint(0, 60)
            probes.append(F(rng.randrange(2**k), 2**k) + rng.randint(-2, 2))
        for t in probes:
            assert d(t) == scan_evaluate(d, t), (d, t)


def test_float_points_are_refused():
    # every float is a dyadic rational, so it would be taken silently
    with pytest.raises(ValueError):
        dyadic_to_vector(0.1)
    with pytest.raises(ValueError):
        DyadicPL([(0.5, F(0))])
    with pytest.raises(ValueError):
        plaut_to_dyadic(generator_pl("P"))(0.25)
    for pair in ([[1.5, 2], [3, 2]], [[1, 2], [3.9, 2]], [[1, 2.0], [3, 2]],
                 [[True, 1], [0, 0]], [["1", 2], [3, 2]]):
        with pytest.raises(ValueError):
            DyadicPL.from_json({"breakpoints": [pair]})


def test_dyadic_validation():
    with pytest.raises(ValueError):
        DyadicPL([(F(1, 3), F(0))])
    with pytest.raises(ValueError):
        DyadicPL([(F(0), F(0)), (F(1, 2), F(1, 3))])
    # slope 3 is not a power of two
    with pytest.raises(ValueError):
        DyadicPL([(F(0), F(0)), (F(1, 4), F(3, 4))])
    with pytest.raises(ValueError):
        DyadicPL([(F(0), F(0)), (F(0), F(1, 2))])
    with pytest.raises(ValueError):
        DyadicPL([])


@pytest.mark.parametrize("points, message", [
    ([(0, 0), (0, F(1, 2))], "repeated breakpoint at t=0"),
    ([(0, 0), (F(1, 4), 0)], "map is not injective near t=0"),
    ([(0, 0), (F(1, 4), F(3, 4))], "slope 3 is not a power of two"),
    ([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), 0), (F(3, 4), F(1, 2))],
     "total winding is 2, expected 1")])
def test_each_dyadic_refusal_is_reached(points, message):
    with pytest.raises(ValueError) as exc:
        DyadicPL(points)
    assert str(exc.value) == message


def test_rotation_canonical_form():
    r = DyadicPL([(F(1, 4), F(3, 4))])
    assert r.points == ((F(0), F(1, 2)),)
    assert r.is_rotation
    # collinear breakpoints collapse to a rotation
    r2 = DyadicPL([(F(0), F(1, 4)), (F(1, 2), F(3, 4))])
    assert r2 == DyadicPL([(F(0), F(1, 4))])
    assert dyadic_identity().is_identity()
    assert not r.is_identity()


def test_dyadic_evaluation_wraps():
    d = plaut_to_dyadic(generator_pl("C"))
    assert d(F(0)) == F(3, 4)
    assert d(F(1, 2)) == F(0)
    assert d(F(3, 4)) == F(1, 2)
    # affine between breakpoints, modulo 1
    assert d(F(1, 4)) == F(7, 8)
    assert d(F(7, 8)) == F(5, 8)


def test_circle_form_of_generators_matches_plane_action():
    rng = random.Random(11)
    for name in GEN_NAMES:
        g = evaluate(name, "pl")
        d = plaut_to_dyadic(g)
        for _ in range(25):
            k = rng.randint(0, 7)
            t = F(rng.randrange(2**k), 2**k)
            assert dyadic_to_vector(d(t)) == g(dyadic_to_vector(t))


def test_dyadic_round_trips_generators():
    for name in GEN_NAMES:
        g = evaluate(name, "pl")
        assert dyadic_to_plaut(plaut_to_dyadic(g)) == g


def test_dyadic_round_trips_random_words():
    rng = random.Random(23)
    for _ in range(50):
        g = random_plaut(rng, rng.randint(1, 6))
        d = plaut_to_dyadic(g)
        assert dyadic_to_plaut(d) == g


def test_dyadic_to_plane_round_trips_random_words():
    rng = random.Random(83)
    letters = ("P", "C", "I", "U", "mu", "L")
    for _ in range(300):
        word = " ".join(rng.choice(letters) + rng.choice(("", "^-1"))
                        for _ in range(rng.randint(1, 12)))
        d = evaluate(word, "dyadic")
        f = dyadic_to_plaut(d)
        assert f == evaluate(word, "pl"), word
        assert plaut_to_dyadic(f) == d


def test_dyadic_to_plane_round_trips_large_powers():
    for n in (1000, -1000):
        d = u_power(n, "dyadic")
        assert plane_form(d) == u_power(n, "pl")


def ref_refined_cells(required):
    # the former refinement, which filters every required ray at each split
    rays = []
    for _, _, u, v in _BASE_CELLS:
        stack = [(u, v, required), (u, None)]
        while stack:
            entry = stack.pop()
            if entry[1] is None:
                rays.append(entry[0])
                continue
            a, b, req = entry
            inside = [s for s in req if wedge(a, s) > 0 and wedge(s, b) > 0]
            if inside:
                m = (a[0] + b[0], a[1] + b[1])
                stack += [(m, b, inside), (m, None), (a, m, inside)]
    return rays


def test_refined_cells_match_filtering_reference():
    rng = random.Random(71)
    for _ in range(300):
        bound = rng.choice((3, 30, 300))
        vecs = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(rng.randint(0, 30))]
        required = {primitive(v) for v in vecs if v != (0, 0)}
        rays, points = _refined_cells(required)
        assert rays == ref_refined_cells(required)
        # each ray carries its dyadic point down the descent; the points
        # may be unreduced, so they are compared by value
        assert ([F(n, 2 ** k) for n, k in points]
                == [vector_to_dyadic(r) for r in rays])


# The circle kernels before they walked in circle order, kept as oracles:
# compose through the inverse of g and bisection, the refinement that
# returns rays alone, and pl from dyadic through from_function.

def ref_dyadic_compose(f, g):
    cand = []
    if not g.is_rotation:
        cand += [(t, g._exp) for t in g._ts]
    if not f.is_rotation:
        ginv = ~g
        cand += [ginv._image(b, f._exp) for b in f._ts]
    if not cand:
        cand = [(0, 0)]
    m = max(k for _, k in cand)
    images = [(t, *f._image(*g._image(t, m)))
              for t in {n << (m - k) for n, k in cand}]
    top = max(m, max(k for _, _, k in images))
    return DyadicPL._from_ints(top, [
        (t << (top - m), y << (top - k)) for t, y, k in images])


def ref_sorted_refined_cells(required):
    rays = []
    for _, _, u, v in _BASE_CELLS:
        inside = sorted((s for s in required
                         if wedge(u, s) > 0 and wedge(s, v) > 0),
                        key=ccw_key)
        stack = [(u, v, 0, len(inside)), (u, None)]
        while stack:
            entry = stack.pop()
            if entry[1] is None:
                rays.append(entry[0])
                continue
            a, b, lo, hi = entry
            if lo < hi:
                m = vec_add(a, b)
                i = bisect_left(inside, True, lo, hi,
                                key=lambda s: wedge(s, m) <= 0)
                k = bisect_left(inside, True, i, hi,
                                key=lambda s: wedge(s, m) < 0)
                stack += [(m, b, k, hi), (m, None), (a, m, lo, i)]
    return rays


@functools.cache    # the powers tests pass it the same elements again
def ref_dyadic_to_plaut(d):
    tp = dyadic_to_treepair(d)
    exp = max(tp.domain)
    dinv = ~d
    anchors = [(c, e) for c, e, _, _ in _BASE_CELLS]
    required = ([(x, exp) for x in _leaf_starts(tp.domain, exp)[:-1]]
                + anchors + [dinv._image(c, e) for c, e in anchors])
    top = max(k for _, k in required)
    required_t = {x << (top - k) for x, k in required}

    def fn(v):
        k = gcd(v[0], v[1])
        p = (v[0] // k, v[1] // k)
        w = _pair_to_vector(*d._image(*_vector_to_pair(p)))
        return (k * w[0], k * w[1])

    return from_function(
        fn, hint_rays=[_pair_to_vector(x, top) for x in required_t])


@functools.cache    # the powers tests pass it the same elements again
def ref_plaut_to_dyadic(f):
    # one walk per ray image, then every piece certified: the midpoint of
    # two adjacent rays must go where the mediant of their images points
    rays = ref_sorted_refined_cells(_required_rays(f))
    images = [f(r) for r in rays]
    ts = [_vector_to_pair(r) for r in rays]
    ys = [_vector_to_pair(w) for w in images]
    exp = max(k for _, k in ts + ys)
    ts = [t << (exp - k) for t, k in ts]
    d = DyadicPL._from_ints(exp, [
        (t, y << (exp - k)) for t, (y, k) in zip(ts, ys)])
    one = 1 << exp
    n = len(rays)
    for i in range(n):
        j = (i + 1) % n
        y, m = d._image((2 * ts[i] + (ts[j] - ts[i]) % one) % (2 * one),
                        exp + 1)
        w, k = _vector_to_pair(primitive(vec_add(images[i], images[j])))
        if y << k != w << m:
            raise RuntimeError("midpoint/mediant certification failed")
    return thompson.within_budget(d)


def assert_kernels_match_oracles(f, g):
    """The circle kernels equal their oracles on pl elements f, g, in both
    directions between the plane and the circle."""
    for h in (f, g):
        rays, _ = _refined_cells(_required_rays(h))
        assert rays == ref_sorted_refined_cells(_required_rays(h))
    df, dg = circle_form(f), circle_form(g)
    fg = dyadic_compose(df, dg)
    assert fg == ref_dyadic_compose(df, dg)
    assert fg == circle_form(f * g)
    for h, d in ((f, df), (g, dg), (f * g, fg)):
        assert d == ref_plaut_to_dyadic(h)
        assert plane_form(d) == ref_dyadic_to_plaut(d)


def random_word(rng, length):
    return " ".join(rng.choice(GEN_NAMES) + rng.choice(("", "^-1"))
                    for _ in range(length))


def test_circle_kernels_match_oracles_on_random_words():
    rng = random.Random(211)
    for _ in range(500):
        word = random_word(rng, rng.randint(2, 14))
        cut = rng.randint(1, word.count(" "))
        letters = word.split()
        f = evaluate(" ".join(letters[:cut]), "pl")
        g = evaluate(" ".join(letters[cut:]), "pl")
        assert_kernels_match_oracles(f, g)


@pytest.mark.parametrize("n", (1, 2, 3, 7, 12, 25, 64, 100, 255, 1000, 4000))
def test_circle_kernels_match_oracles_on_powers(n):
    u, p = u_power(n, "pl"), generator_pl("P")
    conj = evaluate("U^%d P U^-%d" % (n, n), "pl")
    assert_kernels_match_oracles(u, inverse_pl(u))
    assert_kernels_match_oracles(u * p, inverse_pl(u))
    assert_kernels_match_oracles(conj, u)
    assert u_power(n, "dyadic") == circle_form(u)
    assert u_power(-n, "dyadic") == circle_form(inverse_pl(u))
    assert evaluate("U^%d P U^-%d" % (n, n), "dyadic") == circle_form(conj)


def test_compose_builds_one_map(monkeypatch):
    # no inverse of g is built: _set runs once, for the output
    calls = []
    set_ = DyadicPL._set

    def counted(self, exp, pairs):
        calls.append(len(pairs))
        set_(self, exp, pairs)

    rng = random.Random(13)
    ds = [plaut_to_dyadic(random_plaut(rng, rng.randint(0, 6)))
          for _ in range(30)]
    ds += [DyadicPL([(F(0), F(c, 8))]) for c in (0, 3)]
    monkeypatch.setattr(DyadicPL, "_set", counted)
    for f in ds:
        for g in ds[::3]:
            calls.clear()
            dyadic_compose(f, g)
            assert len(calls) == 1


def test_plane_form_is_solved_from_ordered_cuts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dyadic_to_plaut re-probed or re-sorted")

    monkeypatch.setattr(plcore, "from_function", refuse)
    monkeypatch.setattr(plcore, "_sort_ccw", refuse)
    monkeypatch.setattr(thompson, "from_function", refuse, raising=False)
    rng = random.Random(29)
    for _ in range(40):
        g = random_plaut(rng, rng.randint(0, 8))
        assert dyadic_to_plaut(plaut_to_dyadic(g)) == g


def test_plane_form_reads_rays_and_mediants_through_the_map(monkeypatch):
    # rays, images and mediant images all come off d's own leaves: no
    # tree pair is built, no leaf starts are summed and nothing is read
    # through d; the rays reach from_cones from (1, 0) by increasing cut
    def refuse(*args, **kwargs):
        raise AssertionError("dyadic_to_plaut left the leaf walk")

    rays = []

    def recorded(rs, images, mediant_images):
        rays[:] = rs
        return from_cones(rs, images, mediant_images)

    rng = random.Random(37)
    for _ in range(40):
        g = random_plaut(rng, rng.randint(0, 8))
        d = plaut_to_dyadic(g)
        with monkeypatch.context() as m:
            m.setattr(TreePair, "__init__", refuse)
            m.setattr(DyadicPL, "_image", refuse)
            m.setattr(thompson, "dyadic_to_treepair", refuse)
            m.setattr(thompson, "_leaf_starts", refuse, raising=False)
            m.setattr(thompson, "from_cones", recorded)
            assert dyadic_to_plaut(d) == g
        assert rays[0] == (1, 0)
        cuts = [vector_to_dyadic(r) for r in rays]
        assert cuts == sorted(set(cuts))


def ref_cuts(d):
    # the former cut rule: the reduced tree pair's leaves, each halved
    # until it and its image have depth at least 2
    tp = dyadic_to_treepair(d)
    n = len(tp.domain)
    exp = max(tp.domain) + 2
    cuts = []
    for i, (depth, x) in enumerate(zip(tp.domain,
                                       _leaf_starts(tp.domain, exp))):
        split = max(0, 2 - min(depth, tp.range[(tp.rotation + i) % n]))
        step = 1 << (exp - depth - split)
        cuts += range(x, x + (step << split), step)
    return [F(x, 1 << exp) for x in cuts]


def assert_leaves_match_references(f, g):
    """On the circle forms of f, g and f g, the walk cuts where the former
    rule cut, and its leaves at floor 0 are a reduced tree pair."""
    df, dg = circle_form(f), circle_form(g)
    for d in (df, dg, dyadic_compose(df, dg)):
        domain, _, _ = _leaves(d, 2)
        exp = max(domain)
        assert [F(x, 1 << exp) for x in _leaf_starts(domain, exp)[:-1]] \
            == ref_cuts(d)
        domain, range_, first = _leaves(d)
        domain, range_ = tuple(domain), tuple(range_)
        tp = TreePair(domain, range_, -first)
        assert (tp.domain, tp.range, tp.rotation) == (
            domain, range_, -first % len(domain))
        assert treepair_to_dyadic(tp) == d


def test_leaves_match_references_on_random_words():
    # the inputs of test_circle_kernels_match_oracles_on_random_words
    rng = random.Random(211)
    for _ in range(500):
        word = random_word(rng, rng.randint(2, 14))
        cut = rng.randint(1, word.count(" "))
        letters = word.split()
        f = evaluate(" ".join(letters[:cut]), "pl")
        g = evaluate(" ".join(letters[cut:]), "pl")
        assert_leaves_match_references(f, g)


@pytest.mark.parametrize("n", (1, 2, 3, 7, 12, 25, 64, 100, 255, 1000))
def test_leaves_match_references_on_powers(n):
    # the inputs of test_circle_kernels_match_oracles_on_powers
    u, p = u_power(n, "pl"), generator_pl("P")
    conj = evaluate("U^%d P U^-%d" % (n, n), "pl")
    assert_leaves_match_references(u, inverse_pl(u))
    assert_leaves_match_references(u * p, inverse_pl(u))
    assert_leaves_match_references(conj, u)


def test_circle_forms_walk_only_the_required_rays(monkeypatch):
    # each side of a conversion is one descent of the mediant tree: no
    # point is walked to its vector, and only the required rays are walked
    # to points, once each, to measure them and order them by numerator
    walked = []

    def counted(w, **budget):
        walked.append(w)
        return _vector_to_pair(w, **budget)

    def refuse(*args):
        raise AssertionError("a point was walked to its vector")

    rng = random.Random(31)
    elements = [random_plaut(rng, rng.randint(0, 8)) for _ in range(40)]
    elements += [evaluate(w) for w in ("U^100", "U^-25 P U^25")]
    for g in elements:
        required = _required_rays(g)
        walked.clear()
        with monkeypatch.context() as m:
            m.setattr(thompson, "_vector_to_pair", counted)
            m.setattr(thompson, "_pair_to_vector", refuse)
            d = plaut_to_dyadic(g)
            assert len(walked) == len(required) and set(walked) == required
            walked.clear()
            assert dyadic_to_plaut(d) == g
            assert walked == []


def test_an_image_arc_past_one_cell_fails_the_certification(monkeypatch):
    # every piece must send its cell onto one cell.  Without the preimages
    # of the base rays, U^-1 sends (0, 1) to (-1, 1), and the first image
    # arc, from (1, 0), runs past (0, 1)
    anchors = {u for _, _, u, _ in _BASE_CELLS}
    with monkeypatch.context() as m:
        m.setattr(thompson, "_required_rays", lambda f: anchors)
        with pytest.raises(RuntimeError,
                           match="midpoint/mediant certification failed"):
            plaut_to_dyadic(evaluate("U^-1"))
    # fed images after (1, 0) whose arcs are cells give their points; with
    # (1, 2) at 3/8 in place of (1, 1), the second arc, from (2, 1) at 1/8,
    # is two cells and is refused, though a midpoint check alone passes it,
    # since (2, 1) + (1, 2) points where the midpoint of the arc goes
    images = [(2, 1), (1, 1), (0, 1), (-1, -1)]
    rays, points = _descend(images, exact=True)
    assert rays == [(1, 0)] + images
    assert [F(n, 2 ** k) for n, k in points] == [0, F(1, 8), F(1, 4),
                                                  F(1, 2), F(3, 4)]
    images[1] = (1, 2)
    with pytest.raises(RuntimeError,
                       match="midpoint/mediant certification failed"):
        _descend(images, exact=True)


def test_plane_to_circle_conversion_holds_to_the_point_budget():
    # U^n's plane form has a ray whose point needs n + 1 binary digits;
    # the refinement measures it from its runs before building a digit
    assert thompson.POINT_BUDGET == 2 ** 14
    huge = evaluate("U^99999999999")
    for convert in (plaut_to_dyadic, plaut_to_treepair):
        with pytest.raises(ValueError, match="circle form past the budget "
                           "of 16384 points: a ray's point needs "
                           "100000000001 binary digits"):
            convert(huge)
    # U^8192's rays fit, but its form does not, as in the dyadic fold
    message = "budget of 16384 points: it holds 16387"
    with pytest.raises(ValueError, match=message):
        plaut_to_dyadic(evaluate("U^8192"))
    with pytest.raises(ValueError, match=message):
        evaluate("U^8192", "dyadic")
    # U^5000's forms, about 10^4 points, fold and convert within it
    tree = evaluate("U^5000", "tree")
    assert tree.leaf_count == 10004
    assert plaut_to_treepair(evaluate("U^5000")) == tree
    # the walk alone answers past the budget
    assert vector_to_dyadic((100000, 1)).denominator == 2 ** 100001
    assert dyadic_to_vector(vector_to_dyadic((100000, 1))) == (100000, 1)


def test_dyadic_conversion_is_homomorphic():
    rng = random.Random(5)
    for _ in range(20):
        a = random_plaut(rng, rng.randint(1, 4))
        b = random_plaut(rng, rng.randint(1, 4))
        assert plaut_to_dyadic(a * b) == dyadic_compose(
            plaut_to_dyadic(a), plaut_to_dyadic(b)
        ) == plaut_to_dyadic(a) * plaut_to_dyadic(b)
        assert plaut_to_dyadic(inverse_pl(a)) == ~plaut_to_dyadic(a)
    assert plaut_to_dyadic(identity_pl()).is_identity()


def test_dyadic_orders_match_plane_orders():
    for name, order in (("C", 3), ("I", 4), ("P", 5)):
        g = generator_pl(name)
        assert order_pl(g) == order
        d = plaut_to_dyadic(g)
        acc = d
        for _ in range(order - 1):
            assert not acc.is_identity()
            acc = dyadic_compose(acc, d)
        assert acc.is_identity()


def test_inverse_composition_is_identity():
    rng = random.Random(17)
    for _ in range(15):
        d = plaut_to_dyadic(random_plaut(rng, rng.randint(1, 5)))
        assert dyadic_compose(d, ~d).is_identity()
        assert dyadic_compose(~d, d).is_identity()


def test_arbitrary_circle_element_converts():
    # an element given by breakpoints, not built from plane generators
    d = DyadicPL([(F(0), F(0)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))])
    f = dyadic_to_plaut(d)
    assert plaut_to_dyadic(f) == d
    r = DyadicPL([(F(0), F(1, 4))])
    assert plaut_to_dyadic(dyadic_to_plaut(r)) == r


def test_treepair_halfrotation():
    half = TreePair((1, 1), (1, 1), 1)
    d = treepair_to_dyadic(half)
    assert d == DyadicPL([(F(0), F(1, 2))])
    assert d(F(1, 4)) == F(3, 4)


def test_treepair_identity_and_reduction():
    assert treepair_identity().is_identity()
    assert TreePair((1, 1), (1, 1), 0).is_identity()
    assert TreePair((2, 2, 2, 3, 3), (2, 2, 2, 3, 3), 0).is_identity()
    # domain leaves 0, 1 go to the range caret over leaves 1, 2
    assert TreePair((2, 2, 1), (1, 2, 2), 1) == TreePair((1, 1), (1, 1), 1)
    # no caret matches a caret: 0, 1 go to 1, 2 and 3, 4 wrap to 4, 0
    tp = TreePair((2, 2, 2, 3, 3), (2, 2, 2, 3, 3), 1)
    assert (tp.domain, tp.range, tp.rotation) == (
        (2, 2, 2, 3, 3), (2, 2, 2, 3, 3), 1)


def test_treepair_validation():
    with pytest.raises(ValueError, match="equal leaf counts"):
        TreePair((1, 1), (0,), 0)
    for tree in ((1, 2), (1,), (0, 0), (2, 2, 2), (1, 1, 1), (0, 9, 9),
                 (2, 1, 2), (3, 3, 2, 1, 1), (), 0, None, "11"):
        with pytest.raises(ValueError):
            TreePair(tree, tree, 0)
    for depth in (1.0, True, -1, "1", None, [1]):
        with pytest.raises(ValueError):
            TreePair((1, depth), (1, 1), 0)
    with pytest.raises(ValueError, match="multiple of its length"):
        TreePair((2, 1, 2), (2, 1, 2), 0)
    with pytest.raises(ValueError, match="sum"):
        TreePair((1, 2), (2, 1), 0)
    # the rotation is not truncated or coerced, read from JSON or not
    for rotation in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="rotation"):
            TreePair((1, 1), (1, 1), rotation)
        with pytest.raises(ValueError, match="rotation"):
            TreePair.from_json({"domain": [1, 1], "range": [1, 1],
                                "rotation": rotation})
    assert TreePair.from_json({"domain": [1, 1], "range": [1, 1],
                               "rotation": 3}).rotation == 1
    assert TreePair([1, 1], [1, 1], -1) == TreePair((1, 1), (1, 1), 1)


def test_treepair_refuses_nested_json():
    # the nested form [left, right] with 0 for a leaf is not read
    for old in ({"domain": [0, [0, 0]], "range": [[0, 0], 0], "rotation": 0},
                {"domain": 0, "range": 0, "rotation": 0},
                {"domain": [0, 0], "range": [0, 0], "rotation": 1}):
        with pytest.raises(ValueError):
            TreePair.from_json(old)
    with pytest.raises(ValueError,
                       match=r"list of its leaf depths.*e\.g\. \[2, 2, 1\]"):
        TreePair.from_json({"domain": [0, [0, 0]], "range": [[0, 0], 0],
                            "rotation": 0})


def add_caret(depths, i):
    """Split leaf i into two leaves one level deeper."""
    return depths[:i] + (depths[i] + 1,) * 2 + depths[i + 1:]


def blow_up(tp, rng, times):
    """Insert matched carets; the element is unchanged."""
    dom, rng_tree, rot = tp.domain, tp.range, tp.rotation
    for _ in range(times):
        n = len(dom)
        i = rng.randrange(n)
        j = (rot + i) % n
        dom = add_caret(dom, i)
        rng_tree = add_caret(rng_tree, j)
        if rot > j:
            rot += 1
    return dom, rng_tree, rot


def random_tree(rng, leaves):
    depths = (0,)
    while len(depths) < leaves:
        depths = add_caret(depths, rng.randrange(len(depths)))
    return depths


def ref_treepair_to_dyadic(tp):
    """treepair_to_dyadic from the two lists of leaf starts it once built:
    domain leaf i starts where range leaf (rot + i) mod N starts."""
    exp = max(max(tp.domain), max(tp.range))
    dom = _leaf_starts(tp.domain, exp)
    rng = _leaf_starts(tp.range, exp)
    n = len(tp.domain)
    return DyadicPL._from_ints(
        exp, [(dom[i], rng[(tp.rotation + i) % n]) for i in range(n)])


def test_treepair_to_dyadic_matches_the_start_lists():
    # seeded pairs at every rotation, the U^+-1000 trees and the identity
    rng = random.Random(101)
    pairs = [treepair_identity(), u_power(1000, "tree"),
             u_power(-1000, "tree")]
    for _ in range(60):
        n = rng.randint(1, 16)
        domain, range_ = random_tree(rng, n), random_tree(rng, n)
        pairs += [TreePair(domain, range_, r) for r in range(n)]
    for tp in pairs:
        assert treepair_to_dyadic(tp) == ref_treepair_to_dyadic(tp), tp
    assert len({tp.rotation for tp in pairs}) > 10


def _checked_tree_by_passes(depths):
    """The tree check as it was written before it became one loop: the
    type of every depth, then the leaf starts, then their sum, then each
    leaf's alignment, each in its own pass."""
    if not (isinstance(depths, (list, tuple)) and depths and all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0
            for d in depths)):
        raise ValueError("a tree is a non-empty list of its leaf depths, "
                         "non-negative integers, e.g. [2, 2, 1]")
    depths = tuple(depths)
    exp = max(depths)
    starts = _leaf_starts(depths, exp) if exp < len(depths) else [0]
    if starts[-1] != 1 << exp:
        raise ValueError("leaf lengths do not sum to 1")
    if any(x & ((1 << (exp - d)) - 1) for d, x in zip(depths, starts)):
        raise ValueError("a leaf does not start at a multiple of its length")
    return depths, exp, starts


def _refinement_by_starts(a, b):
    """The common refinement as a merge of the two lists of leaf ends."""
    exp = max(max(a), max(b))
    ends_a, ends_b = _leaf_starts(a, exp), _leaf_starts(b, exp)
    depths, under_a, under_b = [], [], []
    i = j = 1
    pos = 0
    while pos < ends_a[-1]:
        end = min(ends_a[i], ends_b[j])
        depths.append(exp + 1 - (end - pos).bit_length())
        under_a.append(i - 1)
        under_b.append(j - 1)
        if end == ends_a[i]:
            i += 1
        if end == ends_b[j]:
            j += 1
        pos = end
    return depths, under_a, under_b


def _outcome(f, *args):
    """f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


_NOT_A_DEPTH = (True, False, -1, -7, 1.0, 2.5, float("nan"), "1", None,
                [1], (0,), F(1, 2))


def _mangled_trees(rng):
    """Depth lists near trees: trees, and trees with one depth moved,
    swapped, dropped, doubled or replaced by a value that is no depth,
    with the largest depth at or past the leaf count, or deeper than the
    rest by far."""
    n = rng.randint(1, 12)
    tree = list(random_tree(rng, n))
    kind = rng.randrange(9)
    i = rng.randrange(n)
    if kind == 1:
        tree[i] += rng.choice((-2, -1, 1, 2))
    elif kind == 2 and n > 1:
        j = rng.randrange(n)
        tree[i], tree[j] = tree[j], tree[i]
    elif kind == 3:
        del tree[i]
    elif kind == 4:
        tree.insert(i, tree[i])
    elif kind == 5:
        tree[i] = rng.choice(_NOT_A_DEPTH)
    elif kind == 6:
        tree[i] = rng.choice((n, n + 1, 2 * n + 3, 10 ** 6))
    elif kind == 7:
        # two faults at once: a bad depth after a misaligned leaf
        tree = [2, 1, 2] + tree[:i] + [rng.choice(_NOT_A_DEPTH)]
    return rng.choice((list, tuple))(tree)


def test_the_tree_check_in_one_loop_refuses_as_the_passes_did(monkeypatch):
    fixed = [[], (), [0], [1], [1, 1, 1], [0, 0], [1, 2], [2, 1, 2],
             [3, 3, 2, 1, 1], [5, 5], [3, 1, 1], [2, 2, 1, 9], [True],
             [False], [0.0], [1, True], [True, 1], [-1], [1, -1], [-1, 1],
             [2, 2, 1.5], [1.5, 2, 2], [1, "1"], ["1", "1"], [None],
             [1, [1]], [2, 1, 2, "x"], [9, 9, True], [1, 1, -10 ** 9],
             0, None, "11", {1, 1}, {1: 1}, iter([1, 1]), b"\x01\x01"]
    rng = random.Random(211)
    cases = fixed + [_mangled_trees(rng) for _ in range(4000)]
    kinds = set()
    for depths in cases:
        want = _outcome(_checked_tree_by_passes, depths)
        assert _outcome(thompson._checked_tree, depths) == want, depths
        kinds.add(want[1] if want[0] is ValueError else "valid")
    assert len(kinds) == 4, kinds
    # a depth past the leaf count is refused without building 2^depth,
    # which the passes built first: at 10^30 that raised OverflowError
    for huge in (2 ** 40, 10 ** 30):
        with pytest.raises(ValueError, match="^leaf lengths do not sum"):
            thompson._checked_tree([1, 1, huge])
        with pytest.raises(ValueError, match="list of its leaf depths"):
            thompson._checked_tree([huge, 1, -1])
    # TreePair, which checks both trees, against the same pair built on
    # the check by passes
    pairs = [(a, b, rng.randrange(-3, 9)) for a, b in zip(cases, cases[1:])]
    for a in range(1, 9):
        for _ in range(60):
            pairs.append((random_tree(rng, a), random_tree(rng, a),
                          rng.choice((0, 1, -1, 5, True, 1.0))))
    fused = [_outcome(TreePair, *pair) for pair in pairs]
    monkeypatch.setattr(thompson, "_checked_tree", _checked_tree_by_passes)
    for pair, got in zip(pairs, fused):
        assert got == _outcome(TreePair, *pair), pair
    monkeypatch.undo()
    assert sum(isinstance(x, TreePair) for x in fused) > 300


def test_the_refinement_walks_the_depths_as_the_start_lists_did():
    rng = random.Random(223)
    for _ in range(500):
        a = random_tree(rng, rng.randint(1, 16))
        b = random_tree(rng, rng.randint(1, 16))
        assert (thompson._refinement(a, b)
                == _refinement_by_starts(a, b)), (a, b)


def test_every_thompson_element_tried_round_trips_through_the_plane():
    ds = [DyadicPL([(F(0), F(c, 16))]) for c in range(1, 16)]
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 12)
        tp = TreePair(random_tree(rng, n), random_tree(rng, n),
                      rng.randrange(n))
        ds.append(treepair_to_dyadic(tp))
    for d in ds:
        assert plaut_to_dyadic(dyadic_to_plaut(d)) == d, d


def test_reduction_confluence():
    rng = random.Random(41)
    for _ in range(300):
        tp = plaut_to_treepair(random_plaut(rng, rng.randint(1, 5)))
        dom, rng_tree, rot = blow_up(tp, rng, rng.randint(1, 8))
        assert TreePair(dom, rng_tree, rot) == tp
        assert TreePair(dom, rng_tree, rot + 3 * len(dom)) == tp


# The nested-tuple tree layer the leaf-depth form replaced, kept as the
# reference: a tree is None (a leaf) or a pair (left, right).

def ref_nleaves(tree):
    if tree is None:
        return 1
    return ref_nleaves(tree[0]) + ref_nleaves(tree[1])


def ref_depths(tree, depth=0):
    if tree is None:
        return (depth,)
    return ref_depths(tree[0], depth + 1) + ref_depths(tree[1], depth + 1)


def ref_sup_tree(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (ref_sup_tree(a[0], b[0]), ref_sup_tree(a[1], b[1]))


def ref_subtrees_over_leaves(big, small):
    if small is None:
        return [big]
    return (ref_subtrees_over_leaves(big[0], small[0])
            + ref_subtrees_over_leaves(big[1], small[1]))


def ref_graft(tree, subs_iter):
    if tree is None:
        return next(subs_iter)
    return (ref_graft(tree[0], subs_iter), ref_graft(tree[1], subs_iter))


def ref_leaf_intervals(tree, lo=F(0), hi=F(1)):
    if tree is None:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    return (ref_leaf_intervals(tree[0], lo, mid)
            + ref_leaf_intervals(tree[1], mid, hi))


def ref_carets(tree):
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


def ref_drop_caret(tree, i):
    def walk(t, base):
        if t is None:
            return None
        if t[0] is None and t[1] is None and base == i:
            return None
        return (walk(t[0], base), walk(t[1], base + ref_nleaves(t[0])))

    return walk(tree, 0)


def ref_reduce_pair(domain, range_, rotation):
    rotation %= ref_nleaves(domain)
    while True:
        n = ref_nleaves(domain)
        if n == 1:
            return None, None, 0
        rcarets = set(ref_carets(range_))
        for i in ref_carets(domain):
            j = (rotation + i) % n
            if j != n - 1 and j in rcarets:
                domain = ref_drop_caret(domain, i)
                range_ = ref_drop_caret(range_, j)
                if rotation > j:
                    rotation -= 1
                rotation %= n - 1
                break
        else:
            return domain, range_, rotation


def ref_compose(f, g):
    fd, fr, frot = f
    gd, gr, grot = g
    z = ref_sup_tree(gr, fd)
    n = ref_nleaves(z)
    m = ref_nleaves(gd)
    gsubs = ref_subtrees_over_leaves(z, gr)
    dom = ref_graft(gd, iter(gsubs[(grot + i) % m] for i in range(m)))
    grot = sum(ref_nleaves(gsubs[p]) for p in range(grot))
    k = ref_nleaves(fd)
    fsubs = ref_subtrees_over_leaves(z, fd)
    rng = ref_graft(fr, iter(fsubs[(q - frot) % k] for q in range(k)))
    frot = sum(ref_nleaves(fsubs[(q - frot) % k]) for q in range(frot))
    return ref_reduce_pair(dom, rng, (frot + grot) % n)


def ref_to_dyadic(pair):
    dom = ref_leaf_intervals(pair[0])
    rng = ref_leaf_intervals(pair[1])
    n = len(dom)
    return DyadicPL([(dom[i][0], rng[(pair[2] + i) % n][0])
                     for i in range(n)])


def ref_tree_from_cuts(cuts, lo=F(0), hi=F(1)):
    if not any(lo < c < hi for c in cuts):
        return None
    mid = (lo + hi) / 2
    return (ref_tree_from_cuts(cuts, lo, mid),
            ref_tree_from_cuts(cuts, mid, hi))


def ref_from_dyadic(d):
    cuts = {F(0), (~d)(F(0))} | set(d.breakpoints)
    while True:
        bad = []
        for lo, hi in ref_leaf_intervals(ref_tree_from_cuts(cuts)):
            y = d(lo)
            ylen = (d((lo + hi) / 2) - y) % 1 * 2
            if (y / ylen).denominator != 1:
                bad.append((lo + hi) / 2)
        if not bad:
            break
        cuts.update(bad)
    dtree = ref_tree_from_cuts(cuts)
    image_cuts = sorted(d(lo) for lo, _ in ref_leaf_intervals(dtree))
    rtree = ref_tree_from_cuts(set(image_cuts))
    return ref_reduce_pair(dtree, rtree, image_cuts.index(d(F(0))))


def as_depths(pair):
    return TreePair(ref_depths(pair[0]), ref_depths(pair[1]), pair[2])


def test_tree_layer_agrees_with_nested_reference():
    rng = random.Random(79)
    letters = ("P", "C", "I", "U", "mu", "L")
    prev = None
    for _ in range(300):
        word = " ".join(rng.choice(letters) + rng.choice(("", "^-1"))
                        for _ in range(rng.randint(1, 30)))
        d = evaluate(word, "dyadic")
        ref = ref_from_dyadic(d)
        tp = dyadic_to_treepair(d)
        assert tp == as_depths(ref), word
        # as_depths reduces again; the reference pair is reduced already
        assert (tp.domain, tp.range) == (ref_depths(ref[0]),
                                         ref_depths(ref[1]))
        assert treepair_to_dyadic(tp) == ref_to_dyadic(ref) == d
        assert evaluate(word, "tree") == tp
        if prev is not None:
            assert treepair_compose(tp, prev[0]) == as_depths(
                ref_compose(ref, prev[1]))
            assert treepair_compose(prev[0], tp) == as_depths(
                ref_compose(prev[1], ref))
        prev = tp, ref


def test_treepair_read_off_of_large_powers():
    # U^n is n mediant steps deep; no depth cap stands in the way
    for n in (1000, -1000, 5000):
        d = circle_form(u_power(n, "pl"))
        tp = dyadic_to_treepair(d)
        assert treepair_to_dyadic(tp) == d
        assert max(tp.domain) > abs(n)


def test_treepair_round_trips_generators():
    for name in GEN_NAMES:
        g = evaluate(name, "pl")
        tp = plaut_to_treepair(g)
        assert treepair_to_plaut(tp) == g
        d = plaut_to_dyadic(g)
        assert treepair_to_dyadic(dyadic_to_treepair(d)) == d


def test_treepair_round_trips_random_words():
    rng = random.Random(29)
    for _ in range(50):
        g = random_plaut(rng, rng.randint(1, 6))
        assert treepair_to_plaut(plaut_to_treepair(g)) == g


def test_treepair_composition_is_homomorphic():
    rng = random.Random(31)
    for _ in range(20):
        a = random_plaut(rng, rng.randint(1, 4))
        b = random_plaut(rng, rng.randint(1, 4))
        assert plaut_to_treepair(a * b) == treepair_compose(
            plaut_to_treepair(a), plaut_to_treepair(b)
        ) == plaut_to_treepair(a) * plaut_to_treepair(b)
        assert plaut_to_treepair(inverse_pl(a)) == ~plaut_to_treepair(a)


def test_treepair_order_of_p():
    tp = plaut_to_treepair(generator_pl("P"))
    acc = tp
    for _ in range(4):
        assert not acc.is_identity()
        acc = treepair_compose(acc, tp)
    assert acc.is_identity()


def test_treepair_json_round_trip():
    rng = random.Random(37)
    elems = [plaut_to_treepair(evaluate(n, "pl")) for n in GEN_NAMES]
    elems += [
        plaut_to_treepair(random_plaut(rng, rng.randint(1, 5)))
        for _ in range(10)
    ]
    for tp in elems:
        blob = json.dumps(tp.to_json())
        assert TreePair.from_json(json.loads(blob)) == tp


def test_treepair_json_format():
    d = DyadicPL([(F(0), F(0)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))])
    tp = dyadic_to_treepair(d)
    assert tp.to_json() == {
        "domain": [1, 2, 2],
        "range": [2, 2, 1],
        "rotation": 0,
    }


def test_dyadic_json_round_trip_and_format():
    d = plaut_to_dyadic(generator_pl("C"))
    data = d.to_json()
    # pairs are (numerator, log2 denominator)
    assert data == {
        "breakpoints": [
            [[0, 0], [3, 2]],
            [[1, 1], [0, 0]],
            [[3, 2], [1, 1]],
        ]
    }
    assert DyadicPL.from_json(json.loads(json.dumps(data))) == d
    # an unreduced pair, or one outside [0, 1), names the same circle point
    assert DyadicPL.from_json({"breakpoints": [
        [[0, 0], [-1, 2]], [[3, 1], [0, 0]], [[7, 2], [2, 2]]]}) == d
    rng = random.Random(43)
    for _ in range(10):
        d = plaut_to_dyadic(random_plaut(rng, rng.randint(1, 5)))
        assert DyadicPL.from_json(json.loads(json.dumps(d.to_json()))) == d


@pytest.mark.parametrize("n", (5000, -5000))
def test_json_round_trip_of_a_large_power(n):
    d = circle_form(linear_pl((1, n, 0, 1)))
    data = json.loads(json.dumps(d.to_json()))
    assert DyadicPL.from_json(data) == d


def test_json_refuses_malformed_pairs():
    good = [[0, 0], [3, 2]]
    for bad, match in (([[1, -1], [3, 2]], "negative denominator"),
                       ([[1, 2], [3, -4]], "negative denominator"),
                       ([[1, 2], [None, 2]], "dyadic pair must hold integers"),
                       ([[1, 2], [3, 2.0]], "dyadic pair must hold integers"),
                       ([[False, 2], [3, 2]], "dyadic pair must hold integers")):
        with pytest.raises(ValueError, match=match):
            DyadicPL.from_json({"breakpoints": [good, bad]})
    for bad in ([[1, 2, 3], [3, 2]], [[1], [3, 2]], [[1, 2]]):
        with pytest.raises(ValueError):
            DyadicPL.from_json({"breakpoints": [bad]})
    # every _set check still runs: a slope of 3 is refused
    with pytest.raises(ValueError, match="not a power of two"):
        DyadicPL.from_json({"breakpoints": [[[0, 0], [0, 0]],
                                            [[1, 2], [3, 2]]]})
    with pytest.raises(ValueError, match="at least one"):
        DyadicPL.from_json({"breakpoints": []})


@pytest.mark.parametrize("cls, data, message", [
    (DyadicPL, [], "a DyadicPL document is a JSON object, got []"),
    (DyadicPL, {}, "a DyadicPL document holds the keys breakpoints, got {}"),
    (DyadicPL, {"breakpoints": [5]},
     "breakpoint must be a list of 2 points, got 5"),
    (TreePair, 3, "a TreePair document is a JSON object, got 3"),
    (TreePair, {"domain": [0], "range": [0]},
     "a TreePair document holds the keys domain, range, rotation, got "
     "{'domain': [0], 'range': [0]}"),
    (TreePair, {"domain": 0, "range": [0], "rotation": 0},
     "a tree is a non-empty list of its leaf depths, non-negative "
     "integers, e.g. [2, 2, 1]"),
], ids=["dyadic-not-object", "dyadic-missing-key", "dyadic-non-list",
        "tree-not-object", "tree-missing-key", "tree-non-list"])
def test_from_json_refuses_a_malformed_document(cls, data, message):
    with pytest.raises(ValueError) as exc:
        cls.from_json(data)
    assert str(exc.value) == message


def test_backends_agree_with_plane_model():
    rng = random.Random(47)
    letters = ("P", "C", "I", "U", "mu", "L", "R")
    for _ in range(15):
        word = " ".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        g = evaluate(word, "pl")
        assert evaluate(word, "dyadic") == plaut_to_dyadic(g)
        assert evaluate(word, "tree") == plaut_to_treepair(g)


def test_cfp_generators_satisfy_presentation():
    a, b, c = cfp_generators()
    assert a == evaluate("C R^2", "dyadic")
    assert b == evaluate("C^-1 R^-1", "dyadic")
    assert c == evaluate("C^-1", "dyadic")
    rep = check_suite("t_abc", "dyadic")
    assert rep["ok"], rep
    rep = check_suite("consequences", "dyadic")
    assert rep["ok"], rep


def test_circle_suites_pass():
    for suite in ("H", "theorem", "t_lc", "t_rc"):
        for backend in ("tree", "dyadic"):
            rep = check_suite(suite, backend)
            assert rep["ok"], (suite, backend, rep)
