"""Acceptance suite: the eleven binding criteria, one test and one printed
pass/fail line each, with wall-clock budgets enforced.

Run with -s to watch the lines as they print; without -s pytest shows them
for failing tests only.
"""

import itertools
import random
import time

from sympt import birational, plcore, quantum, thompson, words
from sympt.picard import (
    BreakFn,
    ample_A,
    be_encode,
    chain_vec,
    cross_basis_report,
    delta_vec,
    gamma_action,
    index,
    mu_Wq_action,
    mu_Wq_inverse,
    pairing,
    pic_product,
    plpart_vec,
    random_v_vector,
    v_membership,
    wedge_form,
    word_acts_as_identity,
)
from sympt.plcore import GEN_MATS, mat_inv, mat_mul, primitive


def _run(n, desc, budget, body):
    t0 = time.perf_counter()
    try:
        note = body()
    except BaseException:
        print("ACCEPTANCE %2d: FAIL  %s" % (n, desc))
        raise
    dt = time.perf_counter() - t0
    assert dt < budget, "criterion %d took %.2fs (budget %gs)" % (n, dt, budget)
    extra = (" [%s]" % note) if note else ""
    print("ACCEPTANCE %2d: PASS  %s (%.2fs / %gs)%s" % (n, desc, dt, budget, extra))


def _rand_word(rng, max_len=6):
    return tuple((rng.choice("PCI"), rng.choice((1, -1)))
                 for _ in range(rng.randint(1, max_len)))


def _rand_convex(rng):
    ls = [(rng.randint(-3, 3), rng.randint(-3, 3))
          for _ in range(rng.randint(2, 4))]
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            dx, dy = ls[i][0] - ls[j][0], ls[i][1] - ls[j][1]
            if (dx, dy) != (0, 0):
                d = primitive((-dy, dx))
                rays.add(d)
                rays.add((-d[0], -d[1]))
    rays = sorted(rays)
    return BreakFn(rays, [max(a * r[0] + b * r[1] for a, b in ls)
                          for r in rays])


def _rand_breakfn(rng):
    return _rand_convex(rng) - _rand_convex(rng)


def _rand_gamma(rng):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        g = GEN_MATS[rng.choice("CI")]
        if rng.random() < 0.5:
            g = mat_inv(g)
        m = mat_mul(g, m)
    return m


def test_criterion_01_pl_relation_suite():
    def body():
        run = words.check_suite("H", backend="pl")
        assert run["ok"]
        assert [r["verdict"] for r in run["results"]] == ["pass"] * 5

    _run(1, "group relation suite holds exactly in the PL backend", 1.0, body)


def test_criterion_02_presentation_theorem_suite():
    def body():
        run = words.check_suite("theorem", backend="pl")
        assert run["ok"]
        assert [r["verdict"] for r in run["results"]] == ["pass"] * 3

    _run(2, "presentation theorem suite holds exactly in the PL backend",
         1.0, body)


def test_criterion_03_alternative_presentations():
    def body():
        for suite in ("t_rc", "t_lc"):
            run = words.check_suite(suite, backend="pl")
            assert run["ok"], run
        run = words.check_suite("consequences", backend="dyadic")
        assert run["ok"], run
        # two independent routes to A and B: the dyadic backend folds
        # their expansions from the circle forms of P, C and I, while
        # cfp_generators multiplies them in the plane and converts
        a, b, _ = thompson.cfp_generators()
        assert a == words.evaluate("A", "dyadic")
        assert b == words.evaluate("B", "dyadic")

    _run(3, "alternative presentations and their dyadic consequences", 5.0, body)


def test_criterion_04_tropicalization():
    def body():
        assert birational.tropicalize(birational.generator_bir("P")) == \
            plcore.generator_pl("P")
        letters = [(s, e) for s in "PCI" for e in (1, -1)]
        gen = {1: {s: birational.generator_bir(s) for s in "PCI"},
               -1: {s: birational.generator_bir_inverse(s) for s in "PCI"}}
        pl = {1: {s: plcore.generator_pl(s) for s in "PCI"},
              -1: {s: ~plcore.generator_pl(s) for s in "PCI"}}
        count = 0
        for n in (1, 2, 3):
            for combo in itertools.product(letters, repeat=n):
                f = birational.identity_bir()
                g = plcore.identity_pl()
                for s, e in combo:
                    f = birational.compose_bir(f, gen[e][s])
                    g = g * pl[e][s]
                assert birational.tropicalize(f) == g, combo
                count += 1
        return "%d words" % count

    _run(4, "tropicalization is a morphism on all signed words up to length 3",
         5.0, body)


def test_criterion_05_birational_suite():
    def body():
        run = words.check_suite("H", backend="bir", params={"trials": 20})
        assert run["ok"]
        exponents = []
        for r in run["results"]:
            ev = r["witness"]
            assert len(ev["primes"]) == 2
            assert all(p > 2 ** 61 for p in ev["primes"])
            assert ev["trials_per_prime"] == 20
            exponents.append(int(ev["error_bound"].split("-")[1]))
        assert min(exponents) > 40  # reported bound is far below 2^-40
        for name in ("P", "C", "I", "U", "mu"):
            assert birational.is_symplectic(words.evaluate(name, "bir"))
        rng = random.Random(5)
        for _ in range(20):
            f = words.evaluate(_rand_word(rng), "bir")
            assert birational.is_symplectic(f)
        return "min error bound 2^-%d" % min(exponents)

    _run(5, "randomized birational suite and symplectic form preservation",
         30.0, body)


def test_criterion_06_kernel_probe():
    def body():
        word = (("P", 1), ("I", 1), ("C", 1)) * 7
        rep = birational.kernel_probe(word, npoints=100,
                                      primes=birational.PRIMES[:3], seed=0)
        # a moved point is an exact disproof; a sample of fixed points is
        # experimental data about the candidate kernel element
        assert rep["verdict"] in ("identity", "nonidentity")
        assert rep["points_identity"] + rep["points_moved"] >= 100
        assert len(rep["primes"]) >= 3
        return "verdict %s on %d points" % (
            rep["verdict"], rep["points_identity"] + rep["points_moved"])

    _run(6, "seventh-power kernel probe is consistent and recorded", 30.0, body)


def test_criterion_07_picard_invariants():
    def body():
        rng = random.Random(11)
        for _ in range(50):
            x, y = random_v_vector(rng), random_v_vector(rng)
            w = wedge_form(x, y)
            assert wedge_form(mu_Wq_action(x), mu_Wq_action(y)) == w
        mats = [_rand_gamma(rng) for _ in range(20)]
        for _ in range(50):
            x, y = random_v_vector(rng), random_v_vector(rng)
            w = wedge_form(x, y)
            for m in mats:
                assert wedge_form(gamma_action(x, m), gamma_action(y, m)) == w
        for _ in range(50):
            x = random_v_vector(rng)
            assert v_membership(mu_Wq_action(x))
            assert v_membership(mu_Wq_inverse(x))
            assert v_membership(gamma_action(x, _rand_gamma(rng)))
        for _ in range(50):
            vec = be_encode(_rand_breakfn(rng))  # asserts checksum internally
            total = (0, 0)
            for key, c in vec.terms.items():
                a, n = key[1], c.constant_value()
                total = (total[0] + n * a[0], total[1] + n * a[1])
            assert total == (0, 0)
        for _ in range(100):
            F = _rand_breakfn(rng)
            a = (0, 0)
            while a == (0, 0):
                a = (rng.randint(-5, 5), rng.randint(-5, 5))
            a = primitive(a)
            assert len({index(F, a, shift=s) for s in (0, 1, 2, 5)}) == 1

    _run(7, "lattice form, kernel and index invariants of the Picard model",
         10.0, body)


def test_criterion_08_picard_relations_and_cross_basis():
    def body():
        relations = {
            "C^3": (("C", 3),),
            "I^4": (("I", 4),),
            "P^5": (("P", 5),),
            "PCP I^-1": (("P", 1), ("C", 1), ("P", 1), ("I", -1)),
            "[C, I^2]": (("C", 1), ("I", 2), ("C", -1), ("I", -2)),
        }
        for name, word in relations.items():
            verdict = word_acts_as_identity(word, nvectors=20, seed=2)
            assert verdict["identity"], (name, verdict["evidence"])
            assert verdict["evidence"]["identity_at_q1"]
        rep = cross_basis_report(samples=30, seed=4)
        assert rep["conventions"]
        mismatched = [s for s in rep["samples"] if not s["be_matches_p_rule"]]
        assert all("witness" in s for s in mismatched)
        agreed = [s for s in rep["samples"] if s["wq_matches_p_rule"]]
        assert len(agreed) == len(rep["samples"])
        return "%d/%d cross-basis mismatches carry witnesses" % (
            len(mismatched), len(rep["samples"]))

    _run(8, "Picard relations at q->1 and the cross-basis report", 10.0, body)


def test_criterion_09_quantum_model():
    def body():
        relations = (
            (("C", 3),),
            (("I", 4),),
            (("P", 5),),
            (("P", 1), ("C", 1), ("P", 1), ("I", -1)),
            (("C", 1), ("I", 2), ("C", -1), ("I", -2)),
        )
        for n, p in ((1, 101), (3, 7), (5, 11), (7, 29)):
            cfg = quantum.make_config(n, p)
            for word in relations:
                verdict = quantum.word_acts_as_identity(word, N=n, p=p,
                                                        trials=10, seed=3)
                assert verdict["identity"], (n, p, word, verdict["evidence"])
            rng = random.Random(n)
            done = 0
            while done < 10:
                pair = quantum.random_pair(cfg, rng)
                for s in ("P", "C", "I"):
                    try:
                        out = quantum.q_apply(s, pair, cfg)
                    except quantum.SingularSubstitution:
                        continue
                    assert quantum.commutes_q(out, cfg)
                    done += 1
        cfg = quantum.make_config(1, 101)
        pair = quantum.clock_shift(cfg, 2, 3)
        orbit = []
        for _ in range(5):
            pair = quantum.q_apply("P", pair, cfg)
            orbit.append((pair.X[0][0], pair.Y[0][0]))
        assert orbit == [(3, 2), (2, 1), (1, 1), (1, 2), (2, 3)]

    _run(9, "quantum matrix relations, commutation and the scalar orbit",
         30.0, body)


def test_criterion_10_model_round_trips():
    def body():
        rng = random.Random(9)
        gen_words = [(("P", 1),), (("C", 1),), (("I", 1),)]
        sample = gen_words + [_rand_word(rng) for _ in range(50)]
        for word in sample:
            f = words.evaluate(word, "pl")
            dy = thompson.plaut_to_dyadic(f)
            tp = thompson.plaut_to_treepair(f)
            assert thompson.dyadic_to_plaut(dy) == f
            assert thompson.treepair_to_plaut(tp) == f
            assert thompson.treepair_to_dyadic(tp) == dy
            assert thompson.dyadic_to_treepair(dy) == tp
        for _ in range(10):
            w1, w2 = _rand_word(rng, 3), _rand_word(rng, 3)
            f1, f2 = words.evaluate(w1, "pl"), words.evaluate(w2, "pl")
            assert thompson.plaut_to_dyadic(f1 * f2) == thompson.dyadic_compose(
                thompson.plaut_to_dyadic(f1), thompson.plaut_to_dyadic(f2))
            assert thompson.plaut_to_treepair(f1 * f2) == \
                thompson.treepair_compose(thompson.plaut_to_treepair(f1),
                                          thompson.plaut_to_treepair(f2))

    _run(10, "circle model conversions are inverse and homomorphic", 5.0, body)


def test_criterion_11_pairing():
    def body():
        rng = random.Random(3)
        for _ in range(10):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            lin = BreakFn(((1, 0), (0, 1), (-1, 0), (0, -1)),
                          (a, b, -a, -b))
            assert lin.is_linear()
            G = {}
            while len(G) < 4:
                v = (rng.randint(-5, 5), rng.randint(-5, 5))
                if v != (0, 0):
                    G[primitive(v)] = rng.randint(-3, 3)
            assert pairing(lin, G) == 0
        d1 = delta_vec((1, 0), 1)
        d2 = delta_vec((0, 1), 1)
        assert pic_product(d1, d1) == -1
        assert pic_product(d1, d2) == 0
        assert pic_product(d1, delta_vec((1, 0), 2)) == 0
        assert pic_product(d1, plpart_vec(ample_A())) == 0
        assert pic_product(d1, chain_vec((1, 0))) == 0
        A = ample_A()
        assert pairing(A, {(1, 0): 1}) == 1
        assert pairing(A, {(-1, 0): 1}) == 1

    _run(11, "intersection pairing identities", 1.0, body)
