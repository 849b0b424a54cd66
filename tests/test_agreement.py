"""Cross-model agreement on the ball of radius 4.

No kernel element of tropicalization has fewer than 17 letters, so up to
radius 8 two words have the same PL value exactly when they are equal in
H.  Every model must then split the ball into the same classes.  This
test takes the 937 freely reduced words of at most 4 letters over P^+-1,
C^+-1 and I^+-1, which fall into 324 classes, and compares the partition
each of the six models gives with pl's:

- pl, tree and dyadic by value;
- bir by the images of 3 fixed points mod 2^61 - 1 (`_apply_word_mod`);
- picard by the images of 10 V vectors under `word_operator`;
- quantum by the outputs on two clock/shift draws at N = 5, p = 101: the
  first two seeded draws on which no word of the ball goes singular, as
  the sampled check resamples a singular draw.
"""

import random

from sympt import birational, picard, quantum, words

LETTERS = tuple((s, e) for s in "PCI" for e in (1, -1))
RADIUS = 4
BIR_PRIME = 2 ** 61 - 1
BIR_POINTS = ((1234567890123, 987654321098), (555555555555, 31415926535),
              (271828182845, 161803398874))


def _ball(radius):
    """The freely reduced words of at most radius letters, by length."""
    out = [()]
    layer = [()]
    for _ in range(radius):
        layer = [w + (g,) for w in layer for g in LETTERS
                 if not w or w[-1] != (g[0], -g[1])]
        out += layer
    return out


def _bir_key(word):
    key = []
    for point in BIR_POINTS:
        a, b, d = birational._apply_word_mod(words.compile_mod(word), point,
                                             BIR_PRIME)
        inv = pow(d, -1, BIR_PRIME)
        key.append((a * inv % BIR_PRIME, b * inv % BIR_PRIME))
    return tuple(key)


def _quantum_pairs(ball, cfg, rng, count):
    pairs = []
    while len(pairs) < count:
        pair = quantum.random_pair(cfg, rng)
        try:
            for w in ball:
                quantum.apply_word(w, pair, cfg)
        except quantum.SingularSubstitution:
            continue
        pairs.append(pair)
    return pairs


def _keys(ball):
    """Each model's key of a word: equal keys mean equal elements."""
    rng = random.Random(0)
    vectors = [picard.random_v_vector(rng) for _ in range(10)]
    cfg = quantum.make_config(5, 101)
    pairs = _quantum_pairs(ball, cfg, rng, 2)
    return {
        "pl": lambda w: words.evaluate(w, "pl"),
        "tree": lambda w: words.evaluate(w, "tree"),
        "dyadic": lambda w: words.evaluate(w, "dyadic"),
        "bir": _bir_key,
        "picard": lambda w: tuple(map(picard.word_operator(w), vectors)),
        "quantum": lambda w: tuple(quantum.apply_word(w, pair, cfg)
                                   for pair in pairs),
    }


def _partition(ball, key):
    """For each word, the first word of the ball with the same key."""
    first = {}
    return [first.setdefault(key(w), w) for w in ball]


def test_every_model_splits_the_ball_alike():
    ball = _ball(RADIUS)
    assert len(ball) == 937
    keys = _keys(ball)
    reference = _partition(ball, keys.pop("pl"))
    assert len(set(reference)) == 324
    for model, key in keys.items():
        classes = _partition(ball, key)
        for w, want, got in zip(ball, reference, classes):
            assert got == want, (
                "%s and pl split %s differently: pl puts it with %s, %s "
                "with %s" % (model, words.format_word(w),
                             words.format_word(want), model,
                             words.format_word(got)))
