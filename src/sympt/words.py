"""Shared word language over the named generators.

A word is a sequence of (symbol, exponent) factors over ALPHABET, written
"P C^-1 I^2" with the rightmost factor acting first.  A model defines only
the core letters P, C, I; every other letter is defined once, by its
expansion in EXPANSIONS.  The expansions are identities of the group, so
evaluating a word and evaluating its expansion agree in every backend.

The second and third circle-group presentations are stated here for the
inverse generators (their words multiply in the opposite order), which is why
their expansions read R = P^2 C, A = C R^2, B = C^-1 R^-1, alpha = C^-1 R C^-1,
beta = R^2 C R^2, and why the corresponding suite files invert each bare C and
I.  Relation suites live in suites/*.json as data: a list of
{name, lhs, rhs} with rhs a word, "1", or "probe".  They are read from the
directory next to this file, not through the resource API of importlib,
whose import alone can cost a CLI call more than the rest of sympt.  The
trade: the package must be installed as files (package-data
suites/*.json), never zipped.

Every reader of EXPANSIONS goes through one fold, _fold, over a _Ring: one
ring per exact model, and the free group on the target letters, in which
_core and expand spell a word over {P, C, I} or {P, C}, freely reduced.
The fold raises each factor by repeated squaring (plcore.power) and
multiplies the factors in a balanced tree (plcore.product).  It cuts the
word into chunks of four factors, the operands of the tree's second
round, each the product of two pairs, the first round's operands.  A
ring keeps one table, keyed by factors: the product of each pair of unit
letters it meets, and of each chunk of four unit core letters, so a word
of L unit core letters costs about L / 4 products.  Within one fold it
raises each power s^e, |e| > 1, once, and reads s^-e as the inverse of
s^e.  A ring's atoms are its model's values of the core letters alone, so every
derived symbol, A and B included, folds from EXPANSIONS.  tree and dyadic
share _circle_ring, whose atoms are the circle forms of P, C and I and
whose every product is held to thompson.POINT_BUDGET; FORMS names each
model's form in thompson.  bir composes the core spelling one letter at a
time instead (birational.compose_letters), the order in which its
products stay in lowest terms.

The sampled models walk a core word rather than fold it.  compile_word
multiplies each maximal run of C and I into one relabel of the model's
ring (MATRICES for bir and picard, q-monomial relabels for quantum),
keeps every P step, and is the one place that refuses a letter outside
CORE or a word of more than STEP_BUDGET P steps.  walk_mod is the one
walk of the commutative maps mod p, over a walk in compile_mod's form,
compiled once a check: bir samples its images, and quantum reads the
N-th powers of its pair off it, as they move by the same maps.  A
spelling of more than STEP_BUDGET factors is refused while _core or
expand builds it, so no exponent, however large, makes a word run
without bound.

BACKENDS is the one table of models, keyed by name.  Each entry says how to
evaluate a word; the randomized models (bir, picard, quantum) also say how to
test whether a core word is the identity, and map each CLI sampling flag
they read to the param it sets, while the exact ones (pl, tree, dyadic)
compare values.
evaluate, check_relation and check_suite reach the models only through it.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import re
from collections import namedtuple
from importlib import import_module

from . import plcore

Word = tuple[tuple[str, int], ...]

# Derived symbols as words in earlier ones; every chain ends in {P, C, I}.
EXPANSIONS = {
    "L": "P^-1",
    "U": "C I",
    "mu": "I P",
    "V": "C^-1 I^2",
    "R": "P^2 C",
    "A": "C R^2",
    "B": "C^-1 R^-1",
    "X2": "A^-1 B A",
    "alpha": "C^-1 R C^-1",
    "beta": "R^2 C R^2",
    "I": "P C P",
}

CORE = frozenset({"P", "C", "I"})
ALPHABET = tuple(sorted(CORE | EXPANSIONS.keys()))

_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?$")


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@functools.lru_cache(maxsize=256)
def parse_word(text: str) -> Word:
    """Parse "P C^-1 I^2" into ((P,1),(C,-1),(I,2)); "1" is the empty word.

    A word is a tuple, so the last 256 texts parsed are kept."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    factors = []
    pos = 0
    for chunk in text.split():
        start = text.index(chunk, pos)
        pos = start + len(chunk)
        m = _TOKEN.match(chunk)
        if not m:
            raise WordSyntaxError("bad token %r" % chunk, start)
        sym, exp = m.group(1), int(m.group(2) or 1)
        if sym not in ALPHABET:
            raise WordSyntaxError("unknown symbol %r" % sym, start)
        if exp == 0:
            raise WordSyntaxError("zero exponent on %r" % sym, start)
        factors.append((sym, exp))
    return tuple(factors)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(s if e == 1 else "%s^%d" % (s, e) for s, e in word)


def word_inverse(word: Word) -> Word:
    return tuple((s, -e) for s, e in reversed(word))


def word_length(word: Word) -> int:
    return sum(abs(e) for _, e in word)


# The most P steps a compiled word takes, and the most factors a spelling
# holds (compile_word, _free_mul).  At the budget, check_relation("P^4096",
# "1") took 0.50 s in picard, 0.76 s in quantum and 0.13 s in bir with the
# default params (2-vCPU VM, Python 3.11.7): seconds, not months.
STEP_BUDGET = 2 ** 12


def _past_budget(what: str) -> ValueError:
    return ValueError("word past the budget of %d steps: %s"
                      % (STEP_BUDGET, what))


def _free_mul(a: Word, b: Word) -> Word:
    """Product of two freely reduced words, freely reduced: letters that
    meet at the junction merge, and a merge to exponent 0 cancels.  A
    product of more than STEP_BUDGET factors is refused before it is
    built."""
    i, j = len(a), 0
    merged = ()
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        e = a[i - 1][1] + b[j][1]
        i, j = i - 1, j + 1
        if e:
            merged = ((b[j - 1][0], e),)
            break
    if i + len(merged) + len(b) - j > STEP_BUDGET:
        # the first product past the budget, not the whole spelling,
        # whose size is never counted
        raise _past_budget("its spelling holds more than %d factors"
                           % STEP_BUDGET)
    return a[:i] + merged + b[j:]


def expand(word: Word, alphabet=("P", "C")) -> Word:
    """Rewrite word into the target alphabet, {P, C} or {L, C}.

    The result is equal to word in the group, factor for factor, so
    evaluate(word) == evaluate(expand(word)) in every backend.
    """
    target = frozenset(alphabet)
    if target not in ({"P", "C"}, {"L", "C"}):
        raise ValueError("target alphabet must be {P,C} or {L,C}")
    pc = _fold(word, _free_ring(frozenset({"P", "C"})))
    if "L" in target:
        return tuple(("L", -e) if s == "P" else (s, e) for s, e in pc)
    return pc


# ---------------------------------------------------------------------------
# backends

class _Ring:
    """What _fold needs of a model: its identity, product and inverse, the
    value of each symbol and of its inverse, and one table of kept
    products, keyed by their factors: each product of two unit letters, at
    most (2 |ALPHABET|)^2 = 676 values, 36 over CORE, and each product of
    four unit core letters, at most 6^4 = 1296 values.  Each is built on
    first use.

    atom(s, sign) is the model's own value of s^sign (sign 1 or -1), or
    None where the ring builds it: the inverse of s^1, or else the fold of
    EXPANSIONS[s].  So a call builds only the symbols its word names.  A
    fold also keeps, for itself only, each power it raises (raised).  The
    relabel rings keep no product: compile_word multiplies their runs
    under its own memo.
    """

    def __init__(self, atom, identity, mul, inverse=operator.invert):
        self.identity, self.mul, self.inverse = identity, mul, inverse
        self._atom = atom
        self._values: dict = {}
        self._kept: dict = {}

    def value(self, s: str, sign: int):
        key = (s, sign)
        if key not in self._values:
            g = self._atom(s, sign)
            if g is None:
                g = (self.inverse(self.value(s, 1)) if sign < 0
                     else _fold(parse_word(EXPANSIONS[s]), self))
            self._values[key] = g
        return self._values[key]

    def raised(self, s: str, e: int, powers=None):
        """s^e, e != 0: the value of s^+-1 by repeated squaring, O(log |e|)
        products.  With powers, one fold's memo, s^e is kept there for
        |e| > 1, and s^-e, once kept, is read as its inverse: one pass in
        place of a second chain of squarings."""
        if powers is None or e * e == 1:
            return plcore.power(self.value(s, 1 if e > 0 else -1), abs(e),
                                self.mul)
        g = powers.get((s, e))
        if g is None:
            g = powers.get((s, -e))
            g = powers[s, e] = (self.raised(s, e) if g is None
                                else self.inverse(g))
        return g

    def product(self, factors: Word, powers=None):
        """The product of one to four factors as the first two rounds of
        plcore.product form it, (f0 f1)(f2 f3), kept when they are two
        unit letters or four unit core letters.  powers is the fold's memo
        (raised)."""
        n = len(factors)
        if n == 1:
            return self.raised(*factors[0], powers)
        g = self._kept.get(factors)
        if g is None:
            half = (n + 1) // 2
            g = self.mul(self.product(factors[:half], powers),
                         self.product(factors[half:], powers))
            if n != 3 and all(e * e == 1 and (n == 2 or s in CORE)
                              for s, e in factors):
                self._kept[factors] = g
        return g


def _fold(word: Word, ring: _Ring):
    # the factors in chunks of four, the operands of plcore.product's
    # second round, each a ring.product; plcore.product then reduces the
    # chunks in the same balanced tree, so a word of L unit core letters
    # costs about L / 4 products once its chunks are kept.  The fold
    # raises each s^e, |e| > 1, once and reads s^-e as its inverse
    # (ring.raised); the memo goes when the fold returns
    factors = tuple([f for f in word if f[1]])
    powers = {}
    return plcore.product([ring.product(factors[i:i + 4], powers)
                           for i in range(0, len(factors), 4)],
                          ring.mul, ring.identity)


@functools.cache
def _free_ring(target: frozenset) -> _Ring:
    # the free group on the target letters: a word folds to its expansion,
    # freely reduced
    return _Ring(lambda s, sign: ((s, sign),) if s in target else None,
                 (), _free_mul, word_inverse)


@functools.lru_cache(maxsize=256)
def _core(word) -> Word:
    """The spelling of a word, text or tuple, over CORE, freely reduced.
    The last 256 words spelled are kept."""
    return _fold(parse_word(word) if isinstance(word, str) else word,
                 _free_ring(CORE))


# C and I as GL(2,Z) matrices, the relabels of bir and picard: a word's
# matrix is the product of its letters' matrices, leftmost first
MATRICES = _Ring(
    lambda s, sign: plcore.GEN_MATS.get(s) if sign > 0 else None,
    plcore.MAT_ID, lambda a, b: plcore.mat_mul(a, b),
    lambda a: plcore.mat_inv(a))


@functools.lru_cache(maxsize=256)
def compile_word(word: Word, ring: _Ring, finish=None):
    """The walk of a core word in a model whose C and I relabels form ring.

    The word is m_0 P^(s_1) m_1 ... P^(s_k) m_k with each s_i = +-1 and
    each m_i a maximal run of C and I factors.  Rightmost first, its walk
    is the steps ((r_1, s_1), ..., (r_k, s_k)), each relabelling by r_i
    and then taking one P^(s_i) step, and then the relabel r_last; each
    relabel is the balanced product in ring of its run's factors, each
    raised by repeated squaring: the tree _fold builds, with nothing kept
    in ring, as this memo keeps the walk.  P runs are never multiplied:
    P^5 = 1 is one of the relations under test, and a model's pole or
    singular step must be met where the letters meet it.
    finish(steps, r_last), when given, converts the walk into the model's
    own program, which is returned in its place.

    A word of more than STEP_BUDGET P steps, or with a letter outside
    CORE, is refused with a ValueError before any relabel is folded.  A
    word is a tuple, so the last 256 walks compiled are kept.
    """
    for s, _ in word:
        if s not in CORE:
            raise ValueError("unknown generator: letter %r is not P, C or I"
                             % (s,))
    steps = sum(abs(e) for s, e in word if s == "P")
    if steps > STEP_BUDGET:
        raise _past_budget("it takes %d P steps" % steps)
    out, run = [], []
    for s, e in reversed(word):
        if s != "P":
            if e:
                run.append(ring.raised(s, e))
            continue
        for _ in range(abs(e)):
            out.append((plcore.product(run[::-1], ring.mul, ring.identity),
                        1 if e > 0 else -1))
            run = []
    walk = tuple(out), plcore.product(run[::-1], ring.mul, ring.identity)
    return finish(*walk) if finish else walk


def _relabel_mod(m):
    """The relabel by the matrix m on a projective triple (a, b, d), as
    (degree, rows), or None for the identity.

    (x, y) -> (x^m0 y^m1, x^m2 y^m3) with x = a/d and y = b/d sends a, b
    and d to the monomials in (a, b, d) with exponent rows (m0, m1,
    -m0 - m1), (m2, m3, -m2 - m3) and (0, 0, 0).  Adding to every row the
    least shift (s_a, s_b, s_d) that makes them all nonnegative multiplies
    the triple by one monomial, which leaves the point as it is.  Each
    unshifted row sums to 0, so each shifted row has the degree D = s_a +
    s_b + s_d.  For D = 1 the relabel permutes (a, b, d), and for D = 2 it
    multiplies pairs of them; rows is then an itemgetter of the entries
    each new row multiplies, in order.  A larger D keeps the exponent rows,
    raised by pow.  The lone letters give D = 1 for C^+-1 and D = 2 for
    I^+-1: the maps in the table at walk_mod.
    """
    if m == plcore.MAT_ID:
        return None
    rows = ((m[0], m[1], -m[0] - m[1]), (m[2], m[3], -m[2] - m[3]), (0, 0, 0))
    shift = [-min(col) for col in zip(*rows)]
    rows = tuple(tuple(map(sum, zip(row, shift))) for row in rows)
    degree = sum(shift)
    if degree > 2:
        return degree, rows
    return degree, operator.itemgetter(
        *(k for row in rows for k, e in enumerate(row) for _ in range(e)))


def _projective(steps, last):
    # the walk of a word on (a, b, d): each step's relabel, then its P
    # step, and the last relabel as a step of sign 0
    return tuple((_relabel_mod(m), sign) for m, sign in (*steps, (last, 0)))


def compile_mod(word):
    """The walk of a core word that walk_mod takes: compile_word over
    MATRICES, each relabel in _relabel_mod's form.  A check compiles its
    word once and walks it from every sample point, so the word is hashed
    once, not once a point.  ValueError where compile_word refuses the
    word."""
    return compile_word(tuple(word), MATRICES, _projective)


def walk_mod(walk, point, p):
    """Walk a core word over a point mod p by the commutative maps,
    rightmost factor first, and yield the image after each step of its
    walk, the last relabel included, as a projective triple (a, b, d):
    x = a/d, y = b/d.  The one walk of P, C and I mod p: bir samples its
    images, and quantum reads the N-th powers of its pair off it.

    walk is compile_mod(word), or quantum's copy of it, and point holds
    two nonzero residues mod p.  The point is carried as (a, b, d) from
    (x, y, 1), so a step costs a few products and the walk makes no
    inversion; a caller divides by d only where it needs the image
    itself.  The walk relabels by each run of C and I at once
    (_relabel_mod) and takes P^+-1 one at a time.  The letters, as maps
    and on (a, b, d):

        P     (y, (1 + y)/x)   (ab, d(d + b), ad)
        P^-1  ((1 + x)/y, x)   (d(d + a), ab, bd)
        C     (y/x, 1/x)       (b, d, a)
        C^-1  (1/y, x/y)       (d, a, b)
        I     (1/y, x)         (d^2, ab, bd)
        I^-1  (y, 1/x)         (ab, d^2, ad)

    ZeroDivisionError is raised at exactly the step where applying
    birational.BirMap.apply_mod letter by letter raises.  By induction a,
    b and d stay nonzero: each new entry is a product of nonzero ones,
    save d + b and d + a, which are checked.  So x and y stay nonzero.  On
    such a point the monomial letters have no denominator and nonzero
    images, so apply_mod never raises there, and a run of them may be
    applied at once.  P has denominators 1 and x and images y and
    (1 + y)/x, so it raises iff y = -1, i.e. d + b = 0; P^-1 has
    denominators y and 1 and images (1 + x)/y and x, so it raises iff
    x = -1, i.e. d + a = 0.  So d is nonzero, and (a/d, b/d) is the image
    that apply_mod computes.
    """
    a, b = point
    d = 1
    for relabel, sign in walk:
        if relabel:
            degree, rows = relabel
            if degree == 1:
                a, b, d = rows((a, b, d))
            elif degree == 2:
                a0, a1, b0, b1, d0, d1 = rows((a, b, d))
                a, b, d = a0 * a1 % p, b0 * b1 % p, d0 * d1 % p
            else:
                a, b, d = [pow(a, i, p) * pow(b, j, p) * pow(d, k, p) % p
                           for i, j, k in rows]
        if sign > 0:
            s = (d + b) % p
            if not s:
                raise ZeroDivisionError("image on a coordinate axis")
            a, b, d = a * b % p, d * s % p, a * d % p
        elif sign < 0:
            s = (d + a) % p
            if not s:
                raise ZeroDivisionError("image on a coordinate axis")
            a, b, d = d * s % p, a * b % p, b * d % p
        yield a, b, d


def _module(name: str):
    # a model module loads on first use, so a call imports only the
    # models it reaches
    return import_module("." + name, __package__)


# Generator values are immutable, so each exact model keeps one ring per
# process.  Model functions are looked up when called, never captured, so
# that a wrapper set on a module attribute sees every call.

@functools.cache
def _pl_ring():
    return _Ring(
        lambda s, sign: plcore.generator_pl(s)
        if s in CORE and sign > 0 else None,
        plcore.identity_pl(), lambda a, b: a * b)


# circle model -> its form in thompson, as named in the converters
# <form>_to_<form> and, for tree and dyadic, <form>_identity and _compose
FORMS = {"pl": "plaut", "tree": "treepair", "dyadic": "dyadic"}


@functools.cache
def _circle_ring(model: str):
    # every product is checked against thompson.POINT_BUDGET, so no
    # exponent makes a circle fold run without bound
    th = _module("thompson")
    form = FORMS[model]
    return _Ring(
        lambda s, sign: getattr(th, "plaut_to_" + form)(_pl_ring().value(s, 1))
        if s in CORE and sign > 0 else None,
        getattr(th, form + "_identity")(),
        lambda a, b: th.within_budget(getattr(th, form + "_compose")(a, b)))


def _exact(ring, *args):
    return lambda word, params: _fold(word, ring(*args))


def _bir_value(word, params):
    # one letter at a time, from the left, so that reduce_fraction cancels
    # every common factor; C and I are the monomial maps of the
    # plcore.GEN_MATS matrices, the table every model reads its generator
    # matrices from
    bir = _module("birational")
    core = _core(word)
    if word_length(core) > bir.COMPOSE_CAP:
        raise ValueError(
            "symbolic composition capped at length %d; expanded word has "
            "length %d (use equal --backend bir for long words)"
            % (bir.COMPOSE_CAP, word_length(core)))
    return bir.compose_letters(bir.word_letters(core))


def _sampled(module: str, function: str, key: str):
    """identity_test over module.function(core_word, **params), which
    returns {key: bool, "evidence": ...}."""
    def identity_test(word, params):
        verdict = getattr(_module(module), function)(word, **params)
        return verdict[key], verdict["evidence"]
    return identity_test


class Backend(namedtuple("Backend",
                         "evaluate identity_test sampling eval_takes",
                         defaults=(None, {}, ()))):
    """evaluate(word, params) -> value; identity_test(core_word, params) ->
    (identity, evidence) for a randomized model, None for an exact one;
    sampling: each CLI sampling flag the model reads -> the param it sets,
    the other flags being refused; eval_takes: those flags that evaluate
    reads, empty where it samples nothing."""

    __slots__ = ()


BACKENDS = {
    "pl": Backend(_exact(_pl_ring)),
    "tree": Backend(_exact(_circle_ring, "tree")),
    "dyadic": Backend(_exact(_circle_ring, "dyadic")),
    "bir": Backend(
        _bir_value,
        _sampled("birational", "word_equals_identity", "equal"),
        {"--trials": "trials", "--prime": "primes", "--seed": "seed"}),
    "picard": Backend(
        lambda word, params: _module("picard").word_operator(_core(word)),
        _sampled("picard", "word_acts_as_identity", "identity"),
        {"--trials": "nvectors", "--seed": "seed"}),
    "quantum": Backend(
        lambda word, params: _module("quantum").evaluate_word(_core(word),
                                                              params),
        _sampled("quantum", "word_acts_as_identity", "identity"),
        {"--trials": "trials", "--prime": "p", "--N": "N", "--seed": "seed"},
        eval_takes=("--prime", "--N", "--seed")),
}


def _backend(name: str) -> Backend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError("unknown backend %r" % name) from None


def evaluate(word, backend: str = "pl", params: dict | None = None):
    """Value of a word in a backend, rightmost factor first.

    pl, tree and dyadic return exact group elements.  bir returns a symbolic
    map and enforces the composition length cap.  quantum returns the matrix
    pair reached from a sampled clock/shift pair, and picard returns the word
    as an operator on Picard vectors.
    """
    entry = _backend(backend)
    if isinstance(word, str):
        word = parse_word(word)
    return entry.evaluate(word, params or {})


# ---------------------------------------------------------------------------
# relation suites

_SUITES = os.path.join(os.path.dirname(__file__), "suites")


def list_suites() -> list[str]:
    return sorted(n[:-5] for n in os.listdir(_SUITES) if n.endswith(".json"))


def load_suite(name: str) -> list[dict]:
    """The entries of the shipped suite name; any name list_suites()
    does not return, a path included, is refused."""
    names = list_suites()
    if name not in names:
        raise ValueError("unknown suite %r (have: %s)"
                         % (name, ", ".join(names)))
    with open(os.path.join(_SUITES, name + ".json"), encoding="utf-8") as fh:
        data = json.load(fh)
    for entry in data:
        parse_word(entry["lhs"])
        if entry["rhs"] not in ("1", "probe"):
            parse_word(entry["rhs"])
    return data


def _witness(lv, rv) -> dict:
    """Why two exact values differ: for PL maps, the first ray,
    counterclockwise from (1,0), of their rays and the axes on which they
    differ.  Both maps are linear on every cone between two adjacent such
    rays, so two different maps differ on one of them."""
    if isinstance(lv, plcore.PLAut):
        for v in sorted({*lv.rays, *rv.rays, *plcore.AXES},
                        key=plcore.ccw_key):
            if lv(v) != rv(v):
                return {"point": list(v),
                        "lhs_image": list(lv(v)),
                        "rhs_image": list(rv(v))}
    return {"lhs_value": repr(lv), "rhs_value": repr(rv)}


def check_relation(lhs, rhs, backend: str = "pl", params: dict | None = None,
                   witness: bool = False) -> tuple:
    """Whether lhs = rhs holds in a backend: (equal, evidence).

    A randomized backend tests lhs rhs^-1 on samples and always returns its
    evidence.  An exact backend compares the two values; its evidence is
    None, or, with witness set, a witness of a failure.
    """
    entry = _backend(backend)
    if entry.identity_test is not None:
        names = entry.sampling.values()
        return entry.identity_test(
            _core(lhs) + word_inverse(_core(rhs)),
            {k: v for k, v in (params or {}).items() if k in names})
    lv = evaluate(lhs, backend)
    rv = evaluate(rhs, backend)
    if lv == rv:
        return True, None
    return False, _witness(lv, rv) if witness else None


def check_suite(suite, backend: str = "pl", params: dict | None = None) -> dict:
    """Run every relation of a suite in a backend.

    Entries with rhs "1" or a word get verdict "pass"/"fail"; entries with
    rhs "probe" get "identity"/"nonidentity" and never fail the suite.  The
    report carries the backend, parameters and witnesses needed to replay
    any failure.  The report's params are the seed and those the model
    reads, the ones check_relation passes it.
    """
    if isinstance(suite, str):
        name, entries = suite, load_suite(suite)
    else:
        name, entries = "<inline>", suite
    names = _backend(backend).sampling.values()
    params = {k: v for k, v in (params or {}).items()
              if k == "seed" or k in names}
    params.setdefault("seed", 0)
    results = []
    for entry in entries:
        lhs, rhs = entry["lhs"], entry["rhs"]
        probe = rhs == "probe"
        equal, evidence = check_relation(lhs, "1" if probe else rhs, backend,
                                         params, witness=True)
        res = {"name": entry.get("name", lhs), "lhs": lhs, "rhs": rhs}
        if probe:
            res["verdict"] = "identity" if equal else "nonidentity"
            if BACKENDS[backend].identity_test is not None:
                res["note"] = "experimental verdict, not asserted"
        else:
            res["verdict"] = "pass" if equal else "fail"
        if evidence is not None:
            res["witness"] = evidence
        results.append(res)
    return {
        "suite": name,
        "backend": backend,
        "params": params,
        "results": results,
        "ok": all(r["verdict"] != "fail" for r in results),
    }
