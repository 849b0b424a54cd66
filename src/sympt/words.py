"""Shared word language over the named generators.

A word is a sequence of (symbol, exponent) factors over the closed alphabet
P, L, C, I, U, mu, V, R, A, B, X2, alpha, beta, written "P C^-1 I^2" with the
rightmost factor acting first.  Derived symbols carry definitional expansions
into the core letters P, C, I; the expansions are identities of the group, so
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
multiplies the factors in a balanced tree (plcore.product).  A ring's atoms
are its model's values of the core letters alone, so every derived symbol,
A and B included, folds from EXPANSIONS.  tree and dyadic share
_circle_ring, whose atoms are the circle forms of P, C and I; FORMS names
each model's form in thompson.  bir composes the core spelling one letter
at a time instead (birational.compose_letters), the order in which its
products stay in lowest terms.

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

ALPHABET = ("P", "L", "C", "I", "U", "mu", "V", "R", "A", "B", "X2", "alpha", "beta")

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


def _free_mul(a: Word, b: Word) -> Word:
    """Product of two freely reduced words, freely reduced: letters that
    meet at the junction merge, and a merge to exponent 0 cancels."""
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        e = a[i - 1][1] + b[j][1]
        i, j = i - 1, j + 1
        if e:
            return a[:i] + ((b[j - 1][0], e),) + b[j:]
    return a[:i] + b[j:]


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
    """What _fold needs of a model: its identity, product and inverse, and
    the value of each symbol and of its inverse, built on first use and
    kept.

    atom(s, sign) is the model's own value of s^sign (sign 1 or -1), or
    None where the ring builds it: the inverse of s^1, or else the fold of
    EXPANSIONS[s].  So a call builds only the symbols its word names.
    """

    def __init__(self, atom, identity, mul, inverse=operator.invert):
        self.identity, self.mul, self.inverse = identity, mul, inverse
        self._atom = atom
        self._values: dict = {}

    def value(self, s: str, sign: int):
        key = (s, sign)
        if key not in self._values:
            g = self._atom(s, sign)
            if g is None:
                g = (self.inverse(self.value(s, 1)) if sign < 0
                     else _fold(parse_word(EXPANSIONS[s]), self))
            self._values[key] = g
        return self._values[key]


def _fold(word: Word, ring: _Ring):
    # each factor s^e is the value of s^±1 raised to |e| by repeated
    # squaring, O(log |e|) products; plcore.product then reduces the
    # factors in a balanced tree
    return plcore.product(
        [plcore.power(ring.value(s, 1 if e > 0 else -1), abs(e), ring.mul)
         for s, e in word if e],
        ring.mul, ring.identity)


@functools.cache
def _free_ring(target: frozenset) -> _Ring:
    # the free group on the target letters: a word folds to its expansion,
    # freely reduced
    return _Ring(lambda s, sign: ((s, sign),) if s in target else None,
                 (), _free_mul, word_inverse)


def _core(word) -> Word:
    return _fold(parse_word(word) if isinstance(word, str) else word,
                 _free_ring(CORE))


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
    th = _module("thompson")
    form = FORMS[model]
    return _Ring(
        lambda s, sign: getattr(th, "plaut_to_" + form)(_pl_ring().value(s, 1))
        if s in CORE and sign > 0 else None,
        getattr(th, form + "_identity")(),
        lambda a, b: getattr(th, form + "_compose")(a, b))


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
            "length %d (use word_equals for long words)"
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
