"""Matrix models of the q-commuting substitution maps.

The three substitutions

    P: (x, y) -> (y, q x^{-1} (1 + y))
    C: (x, y) -> (q x^{-1} y, q x^{-1})
    I: (x, y) -> (q y^{-1}, x)

act on pairs of invertible variables subject to x y = q y x, with q central.
At q = 1 they degenerate to the commutative coordinate maps, so relations
among the commutative generators can be re-tested with q switched on.

Rather than symbolic skew-field arithmetic, the model specializes q to an
element of exact multiplicative order N in a prime field F_p (p = 1 mod N)
and realizes (x, y) as scalar multiples of the N x N clock and shift
matrices, which satisfy the commutation rule on the nose:

    clock = diag(1, q, ..., q^{N-1}),   shift e_i = e_{i+1 mod N}
    clock . shift = q . shift . clock

Substituting is then plain matrix arithmetic mod p.  Each substitution
preserves the commutation rule exactly (an algebraic identity, re-checked by
the tests), so a relation word can be probed by applying it to random
nonsingular pairs and comparing with the input.

A substitution can hit a singular matrix (P needs det(1 + y) != 0, its
inverse det(1 + x) != 0); callers resample the scalar factors and retry.
Odd N keeps 1 + shift invertible at the start, but after a few steps
singularity depends on the scalars, hence the retry loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .plcore import is_prime

Matrix = tuple[tuple[int, ...], ...]

_MAX_RESAMPLES = 500


class SingularSubstitution(ValueError):
    """A substitution step would invert a singular matrix."""


# ---------------------------------------------------------------------------
# dense matrix arithmetic over F_p (N <= 7, so no need for numpy)

def _mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) % p for cb in bt)
        for ra in a)


def _mat_add(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _mat_scale(c: int, a: Matrix, p: int) -> Matrix:
    return tuple(tuple((c * x) % p for x in row) for row in a)


def _mat_eye(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def _mat_inv(a: Matrix, p: int) -> Matrix:
    """Gauss-Jordan inverse mod p; SingularSubstitution if det = 0."""
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            raise SingularSubstitution("singular substitution")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _mat_det(a: Matrix, p: int) -> int:
    n = len(a)
    m = [list(row) for row in a]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    return det % p


# ---------------------------------------------------------------------------
# configuration: order-N root of unity in F_p

def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _mult_order_is(q: int, n: int, p: int) -> bool:
    if pow(q, n, p) != 1:
        return False
    return all(pow(q, n // r, p) != 1 for r in _prime_factors(n))


def default_prime(N: int) -> int:
    """Smallest prime >= 101 that is 1 mod N.

    The floor keeps the scalar pool large enough that resampling around
    singular substitutions converges quickly.
    """
    k = 101
    while not (k % N == 1 % N and is_prime(k)):
        k += 1
    return k


@dataclass(frozen=True, slots=True)
class QConfig:
    """Order N of q, the prime p, and the chosen root of unity q in F_p."""

    N: int
    p: int
    q: int
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not _mult_order_is(self.q, self.N, self.p):
            raise ValueError(
                "q=%d does not have exact order %d mod %d"
                % (self.q, self.N, self.p))


def make_config(N: int, p: int | None = None, seed: int = 0) -> QConfig:
    """Pick p = 1 mod N (smallest >= 101 when omitted) and the smallest
    element of exact order N in F_p*."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if p is None:
        p = default_prime(N)
    if not is_prime(p):
        raise ValueError("p=%d is not prime" % p)
    if p % N != 1 % N:
        raise ValueError("need p = 1 mod N; got p=%d, N=%d" % (p, N))
    return QConfig(N, p, _least_root_of_unity(N, p), seed)


def _least_root_of_unity(N: int, p: int) -> int:
    """Smallest element of exact order N in F_p*, for p = 1 mod N.

    The elements of order N are the powers h^k, gcd(k, N) = 1, of any
    one of them, and h = r^((p-1)/N) has order N for some r < p (a
    primitive root gives one), so this takes a few modular powers where
    scanning 1, 2, 3, ... takes about p/N steps.
    """
    h = next(h for h in (pow(r, (p - 1) // N, p) for r in range(1, p))
             if _mult_order_is(h, N, p))
    return min(pow(h, k, p) for k in range(1, N + 1) if gcd(k, N) == 1)


# ---------------------------------------------------------------------------
# q-commuting pairs

@dataclass(frozen=True, slots=True)
class QPair:
    """Invertible matrices with X Y = q Y X."""

    X: Matrix
    Y: Matrix


def clock_shift(cfg: QConfig, lx: int, ly: int) -> QPair:
    """X = lx*diag(q^i), Y = ly*(cyclic shift); then X Y = q Y X."""
    lx %= cfg.p
    ly %= cfg.p
    if lx == 0 or ly == 0:
        raise ValueError("scalar factors must be nonzero mod p")
    n, p, q = cfg.N, cfg.p, cfg.q
    clock = tuple(tuple(pow(q, i, p) if i == j else 0 for j in range(n))
                  for i in range(n))
    shift = tuple(tuple(1 if i == (j + 1) % n else 0 for j in range(n))
                  for i in range(n))
    return QPair(_mat_scale(lx, clock, p), _mat_scale(ly, shift, p))


def commutes_q(pair: QPair, cfg: QConfig) -> bool:
    lhs = _mat_mul(pair.X, pair.Y, cfg.p)
    rhs = _mat_scale(cfg.q, _mat_mul(pair.Y, pair.X, cfg.p), cfg.p)
    return lhs == rhs


def pair_valid(pair: QPair, cfg: QConfig) -> bool:
    return (_mat_det(pair.X, cfg.p) != 0 and _mat_det(pair.Y, cfg.p) != 0
            and commutes_q(pair, cfg))


# ---------------------------------------------------------------------------
# the substitutions and their inverses

def q_apply(name: str, pair: QPair, cfg: QConfig) -> QPair:
    """Apply one of P, C, I; SingularSubstitution when an inverse or the
    new pair member does not exist."""
    p, q = cfg.p, cfg.q
    x, y = pair.X, pair.Y
    if name == "P":
        one_plus_y = _mat_add(_mat_eye(cfg.N), y, p)
        if _mat_det(one_plus_y, p) == 0:
            raise SingularSubstitution("singular substitution")
        return QPair(y, _mat_scale(q, _mat_mul(_mat_inv(x, p), one_plus_y, p), p))
    if name == "C":
        xinv = _mat_inv(x, p)
        return QPair(_mat_scale(q, _mat_mul(xinv, y, p), p),
                     _mat_scale(q, xinv, p))
    if name == "I":
        return QPair(_mat_scale(q, _mat_inv(y, p), p), x)
    raise ValueError("unknown generator %r (expected P, C or I)" % name)


def q_apply_inverse(name: str, pair: QPair, cfg: QConfig) -> QPair:
    p, q = cfg.p, cfg.q
    x, y = pair.X, pair.Y
    if name == "P":
        one_plus_x = _mat_add(_mat_eye(cfg.N), x, p)
        if _mat_det(one_plus_x, p) == 0:
            raise SingularSubstitution("singular substitution")
        return QPair(_mat_scale(q, _mat_mul(one_plus_x, _mat_inv(y, p), p), p), x)
    if name == "C":
        yinv = _mat_inv(y, p)
        return QPair(_mat_scale(q, yinv, p), _mat_mul(yinv, x, p))
    if name == "I":
        return QPair(y, _mat_scale(q, _mat_inv(x, p), p))
    raise ValueError("unknown generator %r (expected P, C or I)" % name)


def apply_word(word, pair: QPair, cfg: QConfig) -> QPair:
    """Apply a word over {P, C, I}, rightmost factor first."""
    for sym, exp in reversed(tuple(word)):
        step = q_apply if exp > 0 else q_apply_inverse
        for _ in range(abs(exp)):
            pair = step(sym, pair, cfg)
    return pair


# ---------------------------------------------------------------------------
# sampling and relation checks

def random_pair(cfg: QConfig, rng: random.Random) -> QPair:
    return clock_shift(cfg, rng.randrange(1, cfg.p), rng.randrange(1, cfg.p))


def _pair_json(pair: QPair) -> dict:
    return {"X": [list(r) for r in pair.X], "Y": [list(r) for r in pair.Y]}


def evaluate_word(word, params: dict | None = None) -> dict:
    """Drive a sampled clock/shift pair through the word.

    Returns the input and output pair plus the configuration, as plain
    JSON-friendly data.  Resamples the scalar factors when a substitution
    goes singular.
    """
    params = params or {}
    cfg = make_config(params.get("N", 5), params.get("p"),
                      params.get("seed", 0))
    rng = random.Random(cfg.seed)
    for _ in range(_MAX_RESAMPLES):
        pair = random_pair(cfg, rng)
        try:
            out = apply_word(word, pair, cfg)
        except SingularSubstitution:
            continue
        return {
            "N": cfg.N, "p": cfg.p, "q": cfg.q,
            "input": _pair_json(pair),
            "output": _pair_json(out),
        }
    raise SingularSubstitution(
        "exhausted nonsingular samples (%d tries)" % _MAX_RESAMPLES)


def q_relation_check(word, cfg: QConfig, trials: int = 10,
                     seed: int | None = None) -> dict:
    """Apply the word to `trials` random nonsingular pairs; report whether
    every result equals its input pair entrywise.

    verdict: identity | nonidentity | inconclusive (sampling exhausted).
    """
    rng = random.Random(cfg.seed if seed is None else seed)
    completed = 0
    resamples = 0
    witnesses = []
    while completed < trials and resamples < _MAX_RESAMPLES:
        pair = random_pair(cfg, rng)
        try:
            out = apply_word(word, pair, cfg)
        except SingularSubstitution:
            resamples += 1
            continue
        completed += 1
        if out != pair and len(witnesses) < 3:
            witnesses.append({"input": _pair_json(pair),
                              "output": _pair_json(out)})
    if completed < trials:
        verdict = "inconclusive"
    elif witnesses:
        verdict = "nonidentity"
    else:
        verdict = "identity"
    return {
        "N": cfg.N, "p": cfg.p, "q": cfg.q,
        "trials": completed,
        "singular_resamples": resamples,
        "verdict": verdict,
        "witnesses": witnesses,
    }


def word_acts_as_identity(word, N: int = 5, p: int | None = None,
                          trials: int = 10, seed: int = 0) -> dict:
    """Suite-facing wrapper: {"identity": bool, "evidence": report}.

    `word` must already be spelled over {P, C, I}.  An inconclusive sampling
    run counts as not-identity so it can never silently certify a relation.
    """
    cfg = make_config(N, p, seed)
    report = q_relation_check(word, cfg, trials=trials, seed=seed)
    return {"identity": report["verdict"] == "identity", "evidence": report}
