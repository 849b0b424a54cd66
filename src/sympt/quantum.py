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

Each substitution preserves the commutation rule exactly (an algebraic
identity, re-checked by the tests), so a relation word can be probed by
applying it to random nonsingular pairs and comparing with the input.

A word is applied by one kernel, `apply_word`, which carries X, X^-1, Y and
Y^-1 through the word, each as a scalar times a matrix, so every factor q
or q^-1 costs one modular multiply.  I and I^-1 only relabel the four; C
and C^-1 take one product, or two when both inverses are known; P is one
product z = x^-1 (1 + y) and one inversion, giving y' = q z and
y'^-1 = q^-1 z^-1 (P^-1 likewise, with z = (1 + x) y^-1).  z is singular
exactly when 1 + y is; odd N keeps 1 + shift invertible, but a few letters
on, singularity depends on the scalars, so callers resample them.  An
inverse of the input pair is taken only when a letter needs it, so C^3 and
I^4, though equal to 1, are not skipped: C^2 and I^2 invert both members,
and the shortened word would answer on pairs where the maps raise.

Inside the kernel each N x N matrix is one Python int (`_Packed`): entry
(i, j) sits in slot i N + j, s bits wide, counted from the low end, and
every slot is canonical in [0, p) between operations.  A shifted right by
s k and masked to the slots (i, 0) is column k of A in column 0; B shifted
right by s N k and masked to the slots (0, j) is row k of B in row 0.
Their integer product puts a_ik b_kj in slot (i, j) and nowhere else, so
the sum over k of N such products holds every entry of A B unreduced, each
below N (p - 1)^2.  1 + c M is c M + 1 and a scaling is c M, with slot
values below p^2.  One multiply-and-shift step then reduces every slot at
once (Granlund and Montgomery, Division by invariant integers using
multiplication, PLDI 1994).  With V = N (p - 1)^2 + p above every slot
value the kernel forms, t the bit length of V p, m = ceil(2^t / p) and s
the bit length of (V - 1) m,

    reduce(v) = v - (((v m) >> t) & LOW) p,

where LOW masks the low s - t bits of each slot.  A slot value v < V times
m stays inside its s bits, so after the shift the low s - t bits of the
slot hold floor(v m / 2^t); the low bits of the slot above land in its top
t bits, which LOW clears.  Write m p = 2^t + e with 0 <= e < p and
v = a p + r with r < p: then v m / 2^t = a + (r + v e / 2^t) / p, and
v e < V p < 2^t keeps r + v e / 2^t below p.  So the floor is a, and the
step leaves r = v mod p in every slot, with no borrow between slots.

A matrix is inverted by its N-th power.  If u v = q v u then
v u^N = q^-N u^N v = u^N v, so u^N commutes with u and v.  For q of exact
order N (and p = 1 mod N) an invertible pair that q-commutes generates all
of M_N(F_p): u^N and v^N act on an irreducible subspace as scalars, which
makes it a module of the symbol algebra of degree N, whose simple modules
have dimension N.  So u^N is a scalar c.  Every matrix the kernel inverts is
a scalar multiple of a member of a q-commuting pair when the input pair is
one, so the kernel forms u^(N-1) by repeated squaring (`plcore.power`,
with no product by the identity) and then u u^(N-1).  When that product is
c times the identity, u^-1 = u^(N-1) / c, checked rather than assumed;
c = 0 means u^N = 0, and u is singular.  At N = 5 an inversion is three
products (u^2, u^4, u u^4).  Only when u u^(N-1) is not a scalar, which a
pair that does not q-commute can give, does the kernel fall back to
Gauss-Jordan (`_mat_inv`); on clock/shift pairs it never runs.

At q of exact order N with N odd, X^N and Y^N are central, and the
q-binomial theorem ((u + v)^N = u^N + v^N when v u = q u v) gives

    P:    (X^N, Y^N) -> (Y^N, X^{-N} (1 + Y^N))
    P^-1: (X^N, Y^N) -> ((1 + X^N) Y^{-N}, X^N)

and C, I likewise move (X^N, Y^N) by their commutative maps.  On a
clock/shift pair X^N and Y^N are scalars, so the N-th powers of a word's
output are the commutative word applied to (lx^N, ly^N) mod p: an exact
link between this model and the birational one, checked by the tests.
"""

from __future__ import annotations

import functools
import random
from math import gcd
from operator import mul

from .plcore import Frozen, is_prime, power

Matrix = tuple[tuple[int, ...], ...]

_MAX_RESAMPLES = 500


class SingularSubstitution(ValueError):
    """A substitution step would invert a singular matrix."""


# ---------------------------------------------------------------------------
# dense matrix arithmetic over F_p (N <= 7, so no need for numpy)

def _mat_mul(a, b, p: int) -> list[list[int]]:
    """a b mod p, as lists: compare it only with another _mat_mul result."""
    bt = tuple(zip(*b))
    return [[sum(map(mul, ra, cb)) % p for cb in bt] for ra in a]


def _mat_scale(c: int, a, p: int) -> Matrix:
    return tuple(tuple((c * x) % p for x in row) for row in a)


def _mat_inv(a, p: int) -> list[list[int]]:
    """Inverse mod p by in-place Gauss-Jordan on a copy reduced mod p, n^3
    multiply-adds.  A column with no pivot, met exactly when det(a) = 0
    mod p, raises SingularSubstitution."""
    n = len(a)
    m = [[v % p for v in row] for row in a]
    swaps = []
    for col in range(n):
        if not m[col][col]:
            pivot = next((r for r in range(col + 1, n) if m[r][col]), None)
            if pivot is None:
                raise SingularSubstitution("singular substitution")
            m[col], m[pivot] = m[pivot], m[col]
            swaps.append((col, pivot))
        row = m[col]
        inv = pow(row[col], -1, p)
        row[col] = 1
        top = m[col] = [v * inv % p for v in row]
        for r, row in enumerate(m):
            f = row[col]
            if f and r != col:
                row[col] = 0
                m[r] = [(v - f * w) % p for v, w in zip(row, top)]
    # the rows were inverted in swapped order: undo it on the columns
    for i, j in reversed(swaps):
        for row in m:
            row[i], row[j] = row[j], row[i]
    return m


# ---------------------------------------------------------------------------
# packed matrices: one int per N x N matrix mod p (see the module docstring)

class _Packed:
    """The packed layout for N x N matrices mod p: entry (i, j) is slot
    i N + j, s bits wide, canonical in [0, p) between operations."""

    __slots__ = ("n", "p", "s", "t", "m", "slot", "low", "col0", "row0",
                 "steps", "one")

    def __init__(self, n: int, p: int):
        v = n * (p - 1) ** 2 + p         # every slot value stays below v
        t = (v * p).bit_length()         # 2^t > v p
        m = -(-(1 << t) // p)            # ceil(2^t / p)
        s = ((v - 1) * m).bit_length()   # a slot holds v m
        every = sum(1 << s * k for k in range(n * n))
        self.n, self.p, self.s, self.t, self.m = n, p, s, t, m
        self.slot = (1 << s) - 1
        self.low = every * ((1 << s - t) - 1)
        self.col0 = self.slot * sum(1 << s * n * i for i in range(n))
        self.row0 = (1 << s * n) - 1
        self.steps = tuple((s * k, s * n * k) for k in range(n))
        self.one = sum(1 << s * (n + 1) * i for i in range(n))

    def pack(self, a) -> int:
        s, n, p = self.s, self.n, self.p
        return sum(v % p << s * (n * i + j)
                   for i, row in enumerate(a) for j, v in enumerate(row))

    def unpack(self, v: int) -> Matrix:
        s, n, slot = self.s, self.n, self.slot
        return tuple(tuple(v >> s * (n * i + j) & slot for j in range(n))
                     for i in range(n))

    def reduce(self, v: int) -> int:
        """Every slot mod p, for slot values below N (p - 1)^2 + p."""
        return v - ((v * self.m >> self.t) & self.low) * self.p

    def mul(self, a: int, b: int) -> int:
        """a b mod p: column k of a times row k of b puts a_ik b_kj in
        slot (i, j), for each k."""
        col0, row0 = self.col0, self.row0
        return self.reduce(sum([(a >> i & col0) * (b >> j & row0)
                                for i, j in self.steps]))

    def inv(self, a: int) -> tuple[int, int]:
        """(c, r) with a r = c 1 and c != 0 mod p, so a^-1 = r / c.

        r = a^(N-1) when a^N is a scalar c, as for a member of a
        q-commuting pair; any other a goes to Gauss-Jordan (c = 1).
        SingularSubstitution when a is singular."""
        if self.n == 1:
            r, w = self.one, a
        else:
            r = power(a, self.n - 1, self.mul)
            w = self.mul(a, r)
        c = w & self.slot
        if w != c * self.one:
            return 1, self.pack(_mat_inv(self.unpack(a), self.p))
        if not c:
            raise SingularSubstitution("singular substitution")
        return c, r


@functools.lru_cache(maxsize=32)
def _packed(n: int, p: int) -> _Packed:
    return _Packed(n, p)


# ---------------------------------------------------------------------------
# configuration: order-N root of unity in F_p

def _mult_order_is(q: int, n: int, p: int) -> bool:
    return pow(q, n, p) == 1 and all(
        pow(q, d, p) != 1 for d in range(1, n) if n % d == 0)


def default_prime(N: int) -> int:
    """Smallest prime >= 101 that is 1 mod N.

    The floor keeps the scalar pool large enough that resampling around
    singular substitutions converges quickly.
    """
    k = 101
    while not (k % N == 1 % N and is_prime(k)):
        k += 1
    return k


class QConfig(Frozen):
    """Order N of q, the prime p, and the chosen root of unity q in F_p."""

    __slots__ = ("N", "p", "q")

    def __init__(self, N: int, p: int, q: int):
        self._init(N, p, q)
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not _mult_order_is(self.q, self.N, self.p):
            raise ValueError(
                "q=%d does not have exact order %d mod %d"
                % (self.q, self.N, self.p))


def make_config(N: int, p: int | None = None) -> QConfig:
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
    return QConfig(N, p, _least_root_of_unity(N, p))


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

class QPair(Frozen):
    """Invertible matrices with X Y = q Y X."""

    __slots__ = ("X", "Y")

    def __init__(self, X: Matrix, Y: Matrix):
        self._init(X, Y)


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
    p = cfg.p
    return (_mat_mul(pair.X, pair.Y, p)
            == _mat_mul(_mat_scale(cfg.q, pair.Y, p), pair.X, p))


def pair_valid(pair: QPair, cfg: QConfig) -> bool:
    try:
        _mat_inv(pair.X, cfg.p)
        _mat_inv(pair.Y, cfg.p)
    except SingularSubstitution:
        return False
    return commutes_q(pair, cfg)


# ---------------------------------------------------------------------------
# the substitutions and their inverses

def q_apply(name: str, pair: QPair, cfg: QConfig) -> QPair:
    """Apply one of P, C, I; SingularSubstitution when an inverse or the
    new pair member does not exist."""
    return apply_word(((name, 1),), pair, cfg)


def q_apply_inverse(name: str, pair: QPair, cfg: QConfig) -> QPair:
    return apply_word(((name, -1),), pair, cfg)


def apply_word(word, pair: QPair, cfg: QConfig) -> QPair:
    """Apply a word over {P, C, I}, rightmost factor first.

    X, X^-1, Y and Y^-1 are pairs (c, M) standing for c * M mod p, with M
    a packed matrix.  P and P^-1 take one product z and one inversion of
    z.  An inverse is None until a letter needs it, so SingularSubstitution
    is raised exactly where the letter-by-letter maps raise it (hence C^3
    is not skipped).
    """
    p, q = cfg.p, cfg.q
    qi = pow(q, -1, p)
    packed = _packed(cfg.N, p)
    mul, red, one = packed.mul, packed.reduce, packed.one

    def inv(a):
        c, r = packed.inv(a[1])
        return pow(a[0] * c, -1, p), r

    def scale(c, a):
        return c * a[0] % p, a[1]

    def prod(c, a, b):
        return c * a[0] * b[0] % p, mul(a[1], b[1])

    def one_plus(a):
        return red(a[0] * a[1] + one)

    x, xi = (1, packed.pack(pair.X)), None
    y, yi = (1, packed.pack(pair.Y)), None
    for sym, exp in reversed(tuple(word)):
        for _ in range(abs(exp)):
            if sym == "I" and exp > 0:    # (x, y) -> (q y^-1, x)
                yi = yi or inv(y)
                x, xi, y, yi = scale(q, yi), scale(qi, y), x, xi
            elif sym == "I":              # (x, y) -> (y, q x^-1)
                xi = xi or inv(x)
                x, xi, y, yi = y, yi, scale(q, xi), scale(qi, x)
            elif sym == "C" and exp > 0:  # (x, y) -> (q x^-1 y, q x^-1)
                xi = xi or inv(x)
                x, xi, y, yi = (prod(q, xi, y), yi and prod(qi, yi, x),
                                scale(q, xi), scale(qi, x))
            elif sym == "C":              # (x, y) -> (q y^-1, y^-1 x)
                yi = yi or inv(y)
                x, xi, y, yi = (scale(q, yi), scale(qi, y),
                                prod(1, yi, x), xi and prod(1, xi, y))
            elif sym == "P" and exp > 0:  # (x, y) -> (y, q x^-1 (1 + y))
                xi = xi or inv(x)
                z = q * xi[0] % p, mul(xi[1], one_plus(y))
                x, xi, y, yi = y, yi, z, inv(z)
            elif sym == "P":              # (x, y) -> (q (1 + x) y^-1, x)
                yi = yi or inv(y)
                z = q * yi[0] % p, mul(one_plus(x), yi[1])
                x, xi, y, yi = z, inv(z), x, xi
            else:
                raise ValueError(
                    "unknown generator %r (expected P, C or I)" % sym)
    return QPair(*(packed.unpack(red(c * m)) for c, m in (x, y)))


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
    cfg = make_config(params.get("N", 5), params.get("p"))
    rng = random.Random(params.get("seed", 0))
    for _ in range(_MAX_RESAMPLES):
        pair = random_pair(cfg, rng)
        try:
            out = apply_word(word, pair, cfg)
        except SingularSubstitution:
            continue
        return {"N": cfg.N, "p": cfg.p, "q": cfg.q,
                "input": _pair_json(pair), "output": _pair_json(out)}
    raise SingularSubstitution(
        "exhausted nonsingular samples (%d tries)" % _MAX_RESAMPLES)


def q_relation_check(word, cfg: QConfig, trials: int = 10,
                     seed: int = 0) -> dict:
    """Apply the word to `trials` random nonsingular pairs; report whether
    every result equals its input pair entrywise.

    verdict: identity | nonidentity | inconclusive (sampling exhausted).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    rng = random.Random(seed)
    completed = resamples = 0
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
    verdict = ("inconclusive" if completed < trials
               else "nonidentity" if witnesses else "identity")
    return {"N": cfg.N, "p": cfg.p, "q": cfg.q, "trials": completed,
            "singular_resamples": resamples, "verdict": verdict,
            "witnesses": witnesses}


def word_acts_as_identity(word, N: int = 5, p: int | None = None,
                          trials: int = 10, seed: int = 0) -> dict:
    """Suite-facing wrapper: {"identity": bool, "evidence": report}.

    `word` must already be spelled over {P, C, I}.  An inconclusive sampling
    run counts as not-identity so it can never silently certify a relation.
    """
    cfg = make_config(N, p)
    report = q_relation_check(word, cfg, trials=trials, seed=seed)
    return {"identity": report["verdict"] == "identity", "evidence": report}
