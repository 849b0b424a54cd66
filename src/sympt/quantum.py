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

A word is applied by one kernel, `_apply_packed`, to the program that
`_program` compiles from the walk `words.compile_word` multiplies
(relabels by runs of C and I, each but the last followed by one P^(+-1)
step), kept in the same memo entry as the walk.  The kernel carries X,
X^-1, Y and Y^-1, each as a scalar times a packed matrix (below), so
every factor q^g costs one modular multiply.  Beside them,
`words.walk_mod` walks the N-th powers of X and Y, which are scalars
(below), over the commutative walk the program ends with: each new
member's N-th power is known before the member is formed.  So a singular
step is refused before any product of the draw (SingularSubstitution;
callers resample), and an invertible member is inverted as a power,
u^-1 = u^(N-1) / u^N.  A check compiles its word once.  `apply_word`
first refuses a pair that is not two N x N matrices or does not
q-commute (ValueError), then a singular one (SingularSubstitution); it
and `_base` read each member's inverse and N-th power off `_Packed.inv`
in one loop, `_members`, so a pair that is both singular and not
q-commuting raises ValueError.  A sampled check draws clock/shift pairs,
whose inverses and N-th powers come with the draw.

A relabel r = (a, b, c, d; g1, g2) sends (X, Y) to (q^g1 X^a Y^b,
q^g2 X^c Y^d).  Read off the maps above, C is (-1, 1, -1, 0; 1, 1), C^-1
is (0, -1, 1, -1; 1, 1), I is (0, -1, 1, 0; 1, 0) and I^-1 is
(0, 1, -1, 0; 0, 1).  Relabels compose by one rule.  Y X = q^-1 X Y moves
one Y past one X; conjugating it gives Y^-1 X = q X Y^-1 and
Y X^-1 = q X^-1 Y, so each of the |b| |c| swaps in Y^b X^c contributes
q^(-sign(b) sign(c)), and Y^b X^c = q^(-bc) X^c Y^b for all integers b, c.
Hence

    (X^a Y^b)(X^c Y^d) = q^(-bc) X^(a+c) Y^(b+d),

and by induction on n, up and down, (X^a Y^b)^n = q^(-ab n(n-1)/2)
X^(na) Y^(nb).  So if s sends X to q^h1 X^a' Y^b' and Y to
q^h2 X^c' Y^d', then r after s sends X to q^g X^(a a' + b c')
Y^(a b' + b d') with

    g = g1 + a h1 + b h2 - a' b' a(a-1)/2 - c' d' b(b-1)/2 - a b b' c',

and Y likewise (`_then`): a relabel whose matrix is the product of the
two.  Substitutions compose associatively, so a run folds by repeated
squaring.  The rule holds for q an indeterminate, so each g is an exact
integer of the run, 0 for C^3 or I^4.  By the same rule
(q^g X^a Y^b)^-1 = q^(-g-ab) X^-a Y^-b, and with X' = q^g1 X^a Y^b and
Y' = q^g2 X^c Y^d,

    X'^-1 Y' = q^(g2 - g1 - ab + bc) X^(c-a) Y^(d-b),
    X' Y'^-1 = q^(g1 - g2 - cd + bc) X^(a-c) Y^(b-d).

So a step, r and then P, keeps Y' as its X and makes its Y as
q (X'^-1 + X'^-1 Y'); r and then P^-1 keeps X' as its Y and makes its X
as q (Y'^-1 + X' Y'^-1).  Every member a step forms, kept or made, is a
monomial of the members before r, or a sum of two: r's other members are
never formed.  A monomial q^g X^e Y^f costs a product when e and f are
both nonzero, and repeated squaring of a carried member for |e| or |f|
above 1.  At N = 5, a P step after the identity costs one product, and
two more where a later step reads the inverse of its new member.

The program forms only what is read.  Reading the walk from its end: the
end reads X^(sign a) and Y^(sign b) for each monomial q^g X^a Y^b it
forms; a step forms its kept member, the kept member's inverse and its
new member only where a later step reads them, and inverts the new member
only where a later step reads the inverse.  The singular test needs only
the scalars, so the last step's new member is still refused when singular
though nothing inverts it.

Inside the kernel each N x N matrix is one Python int (`_Packed`): entry
(i, j) sits in slot i N + j, s bits wide, counted from the low end, and
every slot is canonical in [0, p) between operations.  A shifted right by
s k and masked to the slots (i, 0) is column k of A in column 0; B shifted
right by s N k and masked to the slots (0, j) is row k of B in row 0.
Their integer product puts a_ik b_kj in slot (i, j) and nowhere else, so
the sum over k of N such products holds every entry of A B unreduced, each
below N (p - 1)^2.  A sum c1 M1 + c2 M2 of two scaled matrices stays below
2 (p - 1)^2.  One multiply-and-shift step then reduces every slot at
once (Granlund and Montgomery, Division by invariant integers using
multiplication, PLDI 1994).  With V = max(N, 2) (p - 1)^2 + p above every
slot value the kernel forms, t the bit length of V p, m = ceil(2^t / p)
and s the bit length of (V - 1) m,

    reduce(v) = v - (((v m) >> t) & LOW) p,

where LOW masks the low s - t bits of each slot.  A slot value v < V times
m stays inside its s bits, so after the shift the low s - t bits of the
slot hold floor(v m / 2^t); the low bits of the slot above land in its top
t bits, which LOW clears.  Write m p = 2^t + e with 0 <= e < p and
v = a p + r with r < p: then v m / 2^t = a + (r + v e / 2^t) / p, and
v e < V p < 2^t keeps r + v e / 2^t below p.  So the floor is a, and the
step leaves r = v mod p in every slot, with no borrow between slots.

A sampled check stays packed from the draw to the verdict (`_trials`).  The
packed clock and shift and their inverses are built once per
configuration, so no draw inverts a matrix.  Each trial draws
lx, then ly, from [1, p), and its pair is reduce(lx clock) and
reduce(ly shift), the slots of `clock_shift(cfg, lx, ly)`.  Input and
output are compared as packed ints, which is exact because both have
canonical slots.  Only a witness and the value `evaluate_word` reports are
unpacked into JSON.  A draw is refused as singular by its N-th powers
alone (below), before any product, so a trial walks its word only when
the output is read.  A check keeps three witnesses; past the third, the
verdict is nonidentity whatever a trial's output, and a trial changes only
the counts of completed and resampled draws, so its word is not walked.

N-th powers are scalars, and move by the commutative maps.  Let u and v be
invertible with u v = q v u, q of exact order N, and lambda an eigenvalue
of u over the algebraic closure; lambda != 0.  (u - q lambda)^k v =
q^k v (u - lambda)^k, and v^-1 maps back likewise, so v carries the
generalized lambda-eigenspace of u onto the q lambda one.  The N
generalized eigenspaces for lambda q^i, 0 <= i < N, are thus distinct and
of one dimension, and their dimensions sum to at most N.  So each is a line
and there are no others: u has the N eigenvalues lambda q^i, each once,
and u^N = lambda^N, a scalar, in F_p as u^N has its entries there.  On a
clock/shift pair, X^N = lx^N and Y^N = ly^N.

Write xi = X^N, eta = Y^N and epsilon = (-1)^(N+1).  q^(N(N-1)/2) is
epsilon: N divides N(N-1)/2 when N is odd, and q^(N/2) = -1 when N is
even.  So the power rule gives

    (q^g X^a Y^b)^N = epsilon^(ab) xi^a eta^b.

P's new member is u + v with u = q X^-1 and v = q X^-1 Y.  From
X Y = q Y X, Y X^-1 = q X^-1 Y, so v u = q u v, and the q-binomial theorem
((u + v)^N = u^N + v^N when v u = q u v: each q-binomial coefficient
[N, k]_q, 0 < k < N, has the factor q^N - 1 = 0 above and none below)
gives it the N-th power xi^-1 + epsilon xi^-1 eta.  P^-1's new member is
q Y^-1 + q X Y^-1, whose terms q-commute the other way round.  So

    P:    (xi, eta) -> (eta, (1 + epsilon eta) / xi)
    P^-1: (xi, eta) -> ((1 + epsilon xi) / eta, xi).

The signed point (A, B) = (epsilon xi, epsilon eta) therefore moves by the
commutative maps: P sends it to (B, (1 + B) / A), P^-1 to
((1 + A) / B, A), and a relabel to (A^a B^b, A^c B^d), as
epsilon^(1 + ab + a + b) = epsilon^((a+1)(b+1)) = 1 when a or b is odd,
which a row of an invertible integer matrix has.  On a clock/shift pair it
is epsilon (lx^N, ly^N): the N-th powers of a word's output are the
commutative word applied to it, an exact link between this model and the
birational one, checked by the tests.  A member u with u^N = zeta is
invertible exactly when zeta != 0, as u^-1 = u^(N-1) / zeta; zeta = 0
makes u nilpotent.  So P's new member, with N-th power epsilon (1 + B) / A,
is singular exactly when 1 + B = 0 mod p, and P^-1's when 1 + A = 0:
where bir's P and P^-1 meet a pole.  So one walk serves both models.
`_inverse_powers` reads the point off `words.walk_mod`, which carries it
as a projective triple (a, b, d), A = a/d and B = b/d, relabels it by
the matrix part (a, b, c, d) of each relabel, which by the rule above is
the `words.MATRICES` fold of its run, and raises ZeroDivisionError at
exactly the singular steps.  After a P step the new member is Y, and
1 / Y^N = epsilon d / b; after P^-1 it is X, and 1 / X^N = epsilon d / a.
That is one modular inverse per member a later step inverts, and
u^(N-1) at N = 5 is two products (u^2, u^4).

A member of a q-commuting pair is inverted one way.  Let X Y = q Y X.  If
X and Y are invertible, then X^N and Y^N are nonzero scalars.  That is the
argument above; directly, if X v = lambda v with v != 0 over the algebraic
closure, then X (Y v) = q lambda Y v and Y v != 0, so lambda, q lambda,
..., q^(N-1) lambda are N distinct eigenvalues of X (lambda != 0): X is
diagonalizable and X^N = lambda^N 1.  Y likewise, with q^-1.  So once the
pair q-commutes, a member whose N-th power is not a nonzero scalar shows
the pair singular.  `_Packed.inv`, for `_members`, forms u^(N-1) and
u u^(N-1): a nonzero scalar c gives u^-1 = u^(N-1) / c, and anything else
is SingularSubstitution.  The kernel never calls it, and no matrix is
inverted by elimination.
"""

from __future__ import annotations

import functools
import random
from math import gcd

from . import words
from .plcore import Frozen, is_prime, power

Matrix = tuple[tuple[int, ...], ...]

_MAX_RESAMPLES = 500


class SingularSubstitution(ValueError):
    """A substitution step would invert a singular matrix."""


# ---------------------------------------------------------------------------
# packed matrices: one int per N x N matrix mod p (see the module docstring)

class _Packed:
    """The packed layout for N x N matrices mod p: entry (i, j) is slot
    i N + j, s bits wide, canonical in [0, p) between operations."""

    __slots__ = ("n", "p", "s", "t", "m", "slot", "low", "one", "_product")

    def __init__(self, n: int, p: int):
        v = max(n, 2) * (p - 1) ** 2 + p  # every slot value stays below v
        t = (v * p).bit_length()         # 2^t > v p
        m = -(-(1 << t) // p)            # ceil(2^t / p)
        s = ((v - 1) * m).bit_length()   # a slot holds v m
        every = sum(1 << s * k for k in range(n * n))
        self.n, self.p, self.s, self.t, self.m = n, p, s, t, m
        self.slot = (1 << s) - 1
        self.low = every * ((1 << s - t) - 1)
        self.one = sum(1 << s * (n + 1) * i for i in range(n))
        # mul's constants, read in one step: the masks of column 0 and of
        # row 0, the shifts that bring column k and row k there, k >= 1,
        # and reduce's
        self._product = (self.slot * sum(1 << s * n * i for i in range(n)),
                         (1 << s * n) - 1,
                         tuple((s * k, s * n * k) for k in range(1, n)),
                         m, t, self.low, p)

    def pack(self, a) -> int:
        s, n, p = self.s, self.n, self.p
        return sum(v % p << s * (n * i + j)
                   for i, row in enumerate(a) for j, v in enumerate(row))

    def unpack(self, v: int) -> Matrix:
        s, n, slot = self.s, self.n, self.slot
        return tuple(tuple(v >> s * (n * i + j) & slot for j in range(n))
                     for i in range(n))

    def reduce(self, v: int) -> int:
        """Every slot mod p, for slot values below
        max(N, 2) (p - 1)^2 + p."""
        return v - ((v * self.m >> self.t) & self.low) * self.p

    def mul(self, a: int, b: int) -> int:
        """a b mod p: column k of a times row k of b puts a_ik b_kj in
        slot (i, j), for each k; then `reduce`, inlined."""
        col0, row0, shifts, m, t, low, p = self._product
        v = (a & col0) * (b & row0)
        for i, j in shifts:
            v += (a >> i & col0) * (b >> j & row0)
        return v - ((v * m >> t) & low) * p

    def inv(self, a: int) -> tuple[int, int]:
        """(c, r) with r = a^(N-1) and a r = a^N = c 1, c != 0 mod p, so
        a^-1 = r / c, for a member of a q-commuting pair.  Such a member's
        N-th power is a nonzero scalar unless the pair is singular (module
        docstring), so any other a^N raises SingularSubstitution."""
        if self.n == 1:
            r, w = self.one, a
        else:
            r = power(a, self.n - 1, self.mul)
            w = self.mul(a, r)
        c = w & self.slot
        if not c or w != c * self.one:
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


@functools.lru_cache(maxsize=32, typed=True)
def make_config(N: int, p: int | None = None) -> QConfig:
    """Pick p = 1 mod N (smallest >= 101 when omitted) and the smallest
    element of exact order N in F_p*.  QConfig is immutable, so the last
    32 configurations are kept and each prime and root search runs once."""
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
    return QPair(
        tuple(tuple(lx * pow(q, i, p) % p if i == j else 0 for j in range(n))
              for i in range(n)),
        tuple(tuple(ly if i == (j + 1) % n else 0 for j in range(n))
              for i in range(n)))


def commutes_q(pair: QPair, cfg: QConfig) -> bool:
    """X Y = q Y X mod p, compared packed.  ValueError, before anything is
    packed, unless X and Y are both N x N."""
    n = cfg.N
    for name, m in zip("XY", pair._fields()):
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("%s must be %d x %d; its rows have lengths %s"
                             % (name, n, n, [len(row) for row in m]))
    packed = _packed(n, cfg.p)
    x, y = map(packed.pack, pair._fields())
    return packed.mul(x, y) == packed.reduce(cfg.q * packed.mul(y, x))


# ---------------------------------------------------------------------------
# the substitutions and their inverses

def q_apply(name: str, pair: QPair, cfg: QConfig) -> QPair:
    """Apply one of P, C, I; SingularSubstitution when an inverse or the
    new pair member does not exist."""
    return apply_word(((name, 1),), pair, cfg)


def q_apply_inverse(name: str, pair: QPair, cfg: QConfig) -> QPair:
    return apply_word(((name, -1),), pair, cfg)


def apply_word(word, pair: QPair, cfg: QConfig) -> QPair:
    """Apply a word over {P, C, I}, rightmost factor first: `_apply_packed`
    on the packed pair, its inverses and its N-th powers, unpacked.  A pair
    that is not two N x N matrices, or does not q-commute, raises
    ValueError, even where it is also singular; then a singular pair raises
    SingularSubstitution, a subclass of ValueError."""
    if not commutes_q(pair, cfg):
        raise ValueError("the pair does not q-commute: X Y != q Y X")
    program = words.compile_word(tuple(word), _RELABELS, _program)
    packed = _packed(cfg.N, cfg.p)
    members, powers = _members(pair, packed)
    inverse_powers = _inverse_powers(program, powers, cfg.N, cfg.p)
    return QPair(*map(packed.unpack, _apply_packed(program, members,
                                                   inverse_powers, cfg)))


def _members(pair: QPair, packed: _Packed):
    """The members of pair packed, as (X, X^-1, Y, Y^-1), each a pair
    (c, M) standing for c M, and their N-th powers (X^N, Y^N): each
    member's inverse and N-th power read off _Packed.inv."""
    members, powers = [], []
    for m in map(packed.pack, pair._fields()):
        c, r = packed.inv(m)    # m r = m^N = c
        members += [(1, m), (pow(c, -1, packed.p), r)]
        powers.append(c)
    return members, powers


# C^+-1 and I^+-1 as relabels (a, b, c, d, g1, g2), which send (X, Y) to
# (q^g1 X^a Y^b, q^g2 X^c Y^d); see the module docstring
_ATOMS = {("C", 1): (-1, 1, -1, 0, 1, 1), ("C", -1): (0, -1, 1, -1, 1, 1),
          ("I", 1): (0, -1, 1, 0, 1, 0), ("I", -1): (0, 1, -1, 0, 0, 1)}


def _then(r, s):
    """The relabel r after s, by the rule in the module docstring."""
    a, b, c, d, h1, h2 = s

    def image(e, f, g):
        # q^g X'^e Y'^f, for X' = q^h1 X^a Y^b and Y' = q^h2 X^c Y^d
        return (e * a + f * c, e * b + f * d,
                g + e * h1 + f * h2 - a * b * e * (e - 1) // 2
                - c * d * f * (f - 1) // 2 - e * f * b * c)

    (a, b, g1), (c, d, g2) = image(r[0], r[1], r[4]), image(r[2], r[3], r[5])
    return a, b, c, d, g1, g2


_RELABELS = words._Ring(lambda s, sign: _ATOMS.get((s, sign)),
                        (1, 0, 0, 1, 0, 0), _then)


def _sign(n: int) -> int:
    """epsilon = (-1)^(N+1), the sign in (q^g X^a Y^b)^N = epsilon^(ab)
    X^(Na) Y^(Nb)."""
    return 1 if n % 2 else -1


def _monomial(g, e, f):
    """q^g X^e Y^f, (e, f) != (0, 0), as (g, i, k, j, l): q^g times
    carried member i to the k > 0 times member j to the l >= 0, where the
    carried members 0 to 3 are X, X^-1, Y and Y^-1."""
    x, y = (0 if e > 0 else 1, abs(e)), (2 if f > 0 else 3, abs(f))
    (i, k), (j, l) = (x, y) if e else (y, (3, 0))
    return g, i, k, j, l


def _reads(forms) -> int:
    """The carried members that the monomials forms read, bit i for
    member i; None forms none."""
    bits = 0
    for form in forms:
        if form:
            _, i, _, j, l = form
            bits |= 1 << i | (1 << j if l else 0)
    return bits


def _program(steps, last):
    """The walk of a word (words.compile_word) as kernel steps, each
    forming only the members that a later step reads.

    A kernel step is (kept, terms, sign, invert) for a walk step, relabel
    r and then P^sign (module docstring): kept is the monomials of the
    member the step keeps and of its inverse, each None where nothing
    reads it; terms is the two monomials that the new member is q times
    the sum of, or None where nothing reads it; invert says whether a
    later step reads the new member's inverse.  The end is the monomials
    of the output X and Y.  The N-th powers move by their own walk,
    words.walk_mod, whose steps are these (`_inverse_powers`); the program
    ends with that walk, in words.compile_mod's form, built from the
    matrix part (a, b, c, d) of each relabel, which by `_then`'s rule is
    the words.MATRICES fold of its run.
    """
    a, b, c, d, g1, g2 = last
    end = _monomial(g1, a, b), _monomial(g2, c, d)
    need = _reads(end)      # what the steps after this one read
    out = []
    for r, sign in reversed(steps):
        a, b, c, d, g1, g2 = r
        x, y = (g1, a, b), (g2, c, d)
        if sign > 0:    # X'' = Y', Y'' = q (X'^-1 + X'^-1 Y')
            (g, e, f), keep, new = y, need & 3, need >> 2
            terms = ((-g1 - a * b, -a, -b),
                     (g2 - g1 - a * b + b * c, c - a, d - b))
        else:           # X'' = q (Y'^-1 + X' Y'^-1), Y'' = X'
            (g, e, f), keep, new = x, need >> 2, need & 3
            terms = ((-g2 - c * d, -c, -d),
                     (g1 - g2 - c * d + b * c, a - c, b - d))
        kept = (_monomial(g, e, f) if keep & 1 else None,
                _monomial(-g - e * f, -e, -f) if keep & 2 else None)
        terms = tuple(_monomial(*t) for t in terms) if new else None
        need = _reads(kept + (terms or ()))
        out.append((kept, terms, sign, new > 1))
    return tuple(reversed(out)), end, words._projective(
        [(r[:4], sign) for r, sign in steps], last[:4])


def _inverse_powers(program, powers, n: int, p: int) -> list[int]:
    """The inverse of the N-th power of each new member that the word's
    program steps invert, in order, given powers = (X^N, Y^N): read off
    the walk of the point (A, B) = epsilon (X^N, Y^N) by the commutative
    maps (words.walk_mod over the program's own walk).  After
    a P step the new member is Y, and 1 / Y^N = epsilon d / b; after P^-1
    it is X, and 1 / X^N = epsilon d / a.  SingularSubstitution where a P
    step's new member is singular, before any product."""
    steps, _, walk = program
    eps = _sign(n)
    out = []
    try:
        for (_, _, sign, invert), (a, b, d) in zip(steps, words.walk_mod(
                walk, [eps * v % p for v in powers], p)):
            if invert:
                out.append(eps * d * pow(b if sign > 0 else a, -1, p) % p)
    except ZeroDivisionError:
        raise SingularSubstitution("singular substitution") from None
    return out


def _power_inverse(packed: _Packed, u, inverse_power: int) -> tuple[int, int]:
    """u^-1 = c^(N-1) M^(N-1) / u^N for u = (c, M), standing for c M,
    given 1 / u^N; M^(N-1) by repeated squaring."""
    c, m = u
    n, p = packed.n, packed.p
    return (pow(c, n - 1, p) * inverse_power % p,
            power(m, n - 1, packed.mul) if n > 1 else packed.one)


def _apply_packed(program, members, inverse_powers,
                  cfg: QConfig) -> tuple[int, int]:
    """A compiled program applied to members = (X, X^-1, Y, Y^-1), each a
    pair (c, M) standing for c M mod p with M packed: the output pair,
    packed with canonical slots.  inverse_powers is what `_inverse_powers`
    returns for the members' point, which has refused a singular step
    before any product."""
    steps, end, _ = program
    p, n, q = cfg.p, cfg.N, cfg.q
    inverse_powers = iter(inverse_powers)
    q_to = [pow(q, k, p) for k in range(n)]
    packed = _packed(n, p)
    mul, red = packed.mul, packed.reduce

    def monomial(form, m):
        g, i, k, j, l = form
        c, u = m[i]
        if k > 1:
            c, u = pow(c, k, p), power(u, k, mul)
        c = c * q_to[g % n] % p
        if l:
            b, w = m[j]
            if l > 1:
                b, w = pow(b, l, p), power(w, l, mul)
            c, u = c * b % p, mul(u, w)
        return c, u

    m = members
    for (w, wi), terms, sign, invert in steps:
        w, wi = w and monomial(w, m), wi and monomial(wi, m)
        z = zi = None
        if terms:
            (c1, u1), (c2, u2) = monomial(terms[0], m), monomial(terms[1], m)
            z = q, red(c1 * u1 + c2 * u2)
            if invert:
                zi = _power_inverse(packed, z, next(inverse_powers))
        m = (w, wi, z, zi) if sign > 0 else (z, zi, w, wi)
    out = (monomial(f, m) for f in end)
    return tuple(red(c * u) for c, u in out)


# ---------------------------------------------------------------------------
# sampling and relation checks

def random_pair(cfg: QConfig, rng: random.Random) -> QPair:
    return clock_shift(cfg, rng.randrange(1, cfg.p), rng.randrange(1, cfg.p))


@functools.lru_cache(maxsize=32)
def _base(cfg: QConfig) -> tuple[int, int, int, int]:
    """The packed clock and shift of cfg, clock_shift(cfg, 1, 1), each
    followed by its inverse."""
    packed = _packed(cfg.N, cfg.p)
    members, _ = _members(clock_shift(cfg, 1, 1), packed)
    return tuple(packed.reduce(c * m) for c, m in members)


def _trials(word, cfg: QConfig, rng: random.Random):
    """Yield (x, y, walk) for one draw after another: x and y pack the
    pair random_pair draws, lx clock and ly shift, and walk is None where a
    step goes singular, which the draw's N-th powers decide before any
    product, and otherwise a function of no arguments that returns the
    word's packed output on the pair.  Stops after _MAX_RESAMPLES singular
    draws."""
    program = words.compile_word(tuple(word), _RELABELS, _program)
    p, n = cfg.p, cfg.N
    red = _packed(n, p).reduce
    clock, clock_inv, shift, shift_inv = _base(cfg)
    singular = 0
    while singular < _MAX_RESAMPLES:
        lx = rng.randrange(1, p)
        ly = rng.randrange(1, p)
        try:
            inverse_powers = _inverse_powers(
                program, [pow(lx, n, p), pow(ly, n, p)], n, p)
        except SingularSubstitution:
            singular += 1
            walk = None
        else:
            lxi, lyi = pow(lx, -1, p), pow(ly, -1, p)
            walk = functools.partial(
                _apply_packed, program, ((lx, clock), (lxi, clock_inv),
                                         (ly, shift), (lyi, shift_inv)),
                inverse_powers, cfg)
        yield red(lx * clock), red(ly * shift), walk


def _pair_json(cfg: QConfig, x: int, y: int) -> dict:
    unpack = _packed(cfg.N, cfg.p).unpack
    return {"X": [list(r) for r in unpack(x)],
            "Y": [list(r) for r in unpack(y)]}


def evaluate_word(word, params: dict | None = None) -> dict:
    """Drive a sampled clock/shift pair through the word.

    Returns the input and output pair plus the configuration, as plain
    JSON-friendly data.  Resamples the scalar factors when a substitution
    goes singular.
    """
    params = params or {}
    cfg = make_config(params.get("N", 5), params.get("p"))
    for x, y, walk in _trials(word, cfg, random.Random(params.get("seed", 0))):
        if walk is not None:
            return {"N": cfg.N, "p": cfg.p, "q": cfg.q,
                    "input": _pair_json(cfg, x, y),
                    "output": _pair_json(cfg, *walk())}
    raise SingularSubstitution(
        "exhausted nonsingular samples (%d tries)" % _MAX_RESAMPLES)


def q_relation_check(word, cfg: QConfig, trials: int = 10,
                     seed: int = 0) -> dict:
    """Apply the word to `trials` random nonsingular pairs; report whether
    every result equals its input pair entrywise.

    verdict: identity | nonidentity | inconclusive (sampling exhausted).
    A nonidentity verdict is exact: each witness is a pair of matrices
    mod p that the word moves.  At most three are kept; past the third, a
    trial changes only the counts, so its word is not walked.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    completed = resamples = 0
    witnesses = []
    for x, y, walk in _trials(word, cfg, random.Random(seed)):
        if walk is None:
            resamples += 1
            continue
        completed += 1
        if len(witnesses) < 3:
            out = walk()
            if out != (x, y):
                witnesses.append({"input": _pair_json(cfg, x, y),
                                  "output": _pair_json(cfg, *out)})
        if completed == trials:
            break
    verdict = ("inconclusive" if completed < trials
               else "nonidentity" if witnesses else "identity")
    return {"N": cfg.N, "p": cfg.p, "q": cfg.q, "trials": completed,
            "singular_resamples": resamples, "verdict": verdict,
            "witnesses": witnesses,
            **({"exact": True} if verdict == "nonidentity" else {})}


def word_acts_as_identity(word, N: int = 5, p: int | None = None,
                          trials: int = 10, seed: int = 0) -> dict:
    """Suite-facing wrapper: {"identity": bool, "evidence": report}.

    `word` must already be spelled over {P, C, I}.  An inconclusive sampling
    run counts as not-identity so it can never silently certify a relation.
    """
    cfg = make_config(N, p)
    report = q_relation_check(word, cfg, trials=trials, seed=seed)
    return {"identity": report["verdict"] == "identity", "evidence": report}
