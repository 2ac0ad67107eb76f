"""Constructive Dirichlet approximation over the rationals.

One-dimensional approximations are convergents, walked by the extended
Euclidean recurrence on the integer numerator and denominator.
The simultaneous version takes its targets as integers over one
denominator and returns what a scan over q = 1..Z would: the least q whose
nearest-integer numerators meet the d-th power bound. No real root is
extracted: with D the common denominator of the targets the bound is
the integer radius R = integer_nth_root(D**d // Z, d). The q whose first
target lies within R of an integer are the returns of the rotation
x -> x + c_1 mod D to a window of 2R + 1 residues. By the three-gap
theorem (Slater, Proc. Cambridge Philos. Soc. 63, 1967) each return
follows the last by one of three steps, which one Euclid-style first-hit
search per step finds. So the search walks these returns alone,
carrying the second target's remainder along by one addition per return,
and stops at the first that meets every target. After _RETURNS = 1,200
returns, at about 0.15 us each, the least q is read off the few short
vectors of an integer lattice (integral LLL and Fincke-Pohst enumeration,
in exact_lattice), whose cost does not grow with Z and at d = 2 is about
that of _RETURNS returns. The bench witness pool's answers come within 907
returns at n = 3 and 430 at n = 4, so the walk gives them all. When
2R >= D, q = 1 meets the bound; R = 0 needs neither stage: the least q is
D. Some q <= Z always meets the bound, by Minkowski's convex body theorem,
so there is no further fallback.
"""

from __future__ import annotations

import math

from .exact_lattice import Value, _lll, _short_vectors, check_int, format_quotient, integer_nth_root


class DirichletWitness(Value):
    """Simultaneous approximation p_j/q to the targets c_j/D, searched over q <= Z.

    The targets are held as integers over one denominator, reduced so that
    gcd(D, c_1, ..., c_d) = 1: D is then the common denominator of the
    targets in lowest terms, and equal targets give equal witnesses.
    q is the least denominator meeting max_j |q*c_j/D - p_j| ** d <= 1/Z,
    which is the bound |c_j/D - p_j/q| <= 1 / (q * Z**(1/d)). Its JSON form
    holds exact values only: ints, and the residuals p_j/q - c_j/D as "p/q"
    strings, each formatted from an integer pair reduced once;
    parse_rational gives a residual back as a Fraction.
    """

    __slots__ = ()
    _fields = ("q", "p", "Z", "numerators", "denominator")
    # Always true: the box {|x_0| <= Z, |x_0*c_j/D - x_j| <= Z**(-1/d)} has
    # volume 2**(d+1), so by Minkowski's convex body theorem it holds a
    # nonzero lattice point, and for Z >= 2 its x_0 is nonzero (q = 1 meets
    # the bound at Z = 1). Kept so the JSON form keeps its "satisfied" key.
    satisfied = True

    def to_json_dict(self) -> dict:
        q, D = self.q, self.denominator
        return {
            "q": q,
            "p": list(self.p),
            "Z": self.Z,
            # p_j/q - c_j/D = (p_j*D - q*c_j) / (q*D)
            "residuals": [format_quotient(pj * D - q * c, q * D) for pj, c in zip(self.p, self.numerators)],
            "satisfied": self.satisfied,
        }


def dirichlet_1d(num: int, den: int, Z: int) -> tuple[int, int]:
    """Integers (p, q) with 1 <= q <= Z and |q*alpha - p| < 1/Z, alpha = num/den.

    Walks the convergents p_k/q_k of alpha by the extended Euclidean
    recurrence and keeps the last with q_k <= Z. Either it is alpha itself,
    or the next convergent has q_{k+1} > Z and the classical bound
    |q_k*alpha - p_k| <= 1/q_{k+1} <= 1/(Z + 1) holds.
    """
    # exact ints in range pass on one fast test; check_int judges (and
    # names) anything else, the numerator first
    if not (type(num) is int and type(den) is int and type(Z) is int and num >= 0 and den >= 1 and Z >= 1):
        check_int(num, "alpha's numerator", 0)
        check_int(den, "alpha's denominator")
        check_int(Z, "Z")
    # (p, q) is the current convergent and (p0, q0) the one before it; the
    # first, floor(alpha)/1, always fits
    p0, q0, p, q = 1, 0, num // den, 1
    num, den = den, num % den
    while den:
        c, r = divmod(num, den)
        if c * q + q0 > Z:
            break
        p0, q0, p, q = p, q, c * p + p0, c * q + q0
        num, den = den, r
    return p, q


def _nearest(t: int, D: int) -> int:
    """Nearest integer to t/D; half-integral ties go to even."""
    p, rem = divmod(t, D)
    double = 2 * rem
    if double > D or (double == D and p % 2 == 1):
        p += 1
    return p


def _first_hit(A: int, M: int, lo: int, hi: int) -> int | None:
    # The least k >= 0 with lo <= k*A mod M <= hi, for 0 <= lo and hi < M, or
    # None when no k has it (always so when lo > hi). When no multiple of A
    # (reduced mod M) lies in [lo, hi], k*A - y*M lands there exactly when
    # y*M mod A lies in [-hi mod A, -lo mod A], which does not wrap, and the
    # least k comes from the least such y as ceil((lo + y*M) / A). That asks
    # the same question of (M mod A, A), a Euclid step, so the levels are
    # kept on a list and unwound, not recursed: a ratio of Fibonacci numbers
    # with 1,000 digits takes 4,778 of them.
    if lo > hi:
        return None
    levels = []
    k = 0
    while lo:
        A %= M
        if not A:
            return None
        k = -(-lo // A)
        if A * k <= hi:
            break
        levels.append((lo, M, A))
        A, M, lo, hi = M % A, A, -hi % A, -lo % A
    for lo, M, A in reversed(levels):
        k = -(-(lo + M * k) // A)
    return k


# Returns walked before the lattice search. On the bench witness pool (a1
# from 10^9 to 10^18; Intel Xeon, Python 3.11) a walked return takes about
# 0.15 us and a lattice search at d = 2 (n = 3) a median of 130 to 270 us,
# so K returns cost about one d = 2 search: their ratio read 870 to 1,650
# between runs, 1,200 in the median. A d = 3 (n = 4) search costs 2 to 3
# times as much, a median of 393 to 753 us over the pool's n = 4 entries
# against 0.16 to 0.22 us a return, so there the break-even is about 2,400
# to 4,500 returns and K gives up on the walk early. A d = 2 query the walk
# leaves unanswered costs at most about twice the search alone. The pool's
# queries are answered within 907 returns at n = 3 and 430 at n = 4
# (medians 46.5 and 24), all by the walk.
_RETURNS = 1200


def _walked(cs, D: int, R: int) -> int | None:
    # The first of target 1's first _RETURNS returns that meets every
    # target, or None; 0 < 2R < D. The nearest-integer error of q*c_j / D
    # is min(t, D - t), t = q*c_j mod D, whatever the tie rule, so q meets
    # target j exactly when (q*c_j + R) mod D < L = 2R + 1.
    # Target 1's shifted residue x moves by x -> x + c_1 mod D, from x = R,
    # and its returns to the window [0, L) are the q that meet it. Let g_a be
    # the least g >= 1 with g*c_1 mod D in [0, L), moving x right by x_a, and
    # g_b the least with g*c_1 mod D in (D - L, D) or 0, moving x left by
    # -x_b; either may be the period D / gcd(c_1, D). By the three-gap
    # theorem the next return from x steps by g_a if x + x_a < L, else by
    # g_b if x + x_b >= 0, else by g_a + g_b. Target 2's shifted residue z
    # moves by that step's multiple of c_2, reduced once, so it takes one
    # addition and at most one subtraction of D; targets 3..d are reduced
    # only on returns that meet target 2. With one target, c_2 = 0 and the
    # first return answers.
    L = 2 * R + 1
    c1 = cs[0] % D
    c2 = cs[1] if len(cs) > 1 else 0
    rest = cs[2:]
    period = D // math.gcd(c1, D)
    ga = _first_hit(c1, D, 1, L - 1) or period
    gb = _first_hit(c1, D, D - L + 1, D - 1) or period
    gab = ga + gb
    xa, xb = ga * c1 % D, -(-gb * c1 % D)
    xab = xa + xb
    # x + x_a < L and x + x_b >= 0 with the sums taken out of the loop
    ta, tb = L - xa, -xb
    za, zb, zab = ga * c2 % D, gb * c2 % D, gab * c2 % D
    x, z, q = R, R, 0
    for _ in range(_RETURNS):
        if x < ta:
            x += xa
            q += ga
            z += za
        elif x >= tb:
            x += xb
            q += gb
            z += zb
        else:
            x += xab
            q += gab
            z += zab
        if z >= D:
            z -= D
        if z < L:
            for c in rest:
                if (q * c + R) % D >= L:
                    break
            else:
                return q
    return None


def _least_q_in_box(cs, D: int, R: int, Z: int) -> int:
    # The vectors (q, q*c_1 - p_1*D, ..., q*c_d - p_d*D) form a lattice.
    # Scaled by R on coordinate 0 and by Z on the rest, the box [-Z, Z] x
    # [-R, R]^d becomes a cube of half-side R*Z, held by the ball of squared
    # radius (d + 1)*(R*Z)^2, which holds about V_{d+1}*(d+1)^((d+1)/2)
    # lattice points whatever Z is (about 22 for d = 2), unless the lattice
    # has a vector far shorter than the cube. A first reduced row under half
    # the half-side is such a vector and lies in the box, so it bounds the
    # answer: the box shrinks to its q, at least halving Z, and is reduced
    # again. Once the row is longer, LLL's guarantee puts every nonzero
    # vector above R*Z / 2**(d/2 + 1), and the ball holds a number of points
    # bounded in terms of d alone. The box is never empty: Minkowski puts a
    # point in it, and a shrunk box keeps the row it shrank to.
    n = len(cs) + 1
    while True:
        side = R * Z
        b = [[R] + [Z * c for c in cs]] + [[0] * j + [Z * D] + [0] * (n - 1 - j) for j in range(1, n)]
        gram, lam = _lll(b)
        if 4 * gram[1] >= side * side:
            break
        Z = abs(b[0][0]) // R
    return min(
        abs(v[0]) // R
        for v in _short_vectors(b, gram, lam, n * side * side)
        if v[0] and max(map(abs, v)) <= side
    )


def dirichlet_simultaneous(numerators, denominator: int, Z: int) -> DirichletWitness:
    """The least q in 1..Z whose nearest-integer numerators meet the d-th power bound.

    The targets are alpha_j = numerators[j] / denominator, given as ints:
    no Fraction is built. Ties in the nearest integer (q*alpha_j exactly
    half-integral) round to even. The targets are first reduced by g =
    gcd(denominator, *numerators), so that D = denominator / g is their
    common denominator in lowest terms and c_j = numerators[j] / g. The
    bound max_j |q*alpha_j - p_j|**d * Z <= 1 then reads, in integers,
    max_j |q*c_j - p_j*D| <= R = integer_nth_root(D**d // Z, d).

    The answer is found without visiting every q:
    - 2R >= D lets every error pass, so q = 1;
    - R = 0 asks for q*c_j = p_j*D for every j; the least such q is D,
      which is below Z since D**d < Z;
    - otherwise each error within R belongs to the unique nearest p_j. The
      q that meet the bound on the first target are the returns of
      q*c_1 mod D to the 2R + 1 residues within R of 0, walked in
      increasing order in three fixed steps (the three-gap theorem); the
      first return that meets every other target is the answer;
    - after _RETURNS returns without one, the answer is the least positive
      q of a lattice vector (q, q*c_1 - p_1*D, ...) in the box [1, Z] x
      [-R, R]^d. Integral LLL reduction and Fincke-Pohst enumeration list
      the few lattice points of a ball around that box.
    Some q <= Z always meets the bound (Minkowski's convex body theorem, see
    DirichletWitness.satisfied), so the search never comes back empty.
    """
    cs = tuple(numerators)
    if not cs:
        raise ValueError("need at least one target value")
    for c in cs:
        check_int(c, "target numerator", 0)
    D = check_int(denominator, "target denominator")
    check_int(Z, "Z")
    g = math.gcd(D, *cs)
    if g > 1:
        D //= g
        cs = tuple(c // g for c in cs)
    d = len(cs)
    R = integer_nth_root(D**d // Z, d)
    if 2 * R >= D:
        q = 1
    elif R == 0:
        q = D
    else:
        q = _walked(cs, D, R) or _least_q_in_box(cs, D, R, Z)
    return DirichletWitness(q, tuple(_nearest(q * c, D) for c in cs), Z, cs, D)
