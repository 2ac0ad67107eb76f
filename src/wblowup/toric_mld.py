"""Fan of a weighted blowup and exact minimal log discrepancies.

Conventions used throughout the package:

* Weights a = (a_1, ..., a_n) are coprime positive integers, sorted
  ascending, n >= 2. The ray through a subdivides the first orthant into n
  maximal cones.
* Cone indices are 1-based. Cone i omits the basis vector e_i; its
  generators are a together with every e_j, j != i. A nonzero vector v of
  the orthant lies in cone i exactly when i minimises v_j / a_j.
* psi is the piecewise-linear function on the orthant that is linear on
  each maximal cone and takes the value 1 on every ray generator (each e_i
  and a). On cone i, with T = sum(a),

      psi(v) = (a_i * sum(v) - v_i * (T - 1)) / a_i.

  The minimal log discrepancy of the blowup is the minimum of psi over
  nonzero lattice points, and the sublevel set {psi <= s} is the convex
  hull of 0, the points s*e_j and s*a.
* Cone i is simplicial of index a_i and psi = 1 on its generators, so every
  lattice point of cone i is a box point (coefficients in [0, 1)) plus a
  nonnegative integer combination of the generators, and psi adds along
  that sum. The nonzero box points of cone i are k/a_i * a plus the
  fractional parts of -k*a_j/a_i on the other axes, 1 <= k < a_i; their psi
  is the Reid-Tai age (k + sum_{j != i} (-k*a_j mod a_i)) / a_i. Hence
  {psi <= 1} holds only 0, the n + 1 fan-ray generators and the box points
  of age <= 1, none of which lies on a ray of the fan.
* The mld at a torus-fixed point therefore reads the box-point ages of
  its cone, one pass over k = 1..a_i - 1, and enumerates no region. For
  n = 2 the ages of one cone are (k + r) / p over the lattice
  {(k, r) : r = -k*q mod p}, and their minimum sits on a vertex of the
  Klein sail of that lattice, which the Hirzebruch-Jung continued fraction
  walks in O(log p) steps (Fulton, Introduction to Toric Varieties, 2.6);
  with Pick's theorem it gives the global mld of n = 2 without enumerating.
* For n = 3 the global mld enumerates no region either. {psi <= 1} is the
  unit simplex, whose only nonzero lattice points are the e_j, and
  T = conv(e_1, e_2, e_3, a). With N = sum(a) - 1 a point x of T is
  (k, z_1, z_2), k = sum(x) - 1 and z_j = N*x_j - a_j*k, in a lattice of
  index N^2, where psi = 1 - min_j z_j / a_j with z_3 = N - k - z_1 - z_2,
  so its points with psi <= s are those of a simplex. All of T is counted
  in closed form: level 0 < k < N of T holds a point exactly when k plus
  the residues -a_j*k mod N sum to N, and the number of such k is a sum of
  Dedekind sums, which the reciprocity law (Rademacher and Grosswald,
  Dedekind Sums, 1972) reduces to O(log N) integer steps, as Pick's theorem
  does for n = 2. The least psi is found by doubling and bisecting s on
  counts of the smaller simplices, each taken one plane at a time along a
  short dual vector: of the three rows of the LLL-reduced dual basis (in
  the spirit of Lenstra, Math. Oper. Res. 8, 1983), the first whose range
  on the simplex is least. Each plane is counted by floor sums along the
  envelope of each chain of its row bounds, and the walk that counts a
  simplex also lists its points while they number at most 16, so the
  search ends on the walk that found its last few points. On balanced
  weights it reads a few planes whatever the size of T: 3 for (15701,
  28340, 29766), whose T holds 12,307 points, and 1-5 for random weights
  from 10^9 to 10^60. Skewed weights take more, 64 for (3, 5, 10^12 + 1).
* For n >= 4 the global mld enumerates {psi <= 1}: a pass over every box
  point costs O(n * sum(a)) whatever that region holds, and skewed weights
  such as (1, 1, 1, N) have only the n + 1 generators in it.
* The shadow of {psi <= s} on the first k coordinates is the hull of the
  projected vertices, which is {psi <= s} for the prefix weights
  (a_1, ..., a_k). The enumerator reads its slice bounds from those
  closed-form rows, so every prefix it visits extends to a point of the
  polytope at every n, though not always to a lattice point. It yields
  the region as columns along x_n, one per (n-1)-prefix. The n >= 4
  global mld counts each column and reads its least psi in closed form,
  since psi falls along a column up to one breakpoint and rises after
  it, so the scan costs the visited prefixes rather than the points:
  {psi <= 1} of (2, 3, 100001) holds 8,338 nonzero points in 5 columns,
  one of them 8,334 long, while the scan of (15701, 28340, 29766) visits
  15,702 values of x_1. A lattice point with a zero coordinate has psi
  equal to its coordinate sum, so for eps <= 1 the lattice points with
  psi < eps are the interior lattice points of C(a, eps) = {psi <= eps},
  and the eps-lc search enumerates them directly, with strict rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, islice, repeat
from math import gcd, lcm
from operator import mod

from .exact_lattice import (
    DEFAULT_ENUMERATION_CAP,
    BudgetExceeded,
    Value,
    _dedekind_pair12,
    _lll,
    ceil_div,
    check_eps,
    check_int,
    exact,
    format_rational,
    integer_nth_root,
    require_same_dimension,
)

CLASS_TERMINAL = "terminal"
CLASS_CANONICAL = "canonical"
CLASS_KLT = "klt-with-mld"


class WeightVector(Value):
    """Coprime ascending weights defining the blowup."""

    __slots__ = ()
    _fields = ("entries",)

    def __new__(cls, entries: tuple[int, ...]):
        e = tuple(entries)
        if len(e) < 2:
            raise ValueError("need at least two weights")
        # each weight is at least the one before it: positive and ascending.
        # An exact int in range passes on the fast test; check_int judges
        # (and names) anything else
        least = 1
        for x in e:
            least = x if type(x) is int and x >= least else check_int(x, "weight (weights ascend)", least)
        if gcd(*e) != 1:
            raise ValueError(f"weights must be coprime: {e}")
        return tuple.__new__(cls, (e,))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)


class MldReport(Value):
    """Result of a global mld search.

    classification is one of "terminal", "canonical", "klt-with-mld"; the
    box-point argument in the module docstring shows these are exhaustive.
    """

    __slots__ = ()
    _fields = ("weights", "value", "achieved_at", "cone", "classification", "points_scanned")

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights.entries),
            "mld": format_rational(self.value),
            "achieved_at": list(self.achieved_at),
            "cone": self.cone,
            "points_scanned": self.points_scanned,
            "classification": self.classification,
        }


def _check_vector(a: WeightVector, v) -> None:
    require_same_dimension(a.n, v)
    for c in v:
        check_int(c, "coordinate", 0)
    if not any(v):
        raise ValueError("the zero vector has no log discrepancy")


def _cone(ent, v) -> int:
    # the 0-based index of the first i minimising v_i / a_i over the
    # coordinates of v, which may be a prefix: the first maximal cone
    # holding v, the one every psi caller reads
    bi = 0
    for j in range(1, len(v)):
        if v[j] * ent[bi] < v[bi] * ent[j]:
            bi = j
    return bi


def _psi(ent, T1, v) -> tuple[int, int]:
    # psi(v) as (numerator, denominator) on the cone _cone picks, with
    # T1 = sum(a) - 1; the scans call this directly and skip psi_value's
    # input checks
    i = _cone(ent, v)
    return ent[i] * sum(v) - v[i] * T1, ent[i]


def psi_value(a: WeightVector, v) -> Fraction:
    """Exact value of the log-discrepancy function at a nonnegative nonzero v."""
    _check_vector(a, v)
    return Fraction(*_psi(a.entries, a.total - 1, v))


def _slices(a: WeightVector, scale, strict: bool, budget: int):
    # the lattice points of {psi <= scale}, or of its interior when strict,
    # as columns (prefix, lo, hi) along the last coordinate: the points are
    # prefix + (y,) for lo <= y <= hi. Prefixes come in lexicographic order
    # and empty columns are skipped. The closed region's first column is
    # the origin's, (0, ..., 0, y) for 0 <= y <= hi. scale is a positive int
    # or Fraction that the caller has checked.
    #
    # The budget counts visited prefixes: one per odometer step plus, at
    # level m, the hi - lo + 1 values of t. A level-m range that would pass
    # budget is clipped to the values left, and BudgetExceeded is raised
    # once the clipped columns are read; an odometer step past budget
    # raises at once. So budget bounds the work, a column within it is
    # still yielded, and the t loop checks nothing. Returns the count.
    #
    # The rows of iter_region_points, times sd and 0-based: at level k,
    # x_i * tilt[k] + a_i * (r - sd * x_k) >= d for i <= k, with
    # tilt[k] = (a_0 + ... + a_k - 1) * sd and r = sd * (s - sum(prefix)).
    # Rows and coordinates are integers, so d = 1 makes each row strict.
    # Rows i < k bound x_k above. Row k reads x_k * tilt[k - 1] >= d - a_k * r,
    # a lower bound; at level 1 with a_0 = 1 its tilt is 0 and level 0
    # already implies it (r >= d), which a divisor of 1 keeps true.
    #
    # Levels 0..m-1, m = n - 2, run as an odometer. Level m loops over
    # t = x_m and reads each column's range in closed form: row n - 1 gives
    # lo, rows m and i < m give hi, and the bound of each i < m is
    # (x_i * tl + a_i * (r - sd * t) - d) // (a_i * sd) = C_i - t, so the
    # rows above m cost one C = min C_i per prefix.
    sn, sd = scale.numerator, scale.denominator
    ent = a.entries
    n = len(ent)
    m = n - 2
    d = 1 if strict else 0
    tilt = [(sum(ent[: k + 1]) - 1) * sd for k in range(n)]
    low = [c or 1 for c in tilt]
    scaled = [aj * sd for aj in ent]
    tl = tilt[-1]
    am, sm, lm = ent[m], scaled[m], low[m]
    an = ent[-1]
    # every point of the region has y <= a_n * s, so C may start at
    # hi + ymax: C - t >= ymax binds no column, and with no rows above m
    # (n = 2) it stands in for them
    ymax = an * sn // sd
    x = [0] * m
    his = [0] * m
    rs = [sn] * (m + 1)
    # level 0 is bounded by its own row: x_0 <= (a_0 * r - d) / sd
    lo, hi = d, (ent[0] * sn - d) // sd
    k = work = 0
    while True:
        work += 1
        if work > budget:
            raise BudgetExceeded(work, budget, "visited prefixes")
        if k < m and lo <= hi:
            # descend: fix x_k = lo
            x[k] = lo
            his[k] = hi
            r = rs[k + 1] = rs[k] - sd * lo
        else:
            if lo <= hi:
                # level m: loop over t = x_m and read each column in closed form
                work += hi - lo + 1
                top = hi if work <= budget else hi - (work - budget)
                r = rs[m]
                head = tuple(x)
                c = hi + ymax
                for i in range(m):
                    ci = (x[i] * tl + ent[i] * r - d) // scaled[i]
                    if ci < c:
                        c = ci
                for t in range(lo, top + 1):
                    r1 = r - sd * t
                    yhi = (t * tl + am * r1 - d) // sm
                    if c - t < yhi:
                        yhi = c - t
                    ylo = -((an * r1 - d) // lm)
                    if ylo < d:
                        ylo = d
                    if ylo <= yhi:
                        yield head + (t,), ylo, yhi
                if top < hi:
                    raise BudgetExceeded(work, budget, "visited prefixes")
            # carry: advance the deepest odometer level with room left
            while True:
                k -= 1
                if k < 0:
                    return work
                if x[k] < his[k]:
                    break
            x[k] += 1
            r = rs[k + 1] = rs[k + 1] - sd
        # level k's range: row k below, the rows i < k above
        k += 1
        lo = -((ent[k] * r - d) // low[k - 1])
        if lo < d:
            lo = d
        tk = tilt[k]
        hi = (x[0] * tk + ent[0] * r - d) // scaled[0]
        for i in range(1, k):
            hi_i = (x[i] * tk + ent[i] * r - d) // scaled[i]
            if hi_i < hi:
                hi = hi_i


# not exported; kept because bench/tracing.py looks this name up when it installs
def iter_region_points(a: WeightVector, scale, strict: bool = False):
    """Yield the nonzero lattice points of {psi <= scale} in lexicographic order.

    With strict set, yield only its interior lattice points: every
    coordinate positive and psi < scale, which for scale <= 1 is psi < scale.

    This is the points view of the enumerator, which walks the region as
    columns along the last coordinate. The shadow of {psi <= s} =
    hull(0, s*e_j, s*a) on x_1..x_k is the hull of the projected vertices,
    i.e. the same polytope for the prefix weights (a_1, ..., a_k), and the
    shadow of its interior is the interior of that hull. So with
    T_k = a_1 + ... + a_k and S = x_1 + ... + x_k, the bounds on x_k given
    x_1..x_{k-1} are exactly the rows

        x_i * (T_k - 1) + a_i * (s - S) >= 0,  i <= k,   and x_k >= 0,

    with > in place of >= when strict, and every visited prefix extends to
    a point of the region, or of its interior, at every n (a rational
    point: the column of x_n over an (n-1)-prefix may hold no lattice
    point). Each column's range is read in closed form, so the cost is
    the visited prefixes plus one step per point yielded. The prefixes are
    counted against the default budget of 10^7, and BudgetExceeded is
    raised before the count passes it.
    """
    scale = exact(scale, "scale")
    if scale <= 0:
        raise ValueError("scale must be positive")
    columns = _slices(a, scale, strict, DEFAULT_ENUMERATION_CAP)
    points = (prefix + (y,) for prefix, lo, hi in columns for y in range(lo, hi + 1))
    # the closed region's lexicographically first point is the origin
    yield from islice(points, 0 if strict else 1, None)


def _sail_min(p: int, q: int) -> tuple[int, int]:
    # smallest k + r over (k, r), 1 <= k < p, r = -k*q mod p, with the
    # smallest such k; p >= 2 and gcd(p, q) = 1. Walks the boundary of the
    # Klein sail of {(k, r) : r = -k*q mod p} from (0, p) to (p, 0) one edge
    # per step: an edge leaving (x, y) in direction (dx, dy) holds
    # y // -dy lattice steps, and the Hirzebruch-Jung step c = ceil(y_prev / y)
    # turns onto the next edge. k + r is linear on an edge and convex along
    # the sail, so its minimum over the box points is at (1, r_1), a vertex
    # or (p - 1, r_{p-1}), and the last of these is a vertex whenever it
    # beats the others; the first strict minimum in walk order has the
    # smallest k.
    r1 = -q % p
    best = (1 + r1, 1)
    x, y = 0, p
    dx, dy = 1, r1 - p
    while True:
        t = y // -dy
        x += t * dx
        y += t * dy
        if y == 0:
            return best
        if x + y < best[0]:
            best = (x + y, x)
        c = ceil_div(y - dy, y)
        dx += (c - 2) * x
        dy += (c - 2) * y


def _mld_n2(a: WeightVector) -> tuple[Fraction, tuple[int, ...], int]:
    # below 1 the minimisers are the box points of least age: cone 1 has
    # (k, ceil(k*a2/a1)), cone 2 has (ceil(k*a1/a2), k), both lex-increasing
    # in k; at 1 the lex-first minimiser is e_2. The nonzero lattice points
    # of {psi <= 1} = hull(0, e1, a, e2) number area + boundary / 2 + 1 by
    # Pick's theorem, with area (a1 + a2) / 2 and 2 + gcd(a1 - 1, a2) +
    # gcd(a1, a2 - 1) boundary points
    a1, a2 = a.entries
    best = (Fraction(1), (0, 1))
    if a1 > 1:
        s, k = _sail_min(a1, a2)
        best = min(best, (Fraction(s, a1), (k, ceil_div(k * a2, a1))))
    if a2 > 1:
        s, k = _sail_min(a2, a1)
        best = min(best, (Fraction(s, a2), (ceil_div(k * a1, a2), k)))
    return (*best, (a1 + a2 + gcd(a1 - 1, a2) + gcd(a1, a2 - 1)) // 2 + 1)


def _floor_sum(n, a, b, m) -> int:
    # sum of (a*x + b) // m over 0 <= x < n, for m > 0: reduce a and b mod m,
    # then swap the roles of a and m as in Euclid's algorithm
    total = 0
    while True:
        q, a = divmod(a, m)
        r, b = divmod(b, m)
        total += q * n * (n - 1) // 2 + r * n
        y = a * n + b
        if y < m:
            return total
        n, b = divmod(y, m)
        m, a = a, m


def _cone_frame(p, q1, q2):
    # slicing data for the points of the lattice L = {x : x_1 = -x_0*q1 and
    # x_2 = -x_0*q2 (mod p)}, p > 1, in a simplex {x >= l, x_0 + x_1 + x_2 <= T}
    # whose l and T each walk supplies. The dual of L, times p, has the rows
    # (p, 0, 0), (q1, 1, 0), (q2, 0, 1). Lagrange-Gauss first reduces the
    # plane of the first two to a shortest pair u, v, and LLL then reduces
    # u, v and (q2 mod p, 0, 1), its size reduction of the third row against
    # u, v doing what rounding (q2, 0) in u, v would. LLL's output bound
    # holds for any input basis, but from u, v it takes fewer swaps: with
    # LLL alone (rows small-first) n = 3 mld answers alike, and is 11%
    # slower a query on balanced weights near 10^60 (808 -> 910 us), 5% near
    # 10^30 and within 2% near 10^18 and on the bench's mld-n3 pool (Intel
    # Xeon, Python 3.11). The slicing row w = b_i is the
    # first reduced row with the least range max(0, w) - min(0, w) on the
    # simplex, and B = (b_i, b_{i+1}, b_{i+2}), indices mod 3. With c_m the
    # columns of its adjugate, signed so that B c_m = p e_m, L is every
    # x = s*c_0 + u*c_1 + v*c_2 with integer s, u, v, and s = w.x / p.
    u0, u1, v0, v1 = q1 % p, 1, p, 0
    nu = u0 * u0 + 1
    while True:
        r = (2 * (u0 * v0 + u1 * v1) + nu) // (2 * nu)
        v0, v1 = v0 - r * u0, v1 - r * u1
        nv = v0 * v0 + v1 * v1
        if nv >= nu:
            break
        u0, u1, v0, v1, nu = v0, v1, u0, u1, nv
    b = [[u0, u1, 0], [v0, v1, 0], [q2 % p, 0, 1]]
    _lll(b)
    i = min(range(3), key=lambda j: max(0, *b[j]) - min(0, *b[j]))
    w, (y0, y1, y2), (z0, z1, z2) = b[i], b[i - 2], b[i - 1]
    x0, x1, x2 = w
    cols = [(y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0),
            (z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0),
            (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)]
    if x0 * cols[0][0] + x1 * cols[0][1] + x2 * cols[0][2] < 0:
        cols = [(-c0, -c1, -c2) for c0, c1, c2 in cols]
    return (w, cols, *_bounds(cols, [(1, 1, 1)]))


def _bounds(cols, tops):
    # the rows x_m - l_m >= 0 and, for each f of tops, T_f - f.x >= 0, as
    # A*s + B*u + G*v + c_r >= 0, where a walk supplies row r's constant c_r:
    # G = 0 bounds u, G < 0 bounds v above (the upper chain) and G > 0 below
    # (the lower chain); each is kept as the line (B*u + A*s + c_r) / |G|, of
    # which v <= floor(the least upper) and v >= -floor(the least lower). The
    # u-range needs the rows G = 0 and, for each upper line r and lower line
    # r2, that their sum stays >= 0: D*u + Es*s + c_r*Q + c_r2*q >= 0
    rows = [*zip(*cols)] + [tuple(-f0 * c0 - f1 * c1 - f2 * c2 for c0, c1, c2 in cols) for f0, f1, f2 in tops]
    up = [(B, A, r, -G) for r, (A, B, G) in enumerate(rows) if G < 0]
    lo = [(B, A, r, G) for r, (A, B, G) in enumerate(rows) if G > 0]
    conds = [(B, A, r, 1, r, 0) for r, (A, B, G) in enumerate(rows) if G == 0]
    conds += [(B * Q + B2 * q, A * Q + A2 * q, r, Q, r2, q) for B, A, r, q in up for B2, A2, r2, Q in lo]
    return conds, _chain(up), _chain(lo)


def _chain(lines):
    # the lines (B, A, r, q), q > 0, in descending slope B/q, each with its
    # crossings K*u + Ks*s + c_r*Q - c_r2*q = 0, K >= 0, with the lines
    # (B2, A2, r2, Q) after it
    g = sorted(lines, key=cmp_to_key(lambda l, m: l[3] * m[0] - l[0] * m[3]))
    return tuple((B, A, r, q, tuple((B * Q - B2 * q, A * Q - A2 * q, r2, Q) for B2, A2, r2, Q in g[i + 1:]))
                 for i, (B, A, r, q) in enumerate(g))


def _fold(chain, c):
    # the chain with the row constants c folded in, once per walk: each line
    # reads (B*u + A*s + h) // q and each crossing K*u + Ks*s + Kc = 0
    return [(B, A, c[r], q, [(K, Ks, c[r] * Q - c[r2] * q) for K, Ks, r2, Q in cuts]) for B, A, r, q, cuts in chain]


def _chain_sum(chain, s, x0, x1) -> int:
    # sum over x0 <= u <= x1 of the least (B*u + A*s + h) // q over the lines
    # of one folded chain. Line i is at or below line j > i up to
    # u = floor(-(Ks*s + Kc) / K) and above it after, or, when the two are
    # parallel (K = 0), for every u or for none. So the first least line at u
    # is line i on one run of u, the runs follow in chain order, a line that
    # never reaches the envelope has none, and each run takes one floor sum,
    # or one floor when it is one u long. That floor pays: 548 of the 1,126
    # calls of the bench's mld-n3 pool span one u, and replayed with a floor
    # sum for every run the calls take 2.04 ms against 1.11 ms (4.77 against
    # 1.09 ms near 10^60), and n = 3 mld is 5-9% slower
    total = 0
    for B, A, h, q, cuts in chain:
        end = x1
        for K, Ks, Kc in cuts:
            E = Ks * s + Kc
            t = -E // K if K else x1 if E <= 0 else x0 - 1
            if t < end:
                end = t
        if end >= x0:
            b = B * x0 + A * s + h
            total += b // q if end == x0 else _floor_sum(end - x0 + 1, B, b, q)
            if end == x1:
                return total
            x0 = end + 1
    return total


def _n3_count(ent) -> int:
    # the lattice points of T = conv(e_1, e_2, e_3, a) in O(log N) integer
    # steps. With N = sum(a) - 1 and r_j = -a_j*k mod N, level k = sum(x) - 1
    # of T holds e_1, e_2, e_3 at k = 0, a at k = N and, for 0 < k < N, one
    # point when S = (k + r_1 + r_2 + r_3) / N is 1 and none when it is 2 or
    # 3. As k -> N - k sends S to 4 - z - S, where z of the r_j vanish, the
    # sum Q of (S - 2)^2 over k mod N (4 at k = 0) is 4 + 2C - Z_1/2 - Z_2,
    # C the levels with S = 1 and Z_z those with z vanishing r_j: with
    # g_j = gcd(a_j, N), r_j = 0 at g_j - 1 levels and r_i = r_j = 0 at
    # gcd(g_i, g_j) - 1. S - 2 is the sum of B(u*k/N) over u in (1, -a_1,
    # -a_2, -a_3), with B(x) = x - floor(x) - 1/2 = ((x)) - [x integral]/2,
    # so Q is the sum over ordered pairs (u, v) of D(u, v; N) + gcd(u, v, N)/4
    # (exact_lattice._dedekind_pair12), where 12N*D(u, u; N) = (N - g)(N - 2g)
    # for g = gcd(u, N). Scaled by 24N, the count 4 + C is 12N times the
    # sum of the D plus N*(9*sum_j g_j + 6*sum_{i<j} gcd(g_i, g_j) + 51)
    N = sum(ent) - 1
    g = [gcd(aj, N) for aj in ent]
    u = (1, *(-aj for aj in ent))
    d = sum((N - gcd(x, N)) * (N - 2 * gcd(x, N)) for x in u)
    d += 2 * sum(_dedekind_pair12(x, y, N) for x, y in combinations(u, 2))
    return (d + N * (9 * sum(g) + 6 * sum(gcd(x, y) for x, y in combinations(g, 2)) + 51)) // (24 * N)


def _slice_range(w, wlo, whi, N, c) -> tuple[int, int]:
    # the slices s = w.x / N that meet the simplex {x_m >= -c_m for m < 3,
    # x_0 + x_1 + x_2 <= c_3}, read off its vertices l and l + R*e_m, R =
    # c_0 + ... + c_3, with wlo = min(0, w) and whi = max(0, w); (1, 0) when
    # R < 0 leaves it empty. Each walk of _mld_n3 starts here
    R = c[0] + c[1] + c[2] + c[3]
    if R < 0:
        return 1, 0
    W = -w[0] * c[0] - w[1] * c[1] - w[2] * c[2]
    return -((-W - R * wlo) // N), (W + R * whi) // N


def _mld_n3(a: WeightVector, budget: int) -> tuple[Fraction, tuple[int, ...], int]:
    # T's lattice points (see the module docstring) are the points (k, z_1,
    # z_2) of the lattice of _cone_frame(N, a_1, a_2) with k, z_1, z_2 >= 0
    # and k + z_1 + z_2 <= N; _n3_count counts them in closed form. walk
    # counts the points with every x_m >= -c_m and, for the tops f of
    # _bounds, f.x <= c_3, c_4, ..., one slice s = w.x / N at a time,
    # charging each slice to the budget first, and lists them while there
    # are at most 16
    a1, a2, a3 = ent = a.entries
    N = a1 + a2 + a3 - 1
    w, cols, *frame = _cone_frame(N, a1, a2)
    wlo, whi = min(0, *w), max(0, *w)
    work = 0

    def walk(bounds, c):
        # (count, points): every slice is counted, and a slice's points are
        # listed while the walk's running count stays at most 16
        nonlocal work
        slo, shi = _slice_range(w, wlo, whi, N, c)
        if slo > shi:
            return 0, []
        work += shi - slo + 1
        if work > budget:
            raise BudgetExceeded(work, budget, "slices")
        # each condition D*u + Es*s + Ec >= 0 bounds u from below when D > 0
        # and from above when D < 0 (kept as -D). A u-free condition (D = 0)
        # always holds, so none is kept. It reads Q*row_r + q*row_r2 >= 0
        # (Q, q > 0), or row_r >= 0, whose normals sum to a multiple of w. On
        # rows of the simplex it holds at every s from slo to shi, all of
        # which the simplex meets. None has the tie-break row g below (M =
        # a_3 + 1): w is the LLL row of least range, so |w_i| and |w_i - w_j|
        # are at most rho = 2^(5/3) N^(1/3) (|b_1| <= 2 lambda_1, Hermite's
        # gamma_3 = 2^(1/3)), while, as g = (-2, -1, -1) mod M, w parallel to
        # g, or in its plane with e_0 or e_1, has some |w_i| >= M + 1; with
        # (1, 1, 1), M | w_1 - w_2 != 0; with e_2, w_0 = 2 w_1 once M^3 >
        # 256 N, so a = (1, a_3, a_3) and a_3 | w_1 != 0. Each passes rho for
        # a_3 >= 27; a test checks every a_3 <= 26, and the bound on range(w)
        # at sizes up to 10^60
        lows = [(D, Es, c[r] * Q + c[r2] * q) for D, Es, r, Q, r2, q in bounds[0] if D > 0]
        highs = [(-D, Es, c[r] * Q + c[r2] * q) for D, Es, r, Q, r2, q in bounds[0] if D < 0]
        up, lo = _fold(bounds[1], c), _fold(bounds[2], c)
        total, points = 0, []
        for s in range(slo, shi + 1):
            ulo = max(-((Es * s + Ec) // D) for D, Es, Ec in lows)
            uhi = min((Es * s + Ec) // D for D, Es, Ec in highs)
            if ulo > uhi:
                continue
            # the slice holds, per u, floor(least upper) + floor(least lower)
            # + 1 points, and the two chains are summed apart, each cut only
            # at its own crossings
            n = _chain_sum(up, s, ulo, uhi) + _chain_sum(lo, s, ulo, uhi) + uhi - ulo + 1
            total += n
            if not n or total > 16:
                continue
            # list u by u, halving a u-range longer than 16 and dropping the
            # halves that count no point, so a long thin slice costs its
            # points rather than its length; a range's count is known, so
            # only its first half is summed
            spans = [(ulo, uhi, n)]
            while spans:
                x0, x1, k = spans.pop()
                if x1 - x0 > 16:
                    mid = (x0 + x1) // 2
                    k0 = _chain_sum(up, s, x0, mid) + _chain_sum(lo, s, x0, mid) + mid - x0 + 1
                    spans += [half for half in ((x0, mid, k0), (mid + 1, x1, k - k0)) if half[2]]
                    continue
                for u in range(x0, x1 + 1):
                    top = min((B * u + A * s + h) // q for B, A, h, q, _ in up)
                    bot = -min((B * u + A * s + h) // q for B, A, h, q, _ in lo)
                    points += ([s * x + u * y + v * z for x, y, z in zip(*cols)] for v in range(bot, top + 1))
        return total, points

    def narrow(lo, hi, found, count):
        # found = count(hi) holds n > 0 points, and count(lo) none; bisect
        # until n <= 16 or hi = lo + 1, keeping the points listed at hi
        while found[0] > 16 and hi - lo > 1:
            mid = (lo + hi) // 2
            if (f := count(mid))[0]:
                hi, found = mid, f
            else:
                lo = mid
        return hi, found

    scanned = _n3_count(ent)
    # the least m with a point at psi <= m / den < 1, where one step of m
    # parts any two psi = 1 - z_j / a_j: double a start near where a point is
    # expected until one shows, then bisect
    den = lcm(*ent)

    def below(m):
        # psi <= m / den exactly where every z_j >= a_j - floor(m*a_j / den)
        return [0, m * a1 // den - a1, m * a2 // den - a2, N - a3 + m * a3 // den]

    lo, m = 0, min(max(1, integer_nth_root(6 * a1 * a1, 3) // 2) * (den // a1), den - 1)
    while not (found := walk(frame, below(m)))[0] and m < den - 1:
        lo, m = m, min(2 * m, den - 1)
    m, (n, points) = narrow(lo, m, found, lambda m: walk(frame, below(m)))
    if not n:
        return Fraction(1), (0, 0, 1), scanned
    if n > 16:
        # the n points tie at psi = m / den: the least of F = M*M*x_1 + M*x_2 +
        # x_3, with M above every x_2 and x_3 of T, is their lex-first, and
        # N*(F - 1) = g.(k, z_1, z_2) with g > 0, so bisect on g.x <= t; the
        # F are distinct, so the bisection ends with one point
        c = below(m)
        M = a3 + 1
        g = (M * M * a1 + M * a2 + a3 - 1, M * M - 1, M - 1)
        bounds = _bounds(cols, [(1, 1, 1), g])
        lo = -g[1] * c[1] - g[2] * c[2] - 1
        _, (n, points) = narrow(lo, lo + 1 + g[0] * (c[0] + c[1] + c[2] + c[3]), (n, None),
                                lambda t: walk(bounds, c + [t]))
    # the least psi among the listed points, then the lex-first x, with one
    # Fraction for the answer
    num = q = 1
    at = None
    for k, z1, z2 in points:
        x1, x2 = (z1 + a1 * k) // N, (z2 + a2 * k) // N
        v = (x1, x2, k + 1 - x1 - x2)
        p, d = _psi(ent, N, v)
        if at is None or p * q < num * d or p * q == num * d and v < at:
            num, q, at = p, d, v
    return Fraction(num, q), at, scanned


def _column_min(ent, T1, p, lo, hi) -> tuple[int, int, int]:
    # least psi over the column (p, y), lo <= y <= hi, as (numerator,
    # denominator, y) with the smallest such y; T1 = sum(a) - 1. With
    # S = sum(p) and m = min_i p_i / a_i over the prefix, read at _cone's b,
    #
    #     psi(p, y) = S + y - T1 * min(m, y / a_n),
    #
    # which falls (or stays flat, when T1 = a_n) up to y* = a_n * m and
    # rises by 1 per step after it. So the minimum at the smallest y is
    # among lo, clamp(floor(y*)) and clamp(floor(y*) + 1), in that order:
    # this closed form picks the candidates, and _psi evaluates them.
    b = _cone(ent, p)
    ys = ent[-1] * p[b] // ent[b]
    if lo == hi or ys < lo:
        candidates = (lo,)
    elif ys < hi:
        candidates = (lo, ys, ys + 1)
    else:
        candidates = (lo, hi)
    best = None
    for y in candidates:
        num, den = _psi(ent, T1, p + (y,))
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, y)
    return best


def _mld_scan(a: WeightVector, budget: int) -> tuple[Fraction, tuple[int, ...], int]:
    # every nonzero lattice point of {psi <= 1}, one column of the last
    # coordinate at a time, each counted and minimised in closed form. The
    # first column is the origin's, whose first nonzero point e_n has psi 1;
    # a strict < across columns then keeps the lex-first minimiser
    ent = a.entries
    T1 = a.total - 1
    columns = _slices(a, 1, False, budget)
    prefix, _, scanned = next(columns)
    best_v = prefix + (1,)
    best_num = best_den = 1
    for p, lo, hi in columns:
        scanned += hi - lo + 1
        num, den, y = _column_min(ent, T1, p, lo, hi)
        if num * best_den < best_num * den:
            best_num, best_den, best_v = num, den, p + (y,)
    return Fraction(best_num, best_den), best_v, scanned


def _least_interior(ent, i) -> int:
    # least numerator, over p = a_i, of psi on the lattice points interior
    # to cone i (0-based): one pass over the box points k = 1..p-1 with
    # remainders r_j = -k*a_j mod p read off ranges stepped by -a_j, each
    # zero r_j adding p. The origin's lift n*p is beaten by every box point
    # and stands only for a smooth cone. For n = 2 no r_j vanishes and the
    # Klein sail gives the least age in O(log p).
    p = ent[i]
    n = len(ent)
    if n == 2 and p > 1:
        return _sail_min(p, ent[1 - i])[0]
    remainders = [map(mod, range(-aj, -aj * p, -aj), repeat(p)) for j, aj in enumerate(ent) if j != i]
    return min((sum(t) + p * t.count(0) for t in zip(range(1, p), *remainders)), default=n * p)


def mld_global(a: WeightVector, enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> MldReport:
    """Minimum of psi over all nonzero lattice points of the first orthant.

    Since psi(e_1) = 1 the search is confined to {psi <= 1}. The achieving
    vector is the lexicographically smallest minimiser, and points_scanned
    counts the nonzero lattice points of {psi <= 1}. By the box-point
    argument in the module docstring those are the n + 1 fan-ray generators
    plus the box points of age <= 1, so the class is terminal exactly when
    there are no more than n + 1 of them.

    For n = 2 nothing is enumerated: the value is min(1, least box-point
    age), found by the Klein sail walk, and the count comes from Pick's
    theorem, in O(log a_2) steps, with no budget. For n = 3 nothing is
    enumerated either: the count of conv(e_1, e_2, e_3, a) is a sum of
    Dedekind sums, read in O(log sum(a)) steps by reciprocity, and the
    search for the least psi counts the lattice points with psi <= s one
    lattice plane at a time, and the same walk lists them once at most 16
    are left. It reads a few planes on balanced weights, and
    BudgetExceeded stops it before the planes read pass enumeration_cap.
    For n >= 4 {psi <= 1} is enumerated as columns along the last
    coordinate, each counted and minimised in closed form, so it costs the
    visited prefixes rather than sum(a) or the points; BudgetExceeded stops
    it before they pass enumeration_cap. A cap below 1 is rejected at every n.
    """
    check_int(enumeration_cap, "enumeration cap")
    if a.n == 2:
        value, at, scanned = _mld_n2(a)
    else:
        value, at, scanned = (_mld_n3 if a.n == 3 else _mld_scan)(a, enumeration_cap)
    if value < 1:
        classification = CLASS_KLT
    elif scanned > a.n + 1:
        classification = CLASS_CANONICAL
    else:
        classification = CLASS_TERMINAL
    return MldReport(a, value, at, _cone(a.entries, at) + 1, classification, scanned)


def mld_at_fixed_point(a: WeightVector, cone: int, enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Infimum of psi over lattice points interior to the given maximal cone.

    This is the mld at the torus-fixed point of that cone. An interior
    lattice point is a box point plus a combination of the generators with
    a positive coefficient wherever the box point has none, so the value is
    the least box-point age plus 1 per vanishing remainder, with the origin
    contributing n (the interior point a + sum of the cone's basis
    generators). Nothing is enumerated: for n = 2 the Klein sail walk reads
    the least age, or 2 for a smooth cone, in O(log a_i) steps, and no
    budget applies. For n >= 3 one pass reads the box points of the cone in
    n * a_i steps, and BudgetExceeded is raised before the pass when that
    exceeds enumeration_cap. A cap below 1 is rejected at every n.
    """
    if check_int(cone, "cone index") > a.n:
        raise ValueError(f"cone index out of range: {cone}")
    check_int(enumeration_cap, "enumeration cap")
    p = a.entries[cone - 1]
    if a.n > 2 and a.n * p > enumeration_cap:
        raise BudgetExceeded(a.n * p, enumeration_cap, "box steps")
    return Fraction(_least_interior(a.entries, cone - 1), p)


def is_eps_lc(a: WeightVector, eps, enumeration_cap: int = DEFAULT_ENUMERATION_CAP):
    """Decide whether every nonzero lattice point has psi >= eps.

    Returns (True, None) or (False, refuting_vector), where the refuter is
    the lexicographically first lattice point with psi < eps. The search
    enumerates the interior lattice points of C(a, eps) = {psi <= eps}
    directly and stops at the first. Only eps in (0, 1] is accepted;
    codimension-1 points all have mld exactly 1, so in this range the mld
    over lattice points settles the question. BudgetExceeded stops the scan
    before its visited prefixes pass enumeration_cap, which must be >= 1.

    This is the package's one eps-lc search: the check and verify-example
    commands call it, and so does witness.certify_not_eps_lc whenever it
    scans, which is how the witness, sweep and selftest commands decide.
    """
    eps = check_eps(eps)
    check_int(enumeration_cap, "enumeration cap")
    for prefix, lo, _ in _slices(a, eps, True, enumeration_cap):
        return (False, prefix + (lo,))
    return (True, None)
