"""Interior-point certificates refuting eps-lc-ness.

C(a, eps) is the convex polytope with vertices 0, eps*e_1, ..., eps*e_n and
eps*a. Its facets are the n coordinate hyperplanes together with n tilted
hyperplanes, each spanned by all eps-scaled ray generators but one basis
vector. A lattice point interior to C(a, eps) has psi strictly below eps
and therefore certifies that the blowup is not eps-lc.

The polytope is held as the data that defines it, a and eps, and its
facets are formed as integer rows in one place, _rows_positive. With
eps = en/ed, T = sum(a) and K = (T - 1) * ed, the tilted facet omitting
axis i, scaled by a_i * ed > 0, is the row

    x_i * K + a_i * (en - ed * sum(x)) >= 0,

and x is interior exactly when every coordinate and every row is strictly
positive. Membership is therefore O(n) integer work and building C is
O(1).

Each construction proposes one lattice point w with every coordinate
positive: the Dirichlet point of a rational line through the origin that
runs close to the ray through a, or for n = 3 a point lifted from the
plane projection along the third coordinate. It judges w by psi alone.
The tilted rows are eps minus the linear forms of the maximal cones, and
psi is the largest of those forms, so t*w is interior exactly when
t*psi(w) < eps (the ray lemma). The multiples of w inside C(a, eps) are
therefore 1 <= k < eps/psi(w), and if any of them is, w is. The point,
psi as an integer numerator and denominator, and the judgment
num * ed < en * den are all integers; a Certificate keeps them. Its
trace (the Dirichlet data, the exit point of the line through w) is a pure
function of them, computed on each read in its JSON form: ints, bools and
exact "p/q" strings, each formatted from an integer pair reduced once, so
no Fraction is built for it; parse_rational gives any of its rationals
back as a Fraction. When no construction succeeds, certify_not_eps_lc asks
is_eps_lc, which enumerates the interior lattice points of C(a, eps)
directly and stops at the first. On lattice points interiority is exactly
psi < eps, so that lexicographically first point is the certificate, and
a scan that finds none proves eps-lc.

certify_not_eps_lc is the one checked entry to the constructions. It
checks its request once, in _certify_request, and hands it to its body,
_certify, which calls the construction for the dimension with eps a
Fraction in (0, 1] and theta resolved and in range; neither the body nor
the constructions check anything themselves. A sweep checks its request
once per sweep, in SweepSpec (and once more in each pool worker that
unpickles the spec), and each of its rows calls the checked body. The
constructions are not exported: a library caller reaches one through
certify_not_eps_lc(a, eps, theta, method="construction").
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .diophantine import dirichlet_1d, dirichlet_simultaneous
from .exact_lattice import (
    CERTIFY_METHODS,
    DEFAULT_ENUMERATION_CAP,
    BudgetExceeded,
    Value,
    check_eps,
    check_int,
    exact,
    format_quotient,
    format_ratio,
    integer_nth_root,
    require_same_dimension,
)
from .toric_mld import WeightVector, _cone, _psi, is_eps_lc

METHOD_N2_CASE1 = "n2-case1"
METHOD_N2_CASE2 = "n2-case2"
METHOD_N3_PROJECTION = "n3-projection"
METHOD_GENERAL_THETA = "general-theta"
METHOD_ENUMERATION = "enumeration"

VERDICT_EPS_LC = "eps-lc"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_NO_WITNESS = "no-witness"


class CEpsPolytope(Value):
    """C(a, eps) = conv{0, eps*e_1, ..., eps*e_n, eps*a}, held as a and eps.

    Its integer facet rows are formed in one place, _rows_positive.
    """

    __slots__ = ()
    _fields = ("a", "eps")

    @property
    def n(self) -> int:
        return self.a.n


class Certificate(Value):
    """A lattice point interior to C(a, eps), and the route that found it.

    psi is psi(point) in lowest terms, as (numerator, denominator). A
    general-theta certificate also keeps theta, its Dirichlet witness and
    hypothesis_ok, whether a_j / a_2 <= a_1 ** theta, evaluated once when
    the certificate is built (None for the other routes). The trace is a
    pure function of these fields, computed on each read. It is already
    JSON: ints, bools, lists, dicts and exact "p/q" strings, which
    parse_rational turns back into Fractions, so to_json_dict embeds it as
    it is.
    """

    __slots__ = ()
    _fields = ("weights", "eps", "point", "psi", "method", "theta", "dirichlet", "hypothesis_ok")
    _defaults = (None, None, None)

    @property
    def trace(self) -> dict:
        if self.method == METHOD_ENUMERATION:
            return {"source": "interior-scan"}
        if self.method == METHOD_GENERAL_THETA:
            return _theta_trace(self)
        if self.method == METHOD_N3_PROJECTION:
            return _projection_trace(self)
        return _plane_trace(self)

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights.entries),
            "eps": format_ratio(self.eps.numerator, self.eps.denominator),
            "point": list(self.point),
            "psi": format_ratio(*self.psi),
            "method": self.method,
            "trace": self.trace,
        }


@cache
def default_theta(n: int) -> Fraction:
    """Default exponent strictly inside the admissible range (0, 1/(2 n^2))."""
    return Fraction(1, 2 * n * n + 1)


def _check_theta(theta, n: int) -> Fraction:
    if theta is None:
        return default_theta(n)
    theta = exact(theta, "theta")
    if not 0 < 2 * n * n * theta.numerator < theta.denominator:
        raise ValueError(f"theta must lie in (0, 1/{2 * n * n}), got {theta}")
    return theta


def _certify_request(n: int, eps, theta, method: str, enumeration_cap: int):
    # the arguments of certify_not_eps_lc for n weights, each checked
    # whatever route will run; returns eps and theta as Fractions, a None
    # theta resolved to default_theta(n). SweepSpec checks its certify
    # arguments here too
    eps = check_eps(eps)
    theta = _check_theta(theta, n)
    if method not in CERTIFY_METHODS:
        raise ValueError(f"method must be one of {CERTIFY_METHODS}, got {method!r}")
    check_int(enumeration_cap, "enumeration cap")
    return eps, theta


def build_polytope(a: WeightVector, eps) -> CEpsPolytope:
    """Construct C(a, eps), checking eps."""
    return CEpsPolytope(a, check_eps(eps))


def _rows_positive(ent, en: int, ed: int, v) -> bool:
    # every coordinate and every facet row of C(ent, en/ed) strictly
    # positive. With K = (sum(ent) - 1) * ed, the tilted facet omitting axis
    # i is the row x_i * K + a_i * (en - ed * sum(x)) >= 0, i.e. a_i * ed
    # times ((sum_{j != i} a_j - 1) / a_i) * x_i - sum_{j != i} x_j + eps,
    # which vanishes on its n defining vertices and equals eps at the origin
    for x in v:
        if x <= 0:
            return False
    K = (sum(ent) - 1) * ed
    u = en - ed * sum(v)
    for x, ai in zip(v, ent):
        if x * K + ai * u <= 0:
            return False
    return True


# not exported; kept because bench/tracing.py looks this name up when it installs
def contains_interior(C: CEpsPolytope, v) -> bool:
    """Strict membership: all n coordinate and all n facet inequalities hold strictly."""
    # on lattice points membership is psi(v) < en/ed, as psi is the maximum
    # of the linear forms of the maximal cones
    require_same_dimension(C.n, v)
    eps = C.eps
    return _rows_positive(C.a.entries, eps.numerator, eps.denominator, v)


def certificate_threshold(n: int, eps):
    """Weight bound above which a certificate always exists, when known.

    For n = 2 this is Z0**2, where Z0 is the least Z with 1/Z + 1/(Z + 1)
    < eps: 4 at eps = 1, 16 at eps = 1/2 and 4*k**2 at eps = 1/k. No bound
    is implemented for n >= 3.

    Proof for n = 2, that witness_n2 certifies every (a1, a2) with a1 at
    or above the bound. Let Z = isqrt(a1), (p, q) = dirichlet_1d(a2, a1, Z)
    and delta = q*a2/a1 - p. Then q <= Z, and |delta| <= 1/(Z + 1): a1 > 1
    keeps a2/a1 (in lowest terms) off every fraction with denominator at
    most Z, so dirichlet_1d's convergent is not a2/a1 itself. q/a1 <= 1/Z,
    since a1 >= Z**2. psi(q, p) is q/a1 + delta*(a1 - 1)/a2 in case 1
    (delta >= 0) and q/a1 - delta in case 2; as a2 >= a1, both are at most
    q/a1 + |delta| <= 1/Z + 1/(Z + 1). a1 >= Z0**2 gives Z >= Z0 (so a1 >=
    4 > 1), and 1/Z + 1/(Z + 1) falls as Z grows, so psi < eps.
    """
    check_int(n, "dimension", 2)
    eps = check_eps(eps)
    if n != 2:
        return None
    # with eps = en/ed, Z0 is the least Z with en*Z*(Z + 1) > ed*(2Z + 1):
    # the quadratic in Z is negative at 0, so Z0 = floor(root) + 1 for its
    # positive root ((2ed - en) + sqrt(4ed**2 + en**2)) / (2en), and isqrt
    # gives that floor exactly, as the numerator's other term is an integer
    en, ed = eps.numerator, eps.denominator
    z0 = (2 * ed - en + isqrt(4 * ed * ed + en * en)) // (2 * en) + 1
    return z0 * z0


def _verified(cert: Certificate) -> Certificate:
    # soundness guard: a certificate is never returned unchecked; psi < eps
    # and the strict rows, in integers
    eps = cert.eps
    en, ed = eps.numerator, eps.denominator
    num, den = cert.psi
    if num * ed >= en * den or not _rows_positive(cert.weights.entries, en, ed, cert.point):
        raise AssertionError(f"unsound certificate: {cert}")
    return cert


def _judged(a: WeightVector, eps: Fraction, point, method: str, theta=None, dirichlet=None,
            hyp: bool | None = None) -> Certificate | None:
    # the last step of every route: a lattice point certifies exactly when
    # psi(point) < eps, one cross-multiplication. A general-theta point
    # records the theta hypothesis: hyp when its caller has evaluated it,
    # else evaluated here, and only for a point that certifies
    num, den = _psi(a.entries, a.total - 1, point)
    if num * eps.denominator >= eps.numerator * den:
        return None
    g = gcd(num, den)
    if theta is not None and hyp is None:
        hyp = _theta_hypothesis(a, theta)
    return _verified(Certificate(a, eps, point, (num // g, den // g), method, theta, dirichlet, hyp))


def _exit_abscissa(cert: Certificate) -> str:
    # the line through the point, first coordinate q, leaves C(a, eps) where
    # t*psi = eps, at first coordinate eps*q/psi
    num, den = cert.psi
    return format_quotient(cert.eps.numerator * cert.point[0] * den, cert.eps.denominator * num)


def _plane_trace(cert: Certificate) -> dict:
    # alpha = a2/a1 is in lowest terms, as coprime weights are; the residual
    # q*alpha - p is (q*a2 - p*a1)/a1
    (a1, a2), (q, p) = cert.weights.entries, cert.point
    return {"Z": isqrt(a1), "p": p, "q": q, "alpha": format_ratio(a2, a1),
            "residual": format_quotient(q * a2 - p * a1, a1),
            "case": 1 if cert.method == METHOD_N2_CASE1 else 2, "x0": _exit_abscissa(cert), "k": 1}


def witness_n2(a: WeightVector, eps: Fraction) -> Certificate | None:
    """Dirichlet-point construction in the plane.

    Takes a request certify_not_eps_lc has checked: two weights and eps a
    Fraction in (0, 1].

    With Z = isqrt(a_1) and p/q approximating a_2/a_1, the one candidate is
    w = (q, p), judged by psi(w) < eps. By the ray lemma no other multiple
    of w can succeed where w fails. The trace records where the line
    y = (p/q) x leaves C(a, eps), x0 = eps*q/psi(w): through the lower
    tilted facet when p/q <= a_2/a_1 (case 1), the upper one otherwise
    (case 2). When a_1 = 1 the candidate is a itself, with psi(a) = 1.
    """
    a1, a2 = a.entries
    p, q = dirichlet_1d(a2, a1, isqrt(a1))
    return _judged(a, eps, (q, p), METHOD_N2_CASE1 if p * a1 <= a2 * q else METHOD_N2_CASE2)


def _theta_hypothesis(a: WeightVector, theta: Fraction) -> bool:
    # a_j / a_2 <= a_1 ** theta for 3 <= j <= n, as a_j ** td <= a_2 ** td *
    # a_1 ** tn; the weights ascend, so a_n decides, and for n = 2 it holds
    tn, td = theta.numerator, theta.denominator
    ent = a.entries
    return ent[-1] ** td <= ent[1] ** td * ent[0] ** tn


def _theta_trace(cert: Certificate) -> dict:
    # exit coefficient i is cone i's linear form at the point divided by q;
    # the first largest is that of _cone, the first cone holding the point
    w, pt, ent, theta = cert.dirichlet, cert.point, cert.weights.entries, cert.theta
    S, T1 = sum(pt), sum(ent) - 1
    coeffs = [format_quotient(ai * S - xi * T1, ai * w.q) for ai, xi in zip(ent, pt)]
    return {"Z": w.Z, "dirichlet": w.to_json_dict(), "theta": format_ratio(theta.numerator, theta.denominator),
            "hypothesis_ok": cert.hypothesis_ok, "exit_coefficients": coeffs,
            "exit_facet": _cone(ent, pt) + 1, "x1_0": _exit_abscissa(cert), "k": 1}


def witness_general_theta(a: WeightVector, eps: Fraction, theta: Fraction,
                          hypothesis_ok: bool | None = None) -> Certificate | None:
    """Simultaneous-Dirichlet point construction for any dimension.

    Takes a request certify_not_eps_lc has checked: eps a Fraction in
    (0, 1] and theta a Fraction in (0, 1/(2 n^2)).

    The one candidate is w = (q, p_1, ..., p_{n-1}), approximating each
    a_j/a_1 with denominator q <= Z = floor(a_1 ** (1/n)), judged by
    psi(w) < eps. By the ray lemma no other multiple of w can succeed
    where w fails. Exit coefficient i of the trace is cone i's linear form
    at w divided by q; the largest is psi(w)/q, and its first index, the
    cone holding w, is the exit facet of the line through w, which leaves
    C(a, eps) at x1_0 = eps*q/psi(w). The hypothesis a_j/a_2 <= a_1**theta
    is recorded in the trace but not required; witness_n3, which has
    already evaluated it to choose its branch, passes it as hypothesis_ok.
    The targets a_j/a_1 go to the search as integers over a_1, which is
    their common denominator in lowest terms since gcd(a) = 1.
    """
    ent = a.entries
    w = dirichlet_simultaneous(ent[1:], ent[0], integer_nth_root(ent[0], a.n))
    return _judged(a, eps, (w.q,) + w.p, METHOD_GENERAL_THETA, theta, w, hypothesis_ok)


def _projection_trace(cert: Certificate) -> dict:
    # the three tilted facet rows solved for x_3 along x_1 = q, x_2 = p, over
    # positive denominators: x3_lo = (q + p - eps) * a3/(a1 + a2 - 1), and
    # x3_hi the lower of (a2 + a3 - 1)/a1 * q - p + eps and
    # (a1 + a3 - 1)/a2 * p - q + eps
    (a1, a2, a3), (q, p, _) = cert.weights.entries, cert.point
    en, ed = cert.eps.numerator, cert.eps.denominator
    n1, d1 = ((a2 + a3 - 1) * q - p * a1) * ed + en * a1, a1 * ed
    n2, d2 = ((a1 + a3 - 1) * p - q * a2) * ed + en * a2, a2 * ed
    x3_hi = format_quotient(n1, d1) if n1 * d2 <= n2 * d1 else format_quotient(n2, d2)
    return {"M2": isqrt(a1), "p": p, "q": q, "residual": format_quotient(q * a2 - p * a1, a1),
            "x3_lo": format_quotient(((q + p) * ed - en) * a3, (a1 + a2 - 1) * ed), "x3_hi": x3_hi}


def witness_n3(a: WeightVector, eps: Fraction, theta: Fraction) -> Certificate | None:
    """Three-dimensional construction.

    Takes a request certify_not_eps_lc has checked: three weights, eps a
    Fraction in (0, 1] and theta a Fraction in (0, 1/18).

    Branch (i), when a_3/a_2 <= a_1**theta: delegate to the general
    Dirichlet-point construction. Branch (ii): project onto the first two
    coordinates, place (q, p) there by the plane construction, and lift
    along the vertical line x_1 = q, x_2 = p, whose segment inside the
    polytope runs from the bottom tilted facet, x3_lo, up to the lower of
    the other two, x3_hi. The one candidate is (q, p, m) with m the least
    integer above x3_lo, judged by psi < eps, which holds exactly when
    m < x3_hi.
    """
    if _theta_hypothesis(a, theta):
        return witness_general_theta(a, eps, theta, True)
    a1, a2, a3 = a.entries
    p, q = dirichlet_1d(a2, a1, isqrt(a1))
    # m, the least integer above x3_lo = (q + p - eps) * a3 / (a1 + a2 - 1)
    en, ed = eps.numerator, eps.denominator
    m = ((q + p) * ed - en) * a3 // ((a1 + a2 - 1) * ed) + 1
    return _judged(a, eps, (q, p, m), METHOD_N3_PROJECTION)


def certify_not_eps_lc(
    a: WeightVector,
    eps,
    theta=None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    method: str = "auto",
) -> Certificate | str:
    """Dispatcher: the construction for the dimension, then one bounded scan.

    method "auto" tries the construction and, if it fails, asks is_eps_lc
    once, whose scan of the interior lattice points of C(a, eps) stops at
    the lexicographically first of them, the first lattice point with
    psi < eps: that point is the certificate, and a scan that finds none
    returns "eps-lc". A scan whose visited prefixes would pass
    enumeration_cap before it finds a point (BudgetExceeded) returns
    "inconclusive"; a cap that is no integer >= 1 is
    rejected, and so is a theta outside (0, 1/(2 n^2)), whatever the route.
    method "construction" stops after the construction, returning
    "no-witness" if it fails; "enumeration" runs only the scan. This is
    the one checked entry to the constructions: the request is checked
    once, here, and the construction trusts it, so method "construction"
    is the library's path to one construction's answer. A sweep checks
    its request once per sweep and calls the checked body for each row.

    A wrong verdict is never returned: every certificate is re-checked
    exactly by _verified, and "eps-lc" only comes from a completed scan.
    """
    eps, theta = _certify_request(a.n, eps, theta, method, enumeration_cap)
    return _certify(a, eps, theta, enumeration_cap, method)


def _certify(a: WeightVector, eps: Fraction, theta: Fraction, enumeration_cap: int,
             method: str) -> Certificate | str:
    # certify_not_eps_lc's body, on a request _certify_request has checked:
    # eps a Fraction in (0, 1], theta resolved and in range. A sweep row
    # calls it directly, its spec having checked the request
    if method != "enumeration":
        # each construction is looked up by its module name, which
        # bench/tracing.py wraps to count attempts and hits per method
        if a.n == 2:
            cert = witness_n2(a, eps)
        elif a.n == 3:
            cert = witness_n3(a, eps, theta)
        else:
            cert = witness_general_theta(a, eps, theta)
        if cert is not None:
            return cert
        if method == "construction":
            return VERDICT_NO_WITNESS
    try:
        ok, v = is_eps_lc(a, eps, enumeration_cap)
    except BudgetExceeded:
        return VERDICT_INCONCLUSIVE
    if ok:
        return VERDICT_EPS_LC
    cert = _judged(a, eps, v, METHOD_ENUMERATION)
    if cert is None:
        raise AssertionError(f"the interior scan yielded {v}, outside C({a.entries}, {eps})")
    return cert
