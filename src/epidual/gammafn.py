"""The incomplete gamma kernel: regularized gamma functions in log domain.

Everything downstream (volume tails, the closed-form ratio of the extremal
solver, the coefficient signs, the gamma-inequalities suite) consumes
gamma(s, x) and Gamma(s, x) through the regularized pair

    p(s, x) = gamma(s, x) / Gamma(s),    q(s, x) = Gamma(s, x) / Gamma(s),

carried as log-magnitudes only, which stay accurate far into the tails
where the plain values underflow.  One side is computed directly and the
other is its complement log(1 - e^side) from logdomain.log1mexp.

The split has three branches.  Near the mean, for s >= 20 and |x - s| <=
min(s/2, 8 sqrt s), Temme's uniform expansion gives the smaller tail in
O(1) work at every s (_temme), summing only the coefficients that its bin
of (s, eta), from a table built at import, needs.  Elsewhere the classical
recipe: the lower series for x < s + 1, the upper continued fraction
(modified Lentz) otherwise.  Both take about sqrt s steps near the mean,
which is why the expansion takes over there.  measures._log_segment takes
the scaled gammas gamma(s, x) x^(-s) e^x and Gamma(s, x) x^(-s) e^x
(_log_lower_scaled, _log_upper_scaled) without the prefactor: the series'
sum and the fraction themselves, or log p or log q less it in the band
(and, for the upper one, below s + 1).
The series' and the fraction's prefactor x^s e^{-x} / Gamma(s+1) is
evaluated via a Stirling-residual form around x = s so that the result
keeps ~1e-15 absolute accuracy even for s ~ 1000, where naive use of lgamma
loses five digits to cancellation.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .logdomain import log1mexp

# Series and fraction terms stop at one unit of double precision; a smaller
# tolerance can never be met where the continued fraction's factors round
# to 1 +- ulp, and the loop then runs into _MAX_ITER.
_SERIES_EPS = sys.float_info.epsilon
_MAX_ITER = 200000
_FPMIN = 1e-300
# Bernoulli-number coefficients of the Stirling asymptotic series for ln Gamma.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)
# 2 t^3 (1/3 + t^2/5 + ... + t^18/21) of _log1pmx, highest power first
_ATANH_TAIL = tuple(1.0 / (2 * j + 3) for j in reversed(range(10)))
# Taylor coefficients in eta of Temme's c_k(eta), k = 0..10, lowest power
# first: the doubles nearest the exact rationals of the recurrence
# c_0 = 1/mu - 1/eta, c_k = c_{k-1}'/eta + (-1)^k g_k / mu (DLMF 8.12),
# mu(eta) reverted from eta^2/2 = mu - log(1 + mu), g_k the Stirling
# coefficients of Gamma*.  Row lengths and the cut are derived in _temme.
_TEMME_C = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11,
        2.4361948020667415e-11, -5.0276692801141755e-12,
        1.1004392031956135e-13, 3.371763262400985e-13, -1.392388722418162e-13,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11,
        -1.0091543710600413e-09, 4.162792991842583e-10, -8.56390702649298e-11,
        6.067215101604758e-14, 7.1624989648114856e-12, -2.933186643771437e-12,
        5.996696365683689e-13,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07,
        -2.0477098421990866e-10, -1.409252991086752e-08, 6.228974084922022e-09,
        -1.3670488396617114e-09, 9.428356159014678e-13, 1.2872252400089318e-10,
        -5.5645956134363323e-11, 1.197593554636698e-11,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06,
        1.4230900732435883e-06, -2.7861080291528143e-11,
        -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12,
        2.0620131815488797e-09, -9.460496661855133e-10, 2.1541049775774907e-10,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08,
        3.4463580499464896e-09, -2.3024517174528067e-13,
        -3.9409233028046403e-10,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07,
        -1.8447187191171344e-07, 4.8240967037894184e-08,
        -1.7989466721743514e-14, -6.306194500013523e-09,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09,
        3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07,
        2.338630673826657e-13, -8.828600746330484e-08, 4.7435958880408125e-08,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731,
        -1.2741009095484485e-07, 2.7744451511563645e-05,
        -1.8263488805711332e-05, 5.7876949497350525e-06, 4.93875893393627e-10,
        -1.0595367014026043e-06, 6.166714376110408e-07,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547,
        -0.00012783517679769218, 4.629953263691304e-05, 4.557909867922708e-09,
        -1.0595271125805195e-05, 6.783342904865167e-06,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636,
        9.9324041226423e-07, -0.0005087450129309319, 0.00042735056665392886,
    ),
)
# _temme stops once s^-(k+1) falls below this
_TEMME_CUT = 1e-16
# a trimmed row's dropped terms, times 0.62 s^-k, stay below this (_temme)
_TEMME_TRIM = 2e-19
# |eta| at mu = -1/2, the largest on the region |mu| <= 1/2, rounded up
_TEMME_ETA_MAX = 0.6216
# _TEMME_BINS[i][j] serves s in [2^(i+4), 2^(i+5)) and |eta| in [2^(f-1),
# 2^f), f = j - _TEMME_ETA_BINS, the exponents math.frexp returns; the last
# s bin is open above (s >= 2^40), the first eta bin open below
_TEMME_S_BINS = 37
_TEMME_ETA_BINS = 24


def _temme_bins() -> tuple[tuple[tuple[tuple[float, ...], ...], ...], ...]:
    """The rows of _TEMME_C that each (s, |eta|) bin needs, highest power first.

    Bin (i, j) serves s >= s_min = max(20, 2^(i+4)) and |eta| <= eta_max =
    min(_TEMME_ETA_MAX, 2^(j - _TEMME_ETA_BINS)).  It holds the rows that
    _temme's loop reaches at s_min, each with its top terms dropped while
    0.62 s_min^-k sum |c_kj| eta_max^j over the dropped ones stays at most
    _TEMME_TRIM.
    """
    edges = [
        min(_TEMME_ETA_MAX, 2.0 ** (j - _TEMME_ETA_BINS))
        for j in range(_TEMME_ETA_BINS + 1)
    ]
    powers = [[e**j for j in range(len(_TEMME_C[0]))] for e in edges]
    # per row and edge: 0, then sum |c_kj| eta_max^j over its top 1, 2, ... terms
    tails = [
        [
            list(accumulate([abs(c) * p for c, p in zip(row, pw)][::-1], initial=0.0))
            for pw in powers
        ]
        for row in _TEMME_C
    ]
    # each row's heads, highest power first, by the number of terms kept
    heads = [[row[:kept][::-1] for kept in range(len(row) + 1)] for row in _TEMME_C]
    bins = []
    for i in range(_TEMME_S_BINS):
        s_min = max(20.0, 2.0 ** (i + 4))
        allowed = []
        spow = 1.0
        for _ in _TEMME_C:
            allowed.append(_TEMME_TRIM / (0.62 * spow))
            spow /= s_min
            if spow < _TEMME_CUT:
                break
        rows = list(zip(heads, tails, allowed))
        bins.append(tuple([
            tuple([
                head[len(head) - bisect_right(tail[j], cap)] for head, tail, cap in rows
            ])
            for j in range(len(edges))
        ]))
    return tuple(bins)


_TEMME_BINS = _temme_bins()


@dataclass(frozen=True)
class RegularizedGamma:
    """Log-magnitudes of the regularized incomplete gamma pair at (s, x).

    exp(log_p) + exp(log_q) = 1 to within rounding: whichever side the
    algorithm computes directly, the other is its log-domain complement.
    """

    log_p: float
    log_q: float


def _log1pmx(d: float) -> float:
    """log(1 + d) - d without cancellation for small d.

    Below |d| = 0.2 by the atanh series: with t = d / (2 + d), log(1 + d) =
    2 atanh t, and 2t - d = -d t, so log1pmx(d) = -d t + 2t^3 sum_j
    t^(2j) / (2j + 3).  There |t| <= 1/9, and the ten terms kept leave a
    remainder below 1e-20 relative; the value is within 2 eps relative.
    """
    if abs(d) >= 0.2:
        return math.log1p(d) - d
    t = d / (2.0 + d)
    t2 = t * t
    tail = 0.0
    for coeff in _ATANH_TAIL:
        tail = tail * t2 + coeff
    return 2.0 * t * t2 * tail - d * t


def _stirling_residual(s: float) -> float:
    """lgamma(s) - [(s - 1/2) ln s - s + ln(2 pi)/2], valid for s >= 20."""
    total = 0.0
    spow = s
    s2 = s * s
    for coeff in _STIRLING_COEFFS:
        total += coeff / spow
        spow *= s2
    return total


def _has_stirling_prefactor(s: float, x: float) -> bool:
    """Whether _log_prefactor takes its Stirling form, s >= 20 and |x/s - 1| <= 1/2."""
    return s >= 20.0 and abs((x - s) / s) <= 0.5


def _log_prefactor(s: float, x: float) -> float:
    """log(x^s e^{-x} / Gamma(s+1)), accurate near x = s for large s."""
    if _has_stirling_prefactor(s, x):
        d = (x - s) / s
        return (
            s * _log1pmx(d)
            - 0.5 * math.log(2.0 * math.pi * s)
            - _stirling_residual(s)
        )
    return s * math.log(x) - x - math.lgamma(s + 1.0)


def _log_scale(s: float, x: float) -> float:
    """log(x^s e^{-x} / Gamma(s)): log p or log q less its scaled gamma."""
    return _log_prefactor(s, x) + math.log(s)


def _in_temme_band(s: float, x: float) -> bool:
    """Whether (s, x) lies in _temme's region, s >= 20 and |x - s| <= min(s/2, 8 sqrt s)."""
    return s >= 20.0 and abs(x - s) <= min(0.5 * s, 8.0 * math.sqrt(s))


def _lower_sum(s: float, x: float) -> float:
    """1 + x/(s+1) + x^2/((s+1)(s+2)) + ..., the lower series; requires x < s + 1."""
    total = 1.0
    term = 1.0
    denom = s
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term <= _SERIES_EPS * total:
            break
    else:
        raise ArithmeticError(f"lower gamma series stalled at s={s}, x={x}")
    return total


def _lower_series(s: float, x: float) -> float:
    """log p(s, x) by the lower series; requires 0 < x < s + 1."""
    return _log_prefactor(s, x) + math.log(_lower_sum(s, x))


def _log_lower_scaled(s: float, x: float) -> float:
    """log(gamma(s, x) x^(-s) e^x), the mirror of _log_upper_scaled; needs x < s + 1.

    In _temme's band log p less _log_scale, within eps (10 (y^2 + 1) + 2
    log s) with reg_gamma's y; elsewhere the lower series' sum over s, with
    no prefactor formed (measures._log_segment derives both bounds).
    """
    if _in_temme_band(s, x):
        return _temme(s, x).log_p - _log_scale(s, x)
    return math.log(_lower_sum(s, x) / s)


def _log_upper_scaled(s: float, x: float) -> float:
    """log(Gamma(s, x) x^(-s) e^x), the mirror of _log_lower_scaled.

    The continued fraction from x = s + 1 on, outside _temme's band; in
    the band, or below s + 1, log q less _log_scale, which is within eps
    (10 (y^2 + 1) + 2 log s) where _log_prefactor takes its Stirling form
    and within about 3.5 eps (s |log x| + x + lgamma(s+1)) elsewhere.
    """
    if x < s + 1.0 or _in_temme_band(s, x):
        return reg_gamma(s, x).log_q - _log_scale(s, x)
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _SERIES_EPS:
            break
    else:
        raise ArithmeticError(f"upper gamma fraction stalled at s={s}, x={x}")
    return math.log(h)


def _temme(s: float, x: float) -> RegularizedGamma:
    """Temme's uniform expansion; for s >= 20 and |x - s| <= min(s/2, 8 sqrt s).

    With mu = x/s - 1, eta = sign(mu) sqrt(-2 log1pmx(mu)) and y = |eta|
    sqrt(s/2) = sqrt(-s log1pmx(mu)) (DLMF 8.12.3-8.12.4),

        q = erfc(eta sqrt(s/2))/2 + R,  p = erfc(-eta sqrt(s/2))/2 - R,
        R = e^(-y^2) / sqrt(2 pi s) sum_k c_k(eta) s^-k.

    p is computed directly below s and q from s on, the other side being
    the complement.  That is the smaller tail except between the median
    (near s - 1/3) and s, where p/q < p(s, s)/q(s, s), which falls with s
    from 1.126 at s = 20; so the complement's error grows by at most 1.13.

    Truncation.  On the region |mu| <= 1/2, so eta lies in [-0.6216,
    0.4349], and e^(-y^2) / sqrt(2 pi s) is at most 0.62 times the tail
    (its largest value, at s = 20 and mu = 1/2, by mpmath over the
    region), so an error d in the sum moves the tail by at most 0.62 d
    relative.  The sum drops three kinds of terms:
    - Each row of _TEMME_C is cut where the dropped Taylor terms of c_k,
      times 0.62 * 20^-k, stay below 1e-18 on that eta range: under
      1.1e-17 over the 11 rows.
    - For k <= 13, |c_k| <= 0.0091 there, so stopping once s^-(k+1) <
      _TEMME_CUT drops less than 0.62 * 0.0091 * 1e-16 (1 + 1/20 + ...) <
      1e-18; where the rows run out first (s^11 < 1e16, s < 29), the
      dropped c_11, c_12 and c_13 terms are at most 4.8e-18, 1.4e-18 and
      5e-20 at s = 20: under 6.3e-18.
    - Each call sums the rows of its bin (_temme_bins): s at least the
      bin's s_min and |eta| at most its eta_max, so the top terms a row
      leaves out weigh at most 0.62 s^-k sum_j |c_kj| |eta|^j <=
      _TEMME_TRIM = 2e-19: under 2.2e-18 over the 11 rows.
    The whole truncation is thus below 2e-17, under eps/10 of the tail.
    At s = 1001 and |eta| in [1/8, 1/4), where the lambda(1000) solve
    calls it, 56 of the 111 terms in the six rows in reach remain.
    """
    mu = (x - s) / s
    log1pmx = _log1pmx(mu)
    eta = math.copysign(math.sqrt(-2.0 * log1pmx), mu)
    rows = _TEMME_BINS[min(math.frexp(s)[1] - 5, _TEMME_S_BINS - 1)][
        max(math.frexp(eta)[1], -_TEMME_ETA_BINS) + _TEMME_ETA_BINS
    ]
    total = 0.0
    spow = 1.0
    for row in rows:
        c_k = 0.0
        for coeff in row:
            c_k = c_k * eta + coeff
        total += c_k * spow
        spow /= s
        if spow < _TEMME_CUT:
            break
    sl = s * log1pmx
    r = math.exp(sl) / math.sqrt(2.0 * math.pi * s) * total
    half_erfc = 0.5 * math.erfc(math.sqrt(-sl))
    if x < s:
        log_p = math.log(half_erfc - r)
        return RegularizedGamma(log_p, log1mexp(log_p))
    log_q = math.log(half_erfc + r)
    return RegularizedGamma(log1mexp(log_q), log_q)


def reg_gamma(s: float, x: float) -> RegularizedGamma:
    """Regularized incomplete gamma pair at shape s >= 1, argument x >= 0.

    Three branches: Temme's expansion (_temme) where s >= 20 and |x - s| <=
    min(s/2, 8 sqrt s), a test that is exact there as x - s is; else the
    lower series below x = s + 1 and the continued fraction from there on.
    The 8 sqrt s keeps y = sqrt(-s log1pmx(x/s - 1)) <= 7.1 (at s = 256,
    x = s/2; about 5.7 at large s): erfc of a y rounded by a few ulps
    carries about 2 y^2 eps, and a 30 sqrt s region missed the 2e-14 below
    at s = 10^4 + 1.

    Checked against mpmath with absolute error below 1e-13 on p and q for
    s up to 1001 and x up to 1e6, and with relative error below 2e-14 on
    log_p and log_q at s = 10^4 + 1 and 10^5 + 1 for x from s/2 to 2s.
    log_p is within 3 eps T, T = s|log x| + x + lgamma(s+1):
    - Series and fraction: to first order the prefactor s log x - x -
      lgamma(s+1) rounds by at most 2.5 eps T (log within an ulp, lgamma
      within 2), and the series or the fraction adds a few ulps of log_p.
      The largest error seen against mpmath, over some 30,000 points with
      s up to 10^4, is 2.0 eps T.
    - Temme: y^2 is within 5 eps relative (mu's rounding, doubled in
      log1pmx, log1pmx's 2 eps and the product s log1pmx), the log of the
      tail moves by at most (y^2 + 1) times that, and erfc, exp and the
      truncation add under 3 eps: the direct side's log is within 8 eps
      (y^2 + 1) (4.3 seen over 1,824 random points of the region with s
      up to 10^7).  As y^2 <= -s log1pmx(-1/2) < 0.2 s and s >= 20, that
      is below 2 eps s, and the complement scales it by at most 1.13 (see
      _temme).  T > 4.9 s there (x >= s/2 >= 10, lgamma(s+1) > 2.1 s), so
      log_p is within 0.5 eps T (0.07 eps T seen).
    log_q carries no such bound where it is the complement of log_p (below
    x = s + 1 outside the Temme region, below s inside it), and scales its
    error by p/q (6 eps T at s = 1, x = 1.7).
    """
    if not (s >= 1.0) or math.isnan(x) or math.isinf(s):
        raise ValueError(f"reg_gamma needs s >= 1, got s={s}")
    if not (x >= 0.0) or math.isinf(x):
        raise ValueError(f"reg_gamma needs finite x >= 0, got x={x}")
    if x == 0.0:
        return RegularizedGamma(float("-inf"), 0.0)
    if _in_temme_band(s, x):
        return _temme(s, x)
    if x < s + 1.0:
        log_p = _lower_series(s, x)
        return RegularizedGamma(log_p, log1mexp(log_p))
    log_q = _log_scale(s, x) + _log_upper_scaled(s, x)
    return RegularizedGamma(log1mexp(log_q), log_q)

