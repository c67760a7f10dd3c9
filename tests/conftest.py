import math
from collections import Counter, defaultdict, deque
from functools import cache

import pytest

from bhdual.dynkin import extend, extension_edges, t_graph
from bhdual.exactalg import IntPolynomial, divide_by_binomial, euler_totient
from bhdual.fixtures import CASE_TAGS
from bhdual.klattice import MukaiClass
from bhdual.series import milnor_orlik


def _phi_at_one(n):
    """Phi_n(1): 0 for n = 1, p for a prime power n = p^k, 1 otherwise."""
    if n == 1:
        return 0
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else 1


def long_division(p, d):
    """The exact quotient p / d in Z[t] by schoolbook long division; raises
    ArithmeticError when d does not divide p over the integers."""
    rem, divisor = list(p.coefficients), d.coefficients
    quotient = [0] * max(len(rem) - len(divisor) + 1, 0)
    for i in reversed(range(len(quotient))):
        c, r = divmod(rem[i + len(divisor) - 1], divisor[-1])
        if r:
            raise ArithmeticError(f"{p} not divisible by {d}")
        quotient[i] = c
        for j, y in enumerate(divisor):
            rem[i + j] -= c * y
    if any(rem):
        raise ArithmeticError(f"{p} not divisible by {d}")
    return IntPolynomial(quotient)


@cache
def cyclotomic(n):
    """Phi_n, densely: t^n - 1 long-divided by Phi_d for every proper divisor d
    of n.  The tests' reference; the package itself never forms Phi_n."""
    p = IntPolynomial.one_minus_t_n(n) * -1
    for d in range(1, n):
        if n % d == 0:
            p = long_division(p, cyclotomic(d))
    return p


def spectrum(rw):
    """k -> multiplicity of the spectral number k/d: the nonzero coefficients
    of S(T) = prod (T^q_i - T^d)/(1 - T^q_i), by k.  The tests' oracle for
    the monodromy, independent of Milnor and Orlik's divisor formula: the
    list holds the whole numerator, so S is a polynomial iff it vanishes
    above sum(d - 2 q_i)."""
    q, d = rw.q, rw.d
    if any(d - qi <= 0 for qi in q):
        raise ValueError(f"degenerate weights {rw}")
    s = [1] + [0] * sum(d - qi for qi in q)
    for qi in q:
        divide_by_binomial(s, d - qi, -1)
        divide_by_binomial(s, qi, 1)
    top = sum(d - 2 * qi for qi in q)
    if top < 0 or any(s[top + 1:]):
        raise ValueError(f"Milnor algebra series not polynomial for {rw}")
    if min(s) < 0:
        raise ValueError(f"negative graded dimension for {rw}")
    return {k + sum(q): m for k, m in enumerate(s) if m}


def spectrum_factors(rw):
    """Phi-exponents of the monodromy by grouping the spectrum: a spectral
    number k/d is an eigenvalue of order n = d/gcd(k, d), and Phi_n's
    exponent is the multiplicity shared by the phi(n) residues k mod d of
    that order (ValueError when they do not share one)."""
    orders = defaultdict(Counter)
    for k, m in spectrum(rw).items():
        orders[rw.d // math.gcd(k, rw.d)][k % rw.d] += m
    factors = {}
    for n, residues in sorted(orders.items()):
        factors[n], *others = set(residues.values())
        if others or len(residues) != euler_totient(n):
            raise ValueError(f"eigenvalue multiplicities not Galois-stable for {rw}")
    return factors


def _spectral_invariants(rw):
    """Signature (positive, zero, negative) and determinant of the Milnor
    lattice of a weighted homogeneous singularity, read from its spectrum
    (Steenbrink 1977): a spectral number k/d counts as zero when d | k, as
    negative when floor(k/d) is odd, and as positive otherwise; the
    determinant is (-1)^mu * prod Phi_n(1)^(e_n) over the monodromy."""
    sp = spectrum(rw)
    mu = sum(sp.values())
    zero = sum(m for k, m in sp.items() if k % rw.d == 0)
    negative = sum(m for k, m in sp.items() if (k // rw.d) % 2)
    exponents = milnor_orlik(rw).factors
    det = (-1) ** mu * math.prod(_phi_at_one(n) ** e for n, e in exponents.items())
    return (mu - zero - negative, zero, negative), det


@pytest.fixture
def spectral_invariants():
    return _spectral_invariants


def _reachable(start, neighbors):
    """The nodes a breadth-first search from ``start`` reaches, where
    ``neighbors(node)`` lists the nodes adjacent to ``node``."""
    seen = {start}
    queue = deque([start])
    while queue:
        for other in neighbors(queue.popleft()):
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


@pytest.fixture
def reachable():
    return _reachable


def mukai_pairing(v, w, conf):
    """The negative Euler pairing D.D' - r*s' - r'*s of two classes over one
    configuration, curve pair by curve pair from ``conf.intersection``;
    raises ValueError when either names a curve the configuration lacks.
    The tests' reference for klattice.gram_matrix, which the package uses
    instead."""
    for label, _ in (*v.divisor, *w.divisor):
        if label not in conf.labels:
            raise ValueError(label)
    dd = sum(a * b * conf.intersection(c, d) for c, a in v.divisor for d, b in w.divisor)
    return dd - v.rank * w.degree - w.rank * v.degree


def rule_diagram(row, reading, case):
    """The row's rule diagram under one position reading and one case
    convention: the diagram a calibration candidate stands for, which
    dynkin.calibrate judges by its edge map without building it."""
    return extend(t_graph(row.dolgachev), CASE_TAGS[row.case_tag], extension_edges(row, reading, case))


def _reflect(x, root, conf):
    """Reflection along a root: x + <x, root> * root."""
    c = mukai_pairing(x, root, conf)
    divisor = dict(x.divisor)
    for label, m in root.divisor:
        divisor[label] = divisor.get(label, 0) + c * m
    return MukaiClass(
        x.rank + c * root.rank,
        tuple(sorted((label, m) for label, m in divisor.items() if m)),
        x.degree + c * root.degree,
    )


@pytest.fixture
def reflect():
    return _reflect
