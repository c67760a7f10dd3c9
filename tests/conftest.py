import math
from collections import Counter, defaultdict, deque
from functools import cache
from itertools import product

import pytest
from hypothesis import strategies as st

from bhdual.curveconf import arm_label
from bhdual.dynkin import UPPER, CaseConvention, extend, t_graph
from bhdual.exactalg import IntPolynomial, divide_by_binomial, euler_totient
from bhdual.fixtures import CASE_TAGS
from bhdual.klattice import MukaiClass
from bhdual.quotres import SparsePoly
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


def one_minus_t(n):
    """1 - t^n, densely."""
    return IntPolynomial((1,) + (0,) * (n - 1) + (-1,))


def dense_series(numerator, denominator, k_max):
    """prod (1 - t^a) / prod (1 - t^b) over the exponent tuples, to degree
    k_max, as the package once expanded it: both products multiplied out,
    then divided term by term.  The tests' reference for
    RationalFunction.series_coefficients, which never forms either product."""
    num = math.prod(map(one_minus_t, numerator), start=IntPolynomial.one()).coefficients
    den = math.prod(map(one_minus_t, denominator), start=IntPolynomial.one()).coefficients
    out = []
    for k in range(k_max + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc)
    return out


@cache
def cyclotomic(n):
    """Phi_n, densely: t^n - 1 long-divided by Phi_d for every proper divisor d
    of n.  The tests' reference; the package itself never forms Phi_n."""
    p = one_minus_t(n) * -1
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


#: position readings: how (alpha, beta) could turn into an arm position
#: counted from the outer end of the arm; dynkin.extension_edges uses
#: outside-minus, the only one under which the K-lattice wiring of a2 and a3
#: is among the variants below
_POSITIONS = {
    "outside-minus": lambda alpha, beta: alpha - beta - 1,
    "outside-plus": lambda alpha, beta: alpha - beta + 1,
    "inside-minus": lambda alpha, beta: beta + 1,  # alpha - beta - 1 counted from the inner end
    "inside-plus": lambda alpha, beta: beta - 1,
}
READINGS = tuple(_POSITIONS)


def read_position(reading, alpha, beta):
    return _POSITIONS[reading](alpha, beta)


def _sign_variants(committed):
    """All sign vectors of the given length, committed one first."""
    yield committed
    for signs in product((-1, 1), repeat=len(committed)):
        if signs != committed:
            yield signs


def case_candidates(key):
    """Deterministic variant stream of CaseConventions for one case.

    The first variant is the K-lattice-derived wiring; later ones flip edge
    signs, swap which vertex carries the arm attachments (a = 3), or fall
    back to a literal chain wiring.  Adjacency beyond these named variants is
    not generated.
    """
    if key == "a2":
        for arm_bullet in (2, 1):
            for up, chain, arm in _sign_variants((-1, -1, 1)):
                yield CaseConvention(up, ((1, 2, chain),), arm_bullet, arm)
    elif key == "a2_r1":
        for up, chain, arm in _sign_variants((-1, -1, 1)):
            yield CaseConvention(up, ((1, 2, chain),), None, 1, ((2, 3, 2, arm),))
        for up, chain, arm in _sign_variants((-1, -1, 1)):
            yield CaseConvention(up, ((1, 2, chain),), 2, arm)
    elif key == "a3":
        # K-derived edge set: B1-B3, B2-B3, arms on B3
        for up, e13, e23, arm in _sign_variants((-1, -1, 1, 1)):
            yield CaseConvention(up, ((1, 3, e13), (2, 3, e23)), 3, arm)
        # literal chain: B1-B2-B3, arms on B3, then arms on B2
        for arm_bullet in (3, 2):
            for up, e12, e23, arm in _sign_variants((-1, -1, 1, 1)):
                yield CaseConvention(up, ((1, 2, e12), (2, 3, e23)), arm_bullet, arm)
    elif key == "a5":
        chain_edges = ((1, 2), (2, 3), (3, 4), (4, 5))
        for up, *chain, arm in _sign_variants((1, 1, 1, 1, 1, 1)):
            edges = tuple((i, j, s) for (i, j), s in zip(chain_edges, chain))
            yield CaseConvention(up, edges, None, 1, ((3, 3, 1, arm),))
        for up, *chain, arm in _sign_variants((1, 1, 1, 1, 1, 1)):
            edges = tuple((i, j, s) for (i, j), s in zip(chain_edges, chain))
            yield CaseConvention(up, edges, 3, arm)


def reading_edges(row, reading, case):
    """dynkin.extension_edges with the arm position of a rule-read
    attachment taken from one position reading."""
    edges = [("B1", UPPER, case.upper_sign)]
    edges += [(f"B{i}", f"B{j}", sign) for i, j, sign in case.bullet_edges]
    if case.arm_bullet is not None:
        for arm, (alpha, (_, beta)) in enumerate(zip(row.dolgachev, row.alpha_beta), start=1):
            if beta == alpha - 1:
                continue
            pos = read_position(reading, alpha, beta)
            edges.append((f"B{case.arm_bullet}", arm_label(arm, pos), case.arm_sign))
    edges += [(f"B{b}", arm_label(arm, pos), sign) for b, arm, pos, sign in case.fixed_slots]
    return edges


def rule_diagram(row, reading, case):
    """The row's rule diagram under one position reading and one case
    convention; under outside-minus and the committed case, the diagram
    dynkin.diagram_for_row builds."""
    return extend(t_graph(row.dolgachev), CASE_TAGS[row.case_tag], reading_edges(row, reading, case))


def chart(i: int, k: int) -> tuple[tuple[int, int], ...]:
    """Chart i of the resolution as its exponent map: the exponent pairs
    (exp_u, exp_v) of the monomials that X, Y and Z become."""
    if not 1 <= i <= k:
        raise ValueError(f"chart index {i} outside 1..{k}")
    return (i, i - 1), (k - i, k + 1 - i), (1, 1)


def chart_image(curve: SparsePoly, i: int, k: int) -> SparsePoly:
    """Image of the curve in chart i: each term goes to one monomial by the
    exponent map."""
    (xu, xv), (yu, yv), (zu, zv) = chart(i, k)
    return SparsePoly(
        ((ex * xu + ey * yu + ez * zu, ex * xv + ey * yv + ez * zv), coeff)
        for (ex, ey, ez), coeff in curve.terms
    )


def proper_transform_by_chart(curve, i, k):
    """quotres.proper_transform one chart at a time: the chart image as a
    SparsePoly, divided by its smallest monomial.  The tests' reference for
    the package, which reads each chart off the curve's lines."""
    image = chart_image(curve, i, k)
    if not image.terms:
        raise ValueError("curve image is zero in this chart")
    p = min(eu for (eu, ev), _ in image.terms)
    q = min(ev for (eu, ev), _ in image.terms)
    unit = SparsePoly(((eu - p, ev - q), c) for (eu, ev), c in image.terms)
    if unit.terms[0][0] != (0, 0):
        raise ValueError("unit factor vanishes at the chart origin")
    return (p, q), unit


def components_met_by_chart(curve, k):
    """quotres.exceptional_components_met from every chart's unit: E_i is met
    iff the unit is non-constant on {u_i = 0} or on {v_(i+1) = 0}."""
    if k < 2:
        return []
    met = set()
    for i in range(1, k + 1):
        _, unit = proper_transform_by_chart(curve, i, k)
        if i < k and set(unit.on_line(0)) - {0}:
            met.add(i)
        if i > 1 and set(unit.on_line(1)) - {0}:
            met.add(i - 1)
    return sorted(met)


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


# IntPolynomial.__str__, SparsePoly.__str__ and polyparse.render as they were
# written before they shared exactalg.monomial and exactalg.signed_sum,
# verbatim but for the receiver's name: the tests' reference for the two rules.

def int_polynomial_text(p: IntPolynomial) -> str:
    """IntPolynomial.__str__ as it was: terms from the highest degree down."""
    if not p.coefficients:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficients[k]
        if c == 0:
            continue
        term = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        body = term if (mag == 1 and k > 0) else (str(mag) if k == 0 else f"{mag}*{term}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def sparse_poly_text(poly: SparsePoly) -> str:
    """SparsePoly.__str__ as it was: u, v or X, Y, Z by arity, in term order."""
    if not poly.terms:
        return "0"
    names = "uv" if len(poly.terms[0][0]) == 2 else "XYZ"
    parts = []
    for exps, coeff in poly.terms:
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        if not body:
            parts.append(f"{coeff}")
        elif coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def render_text(f) -> str:
    """polyparse.render as it was, with its "1" for a monomial of no factor."""
    monomials = []
    for row in f.matrix.entries:
        factors = []
        for name, e in zip(f.variables, row):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        monomials.append("*".join(factors) if factors else "1")
    return " + ".join(monomials)


#: Kreuzer-Skarke types of invertible polynomials in three variables, as
#: exponent matrices in the exponents (a, b, c)
KREUZER_SKARKE = {
    "fermat": lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c)),
    "chain": lambda a, b, c: ((a, 1, 0), (0, b, 1), (0, 0, c)),
    "loop": lambda a, b, c: ((a, 1, 0), (0, b, 1), (1, 0, c)),
    "chain2+fermat": lambda a, b, c: ((a, 1, 0), (0, b, 0), (0, 0, c)),
    "loop2+fermat": lambda a, b, c: ((a, 1, 0), (1, b, 0), (0, 0, c)),
}


@st.composite
def kreuzer_skarke_matrices(draw, max_n=3, max_a=6):
    """An exponent matrix of Kreuzer-Skarke shape in n = 1..max_n variables,
    rows in a drawn order: column h heads one row with exponent 2..max_a,
    and points at no column or, with exponent 1, at one other column that no
    other head points at, which gives every set of disjoint chains and loops."""
    n = draw(st.integers(1, max_n))
    free = list(range(n))
    rows = []
    for h in range(n):
        row = [0] * n
        row[h] = draw(st.integers(2, max_a))
        t = draw(st.sampled_from([None, *(t for t in free if t != h)]))
        if t is not None:
            row[t] = 1
            free.remove(t)
        rows.append(tuple(row))
    return tuple(draw(st.permutations(rows)))


def kreuzer_skarke_shape(entries) -> bool:
    """The Kreuzer-Skarke rule restated as a pointer map: each row puts an
    exponent above 1 on its head and exponent 1 on at most one target, and
    nothing else; the heads are all the variables, and no variable is the
    target of two rows."""
    heads, targets = [], []
    for row in entries:
        head = [j for j, e in enumerate(row) if e > 1]
        target = [j for j, e in enumerate(row) if e == 1]
        if len(head) != 1 or len(target) > 1 or len(head) + len(target) != sum(e != 0 for e in row):
            return False
        heads += head
        targets += target
    return sorted(heads) == list(range(len(entries))) and len(set(targets)) == len(targets)
