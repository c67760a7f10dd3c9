"""Exact integer polynomial and matrix arithmetic.

Everything in this module is exact: polynomials are dense lists of Python
integers, rational functions are quotients of binomials 1 - t^n kept as their
exponents and only expanded as power series, and matrix kernels are fraction-free,
with products on rows packed into one integer each (slot width bounded from
the matrix).  Bareiss elimination is the one elimination kernel: it gives
determinants and, on Sylvester blocks, the degree of a polynomial gcd.
Degrees in this project stay small, so dense representations and arbitrary
precision are the right trade-off.
"""
from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from itertools import chain
from typing import NamedTuple


class Frozen:
    """Base of the value types: __init__ sets their ``__slots__``, read-only after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


# ---------------------------------------------------------------------------
# polynomial text: the one notation of every polynomial the package writes
# ---------------------------------------------------------------------------

def monomial(names, exponents) -> str:
    """The monomial with these exponents on these names: x for x^1, no factor
    for x^0, x^e otherwise (a negative e as u^-1), and "" for the monomial 1."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e)


def signed_sum(terms) -> str:
    """(monomial, nonzero coefficient) terms, in order, as one signed sum:
    c*m, with a coefficient of +-1 dropped unless m is 1, and a negative term
    subtracted; "0" when there are no terms."""
    text = ""
    for mono, c in terms:
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        text += (" - " if c < 0 else " + ") + body
    if not text:
        return "0"
    return ("-" if text.startswith(" - ") else "") + text[3:]


# ---------------------------------------------------------------------------
# IntPolynomial
# ---------------------------------------------------------------------------

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPolynomial(Frozen):
    """Dense integer polynomial; ``coefficients[k]`` is the coefficient of t^k.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    (highest-index) coefficient is nonzero.
    """

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients=()):
        object.__setattr__(self, "coefficients", _trim(coefficients))

    def __eq__(self, other):
        return type(other) is IntPolynomial and other.coefficients == self.coefficients

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> int:
        if not self.coefficients:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coefficients)
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    def __str__(self) -> str:
        return signed_sum((monomial("t", (k,)), c) for k, c in reversed(list(enumerate(self.coefficients))) if c)


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------

class RationalFunction(NamedTuple):
    """prod (1 - t^a) over the exponents a of ``numerator``, divided by
    prod (1 - t^b) over the exponents b of ``denominator``: two tuples of
    positive binomial exponents, kept as given."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def series_coefficients(self, k_max: int) -> list[int]:
        """Taylor coefficients at t=0 up to degree k_max ([] when k_max < 0):
        the series 1, divided by each denominator binomial and multiplied by
        each numerator binomial with one stride step apiece."""
        s = [int(k == 0) for k in range(k_max + 1)]
        for b in self.denominator:
            divide_by_binomial(s, b, 1)
        for a in self.numerator:
            divide_by_binomial(s, a, -1)
        return s


# ---------------------------------------------------------------------------
# Cyclotomic factorizations
# ---------------------------------------------------------------------------

def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _divisors(m: int) -> list[int]:
    """The divisors of m >= 1, by trial division up to sqrt(m): each n | m
    with n * n <= m brings its cofactor m // n."""
    divisors = []
    for n in range(1, math.isqrt(m) + 1):
        if m % n == 0:
            divisors += (n, m // n) if n * n != m else (n,)
    return divisors


def euler_totient(n: int) -> int:
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


class CyclotomicFactorization(NamedTuple):
    """unit * prod(Phi_n^multiplicity) * remainder."""

    factors: dict[int, int]
    unit: int
    remainder: IntPolynomial

    @property
    def is_cyclotomic(self) -> bool:
        return self.remainder == IntPolynomial.one()

    @property
    def degree(self) -> int:
        return sum(euler_totient(n) * m for n, m in self.factors.items()) + self.remainder.degree

    def reconstruct(self) -> IntPolynomial:
        """The product, expanded by the stride step of ``factor_cyclotomic``.

        prod Phi_n^(e_n) = (-1)^(e_1) prod (1 - t^m)^(a_m), where a_m = sum of
        mu(n/m) e_n over the n divisible by m inverts ``cyclotomic_exponents``;
        mod t^(D+1), D = sum phi(n) e_n, each a_m < 0 is an exact power-series
        division, as the product is a polynomial of degree D.
        """
        binomials: dict[int, int] = defaultdict(int)
        for n, e in self.factors.items():
            terms = [(n, e)]  # (n/d, mu(d) e) over the squarefree d | n
            for q in _prime_divisors(n):
                terms += [(m // q, -c) for m, c in terms]
            for m, c in terms:
                binomials[m] += c
        s = [0] * (sum(euler_totient(n) * e for n, e in self.factors.items()) + 1)
        s[0] = -self.unit if self.factors.get(1, 0) % 2 else self.unit
        for m, a in binomials.items():
            divide_by_binomial(s, m, -a)
        return IntPolynomial(s) if self.is_cyclotomic else IntPolynomial(s) * self.remainder

    def lcm_of_orders(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    def __str__(self) -> str:
        parts = [
            f"Φ{n}^{m}" if m > 1 else f"Φ{n}"
            for n, m in sorted(self.factors.items())
        ]
        body = "·".join(parts) if parts else "1"
        if not self.is_cyclotomic:
            body = f"{body}·({self.remainder})"
        return body if self.unit == 1 else f"-{body}"


@lru_cache(maxsize=None)
def cyclotomic_index_bound(degree: int) -> int:
    """max{n : phi(n) <= degree}, the largest index of a cyclotomic factor of
    a polynomial of this degree (0 when there is none).

    Every such n is a product of prime powers q^k with q - 1 <= degree, so
    the search builds n prime by prime while tracking phi(n).
    """
    primes = [q for q in range(2, degree + 2) if all(q % r for r in range(2, math.isqrt(q) + 1))]
    best = 0

    def extend(start: int, n: int, phi: int) -> None:
        nonlocal best
        best = max(best, n)
        for i in range(start, len(primes)):
            q = primes[i]
            n_q, phi_q = n * q, phi * (q - 1)
            if phi_q > degree:
                break
            while phi_q <= degree:
                extend(i + 1, n_q, phi_q)
                n_q, phi_q = n_q * q, phi_q * q

    if degree >= 1:
        extend(0, 1, 1)
    return best


def cyclotomic_exponents(pairs) -> dict[int, int]:
    """Cyclotomic exponents of prod (1 - t^m)^a over the pairs (m, a).

    Since 1 - t^m = -prod_{n | m} Phi_n, the product is +-prod Phi_n^(e_n)
    with e_n the sum of a over the m divisible by n; nonzero e_n only, by n.
    """
    exponents: dict[int, int] = defaultdict(int)
    for m, a in pairs:
        for n in _divisors(m):
            exponents[n] += a
    return {n: e for n, e in sorted(exponents.items()) if e}


def divide_by_binomial(s: list[int], m: int, a: int) -> None:
    """s <- s / (1 - t^m)^a mod t^len(s), in place, for the power series with
    coefficient list s: one stride prefix sum per power; a < 0 multiplies."""
    n = len(s)
    for _ in range(a):
        for i in range(m, n):
            s[i] += s[i - m]
    for _ in range(-a):
        for i in range(n - 1, m - 1, -1):
            s[i] -= s[i - m]


def factor_cyclotomic(p: IntPolynomial) -> CyclotomicFactorization:
    """p = unit * prod Phi_n^(e_n) exactly, or, when p is no such product,
    CyclotomicFactorization({}, unit, unit * p): all or nothing.

    With p(0) = +-1, p/p(0) = prod (1 - t^m)^(a_m) mod t^(N+1) fixes a_1..a_N,
    peeled off one m at a time; N = cyclotomic_index_bound(deg p) bounds every
    index, so p is cyclotomic iff every e_n >= 0 and sum m*a_m = deg p (both
    sides then have degree deg p <= N and agree mod t^(N+1)).  A cyclotomic
    product has sum |a_m| <= 2 deg p, which stops the peel early otherwise.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = 1 if p.leading > 0 else -1
    degree, c0 = p.degree, p.coefficients[0]
    if c0 in (1, -1):
        bound = cyclotomic_index_bound(degree)
        s = [c * c0 for c in p.coefficients] + [0] * (bound - degree)
        pairs, budget = [], 2 * degree
        for m in range(1, bound + 1):
            a = -s[m]
            if not a:
                continue
            budget -= abs(a)
            if budget < 0:
                break
            pairs.append((m, a))
            divide_by_binomial(s, m, a)
        else:
            exponents = cyclotomic_exponents(pairs)
            if all(e > 0 for e in exponents.values()) and sum(m * a for m, a in pairs) == degree:
                return CyclotomicFactorization(exponents, unit, IntPolynomial.one())
    return CyclotomicFactorization({}, unit, p * unit)


def square_root_spectrum(factors: dict[int, int]) -> dict[int, int]:
    """Cyclotomic exponents n -> e_n of the characteristic polynomial of
    sigma^2, given those of sigma.

    A primitive n-th root of unity squares to a primitive n-th (n odd),
    (n/2)-th (n = 2 mod 4, bijectively) or (n/2)-th (n = 0 mod 4, two-to-one)
    root, which gives the multiplicity bookkeeping below.
    """
    out: dict[int, int] = {}
    for n, m in factors.items():
        target = n if n % 2 else n // 2
        out[target] = out.get(target, 0) + (2 * m if n % 4 == 0 else m)
    return out


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------

class IntMatrix(Frozen):
    """Square matrix of ``int`` entries, stored as given (TypeError otherwise)."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries):
        rows = tuple(map(tuple, entries))
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise TypeError("matrix entries must be of type int")
        object.__setattr__(self, "entries", rows)

    def __eq__(self, other):
        return type(other) is IntMatrix and other.entries == self.entries

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def row_sum_bound(self) -> int:
        """rho = max(1, largest absolute row sum): it bounds every entry and is
        submultiplicative, so entries of a product are at most the product of rho."""
        return max([1, *(sum(map(abs, row)) for row in self.entries)])

    def times_packed(self, packed: list[int]) -> list[int]:
        """Packed rows of M * B from packed rows of B: one small-int times big-int
        multiply-add per nonzero entry of M; bignum code runs the column loop."""
        return [sum(a * packed[k] for k, a in enumerate(row) if a) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        n = self.dim
        return IntMatrix([[self.entries[j][i] for j in range(n)] for i in range(n)])

    def is_symmetric(self) -> bool:
        return self.entries == tuple(zip(*self.entries))


def det_bareiss(matrix: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = matrix.dim
    if n == 0:
        return 1
    a = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_degree(p: IntPolynomial, q: IntPolynomial) -> int:
    """deg gcd(p, q) over Q, by principal subresultant coefficients.

    For p, q of degrees m, n the gcd has degree the least k whose k-th
    principal subresultant coefficient is nonzero: the determinant of the
    leading (m+n-2k)-square block of the k-th Sylvester matrix, whose rows
    are n-k shifts of p over m-k shifts of q, coefficients from the top down.
    The loop returns by k = min(m, n): that block is the |m-n| shifts of the
    lower-degree polynomial, triangular with its leading coefficient on the
    diagonal (the empty block, determinant 1, when m = n).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("gcd_degree of the zero polynomial")
    m, n = p.degree, q.degree
    top_p, top_q = p.coefficients[::-1], q.coefficients[::-1]
    for k in range(min(m, n) + 1):
        size = m + n - 2 * k
        rows = [(0,) * j + top_p for j in range(n - k)] + [(0,) * j + top_q for j in range(m - k)]
        if det_bareiss(IntMatrix([(row + (0,) * size)[:size] for row in rows])):
            return k


def _slot_bits(bound: int) -> int:
    """Slot width for packed rows of entries at most ``bound`` in absolute
    value: every such entry satisfies |e| < 2^(bits-1)."""
    return bound.bit_length() + 1


def matrix_of(operator) -> IntMatrix:
    """The matrix of ``operator`` (``dim``, ``row_sum_bound`` and
    ``times_packed``, as IntMatrix has them), whose ``row_sum_bound`` bounds
    every entry: the operator applied to the packed identity, each slot read
    back as a signed entry.  Adding ``half`` to every slot makes each one a
    plain base-2^bits digit."""
    n = operator.dim
    bits = _slot_bits(operator.row_sum_bound)
    half = 1 << (bits - 1)
    offset = sum(half << bits * j for j in range(n))
    rows = [row + offset for row in operator.times_packed([1 << bits * i for i in range(n)])]
    return IntMatrix([[(row >> bits * j & 2 * half - 1) - half for j in range(n)] for row in rows])


def _newton(matrix, count: int) -> list[int]:
    """c_0 ... c_count of ``char_poly``, from p_1 ... p_count at the width of rho^count."""
    n = matrix.dim
    bits = _slot_bits(matrix.row_sum_bound ** count)
    half = 1 << (bits - 1)
    offset = sum(half << bits * i for i in range(n))
    coeffs, sums = [1], []  # c_0, c_1, ... (from t^n down) and p_1, p_2, ...
    work = [1 << bits * i for i in range(n)]
    for k in range(1, count + 1):
        work = matrix.times_packed(work)
        digits = (((row + offset) >> bits * i) & (2 * half - 1) for i, row in enumerate(work))
        sums.append(sum(digits) - n * half)
        total = sum(map(int.__mul__, coeffs, reversed(sums)))
        if total % k:
            raise ArithmeticError(f"Newton sum {total} not divisible by {k}")
        coeffs.append(-total // k)
    return coeffs


def char_poly(matrix) -> IntPolynomial:
    """det(t*I - M) from the power sums p_k = tr(M^k), on packed rows.

    M is anything with ``dim``, ``row_sum_bound`` (rho, at least M's largest
    absolute row sum) and ``times_packed`` (the packed rows of M B from those
    of B), as IntMatrix and ``coxeter.Reflections`` have them.  Newton's
    identities give the coefficient c_k of t^(n-k) from c_0 = 1: k c_k =
    -sum_(j<k) c_j p_(k-j), an exact division over the integers, so the
    result is monic of degree n = ``matrix.dim``.  The n powers M^k are
    packed, one ``times_packed`` each, and their entries are at most rho^k,
    so rho^n sets the slot width.  Packing is Z-linear, so ``times_packed``
    may pass through rows whose entries leave their slots (the reflections of
    tau do): only the rows it returns are read.  Adding ``half`` to every
    slot makes each one a plain base-2^bits digit, so the diagonal entry of
    row i is read off by one shift and mask.
    """
    return IntPolynomial(reversed(_newton(matrix, matrix.dim)))


def palindromic_char_poly(operator) -> IntPolynomial:
    """``char_poly`` of an M whose characteristic polynomial is a palindrome,
    c_k = c_(n-k), which is not checked (``coxeter.coxeter_element`` proves
    it for tau): c_0 ... c_(n//2) from the first n//2 powers of M, at the
    width of rho^(n//2), and the rest mirrored."""
    n = operator.dim
    head = _newton(operator, n // 2)
    return IntPolynomial(head + head[: (n + 1) // 2][::-1])


def annihilates(p: IntPolynomial, matrix) -> bool:
    """Whether p(M) = 0, by Horner's rule on packed rows: R <- M R + c I from
    the leading coefficient down, for M as in ``char_poly``.  Every R is a
    polynomial in M with entries at most sum |c| * rho^deg p, which sets the
    slot width, so p(M) = 0 iff every packed row is 0; rows inside
    ``times_packed`` may leave their slots, as in ``char_poly``."""
    bits = _slot_bits(sum(map(abs, p.coefficients)) * matrix.row_sum_bound ** max(p.degree, 0))
    work = [0] * matrix.dim
    for c in reversed(p.coefficients):
        work = [row + (c << bits * i) for i, row in enumerate(matrix.times_packed(work))]
    return not any(work)
