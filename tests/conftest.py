import math
from collections import deque

import pytest

from bhdual.klattice import MukaiClass, mukai_pairing
from bhdual.series import milnor_orlik, spectrum


def _phi_at_one(n):
    """Phi_n(1): 0 for n = 1, p for a prime power n = p^k, 1 otherwise."""
    if n == 1:
        return 0
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else 1


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
