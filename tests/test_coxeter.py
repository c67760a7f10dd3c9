import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bhdual import coxeter
from bhdual.coxeter import (
    coxeter_element,
    lattice_invariants,
    seifert_identity,
)
from bhdual.exactalg import (
    CyclotomicFactorization,
    IntMatrix,
    IntPolynomial,
    char_poly,
    det_bareiss,
    matrix_of,
)
from bhdual.fixtures import load_rows, row_by_name
from bhdual.klattice import row_gram
from bhdual.series import transpose_monodromy, transpose_reduced_weights

A2 = IntMatrix([[-2, 1], [1, -2]])


def reflection(g, i):
    """Literal matrix of s_i = I + e_i G[i, :]: e_j -> e_j + G[j][i] e_i."""
    n = g.dim
    return IntMatrix(
        [[int(r == j) + (g[i, j] if r == i else 0) for j in range(n)] for r in range(n)]
    )


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    """Dense reference product, independent of the packed-row kernels."""
    columns = list(zip(*b.entries))
    return IntMatrix([[sum(map(int.__mul__, row, col)) for col in columns] for row in a.entries])


def matrix_power(m, k):
    """Reference m^k by repeated squaring of dense products."""
    result = identity(m.dim)
    while k:
        if k & 1:
            result = matmul(result, m)
        m = matmul(m, m)
        k >>= 1
    return result


def reflection_product(g):
    tau = identity(g.dim)
    for i in range(g.dim):
        tau = matmul(tau, reflection(g, i))
    return tau


def char_values(p, mu):
    """p(t) at t = 0, 1, ..., mu."""
    return [sum(c * t**k for k, c in enumerate(p.coefficients)) for t in range(mu + 1)]


def seifert_char_values(gram):
    """(-1)^mu det(tU + U^T) at t = 0, 1, ..., mu, for U the upper triangle of
    G with -1 on the diagonal: since tau = -U^-1 U^T and det U = (-1)^mu,
    these are the values of det(tI - tau), found without tau."""
    mu = gram.dim
    u = [[gram[i, j] if j > i else -(i == j) for j in range(mu)] for i in range(mu)]
    return [
        (-1) ** mu * det_bareiss(IntMatrix([[t * u[i][j] + u[j][i] for j in range(mu)] for i in range(mu)]))
        for t in range(mu + 1)
    ]


def a_sum(*ranks):
    """Gram of the orthogonal sum of A_r root lattices (-2 diagonal, 1 on edges)."""
    n = sum(ranks)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for r in ranks:
        for k in range(start, start + r):
            rows[k][k] = -2
            if k + 1 < start + r:
                rows[k][k + 1] = rows[k + 1][k] = 1
        start += r
    return IntMatrix(rows)


class TestReflection:
    def test_rank_one(self):
        g = IntMatrix([[-2]])
        assert reflection(g, 0) == IntMatrix([[-1]])
        assert coxeter_element(g).matrix == reflection_product(g)

    def test_a2_images(self):
        s = reflection(A2, 0)
        # e_1 -> -e_1, e_2 -> e_2 + e_1
        assert s == IntMatrix([[-1, 1], [0, 1]])
        assert coxeter_element(A2).matrix == reflection_product(A2)

    def test_orthogonal_fixed(self):
        g = IntMatrix([[-2, 0], [0, -2]])
        s = reflection(g, 0)
        assert s == IntMatrix([[-1, 0], [0, 1]])
        assert reflection_product(g) == IntMatrix([[-1, 0], [0, -1]])
        assert coxeter_element(g).matrix == reflection_product(g)

    small_grams = st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )

    @given(small_grams)
    @settings(max_examples=40, deadline=None)
    def test_involution_and_isometry(self, rows):
        n = len(rows)
        sym = [[rows[i][j] if i < j else rows[j][i] if j < i else -2 for j in range(n)] for i in range(n)]
        g = IntMatrix(sym)
        for i in range(n):
            s = reflection(g, i)
            assert matmul(s, s) == identity(n)
            assert reference_preserves_form(s, g)
        assert coxeter_element(g).matrix == reflection_product(g)


def symmetric_root_gram(n, upper):
    """The n x n Gram with -2 on the diagonal and ``upper`` above it, row by row."""
    rows = [[-2] * n for _ in range(n)]
    values = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(values)
    return IntMatrix(rows)


# dimension 1-12, off-diagonal -3..3; zeros are drawn often, so some
# diagrams fall apart into several components
root_grams = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3)),
        min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2,
    ).map(lambda upper: symmetric_root_gram(n, upper))
)

#: tau = [[8, -3], [3, -1]]: each reflection has rho 4, whose slot holds
#: entries below 8 only, so reading tau needs the whole product 16
WIDE_TAU_GRAM = IntMatrix([[-2, 3], [3, -2]])

#: tau = [[35, -6], [6, -1]] under the product bound 49: 35 >= 2^5, so its
#: slot needs a sign bit beyond the six bits of 49
TOP_BIT_TAU_GRAM = IntMatrix([[-2, 6], [6, -2]])


def dense_seifert(tau, gram):
    """U tau == -U^T by dense products on nested lists, for U the upper
    triangle of G with -1 on the diagonal; independent of seifert_identity."""
    n = len(gram)
    u = [[gram[i][j] if j > i else -(i == j) for j in range(n)] for i in range(n)]
    product = [[sum(u[i][k] * tau[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return product == [[-u[j][i] for j in range(n)] for i in range(n)]


#: entries of at least 2^70 in absolute value, wider than any slot a bound
#: from small Grams would size
huge = st.integers(2**70, 2**80) | st.integers(-(2**80), -(2**70))


@st.composite
def seifert_cases(draw):
    """(kind, G, tau) for a root Gram G of dimension 1-10 with off-diagonal
    entries -3..3: tau is G's true Coxeter element, that tau with one to three
    distinct entries changed, or an arbitrary integer matrix."""
    n = draw(st.integers(1, 10))
    size = n * (n - 1) // 2
    gram = symmetric_root_gram(n, draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)))
    kind = draw(st.sampled_from(("true", "perturbed", "arbitrary")))
    if kind == "arbitrary":
        entries = st.integers(-5, 5) | huge
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        rows = [list(r) for r in coxeter_element(gram).matrix.entries]
        if kind == "perturbed":
            change = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3).filter(bool) | huge)
            for i, j, delta in draw(st.lists(change, min_size=1, max_size=3, unique_by=lambda c: c[:2])):
                rows[i][j] += delta
    return kind, gram, IntMatrix(rows)


def dense_radical_order(tau, factorization):
    """The lcm of the cyclotomic indices when the radical prod Phi_n vanishes
    at tau, by Horner's rule on dense products; None otherwise."""
    if not factorization.is_cyclotomic:
        return None
    radical = CyclotomicFactorization(dict.fromkeys(factorization.factors, 1), 1, IntPolynomial.one())
    n = tau.dim
    value = IntMatrix([[0] * n] * n)
    for c in reversed(radical.reconstruct().coefficients):
        product = matmul(tau, value).entries
        value = IntMatrix([[e + c * (i == j) for j, e in enumerate(row)] for i, row in enumerate(product)])
    return factorization.lcm_of_orders() if value == IntMatrix([[0] * n] * n) else None


class TestReflectionsAgainstDenseProduct:
    @given(root_grams)
    @example(WIDE_TAU_GRAM)
    @example(TOP_BIT_TAU_GRAM)
    @settings(max_examples=60, deadline=None)
    def test_coxeter_layer_matches_dense_tau(self, g):
        cox = coxeter_element(g)
        tau = reflection_product(g)
        assert cox.matrix == tau
        assert cox.char == char_poly(tau)
        assert char_values(cox.char, g.dim) == seifert_char_values(g)
        assert cox.order == dense_radical_order(tau, cox.factorization)
        assert seifert_identity(cox.matrix, g)

    def test_tau_read_needs_the_whole_product_bound(self):
        cox = coxeter_element(WIDE_TAU_GRAM)
        rho = [1 + sum(abs(a) for _, a in row) for row in cox.reflections.neighbours]
        assert rho == [4, 4] and cox.matrix == IntMatrix([[8, -3], [3, -1]])
        assert matrix_of(cox.reflections._replace(row_sum_bound=math.prod(rho))) == cox.matrix
        assert matrix_of(cox.reflections._replace(row_sum_bound=max(rho))) != cox.matrix


class TestCoxeterElement:
    def test_a2(self):
        cox = coxeter_element(A2)
        assert cox.char == IntPolynomial((1, 1, 1))
        assert cox.order == 3

    def test_rank_one(self):
        cox = coxeter_element(IntMatrix([[-2]]))
        assert cox.char == IntPolynomial((1, 1))
        assert cox.order == 2

    def test_fermat_k_lattice(self):
        gram = row_gram(row_by_name("E_20"))
        cox = coxeter_element(gram)
        assert cox.factorization.factors == {66: 1}
        assert cox.order == 66

    def test_order_is_not_capped(self):
        # A15+A8+A4+A6+A10: Coxeter numbers 16, 9, 5, 7, 11, lcm 55440
        cox = coxeter_element(a_sum(15, 8, 4, 6, 10))
        assert cox.factorization.lcm_of_orders() == 55440
        assert cox.order == 55440

    def test_affine_a1_has_infinite_order(self):
        # (t - 1)^2 is cyclotomic, but tau is a nontrivial unipotent
        cox = coxeter_element(IntMatrix([[-2, 2], [2, -2]]))
        assert cox.matrix == IntMatrix([[3, -2], [2, -1]])
        assert cox.factorization.factors == {1: 2}
        assert cox.order is None

    def test_requires_root_basis(self):
        with pytest.raises(ValueError, match="^all diagonal entries must be -2$"):
            coxeter_element(IntMatrix([[-2, 0], [0, -1]]))

    def test_all_rows_invariants(self):
        for row in load_rows():
            gram = row_gram(row)
            cox = coxeter_element(gram)
            assert seifert_identity(cox.matrix, gram), row.name
            assert reference_preserves_form(cox.matrix, gram), row.name
            assert det_bareiss(cox.matrix) == (-1) ** row.mu, row.name
            assert cox.factorization.is_cyclotomic, row.name
            assert cox.order == cox.factorization.lcm_of_orders(), row.name
            if det_bareiss(gram) != 0:
                c = cox.char.coefficients  # reciprocal up to sign
                assert c == c[::-1] or c == tuple(-x for x in c[::-1]), row.name

    def test_det_matches_char_constant(self):
        # Bareiss and the power-sum char_poly are independent kernels: det(tau) =
        # (-1)^mu char(0) on every row
        for row in load_rows():
            gram = row_gram(row)
            cox = coxeter_element(gram)
            assert det_bareiss(cox.matrix) == (-1) ** row.mu * cox.char.coefficients[0], row.name

    def test_char_poly_from_seifert_pencil(self):
        # agreement at mu + 1 points pins the degree-mu polynomial
        for row in load_rows():
            gram = row_gram(row)
            assert gram.dim == row.mu, row.name
            char = coxeter_element(gram).char
            assert char_values(char, row.mu) == seifert_char_values(gram), row.name

    def test_char_matches_monodromy_oracle_everywhere(self):
        for row in load_rows():
            gram = row_gram(row)
            cox = coxeter_element(gram)
            assert cox.factorization.factors == transpose_monodromy(row).factors, row.name


AFFINE_CONTROLS = {
    # name: (Gram, cyclotomic exponents of char, order)
    "D4~": (
        [[-2, 1, 1, 1, 1], [1, -2, 0, 0, 0], [1, 0, -2, 0, 0], [1, 0, 0, -2, 0], [1, 0, 0, 0, -2]],
        {1: 2, 2: 3},
        None,
    ),
    "triangle+1": ([[-2, 1, 1], [1, -2, 1], [1, 1, -2]], {1: 2, 2: 1}, None),
    "triangle-1": ([[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]], {2: 1, 4: 1}, 4),
}


def reference_order(cox):
    """tau^N = I with N the lcm of the factor indices, by dense powers."""
    if not cox.factorization.is_cyclotomic:
        return None
    n = cox.factorization.lcm_of_orders()
    return n if matrix_power(cox.matrix, n) == identity(cox.matrix.dim) else None


def reference_preserves_form(tau, gram):
    return matmul(matmul(tau.transpose(), gram), tau) == gram


class TestOrderAndFormControls:
    def test_order_matches_power_on_rows(self):
        for row in load_rows():
            gram = row_gram(row)
            cox = coxeter_element(gram)
            assert cox.order == reference_order(cox) == cox.factorization.lcm_of_orders(), row.name

    def test_order_tests_only_a_non_squarefree_char(self, monkeypatch):
        # a squarefree char is its own radical and annihilates tau by
        # Cayley-Hamilton, so only the other rows reach the radical test
        def no_test(p, matrix):
            raise LookupError("radical test")

        monkeypatch.setattr(coxeter, "annihilates", no_test)
        squarefree = set()
        for row in load_rows():
            cox = coxeter_element(row_gram(row))
            if set(cox.factorization.factors.values()) == {1}:
                squarefree.add(row.name)
                assert cox.order == cox.factorization.lcm_of_orders(), row.name
            else:
                with pytest.raises(LookupError, match="radical test"):
                    cox.order
        assert squarefree == {
            "E_18", "E_19", "E_20", "Z_17", "Z_19", "Q_17", "Q_18", "W_17", "W_18", "S_16", "S_17"
        }

    @pytest.mark.parametrize("name", sorted(AFFINE_CONTROLS))
    def test_order_on_affine_controls(self, name):
        # a cyclotomic char whose minimal polynomial is not squarefree has
        # infinite order, which the radical test must see
        rows, factors, order = AFFINE_CONTROLS[name]
        cox = coxeter_element(IntMatrix(rows))
        assert cox.factorization.factors == factors
        assert cox.order == reference_order(cox) == order

    def test_form_rejects_one_entry_changed(self):
        for row in load_rows():
            gram = row_gram(row)
            tau = coxeter_element(gram).matrix
            n = tau.dim
            for i in range(n):
                j = (7 * i + 3) % n
                for delta in (1, -1):
                    rows = [list(r) for r in tau.entries]
                    rows[i][j] += delta
                    bad = IntMatrix(rows)
                    assert not reference_preserves_form(bad, gram), (row.name, i, j, delta)
                    assert not seifert_identity(bad, gram), (row.name, i, j, delta)

    def test_seifert_rejects_every_one_entry_change(self):
        # U is invertible over the integers, so U tau = -U^T pins every entry
        for row in load_rows():
            gram = row_gram(row)
            tau = coxeter_element(gram).matrix
            for i in range(tau.dim):
                for j in range(tau.dim):
                    rows = [list(r) for r in tau.entries]
                    rows[i][j] += 1
                    assert not seifert_identity(IntMatrix(rows), gram), (row.name, i, j)

    def test_seifert_rejects_a_difference_packed_to_zero_in_a_narrow_slot(self):
        # rho(tau) > rho(U) on every row.  Changing row 0 of tau by (-2, +1)
        # makes row 0 of U tau + U^T read (2, -1, 0, ...), since U is upper
        # triangular with U[0][0] = -1: in slots of one bit that packs to 2 -
        # 2 = 0, so only slots as wide as the bound rho(U) rho(tau) see it
        for row in load_rows():
            gram = row_gram(row)
            tau = coxeter_element(gram).matrix
            rows = [list(r) for r in tau.entries]
            rows[0][0] -= 2
            rows[0][1] += 1
            bad = IntMatrix(rows)
            n = gram.dim
            u = IntMatrix([[gram[i, j] if j > i else -(i == j) for j in range(n)] for i in range(n)])
            difference = [[a + u[j, i] for j, a in enumerate(r)] for i, r in enumerate(matmul(u, bad).entries)]
            assert difference == [[2, -1] + [0] * (n - 2)] + [[0] * n] * (n - 1), row.name
            assert bad.row_sum_bound > u.row_sum_bound, row.name
            assert not seifert_identity(bad, gram), row.name

    def test_seifert_rejects_another_dimension(self):
        # a tau smaller or larger than G fails; neither raises
        gram = a_sum(3)
        for tau in (coxeter_element(a_sum(2)).matrix, coxeter_element(a_sum(4)).matrix):
            assert not seifert_identity(tau, gram), tau.dim
        assert seifert_identity(coxeter_element(gram).matrix, gram)

    def test_seifert_rejects_other_isometries(self):
        # I and tau^2 preserve the form, so only the Seifert identity tells
        # them from tau
        for row in load_rows():
            gram = row_gram(row)
            tau = coxeter_element(gram).matrix
            for other in (identity(tau.dim), matmul(tau, tau)):
                assert reference_preserves_form(other, gram), row.name
                assert not seifert_identity(other, gram), row.name

    @given(TestReflection.small_grams)
    @settings(max_examples=40, deadline=None)
    def test_seifert_matches_picard_lefschetz(self, rows):
        # tau = -U^-1 U^T for any root basis, checked densely as U tau == -U^T
        n = len(rows)
        g = IntMatrix(
            [[rows[i][j] if i < j else rows[j][i] if j < i else -2 for j in range(n)] for i in range(n)]
        )
        u = IntMatrix([[g[i, j] if j > i else -(i == j) for j in range(n)] for i in range(n)])
        tau = coxeter_element(g).matrix
        assert matmul(u, tau) == IntMatrix([[-u[j, i] for j in range(n)] for i in range(n)])
        assert seifert_identity(tau, g)
        assert char_values(coxeter_element(g).char, n) == seifert_char_values(g)

    @given(seifert_cases())
    @example(("true", A2, coxeter_element(A2).matrix))
    @example(("arbitrary", A2, IntMatrix([[2**70, 1], [-1, 0]])))
    @settings(max_examples=100, deadline=None)
    def test_seifert_matches_a_dense_oracle(self, case):
        # U is invertible, so the identity holds for the true tau alone: every
        # change fails it, small or too wide for any slot; the examples make
        # both verdicts occur
        kind, gram, tau = case
        holds = dense_seifert(tau.entries, gram.entries)
        assert seifert_identity(tau, gram) == holds
        if kind != "arbitrary":
            assert holds == (kind == "true")


class TestHalfPowerSums:
    @pytest.mark.parametrize(
        "gram",
        [symmetric_root_gram(n, [k % 5 - 2 for k in range(n * (n - 1) // 2)]) for n in range(13)]
        + [IntMatrix(AFFINE_CONTROLS[name][0]) for name in sorted(AFFINE_CONTROLS)],
        ids=[f"n={n}" for n in range(13)] + sorted(AFFINE_CONTROLS),
    )
    def test_tau_is_applied_once_and_for_half_the_power_sums(self, gram, monkeypatch):
        # char tau is a palindrome, so after the one read of tau's matrix only
        # the powers tau^1 ... tau^(n//2) are formed, not all n
        applied = []
        times_packed = coxeter.Reflections.times_packed

        def counting(self, packed):
            applied.append(len(packed))
            return times_packed(self, packed)

        monkeypatch.setattr(coxeter.Reflections, "times_packed", counting)
        cox = coxeter_element(gram)
        assert applied == [gram.dim] * (1 + gram.dim // 2)
        assert cox.char == char_poly(cox.matrix)


def hurwitz_move(rows, i):
    """(e_i, e_(i+1)) -> (e_(i+1), e_i + <e_i, e_(i+1)> e_(i+1)) on the Gram
    rows, in place: only rows and columns i and i + 1 change.  s_(s_b(a)) =
    s_b s_a s_b, so the product s_a' s_b' = s_a s_b and tau is kept as an
    operator."""
    g = rows[i][i + 1]
    for k, row in enumerate(rows):
        if k not in (i, i + 1):
            a, b = row[i], row[i + 1]
            row[i] = rows[i][k] = b
            row[i + 1] = rows[i + 1][k] = a + g * b
    rows[i][i + 1] = rows[i + 1][i] = -g


ROW_GRAMS = {row.name: row_gram(row) for row in load_rows()}


class TestBraidOrbit:
    @given(
        st.sampled_from(sorted(ROW_GRAMS)),
        st.integers(0, 2**16),
        st.lists(st.integers(0, 1), min_size=1, max_size=25),
    )
    @example("S_1,0", 24670, [0, 1, 0, 1, 1, 0, 0, 0])
    @example("W_17", 24868, [0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0])
    @settings(max_examples=400, deadline=None)
    def test_hurwitz_moves_keep_the_monodromy(self, name, start, moves):
        # moves on three consecutive basis vectors, which need not be joined
        # in the diagram; the examples reach entries of 55 and 2.5e17.
        # Braided Grams are Milnor lattices too, with entries far outside
        # -2..1, so they drive the slot widths of matrix_of, the char and the
        # order's radical test past anything the 20 rows reach
        gram = ROW_GRAMS[name]
        rows = [list(r) for r in gram.entries]
        for m in moves:
            hurwitz_move(rows, start % (gram.dim - 2) + m)
        braided = IntMatrix(rows)
        cox, before = coxeter_element(braided), coxeter_element(gram)
        assert cox.char == before.char
        assert cox.char.coefficients == cox.char.coefficients[::-1]
        assert cox.order == before.order
        assert seifert_identity(cox.matrix, braided)


class TestLatticeInvariants:
    def test_negative_definite_a2(self):
        assert lattice_invariants(A2) == (3, (0, 0, 2))

    def test_hyperbolic(self):
        det, signature = lattice_invariants(IntMatrix([[0, -1], [-1, 0]]))
        assert det == -1
        assert signature == (1, 0, 1)

    def test_degenerate(self):
        _, signature = lattice_invariants(IntMatrix([[0, 0], [0, -2]]))
        assert signature == (0, 1, 1)

    def test_fermat_k_lattice_regression(self):
        gram = row_gram(row_by_name("E_20"))
        det, signature = lattice_invariants(gram)
        assert signature == (2, 0, 18)
        assert det == 1

    def test_two_positive_eigenvalues_everywhere(self):
        for row in load_rows():
            gram = row_gram(row)
            _, signature = lattice_invariants(gram)
            assert signature == (2, 0, row.mu - 2), row.name

    def test_requires_symmetric(self):
        with pytest.raises(ValueError, match="^Gram matrix must be symmetric$"):
            lattice_invariants(IntMatrix([[0, 1], [2, 0]]))

    def test_spectrum_gives_signature_and_discriminant(self, spectral_invariants):
        for row in load_rows():
            gram = row_gram(row)
            det, signature = lattice_invariants(gram)
            expected = spectral_invariants(transpose_reduced_weights(row))
            assert (signature, det) == expected, row.name

    def test_spectrum_catches_a_sign_flip(self, spectral_invariants):
        # flipping a bridge edge is a sign change of the basis vectors on one
        # side, so no invariant can see it; a flip on a cycle changes the
        # lattice, and on every row some such flip moves the signature or
        # the determinant away from the spectrum's
        for row in load_rows():
            gram = row_gram(row)
            expected = spectral_invariants(transpose_reduced_weights(row))
            caught = False
            for i, j, bridge in _edges(gram):
                if caught and not bridge:
                    continue
                det, signature = lattice_invariants(_flip(gram, i, j))
                if bridge:
                    assert (signature, det) == expected, (row.name, i, j)
                else:
                    caught = (signature, det) != expected
            assert caught, row.name


def _flip(g, i, j):
    rows = [list(r) for r in g.entries]
    rows[i][j] = rows[j][i] = -g[i, j]
    return IntMatrix(rows)


def _edges(g):
    """(i, j, is_bridge) for the edges i < j of the diagram of g."""
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            if not g[i, j]:
                continue
            seen, frontier = {i}, [i]
            while frontier:
                a = frontier.pop()
                for b in range(n):
                    if g[a, b] and b != a and {a, b} != {i, j} and b not in seen:
                        seen.add(b)
                        frontier.append(b)
            yield i, j, j not in seen
