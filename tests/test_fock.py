"""Fock space core: generator actions, symmetrizer factorization, operators."""

from fractions import Fraction
from itertools import product

import pytest

from bfock.coxeter import enumerate_group
from bfock.errors import TruncationError
from bfock.fock import (
    FockVector,
    OpSpec,
    SpaceSpec,
    _sweep,
    annihilate,
    apply_operator,
    apply_symmetrizer,
    basis_words,
    create,
    gauge,
    inner,
    matrix_of_level_map,
    r_operator,
    symmetrizer,
    type_b,
    vacuum_expectation,
)
from bfock.scalars import (
    ALPHA,
    ONE,
    Q,
    Poly,
    ZERO,
    frac_identity,
    is_semidefinite,
    mat_kron,
    mat_mul,
    mat_to_int,
    norm_at_most,
    qint,
)
from oracles import act_generator, act_sigma, act_word, free_annihilator_matrix, reduced_words

F = Fraction

D1 = SpaceSpec.diagonal("+", truncation=6)
D1_MINUS = SpaceSpec.diagonal("-", truncation=6)
D2 = SpaceSpec.diagonal("+-", truncation=6)

UNIT = (F(1),)
ID1 = ((F(1),),)


def alpha_q_weight(record, n):
    return Poly.monomial(1, ea=record.l1, eq=record.l2)


def qt_weight(record, n):
    """t^C(n,2) P_{0,q/t}: unsigned elements only, as q^l2 t^(C(n,2) - l2)."""
    if record.l1:
        return ZERO
    return Poly.monomial(1, eq=record.l2, et=n * (n - 1) // 2 - record.l2)


def sigma_sum_oracle(n, space, weight=alpha_q_weight):
    """Independent symmetrizer oracle: sum weighted actions word by word."""
    words = basis_words(space.d, n)
    cols = []
    for word in words:
        total = FockVector(space)
        for record in enumerate_group(n):
            w = weight(record, n)
            if not w.is_zero:
                total = total + w * act_word(record.word, FockVector.basis(space, word))
        cols.append(total)
    out = [[ZERO] * len(words) for _ in words]
    index = {word: k for k, word in enumerate(words)}
    for j, col in enumerate(cols):
        for word, coeff in col.coeffs.items():
            out[index[word]][j] = coeff
    return out


def test_repr_and_a_foreign_comparison():
    assert repr(FockVector(D2)) == "FockVector(0)"
    assert repr(FockVector(D2, {(): ONE, (0, 1): ONE + ALPHA})) == "FockVector((1)|Ω⟩ + (a + 1)|12⟩)"
    assert FockVector.vacuum(D2) != "Ω"  # __eq__ returns NotImplemented, so Python compares identities


def test_generator_swap_and_sign():
    v = FockVector.basis(D2, (0, 1))
    assert act_generator(1, v) == FockVector.basis(D2, (1, 0))
    assert act_generator(0, v) == v  # first letter has signature +1
    w = FockVector.basis(D2, (1, 0))
    assert act_generator(0, w) == (-1) * w
    assert act_generator(2, v) == v  # a word too short for pi_2 is fixed


def test_generator_involution():
    for word in basis_words(2, 3):
        v = FockVector.basis(D2, word)
        for i in range(3):
            assert act_generator(i, act_generator(i, v)) == v


def test_act_sigma_matches_single_generator():
    records = {record.window: record for record in enumerate_group(2)}
    v = FockVector(D2, {(0, 1): ONE, (1, 1): Q})
    identity = records[(1, 2)]
    assert act_sigma(identity, v) == v
    pi1 = records[(2, 1)]
    assert act_sigma(pi1, v) == act_generator(1, v)


def test_act_sigma_reduced_word_independence():
    # any two reduced words of the longest element act identically
    longest = max(enumerate_group(2), key=lambda record: len(record.word))
    words = list(reduced_words(longest.window))
    assert len(words) >= 2
    for base_word in basis_words(2, 2):
        v = FockVector.basis(D2, base_word)
        images = {tuple(sorted(act_word(w, v).coeffs.items())) for w in words}
        assert len(images) == 1


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: SpaceSpec(0, (), 3), ValueError, "must be positive"),
        (lambda: SpaceSpec(1, ((1,),), 0), ValueError, "must be positive"),
        (lambda: SpaceSpec(2, ((0, 1), (-1, 0)), 3), ValueError, "must be symmetric"),
        (lambda: SpaceSpec(2, ((1, 1), (1, 1)), 3), ValueError, "square to the identity"),
        (lambda: SpaceSpec.diagonal("+x", 3), ValueError, "bad signature character 'x'"),
        (lambda: FockVector(D2, {(0,) * 7: ONE}), TruncationError, "length 7 exceeds truncation 6"),
        (lambda: FockVector(D2, {(0, 2): ONE}), ValueError, "letter out of range"),
        (lambda: FockVector.vacuum(D1) + FockVector.vacuum(D2), ValueError, "different spaces"),
        (lambda: act_generator(6, FockVector.vacuum(D2)), ValueError, "generator index 6 out of range"),
        (lambda: r_operator(0, D2), ValueError, "level 0 out of range"),
        (lambda: r_operator(7, D2), ValueError, "level 7 out of range"),
        (lambda: OpSpec("gauge", t=((F(0), F(1)), (F(0), F(0)))), ValueError, "must be symmetric"),
    ],
    ids=[
        "zero-dimension", "zero-truncation", "antisymmetric-involution", "involution-squares-to-2J",
        "signature-character", "word-too-long", "letter-out-of-range", "different-spaces",
        "generator-index", "r-level-zero", "r-level-past-truncation", "antisymmetric-gauge",
    ],
)
def test_spaces_vectors_and_operators_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_symmetrizer_level_one():
    assert symmetrizer(1, D1) == [[ONE + ALPHA]]
    expected = [[ONE + ALPHA, ZERO], [ZERO, ONE - ALPHA]]
    assert symmetrizer(1, D2) == expected


def test_symmetrizer_level_two_d1():
    # oracle: direct sum over the 8 elements of Sigma(2) with BFS (l1, l2)
    oracle = sigma_sum_oracle(2, D1)
    assert symmetrizer(2, D1) == oracle
    expected = (ONE + ALPHA) * (ONE + ALPHA * Q) * (ONE + Q)
    assert symmetrizer(2, D1)[0][0] == expected


def test_symmetrizer_zero_level():
    assert symmetrizer(0, D2) == [[ONE]]


SWAP = SpaceSpec(2, ((F(0), F(1)), (F(1), F(0))), truncation=4)
REFLECTION = SpaceSpec(2, ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))), truncation=4)
ORACLE_CASES = [("+-", D2, n) for n in range(1, 5)] + [
    (name, space, n)
    for name, space in (("swap", SWAP), ("reflection", REFLECTION), ("+--", SpaceSpec.diagonal("+--", 3)))
    for n in range(1, 4)
]


@pytest.mark.parametrize(
    "space,n",
    [pytest.param(space, n, id=f"{name}-n{n}") for name, space, n in ORACLE_CASES],
)
def test_symmetrizer_matches_word_replay(space, n):
    assert symmetrizer(n, space) == sigma_sum_oracle(n, space)


PLUS_PLUS = SpaceSpec.diagonal("++", truncation=4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qt_flavor_matches_word_replay(n):
    assert symmetrizer(n, PLUS_PLUS, "qt") == sigma_sum_oracle(n, PLUS_PLUS, qt_weight)


def level_by_level(v, level_matrix):
    """Apply each level's matrix to v's coefficients at that level."""
    out = FockVector(v.space)
    for n in sorted(v.levels()):
        words = basis_words(v.space.d, n)
        matrix = level_matrix(n)
        out = out + FockVector(v.space, {
            image: Poly.sum(matrix[i][j] * v.coeff(word) for j, word in enumerate(words))
            for i, image in enumerate(words)
        })
    return out


@pytest.mark.parametrize(
    "flavor,space,level_matrix",
    [
        ("alpha-q", D2, lambda n: symmetrizer(n, D2)),
        ("alpha-q", REFLECTION, lambda n: symmetrizer(n, REFLECTION)),
        ("qt", PLUS_PLUS, lambda n: symmetrizer(n, PLUS_PLUS, "qt")),
    ],
    ids=["alpha-q-+-", "alpha-q-reflection", "qt-++"],
)
def test_apply_symmetrizer_equals_the_level_matrices(flavor, space, level_matrix):
    coeffs = {(): ONE + Q}
    for n in (1, 2, 3):
        for m, word in enumerate(basis_words(space.d, n)):
            coeffs[word] = Poly({(0, m, 0): F(m + 1), (1, 0, n): F(-1, n)})
    v = FockVector(space, coeffs)
    assert apply_symmetrizer(v, flavor) == level_by_level(v, level_matrix)


def slot_separating_vector(space, n):
    """Letters are the bits of each slot's index, so no two slots carry the same
    column of letters; the all-ones word shows a sign on every slot."""
    words = [tuple((k >> bit) & 1 for k in range(n)) for bit in range((n - 1).bit_length())]
    words.append((1,) * n)
    return FockVector(space, {word: Poly.const(m + 2) for m, word in enumerate(words)})


@pytest.mark.parametrize("space", [D2, REFLECTION], ids=["+-", "reflection"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_act_sigma_matches_word_replay(space, n):
    v = slot_separating_vector(space, n)
    for record in enumerate_group(n):
        assert act_sigma(record, v) == act_word(record.word, v)


# (space, top level): the diagonal spaces, then non-diagonal J, where R(n)'s
# generator replay and P(n)'s slot table read J two different ways
FACTORIZATION_SPACES = [(D1, 4), (D2, 4), (SWAP, 4), (REFLECTION, 4), (SpaceSpec.diagonal("+--", 3), 3)]


@pytest.mark.parametrize(
    "space,n",
    [
        pytest.param(space, n, id=f"{n}-space{k}")
        for k, (space, top) in enumerate(FACTORIZATION_SPACES)
        for n in range(1, top + 1)
    ],
)
def test_factorization(space, n):
    lhs = symmetrizer(n, space)
    prev = symmetrizer(n - 1, space)
    rhs = mat_mul(mat_kron(prev, [[ONE] * 1]) if space.d == 1 else mat_kron(prev, _eye(space.d)), r_operator(n, space))
    assert lhs == rhs


def _eye(d):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


@pytest.mark.parametrize(
    "space,n",
    [
        pytest.param(space, n, id=f"{n}-{name}")
        for name, space in (("+", D1), ("+-", D2), ("+--", SpaceSpec.diagonal("+--", 4)),
                            ("reflection", REFLECTION))
        for n in range(1, 5)
    ],
)
def test_r_operator_matches_the_act_word_replay(space, n):
    """R(n) as displayed, each generator word applied to whole vectors by
    ``act_word`` and summed: the oracle of r_operator's word-level replay."""
    flip = [*range(n - 1, 0, -1), 0]
    words = [(Poly.monomial(1, eq=k), [*range(n - 1, n - k - 1, -1)]) for k in range(n)]
    words += [(Poly.monomial(1, ea=1, eq=n - 1 + k), [*flip, *range(1, k + 1)]) for k in range(n)]

    def replay(v):
        out = FockVector(space)
        for weight, gens in words:
            out = out + act_word(gens, v) * weight
        return out

    assert r_operator(n, space) == matrix_of_level_map(replay, space, n, n)


def test_r_operator_level_one():
    assert r_operator(1, D1) == [[ONE + ALPHA]]
    assert r_operator(1, D1_MINUS) == [[ONE - ALPHA]]


def test_inner_products():
    omega = FockVector.vacuum(D1)
    for flavor in ("alpha-q", "qt"):
        assert inner(omega, omega, flavor) == ONE
    x = FockVector.basis(D1, (0,))
    assert inner(x, x, "alpha-q") == ONE + ALPHA
    xx = FockVector.basis(D1, (0, 0))
    assert inner(xx, xx, "alpha-q") == (ONE + ALPHA) * (ONE + ALPHA * Q) * (ONE + Q)
    # P(n) at a = q = 0 is the identity: the word-orthonormal pairing
    for v in (x, xx):
        assert inner(v, v, "alpha-q").subs(alpha=0, q=0) == ONE


def test_annihilate_and_gauge_kill_vacuum():
    omega = FockVector.vacuum(D2)
    assert apply_operator(annihilate((F(1), F(0))), omega).is_zero
    assert apply_operator(gauge(frac_identity(2)), omega).is_zero


def test_annihilator_on_squared_word():
    # b(x) x⊗x = (1+q)(1+aq) x for unit x with trivial involution
    v = FockVector.basis(D1, (0, 0))
    result = apply_operator(annihilate(UNIT), v)
    assert result == ((ONE + Q) * (ONE + ALPHA * Q)) * FockVector.basis(D1, (0,))


def test_gauge_explicit_level_two():
    # q·(x2⊗Tx1) + x1⊗Tx2 + aq·(x2⊗T x̄1) + aq²·(x1⊗T x̄2) with T = identity
    v = FockVector.basis(D2, (0, 1))
    result = apply_operator(gauge(frac_identity(2)), v)
    jx1 = ONE  # x̄ of letter 0 is +letter 0
    expected = (
        Q * FockVector.basis(D2, (1, 0))
        + FockVector.basis(D2, (0, 1))
        + (ALPHA * Q) * FockVector.basis(D2, (1, 0))
        + (-(ALPHA * Q**2)) * FockVector.basis(D2, (0, 1))
    )
    assert result == expected


TWO_SPACES = pytest.mark.parametrize("space", [D2, REFLECTION], ids=["+-", "reflection"])


@TWO_SPACES
def test_annihilator_factorization(space):
    # matrix of annihilate(x) at level n equals free right annihilator · R;
    # the second x reaches the free annihilator's zero entries
    for x in ((F(2, 3), F(-1, 5)), (F(2, 3), F(0))):
        for n in (1, 2, 3, 4):
            lhs = matrix_of_level_map(
                lambda v: apply_operator(annihilate(x), v), space, n, n - 1
            )
            rhs = mat_mul(free_annihilator_matrix(x, n, space), r_operator(n, space))
            assert lhs == rhs


def test_adjointness_of_creation():
    # <b*(x) u, v>_{a,q} = <u, b(x) v>_{a,q} on all basis pairs up to level 3
    x = (F(1, 2), F(3, 1))
    for n in range(0, 3):
        for u_word in basis_words(2, n):
            for v_word in basis_words(2, n + 1):
                u = FockVector.basis(D2, u_word)
                v = FockVector.basis(D2, v_word)
                lhs = inner(apply_operator(create(x), u), v)
                rhs = inner(u, apply_operator(annihilate(x), v))
                assert lhs == rhs


def test_gauge_symmetry():
    t = ((F(1), F(2)), (F(2), F(-1)))
    op = gauge(t)
    for n in (1, 2, 3):
        for u_word in basis_words(2, n):
            for v_word in basis_words(2, n):
                u = FockVector.basis(D2, u_word)
                v = FockVector.basis(D2, v_word)
                assert inner(apply_operator(op, u), v) == inner(u, apply_operator(op, v))


@TWO_SPACES
def test_gauge_symmetry_matrix_form_level_four(space):
    # <gauge u, v>_{a,q} = <u, gauge v>_{a,q} on a level is Aᵀ G = G A
    from bfock.scalars import mat_transpose

    t = ((F(1), F(1, 3)), (F(1, 3), F(-2)))
    op = gauge(t)
    for n in (1, 2, 3, 4):
        gram = symmetrizer(n, space)
        a = matrix_of_level_map(lambda v: apply_operator(op, v), space, n, n)
        assert mat_mul(mat_transpose(a), gram) == mat_mul(gram, a)


@TWO_SPACES
def test_adjointness_matrix_form_up_to_level_four(space):
    # <b*(x) u, v>_{a,q} = <u, b(x) v>_{a,q} on levels is Cᵀ G_(n+1) = G_n A
    from bfock.scalars import mat_transpose

    x = (F(2, 5), F(-1, 2))
    for n in (0, 1, 2, 3):
        c = matrix_of_level_map(
            lambda v: apply_operator(create(x), v), space, n, n + 1
        )
        a = matrix_of_level_map(
            lambda v: apply_operator(annihilate(x), v), space, n + 1, n
        )
        lhs = mat_mul(mat_transpose(c), symmetrizer(n + 1, space))
        rhs = mat_mul(symmetrizer(n, space), a)
        assert lhs == rhs


def test_vacuum_expectation_examples():
    t = ID1
    assert vacuum_expectation([type_b(UNIT, t)], D1) == ZERO
    assert vacuum_expectation([type_b(UNIT, t)] * 2, D1) == ONE + ALPHA
    assert vacuum_expectation([type_b(UNIT, t)] * 3, D1) == (ONE + ALPHA) ** 2


@pytest.mark.parametrize(
    "op,match",
    [
        (create(UNIT), "^create: vector has 1 coordinates, the space has d = 2$"),
        (annihilate(UNIT), "^annihilate: vector has 1 coordinates, the space has d = 2$"),
        (annihilate((F(1), F(0), F(1))), "^annihilate: vector has 3 coordinates, the space has d = 2$"),
        (gauge(ID1), "^gauge: coefficient operator is not 2x2$"),
        (type_b(UNIT, frac_identity(2)), "^b: vector has 1 coordinates, the space has d = 2$"),
        (type_b((F(1), F(1)), ID1), "^b: coefficient operator is not 2x2$"),
    ],
    ids=["create", "annihilate-short", "annihilate-long", "gauge", "b-vector", "b-matrix"],
)
def test_operator_dimensions_must_match_the_space(op, match):
    v = FockVector.basis(D2, (1, 1))
    with pytest.raises(ValueError, match=match):
        apply_operator(op, v)
    with pytest.raises(ValueError, match=match):
        vacuum_expectation([op, op], D2)


@pytest.mark.parametrize(
    "op,missing",
    [
        (OpSpec("create"), "vector x"),
        (OpSpec("annihilate"), "vector x"),
        (OpSpec("gauge"), "coefficient operator T"),
        (OpSpec("b", x=(F(1), F(0))), "coefficient operator T"),
        (OpSpec("qt-gauge"), "coefficient operator T"),
    ],
    ids=["create", "annihilate", "gauge", "b-without-t", "qt-gauge"],
)
def test_operator_without_its_vector_or_matrix_is_rejected(op, missing):
    v = FockVector.basis(D2, (1, 1))
    with pytest.raises(ValueError, match=f"^{op.kind}: the {missing} is missing$"):
        apply_operator(op, v)


@pytest.mark.parametrize("kind", ["shift", "qt-b"])
def test_apply_operator_rejects_an_unknown_kind(kind):
    v = FockVector.basis(D1, (0,))
    with pytest.raises(ValueError, match="unknown operator kind"):
        apply_operator(OpSpec(kind, x=UNIT, t=ID1), v)


POINTS = [(F(a, 5), F(q, 10)) for a in (2, -2) for q in (3, -3)]


def test_exact_norm_bound_is_attained_with_zero_slack():
    # b = (1 + |a||q|^(n-1)) [n]_|q| is certified with zero slack at all 20
    # cases; shrunk by 1e-12 it fails wherever it is attained: at n = 1
    # (R = I + aJ, norm 1 + |a|) and at q = 3/10 for every n.
    shrink = 1 - F(1, 10**12)
    refuted = set()
    for n in range(1, 6):
        r = r_operator(n, D2)
        for alpha, q in POINTS:
            bound = (1 + abs(alpha) * abs(q) ** (n - 1)) * qint(n).evaluate(0, abs(q))
            assert norm_at_most(r, bound, alpha, q)
            if not norm_at_most(r, bound * shrink, alpha, q):
                refuted.add((n, alpha, q))
    assert refuted == {(n, a, q) for n in range(1, 6) for a, q in POINTS if n == 1 or q > 0}


def deformed_norm_at_most(m, gram, c2, alpha, q):
    """Whether ||M|| <= c in the inner product <u, v> = u^T G v at (alpha, q),
    exactly: c^2 G - M^T G M >= 0, times the positive denominators of c^2, M and G."""
    g, _ = mat_to_int(gram, alpha, q)
    m, m_den = mat_to_int(m, alpha, q)
    size = range(len(m))
    gm = [[sum(g[i][k] * m[k][j] for k in size) for j in size] for i in size]
    return is_semidefinite([
        [c2.numerator * m_den**2 * g[i][j] - c2.denominator * sum(m[k][i] * gm[k][j] for k in size)
         for j in size]
        for i in size
    ])


@pytest.mark.parametrize(
    "alpha,q",
    [pytest.param(F(2, 5), F(3, 10), id="0.4-0.3"), pytest.param(F(-2, 5), F(-3, 10), id="-0.4--0.3")],
)
def test_gauge_norm_bound(alpha, q):
    # ||gauge(T)|| <= c = (1 + |a|) max(1, 1/(1-q)) ||T|| in the deformed inner
    # product of P(n), certified exactly; T is symmetric with eigenvalues
    # ±sqrt(5)/2, so c^2 is rational.  The norm is above c/2 in every case,
    # so the certificate refutes c/2.
    t = ((F(1), F(1, 2)), (F(1, 2), F(-1)))
    c2 = ((1 + abs(alpha)) * max(F(1), 1 / (1 - q))) ** 2 * F(5, 4)
    for n in (1, 2, 3):
        m = matrix_of_level_map(lambda v: apply_operator(gauge(t), v), D2, n, n)
        gram = symmetrizer(n, D2)
        assert deformed_norm_at_most(m, gram, c2, alpha, q), n
        assert not deformed_norm_at_most(m, gram, c2 / 4, alpha, q), n


def test_the_walk_yields_product_order_and_a_zero_subtree_per_word():
    """Mixed alphabets with a trivial step that spells the prefix; the step
    ends the prefix b with None, so each of the 1 * 3 words below it yields
    leaf(None), and the other words spell themselves in product order."""
    alphabets = (("a", "b"), ("c",), ("d", "e", "f"))
    steps = []

    def step(j, letter, state):
        steps.append((j, state + letter))
        return None if state + letter == "b" else state + letter

    leaves = list(_sweep(alphabets, "", step, lambda state: "zero" if state is None else state))
    words = ["".join(word) for word in product(*alphabets)]
    assert leaves == [word if word[0] == "a" else "zero" for word in words]
    # a shared prefix steps once
    assert steps == [(1, "a"), (2, "ac"), (3, "acd"), (3, "ace"), (3, "acf"), (1, "b")]
    assert list(_sweep((), "root", step, str.upper)) == ["ROOT"]
    assert list(_sweep(alphabets, None, step, lambda state: state)) == [None] * 6
