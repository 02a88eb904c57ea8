"""Moment formulas: cumulants, the colored-partition identity, corollaries."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bfock import moments
from bfock.errors import ResourceLimitError
from bfock.fock import FockVector, OpSpec, SpaceSpec, apply_operator, type_b, vacuum_expectation
from bfock.moments import (
    MAX_VECTOR_N,
    MAX_WICK_N,
    MomentProblem,
    VerifyReport,
    _ARC_BITS,
    _arc_fields,
    _open_arc_steps,
    closed_chain_value,
    compare,
    corollary_free_alpha,
    corollary_gaussian,
    corollary_q_case,
    cumulant_block,
    eps_word_vector,
    eps_word_vectors,
    random_problem,
    vector_formula,
    vector_formulas,
    verify_moment_identity,
    verify_vector_identities,
    wick_moment,
)
from bfock.partitions import (
    EPS_ALPHABET,
    _open_blocks,
    arc_covers,
    enumerate_colored,
    enumerate_extended_eps,
    set_partitions,
)
from bfock.scalars import ALPHA, ONE, Q, Poly

F = Fraction

# three symmetric involutions on a plane: diagonal, swap, reflection
INVOLUTIONS = {
    "diagonal": ((F(1), F(0)), (F(0), F(-1))),
    "swap": ((F(0), F(1)), (F(1), F(0))),
    "reflection": ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))),
}


def involution_problem(seed, n, which):
    """A random instance on the named involution with every lambda nonzero."""
    space = SpaceSpec(2, INVOLUTIONS[which], truncation=max(n, 1))
    prob = random_problem(random.Random(seed), n, space)
    lams = tuple(lam or F(k + 1, 3) for k, lam in enumerate(prob.lams))
    return MomentProblem(xs=prob.xs, ts=prob.ts, lams=lams, space=space)


def unit_problem(n, lam=0, sign="+"):
    space = SpaceSpec.diagonal(sign, truncation=max(n, 1))
    return MomentProblem.build(
        xs=[(F(1),)] * n,
        ts=[((F(1),),)] * n,
        lams=[F(lam)] * n,
        space=space,
    )


def test_cumulant_singleton_and_pair():
    prob = unit_problem(3, lam=F(7, 3))
    assert cumulant_block((2,), (), prob) == Poly.const(F(7, 3))
    assert cumulant_block((1, 2), (1,), prob) == ONE


def test_cumulant_involution_insertions():
    plus = unit_problem(3)
    assert cumulant_block((1, 2, 3), (-1, 1), plus) == ONE
    minus = unit_problem(3, sign="-")
    assert cumulant_block((1, 2, 3), (-1, 1), minus) == Poly.const(-1)


def test_wick_small_cases():
    lam = F(5, 2)
    assert wick_moment(unit_problem(1, lam=lam)) == Poly.const(lam)
    assert wick_moment(unit_problem(2)) == ONE + ALPHA


def test_wick_free_specialization():
    # n=4, alpha=q=0: Jacobi moment m4 with beta=(0,1,1,..), gamma=(1,..) is 3
    value = wick_moment(unit_problem(4)).evaluate(0, 0)
    assert value == 3
    operator_value = vacuum_expectation(
        unit_problem(4).operators(), unit_problem(4).space
    ).evaluate(0, 0)
    assert operator_value == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_moment_identity_random_symbolic(n):
    rng = random.Random(n)
    space = SpaceSpec.diagonal("+-", truncation=max(n, 1))
    for _ in range(4 if n < 5 else 2):
        prob = random_problem(rng, n, space)
        report = verify_moment_identity(prob)
        assert report.equal, report.first_difference


def test_moment_identity_affine_in_lambda():
    # wick_moment is affine in each lambda_i; lambda-free part = partitions
    # where i is not a singleton
    rng = random.Random(11)
    space = SpaceSpec.diagonal("+-", truncation=3)
    base = random_problem(rng, 3, space, zero_lams=True)
    shifted = MomentProblem(
        xs=base.xs, ts=base.ts, lams=(F(2), F(0), F(0)), space=space
    )
    doubled = MomentProblem(
        xs=base.xs, ts=base.ts, lams=(F(4), F(0), F(0)), space=space
    )
    m0, m1, m2 = wick_moment(base), wick_moment(shifted), wick_moment(doubled)
    assert m2 - m1 == m1 - m0  # affine in lambda_1


@pytest.mark.parametrize("which", sorted(INVOLUTIONS))
def test_color_summed_moment_matches_colored_sum_and_operators(which):
    for n in range(7):
        prob = involution_problem(500 + n, n, which)
        assert all(prob.lams)
        summed = wick_moment(prob)
        assert summed == oracles.colored_wick_moment(prob), (which, n)
        assert summed == vacuum_expectation(prob.operators(), prob.space), (which, n)


def walked_partitions(n, eps=None, keep=lambda mask, arcs: True):
    """Multiset of (blocks, frozen, rc, arc fields) over the move sequences of ``_open_arc_steps``.

    Expands the moves depth-first, one branch per partition, with the room and
    frozen count the kernel passes: ``frozen`` holds the indices of the blocks
    that ended frozen, and each block's arcs are given as (c, f_left, f_in).
    A closed block that ``keep`` rejects ends its branch.
    """
    symbols = (None,) * n if eps is None else tuple(eps)
    seen = Counter()

    def expand(j, opened, ended, rc):
        if j > n:
            assert opened == ()
            blocks = tuple(
                tuple(point for point in range(1, n + 1) if mask >> (point - 1) & 1) for (mask, _), _ in ended
            )
            frozen = frozenset(b for b, (_, freezes) in enumerate(ended) if freezes)
            fields = tuple(tuple(map(_arc_fields, arcs)) for (_, arcs), _ in ended)
            seen[blocks, frozen, rc, fields] += 1
            return
        symbol = symbols[j - 1]
        room = sum(s != "*" for s in symbols[j:])
        frozen_count = sum(freezes for _, freezes in ended)
        for state, block, crossed in _open_arc_steps(j, room, opened, frozen_count, symbol):
            if block is None:
                expand(j + 1, state, ended, rc + crossed)
            elif symbol in ("*", "'"):
                expand(j + 1, state, ended + ((block, True),), rc + crossed)
            elif keep(*block):
                expand(j + 1, state, ended + ((block, False),), rc + crossed)

    expand(1, (), (), 0)
    return seen


@pytest.mark.parametrize("n", range(9))
def test_open_arc_walk_matches_set_partitions_and_arc_covers(n):
    expected = Counter()
    for blocks in set_partitions(n):
        rc, covers = arc_covers(blocks)
        expected[blocks, frozenset(), rc, tuple(tuple((c, 0, 0) for c in cs) for cs in covers)] += 1
    assert walked_partitions(n) == expected
    # dropping the closed singletons leaves the singleton-free partitions
    singleton_free = Counter(
        {key: count for key, count in expected.items() if all(len(b) > 1 for b in key[0])}
    )
    assert walked_partitions(n, keep=lambda mask, arcs: bool(arcs)) == singleton_free


def extended_walk_key(p):
    """What the walk gives for an extended partition: its blocks, its open
    blocks (the marked ones and the singletons), rc and each arc's (c, f_left,
    f_in), where f_left counts the open blocks' maxima left of the arc and
    f_in those inside it."""
    blocks = p.blocks
    rc, covers = arc_covers(blocks)
    opened = frozenset(_open_blocks(blocks, p.marked))
    tops = [blocks[b][-1] for b in opened]
    fields = tuple(
        tuple(
            (c, sum(top < left for top in tops), sum(left < top < right for top in tops))
            for c, left, right in zip(cs, block, block[1:])
        )
        for block, cs in zip(blocks, covers)
    )
    return blocks, opened, rc, fields


@pytest.mark.parametrize("n", range(7))
def test_open_arc_walk_matches_the_eps_compatible_extended_partitions(n):
    for eps in product("*1'", repeat=n):
        expected = Counter(
            extended_walk_key(p)
            for p in enumerate_extended_eps(eps)
            if all(color == 1 for colors in p.colors for color in colors)
        )
        assert walked_partitions(n, eps) == expected, eps


# a 3-d involution with denominator 3 besides the planar ones
ROTATION_3D = tuple(
    tuple(F(v, 3) for v in row) for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1))
)
FUZZ_SPACES = (
    SpaceSpec.diagonal("+-", truncation=5),
    SpaceSpec.diagonal("+--", truncation=5),
    SpaceSpec(2, INVOLUTIONS["reflection"], truncation=5),
    SpaceSpec(3, ROTATION_3D, truncation=5),
)
fuzz_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def fuzz_problems(draw):
    """n <= 5 on one of FUZZ_SPACES, with zero lambdas likely and denominators up to 7."""
    space = draw(st.sampled_from(FUZZ_SPACES))
    n = draw(st.integers(0, 5))
    d = space.d

    def symmetric():
        upper = draw(st.lists(fuzz_rationals, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2))
        entries = iter(upper)
        rows = [[F(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = next(entries)
        return rows

    xs = [draw(st.lists(fuzz_rationals, min_size=d, max_size=d)) for _ in range(n)]
    ts = [symmetric() for _ in range(n)]
    lams = [draw(st.one_of(st.just(F(0)), fuzz_rationals)) for _ in range(n)]
    return MomentProblem.build(xs, ts, lams, space)


@settings(max_examples=50, deadline=None)
@given(fuzz_problems())
def test_wick_moment_matches_the_colored_sum(prob):
    assert wick_moment(prob) == oracles.colored_wick_moment(prob)


LINE = SpaceSpec.diagonal("+", truncation=2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: type_b((F(1),), ((F(1),),), 0.1),
        lambda: MomentProblem.build([(F(1),)], [((F(1),),)], [0.1], LINE),
        lambda: vacuum_expectation([OpSpec("b", x=(F(1),), t=((F(1),),), lam=0.25)], LINE),
        lambda: apply_operator(OpSpec("create", x=(0.5,)), FockVector.vacuum(LINE)),
        lambda: SpaceSpec(1, ((1.0,),), 1),
        lambda: MomentProblem(xs=((0.5,),), ts=(((F(1),),),), lams=(F(0),), space=LINE),
    ],
    ids=["type-b-lambda", "build-lambda", "op-lambda", "op-vector", "involution", "problem-vector"],
)
def test_floats_are_refused_at_the_exact_boundary(call):
    # a float is never turned into a Fraction, nor let into the integer kernels
    with pytest.raises(TypeError, match="^not a rational value: "):
        call()


def test_the_wick_guard_fits_the_arc_fields():
    # an arc's cover, f_left and frozen count each take one 4-bit field
    assert MAX_WICK_N < 1 << _ARC_BITS


@pytest.mark.parametrize("which", sorted(INVOLUTIONS))
def test_pruned_vacuum_expectation_matches_unpruned_loop(which):
    # vacuum_expectation passes each factor a horizon; the oracle forms every word
    for n in range(7):
        prob = involution_problem(600 + n, n, which)
        ops = prob.operators()
        assert vacuum_expectation(ops, prob.space) == oracles.vacuum_coefficients(ops, prob.space)[-1]


def test_horizon_only_drops_longer_words():
    prob = involution_problem(7, 4, "reflection")
    v = FockVector.vacuum(prob.space)
    for op in prob.operators():
        full = apply_operator(op, v)
        for horizon in range(4):
            kept = {word: c for word, c in full.coeffs.items() if len(word) <= horizon}
            assert apply_operator(op, v, horizon) == FockVector(prob.space, kept)
        v = full


def per_word_report(eps, prob):
    """One report of ``verify_vector_identities`` from the per-call functions."""
    return compare(f"vector-identity-{''.join(eps)}", eps_word_vector(eps, prob), vector_formula(eps, prob))


@pytest.mark.parametrize("which", ["swap", "reflection"])
def test_vector_identity_general_involution(which):
    for n in range(1, 5):
        prob = involution_problem(700 + n, n, which)
        for eps in product("*1'", repeat=n):
            report = per_word_report(eps, prob)
            assert report.equal, (which, eps, report.first_difference)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_identity_all_eps(n):
    rng = random.Random(100 + n)
    space = SpaceSpec.diagonal("+-", truncation=max(n, 1))
    prob = random_problem(rng, n, space)
    for eps in product("*1'", repeat=n):
        report = per_word_report(eps, prob)
        assert report.equal, (eps, report.first_difference)


@pytest.mark.parametrize("which", sorted(INVOLUTIONS))
def test_vector_formula_matches_the_colored_extended_sum(which):
    for n in range(5):
        prob = involution_problem(800 + n, n, which)
        for eps in product("*1'", repeat=n):
            assert vector_formula(eps, prob) == oracles.colored_vector_formula(eps, prob), (which, eps)


@settings(max_examples=40, deadline=None)
@given(fuzz_problems(), st.data())
def test_vector_formula_matches_the_colored_extended_sum_fuzzed(prob, data):
    eps = data.draw(st.lists(st.sampled_from("*1'"), min_size=prob.n, max_size=prob.n))
    assert vector_formula(eps, prob) == oracles.colored_vector_formula(eps, prob)


@pytest.mark.parametrize("which", ["diagonal", "reflection"])
@pytest.mark.parametrize("n", range(MAX_VECTOR_N + 1))
def test_the_sweeps_equal_the_per_call_functions_on_every_word(which, n):
    """Each sweep yields one vector per word, 3^n in product order, and each
    is the per-call function's vector for that word: on the partition side,
    the sweep's room counts every later point and the one-word walk's only
    the later non-star points."""
    prob = involution_problem(900 + n, n, which)
    words = list(product(EPS_ALPHABET, repeat=n))
    operator_side, partition_side = list(eps_word_vectors(prob)), list(vector_formulas(prob))
    assert len(operator_side) == len(partition_side) == 3**n
    assert operator_side == [eps_word_vector(eps, prob) for eps in words]
    assert partition_side == [vector_formula(eps, prob) for eps in words]


@pytest.mark.parametrize("which", ["diagonal", "reflection"])
@pytest.mark.parametrize("n", range(6))
def test_the_sweeps_equal_the_term_by_term_oracles_on_every_word(which, n):
    """The one-word functions walk the same code as the sweeps, so each sweep
    is also held to an oracle that shares none of it: the colored extended sum
    one partition at a time, and the Poly-level operator product."""
    prob = involution_problem(900 + n, n, which)
    vacuum = FockVector.vacuum(prob.space)
    words = product(EPS_ALPHABET, repeat=n)
    for eps, lhs, rhs in zip(words, eps_word_vectors(prob), vector_formulas(prob), strict=True):
        ops = [moments.eps_operator(symbol, point, prob) for point, symbol in enumerate(eps, start=1)]
        assert lhs == oracles.apply_product(ops[::-1], vacuum), eps
        assert rhs == oracles.colored_vector_formula(eps, prob), eps


def test_the_vector_identities_report_every_word_in_product_order():
    prob = involution_problem(905, 3, "reflection")
    reports = list(verify_vector_identities(prob))
    assert reports == [per_word_report(eps, prob) for eps in product(EPS_ALPHABET, repeat=3)]
    assert [report.name for report in reports[:4]] == [
        "vector-identity-***", "vector-identity-**1", "vector-identity-**'", "vector-identity-*1*",
    ]


@pytest.mark.parametrize("sweep", [eps_word_vectors, vector_formulas, verify_vector_identities])
def test_the_sweeps_are_guarded(sweep):
    next(iter(sweep(unit_problem(MAX_VECTOR_N))))
    with pytest.raises(ResourceLimitError, match=f"n <= {MAX_VECTOR_N}"):
        next(iter(sweep(unit_problem(MAX_VECTOR_N + 1))))


@pytest.mark.parametrize("eps", [("*",), ("*", "*", "*"), ("*", "x")], ids=["short", "long", "bad-symbol"])
def test_both_sides_of_the_vector_identity_check_the_word(eps):
    prob = unit_problem(2)
    for side in (eps_word_vector, vector_formula):
        with pytest.raises(ValueError, match=re.escape("eps must be over {*, 1, '} with one symbol per point")):
            side(eps, prob)


def test_vector_star_gives_x1():
    prob = unit_problem(1)
    v = vector_formula(("*",), prob)
    assert v == FockVector.basis(prob.space, (0,))


def test_vector_unbalanced_prefix_zero():
    prob = unit_problem(2)
    assert vector_formula(("1", "*"), prob).is_zero
    assert eps_word_vector(("1", "*"), prob).is_zero


def test_vector_star_prime_example():
    # p(T_2) b*(x_1) Ω = T2 x1 + a T2 J x1
    rng = random.Random(5)
    space = SpaceSpec.diagonal("+-", truncation=2)
    prob = random_problem(rng, 2, space)
    got = vector_formula(("*", "'"), prob)
    assert got == eps_word_vector(("*", "'"), prob)
    t2x1 = tuple(
        sum(prob.ts[1][i][j] * prob.xs[0][j] for j in range(2)) for i in range(2)
    )
    jx1 = space.involve(prob.xs[0])
    t2jx1 = tuple(
        sum(prob.ts[1][i][j] * jx1[j] for j in range(2)) for i in range(2)
    )
    expected = FockVector(
        space,
        {
            (0,): Poly.const(t2x1[0]) + ALPHA * t2jx1[0],
            (1,): Poly.const(t2x1[1]) + ALPHA * t2jx1[1],
        },
    )
    assert got == expected


def test_gauge_zero_reduces_to_gaussian():
    # T = 0 kills every extended partition with marked or size>=3 blocks
    rng = random.Random(3)
    space = SpaceSpec.diagonal("+-", truncation=4)
    base = random_problem(rng, 4, space, zero_lams=True)
    zero_t = tuple(
        tuple(tuple(F(0) for _ in range(2)) for _ in range(2)) for _ in range(4)
    )
    prob = MomentProblem(xs=base.xs, ts=zero_t, lams=base.lams, space=space)
    assert wick_moment(prob) == corollary_gaussian(prob)


def test_pair_partition_count():
    # the pairings the Gaussian corollary sums over: the (n-1)!! perfect
    # matchings among the pairs-only colored partitions
    def pairings(n):
        return {p.blocks for p in enumerate_colored(n, "pairs-only")}

    assert len(pairings(4)) == 3
    assert len(pairings(6)) == 15
    assert pairings(3) == set()


def test_gaussian_corollary_n2():
    rng = random.Random(17)
    space = SpaceSpec.diagonal("+-", truncation=2)
    prob = random_problem(rng, 2, space, zero_lams=True)
    x1, x2 = prob.xs
    direct = sum(a * b for a, b in zip(x1, x2))
    flipped = sum(a * b for a, b in zip(space.involve(x1), x2))
    assert corollary_gaussian(prob) == Poly.const(direct) + ALPHA * flipped


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_corollary_specializations_match_wick(n):
    rng = random.Random(200 + n)
    space = SpaceSpec.diagonal("++", truncation=max(n, 1))
    prob = random_problem(rng, n, space, zero_lams=True)
    full = wick_moment(prob)
    assert full.subs(alpha=0) == corollary_q_case(prob)
    assert full.subs(q=0) == corollary_free_alpha(prob)
    zero_t = tuple(
        tuple(tuple(F(0) for _ in range(2)) for _ in range(2)) for _ in range(n)
    )
    gaussian_prob = MomentProblem(xs=prob.xs, ts=zero_t, lams=prob.lams, space=space)
    assert wick_moment(gaussian_prob) == corollary_gaussian(gaussian_prob)


@pytest.mark.parametrize(
    "corollary",
    [corollary_q_case, corollary_free_alpha, corollary_gaussian],
    ids=["q-case", "free-alpha", "gaussian"],
)
def test_corollaries_compute_each_block_chain_once_per_call(monkeypatch, corollary):
    # a block's chain does not depend on the rest of the partition; each call
    # keeps its own values, so a second call computes them all again
    rng = random.Random(206)
    prob = random_problem(rng, 6, SpaceSpec.diagonal("++", truncation=6), zero_lams=True)
    expected = corollary(prob)
    calls = []

    def counted(block, colors, problem):
        calls.append((tuple(block), tuple(colors)))
        return closed_chain_value(block, colors, problem)

    monkeypatch.setattr(moments, "closed_chain_value", counted)
    assert corollary(prob) == expected
    assert calls and len(calls) == len(set(calls))
    first = list(calls)
    assert corollary(prob) == expected
    assert calls == first + first


def test_free_alpha_outer_arc_structure():
    # unit vector, T = identity: sum over NC>=2(4) of (1+a)^out_arc
    prob = unit_problem(4)
    got = corollary_free_alpha(prob)
    expected = (ONE + ALPHA) ** 2 + (ONE + ALPHA) + (ONE + ALPHA) ** 3
    assert got == expected
    assert got == wick_moment(prob).subs(q=0)


def test_q_case_n3_single_block():
    prob = unit_problem(3)
    assert corollary_q_case(prob) == ONE
    assert wick_moment(prob).subs(alpha=0) == ONE


def test_alpha_zero_kills_negative_arcs():
    rng = random.Random(23)
    space = SpaceSpec.diagonal("+-", truncation=4)
    prob = random_problem(rng, 4, space, zero_lams=True)
    specialized = wick_moment(prob).subs(alpha=0)
    assert all(exp[0] == 0 for exp in specialized.terms)


@pytest.mark.parametrize(
    "t",
    [((F(1), F(0), F(0)), (F(0), F(1), F(0))), ((F(1),), (F(0),))],
    ids=["2x3", "2x1"],
)
def test_moment_problem_rejects_a_t_of_the_wrong_shape(t):
    # through the direct constructor, as the verify suite builds its problems;
    # the kernels zip rows with vectors, so a wrong shape would go unnoticed
    space = SpaceSpec.diagonal("+-", truncation=3)
    x = (F(1), F(1))
    with pytest.raises(ValueError, match="^vector/operator dimensions must match the space$"):
        MomentProblem(xs=(x, x, x), ts=(t, t, t), lams=(F(0),) * 3, space=space)


def test_compare_names_the_first_differing_monomial():
    report = compare("p", Q * Q + ALPHA, ALPHA)
    assert not report.equal
    assert (report.lhs, report.rhs) == ("q^2 + a", "a")
    assert report.first_difference == "monomial q^2 differs by 1"


def test_compare_names_the_first_differing_word():
    space = SpaceSpec.diagonal("+-", truncation=2)
    lhs = FockVector(space, {(0,): ONE, (1, 0): ALPHA})
    rhs = FockVector(space, {(0,): ONE, (0, 1): Q, (1, 0): ALPHA})
    report = compare("v", lhs, rhs)
    assert not report.equal
    assert (report.lhs, report.rhs) == ("[1](1) + [2 1](a)", "[1](1) + [1 2](q) + [2 1](a)")
    assert report.first_difference == "word (0, 1): 0 vs q"


def test_compare_renders_the_zero_vector_as_0():
    space = SpaceSpec.diagonal("+", truncation=1)
    report = compare("v", FockVector(space), FockVector.basis(space, (0,)))
    assert (report.lhs, report.rhs) == ("0", "[1](1)")
    assert report.first_difference == "word (0,): 0 vs 1"


def test_compare_names_the_first_differing_matrix_entry():
    report = compare("m", [[ONE, ALPHA]], [[ONE, ONE]])
    assert not report.equal
    assert (report.lhs, report.rhs) == ("[[1, a]]", "[[1, 1]]")
    assert report.first_difference == "entry (0, 1): a vs 1"


@pytest.mark.parametrize(
    "value",
    [ONE + ALPHA, FockVector.basis(SpaceSpec.diagonal("+", truncation=1), (0,)), 3, True],
    ids=["poly", "vector", "int", "bool"],
)
def test_compare_renders_nothing_for_equal_values(value):
    assert compare("same", value, value) == VerifyReport("same", True, "", "", None)
