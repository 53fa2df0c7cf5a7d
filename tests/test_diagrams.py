"""Diagram calculus: constructors, products, invariants, codec."""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brauerkit import (
    Diagram,
    Parity,
    adjacent_contraction,
    construct,
    capped_rotation,
    cascade,
    contraction,
    decode,
    diagram,
    double_contraction,
    encode,
    from_permutation,
    identity,
    local_rotation,
    multiply,
    named_element_products,
    partial_identity,
    random_partial_brauer,
    random_partition_diagram,
    rotation,
)
from brauerkit.diagrams import (
    PARITY_OF_CODE,
    ElementSet,
    annular,
    brauer,
    even_or_rank_zero,
    from_label_array,
    from_labels,
    label_array,
    label_dtype,
    labels,
    multiply_labels,
    multiply_pairs,
    pads,
    parities,
    partial_brauer,
    planar,
    ranks,
    restricted_growth,
    stars,
    turned,
)
from brauerkit import diagrams
from brauerkit.families import generators
from brauerkit.errors import (
    BadDegree,
    BadIndex,
    BrauerKitError,
    DegreeMismatch,
    LengthMismatch,
    NotABijection,
    ParseError,
    UnsupportedBlockSize,
)

from oracles import (
    BlocksDiagram,
    oracle_annular,
    oracle_label_array,
    oracle_multiply,
    oracle_pad,
    oracle_parity,
    oracle_partial_matchings,
    oracle_perfect_matchings,
    oracle_planar_pairs,
    oracle_product,
    oracle_random_brauer,
    oracle_random_pair_diagram,
    oracle_random_partial_brauer,
    oracle_rank,
    oracle_restricted_growth,
    oracle_set_partitions,
    oracle_star,
    oracle_turned,
)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_diagram_canonical_form_is_order_independent():
    a = diagram(3, [[1, -2], [2, 3], [-1, -3]])
    b = diagram(3, [[-3, -1], [3, 2], [-2, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_diagram_rejects_bad_input():
    with pytest.raises(BadDegree):
        diagram(0, [])
    with pytest.raises(BadIndex):
        diagram(2, [[1, 2], [-1]])  # -2 missing
    with pytest.raises(BadIndex):
        diagram(2, [[1, 1], [2, -1], [-2]])
    with pytest.raises(BadIndex):
        diagram(2, [[1, 3], [2, -1], [-2, -3]])


def test_signed_block_view_round_trips():
    a = diagram(4, [[1, 2, -3], [3], [4, -4], [-1, -2]])
    assert diagram(4, a.signed_blocks) == a


def test_ranks_count_the_blocks_meeting_both_rows():
    a = diagram(4, [[1, -2], [2, 3], [4, -4, -1], [-3]])
    assert ranks(labels(a)[None]).tolist() == [oracle_rank(a)] == [2]


# ---------------------------------------------------------------------------
# multiplication


@st.composite
def _pair_of_pair_diagrams(draw):
    n = draw(st.integers(1, 5))
    s1 = draw(st.integers(0, 2**31))
    s2 = draw(st.integers(0, 2**31))
    return (oracle_random_pair_diagram(n, random.Random(s1)),
            oracle_random_pair_diagram(n, random.Random(s2)))


@settings(max_examples=150, deadline=None)
@given(_pair_of_pair_diagrams())
def test_multiply_matches_merging_oracle(pair):
    a, b = pair
    assert a * b == oracle_multiply(a, b)


def test_multiply_partition_diagrams_against_oracle():
    rng = random.Random(17)
    for _ in range(200):
        a = random_partition_diagram(3, rng)
        b = random_partition_diagram(3, rng)
        assert multiply(a, b) == oracle_multiply(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_partial_brauer_draws_the_samples_of_the_block_sort(seed):
    """2,000 draws per degree 1..8 match the block-sorting sampler, and
    leave the generator in the same state."""
    for n in range(1, 9):
        rng, old = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            assert random_partial_brauer(n, rng) == oracle_random_partial_brauer(n, old)
        assert rng.getstate() == old.getstate()


# Family instances the batched product is checked on, by degree; each
# holds degree 1, and C, PB and PJ hold rank-0 diagrams.
_BATCH_DEGREES = {"C": (1, 2, 3), "B": (1, 2, 3, 4), "PB": (1, 2, 3),
                  "J": (1, 3, 5), "PJ": (1, 2, 4), "A": (1, 3, 5),
                  "PA": (1, 2, 3), "EA": (2, 4), "SYM": (1, 3, 4)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_BATCH_DEGREES)), st.data())
def test_batched_product_matches_scalar_and_glue_products(family, data):
    n = data.draw(st.sampled_from(_BATCH_DEGREES[family]))
    pick = st.sampled_from(construct(family, n).sorted_elements())
    xs = data.draw(st.lists(pick, max_size=12))
    bs = data.draw(st.lists(pick, max_size=4))
    labs = label_array(xs, n)
    got = multiply_labels(labs, label_array(bs, n))
    assert got.shape == (len(xs), len(bs), 2 * n)
    for j, b in enumerate(bs):
        one = multiply_labels(labs, labels(b)[None])
        assert np.array_equal(got[:, j], one[:, 0])
        assert (from_label_array(got[:, j]) == [multiply(x, b) for x in xs]
                == [oracle_multiply(x, b) for x in xs])
    assert all(from_labels(labels(d)) == d for d in xs + bs)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_BATCH_DEGREES)), st.data())
def test_zipped_product_matches_the_oracle_products(family, data):
    n = data.draw(st.sampled_from(_BATCH_DEGREES[family]))
    pick = st.sampled_from(construct(family, n).sorted_elements())
    pairs = data.draw(st.lists(st.tuples(pick, pick), max_size=12))
    xs = label_array([x for x, _ in pairs], n)
    ys = label_array([y for _, y in pairs], n)
    got = multiply_pairs(xs, ys)
    assert got.shape == (len(pairs), 2 * n) and got.dtype == label_dtype(n)
    assert (from_label_array(got) == [oracle_multiply(x, y) for x, y in pairs]
            == [oracle_product(x, y) for x, y in pairs])
    outer = multiply_labels(xs, ys)
    for j in range(len(pairs)):
        assert np.array_equal(outer[:, j], multiply_pairs(xs, ys[[j] * len(pairs)]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_BATCH_DEGREES)), st.data())
def test_masked_product_takes_the_marked_cells_in_row_major_order(family, data):
    n = data.draw(st.sampled_from(_BATCH_DEGREES[family]))
    pick = st.sampled_from(construct(family, n).sorted_elements())
    xs = label_array(data.draw(st.lists(pick, max_size=12)), n)
    bs = label_array(data.draw(st.lists(pick, max_size=4)), n)
    where = np.array(data.draw(st.lists(st.booleans(), min_size=len(xs) * len(bs),
                                        max_size=len(xs) * len(bs))),
                     dtype=bool).reshape(len(xs), len(bs))
    got = multiply_labels(xs, bs, where=where)
    assert got.shape == (int(where.sum()), 2 * n) and got.dtype == label_dtype(n)
    assert np.array_equal(got, multiply_labels(xs, bs)[where])


def _joined_merges(xs, bs, where):
    """How many marked cells (r, j) have bs[j] merge two top points of xs[r]
    that already share a block of xs[r]."""
    n = xs.shape[1] // 2
    found = 0
    for j, b in enumerate(bs):
        for p, q in diagrams._factor_plan(b)[0]:
            found += int((where[:, j] & (xs[:, n + p] == xs[:, n + q])).sum())
    return found


@pytest.mark.parametrize("family, n", [
    ("B", 4), ("B", 5), ("J", 5), ("A", 5), ("EA", 4), ("PB", 3), ("PJ", 3),
    ("PA", 3), ("PA", 4), ("SYM", 4), ("C", 3), ("C", 4)])
def test_products_by_right_factor_match_the_pair_kernel(family, n):
    """multiply_labels takes a group of cells per right factor; each cell
    must be what the pair kernel gives for its broadcast rows, under every
    mask, for each family's generating set as the closure passes it."""
    bs = label_array(generators(family, n), n)
    xs = construct(family, n).elements.labels
    rng = np.random.default_rng(len(xs))
    xs = xs[rng.permutation(len(xs))[:400]]
    k, g = len(xs), len(bs)
    masks = [rng.random((k, g)) < 0.4, np.zeros((k, g), bool), np.ones((k, g), bool)]
    for where in masks:
        rows, cols = np.nonzero(where)
        want = multiply_pairs(xs[rows], bs[cols])
        got = multiply_labels(xs, bs, where=where)
        assert got.dtype == label_dtype(n) and np.array_equal(got, want)
    assert np.array_equal(multiply_labels(xs, bs), want.reshape(k, g, 2 * n))
    if family == "C":  # a merge of top points one block of x already joins
        assert _joined_merges(xs, bs, masks[2])


def test_products_by_right_factor_at_two_byte_labels():
    n = 64
    rng = random.Random(64)
    xs = label_array([random_partition_diagram(n, rng) for _ in range(7)]
                     + [random_partial_brauer(n, rng) for _ in range(7)]
                     + [adjacent_contraction(n, 5)], n)
    bs = label_array([rotation(n), adjacent_contraction(n, n), partial_identity(n, 3),
                      random_partition_diagram(n, rng), contraction(n, 2, 9)], n)
    where = np.random.default_rng(n).random((len(xs), len(bs))) < 0.6
    rows, cols = np.nonzero(where)
    got = multiply_labels(xs, bs, where=where)
    assert got.dtype == np.int16 and _joined_merges(xs, bs, where)
    assert np.array_equal(got, multiply_pairs(xs[rows], bs[cols]))


@pytest.mark.parametrize("family, n", [("C", 1), ("C", 2), ("PB", 2), ("PJ", 1)])
def test_batched_product_on_every_pair(family, n):
    elems = construct(family, n).sorted_elements()
    labs = label_array(elems, n)
    assert (ranks(labs) == 0).any()
    got = multiply_labels(labs, labs)
    for j, b in enumerate(elems):
        assert from_label_array(got[:, j]) == [oracle_multiply(x, b) for x in elems]
    k = len(elems)
    every_pair = multiply_pairs(labs.repeat(k, axis=0), np.tile(labs, (k, 1)))
    assert np.array_equal(every_pair, got.reshape(k * k, 2 * n))


@pytest.mark.parametrize("family, n", [("C", 3), ("PB", 3), ("PA", 3), ("B", 4)])
def test_every_product_matches_the_union_find_oracle(family, n):
    elems = construct(family, n).sorted_elements()
    k = len(elems)
    blocks = [BlocksDiagram(n, d.blocks) for d in elems]
    want = oracle_label_array([a * b for a in blocks for b in blocks], n)
    labs = label_array(elems, n)
    assert np.array_equal(multiply_labels(labs, labs), want.reshape(k, k, 2 * n))
    where = np.random.default_rng(k).random((k, k)) < 0.3
    assert np.array_equal(multiply_labels(labs, labs, where=where),
                          want.reshape(k, k, 2 * n)[where])
    assert np.array_equal(multiply_pairs(labs.repeat(k, axis=0), np.tile(labs, (k, 1))),
                          want)


@pytest.mark.parametrize("family, n", [("C", 1), ("PB", 1), ("C", 3), ("PB", 4)])
def test_products_with_degree_one_and_rank_zero_rows(family, n):
    elems = construct(family, n).sorted_elements()
    zero = [d for d, r in zip(elems, ranks(label_array(elems, n))) if r == 0]
    pairs = [(z, d) for z in zero for d in elems] + [(d, z) for z in zero for d in elems]
    assert zero
    xs, ys = (label_array(side, n) for side in zip(*pairs))
    want = oracle_label_array(
        [BlocksDiagram(n, x.blocks) * BlocksDiagram(n, y.blocks) for x, y in pairs], n)
    got = multiply_pairs(xs, ys)
    assert np.array_equal(got, want) and not ranks(got).any()
    assert [x * y for x, y in pairs[:40]] == from_label_array(want[:40])
    z = label_array(zero, n)
    assert np.array_equal(multiply_labels(z, z).reshape(-1, 2 * n),
                          multiply_pairs(z.repeat(len(z), axis=0), np.tile(z, (len(z), 1))))


def test_label_arrays_are_canonical():
    d = diagram(3, [[-3, 1], [2], [3, -1, -2]])
    assert labels(d).tolist() == [0, 1, 2, 2, 2, 0]
    assert from_labels([0, 1, 2, 2, 2, 0]) == d
    assert labels(identity(2)).tolist() == [0, 1, 0, 1]


def _blocks_of_labels(n, lab):
    """The BlocksDiagram whose label array is lab."""
    return BlocksDiagram.of(n, [[p for p in range(2 * n) if lab[p] == k]
                                for k in set(lab)])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_BATCH_DEGREES)), st.data())
def test_label_bytes_diagram_matches_blocks_diagram(family, data):
    n = data.draw(st.sampled_from(_BATCH_DEGREES[family]))
    pick = st.sampled_from(construct(family, n).sorted_elements())
    # fresh diagrams, whose blocks are not decoded yet
    x, y = (Diagram._from_key(n, data.draw(pick).key) for _ in range(2))
    ox, oy = (_blocks_of_labels(n, list(d.key)) for d in (x, y))
    assert (x.blocks, y.blocks) == (ox.blocks, oy.blocks)
    assert np.array_equal(label_array([x, y], n), oracle_label_array([ox, oy], n))
    assert from_label_array(oracle_label_array([ox, oy], n)) == [x, y]
    assert Diagram(n, ox.blocks) == x and Diagram(n, ox.blocks).key == x.key
    assert encode(x) == encode(ox)
    assert ranks(label_array([x, y], n)).tolist() == [ox.rank, oy.rank]
    x_star = from_labels(stars(labels(x)[None])[0])
    for got, want in ((x_star, ox.star()), (x * y, ox * oy), (y * x, oy * ox)):
        assert got.blocks == want.blocks
        assert np.array_equal(labels(got), oracle_label_array([want], n)[0])
    assert (x == y) == (ox == oy) and (x != y) == (ox != oy)
    assert hash(x) == hash(Diagram._from_key(n, bytes(x.key)))


def test_wide_degrees_use_two_byte_labels():
    n = 64
    z, e = rotation(n), adjacent_contraction(n, n)
    oz, oe = (BlocksDiagram(n, d.blocks) for d in (z, e))
    assert len(z.key) == 4 * n and labels(z).dtype == np.int16
    for got, want in ((z * e, oz * oe), (e * z * e, oe * oz * oe)):
        assert Diagram._from_key(n, got.key).blocks == want.blocks
        assert got.key == oracle_label_array([want], n).tobytes()
    got = multiply_pairs(label_array([z, e, e, z], n), label_array([e, z, e, z], n))
    assert got.dtype == np.int16
    assert np.array_equal(got, oracle_label_array([oz * oe, oe * oz, oe * oe, oz * oz], n))


def test_diagrams_are_immutable_values():
    d = diagram(3, [[-3, 1], [2], [3, -1, -2]])
    with pytest.raises(AttributeError):
        d.n = 4
    with pytest.raises(AttributeError):
        d.key = identity(3).key
    with pytest.raises(AttributeError):
        del d.key
    for fresh in (d, Diagram._from_key(3, d.key)):
        for copied in [pickle.loads(pickle.dumps(fresh, proto))
                       for proto in range(pickle.HIGHEST_PROTOCOL + 1)
                       ] + [copy.deepcopy(fresh), copy.copy(fresh)]:
            assert copied == d and hash(copied) == hash(d)
            assert copied.blocks == d.blocks
    assert identity(1) != identity(2) and identity(2) != identity(4)
    assert len({identity(k) for k in range(1, 6)}) == 5


def test_batched_product_edge_cases():
    two, three, none = (label_array([identity(2)], 2), label_array([identity(3)], 3),
                        label_array([], 3))
    with pytest.raises(DegreeMismatch):
        multiply_labels(two, three)
    with pytest.raises(DegreeMismatch):
        multiply_labels(three, two)
    assert multiply_labels(none, three).shape == (0, 1, 6)
    assert multiply_labels(three, none).shape == (1, 0, 6)
    assert multiply_labels(none, none).shape == (0, 0, 6)
    assert multiply_pairs(none, none).shape == (0, 6)
    with pytest.raises(DegreeMismatch):
        multiply_pairs(two, three)
    with pytest.raises(LengthMismatch):
        multiply_pairs(none, three)
    with pytest.raises(LengthMismatch):
        multiply_pairs(three, np.repeat(three, 2, axis=0))
    assert issubclass(LengthMismatch, BrauerKitError)


@pytest.mark.parametrize("family, n", [("PB", 3), ("C", 3)])
def test_element_set_agrees_with_frozenset(family, n):
    elems = construct(family, n).sorted_elements()
    pick = random.Random(n).sample(elems, len(elems) // 2)
    fs = frozenset(pick)
    es = ElementSet.of(pick[::-1] + pick[:5], n)
    assert es == fs and fs == es and not es != fs and set(pick) == es
    assert hash(es) == hash(fs) == hash(ElementSet.of(pick, n))
    assert len(es) == len(fs) and set(es) == fs
    assert list(es) == sorted(fs, key=lambda d: d.key)
    assert not es.labels.flags.writeable
    assert all(d in es for d in pick)
    assert not any(d in es for d in elems if d not in fs)
    assert identity(n + 1) not in es and encode(pick[0]) not in es
    whole = ElementSet.of(elems, n)
    assert es <= whole and es < whole and whole >= es and whole > es
    assert not whole <= es and not es >= whole
    assert es <= frozenset(elems) and fs <= whole and fs < whole
    smaller = ElementSet.of(pick[1:], n)
    assert smaller != es and smaller <= es and not es <= smaller
    assert whole - es == frozenset(elems) - fs
    assert ElementSet.of([], n) <= es and not es <= ElementSet.of([], n)


def test_element_sets_of_different_degrees_are_unequal():
    one, two = ElementSet(1, [[0, 0], [0, 1]]), ElementSet(2, [[0, 0, 0, 1]])
    assert one.labels.tobytes() == two.labels.tobytes()
    assert one != two and not one <= two and not two >= one
    assert ElementSet(2, np.empty((0, 4))) != ElementSet(3, np.empty((0, 6)))


def test_element_sets_refuse_rows_that_are_not_restricted_growth_strings():
    """[0, 0, 3, 1] shares its sort key with the identity's row [0, 1, 0, 1],
    so a set that took it would hold identity(2).  One whole-array test
    refuses exactly the arrays with a row restricted_growth rejects."""
    for bad in ([[0, 0, 3, 1]], [[0, 1, 0, 1], [1, 0, 0, 1]], [[0, -1, 0, 1]]):
        with pytest.raises(BadIndex, match="not a restricted growth string"):
            ElementSet(2, bad)
    assert identity(2) in ElementSet(2, [[0, 1, 0, 1]])
    rng = np.random.default_rng(6)
    refused = []
    for _ in range(400):
        labs = rng.integers(-1, 3, size=(int(rng.integers(1, 4)), 4))
        labs[:, 0] = rng.integers(-1, 2)
        try:
            ElementSet(2, labs)
            refused.append(False)
        except BadIndex:
            refused.append(True)
        assert refused[-1] != restricted_growth(labs).all(), labs
        assert restricted_growth(labs).tolist() == oracle_restricted_growth(labs), labs
    assert 0 < sum(refused) < len(refused)
    for n in range(1, 9):  # rows of every degree, near growth strings
        labs = np.maximum.accumulate(rng.integers(0, 2, size=(200, 2 * n)), axis=1)
        labs += rng.integers(-1, 2, size=labs.shape) * (rng.random(labs.shape) < 0.05)
        want = oracle_restricted_growth(labs)
        assert restricted_growth(labs).tolist() == want
        assert 0 < sum(want) < len(want)


def test_element_set_orders_wide_degrees_by_row_bytes():
    n = 64
    ds = [rotation(n), identity(n), adjacent_contraction(n, 1),
          adjacent_contraction(n, 1) * rotation(n)]
    es = ElementSet.of(ds, n)
    assert [d.key for d in es] == sorted(d.key for d in ds)
    assert all(d in es for d in ds) and rotation(n) * rotation(n) not in es


@pytest.mark.parametrize("family, n", [("PB", 4), ("C", 3)])
def test_ranks_match_scalar_rank(family, n):
    elems = list(construct(family, n).elements)
    assert ranks(label_array(elems, n)).tolist() == list(map(oracle_rank, elems))


def test_multiply_requires_equal_degree():
    with pytest.raises(DegreeMismatch):
        multiply(identity(2), identity(3))


def test_identity_is_neutral():
    rng = random.Random(5)
    for _ in range(50):
        a = random_partition_diagram(4, rng)
        assert identity(4) * a == a
        assert a * identity(4) == a


# ---------------------------------------------------------------------------
# star involution


def test_star_laws_sampled():
    rng = random.Random(7)
    ds = [random_partial_brauer(5, rng) for _ in range(600)]
    a, b = label_array(ds[0::2], 5), label_array(ds[1::2], 5)
    assert np.array_equal(stars(stars(a)), a)
    assert np.array_equal(stars(multiply_pairs(a, b)), multiply_pairs(stars(b), stars(a)))
    assert np.array_equal(multiply_pairs(multiply_pairs(a, stars(a)), a), a)


def _projections(labs):
    """Mask over the rows of a label array: the row is its own star and its
    own square."""
    return ((stars(labs) == labs).all(axis=1)
            & (multiply_pairs(labs, labs) == labs).all(axis=1))


def test_projection_detection():
    labs = label_array([contraction(4, 1, 2), rotation(4)], 4)
    assert _projections(labs).tolist() == [True, False]


# ---------------------------------------------------------------------------
# named elements


def test_rotation_has_order_n():
    for n in (2, 3, 5, 6):
        z = rotation(n)
        power = identity(n)
        for _ in range(n):
            power = power * z
        assert power == identity(n)
        if n > 1:
            assert z != identity(n)


def test_contractions_are_idempotent_projections():
    for n in (3, 5):
        labs = label_array([adjacent_contraction(n, i) for i in range(1, n + 1)], n)
        assert _projections(labs).all()
        assert (ranks(labs) == n - 2).all()


def test_adjacent_contraction_wraps_at_n():
    g = adjacent_contraction(4, 4)
    assert g == diagram(4, [[1, 4], [-1, -4], [2, -2], [3, -3]])


def test_partial_identity_form():
    s = partial_identity(3, 2)
    assert s == diagram(3, [[2], [-2], [1, -1], [3, -3]])
    assert s * s == s


def test_cascade_closed_form():
    n = 6
    blocks = [[n - 1, n], [-1, -2]] + [[k, -(k + 2)] for k in range(1, n - 1)]
    assert cascade(n) == diagram(n, blocks)


def test_capped_rotation_closed_form():
    n = 5
    blocks = [[k, -(k + 1)] for k in range(1, n - 1)] + [[n - 1, n], [-1, -n]]
    assert capped_rotation(n) == diagram(n, blocks)


def test_double_contraction_form():
    n = 6
    e = double_contraction(n)
    blocks = [[2, 3], [-2, -3], [n - 1, n], [-(n - 1), -n], [1, -1], [4, -4]]
    assert e == diagram(n, blocks)
    with pytest.raises(BadDegree):
        double_contraction(5)


def test_named_element_products_match_closed_forms():
    for n in (4, 5, 6, 7, 8):
        made = named_element_products(n)
        assert made["cascade"] == cascade(n)
        assert made["local_rotation"] == local_rotation(n)
        if n % 2:
            assert made["capped_rotation"] == capped_rotation(n)


def test_local_rotation_power_collapses_even_degree():
    for n in (4, 6, 8):
        power = identity(n)
        for _ in range((n - 2) // 2):
            power = power * local_rotation(n)
        assert power == adjacent_contraction(n, n - 1)


# ---------------------------------------------------------------------------
# permutations


def test_from_permutation():
    p = from_permutation(3, (2, 3, 1))
    assert p == rotation(3)
    with pytest.raises(NotABijection):
        from_permutation(3, (1, 1, 2))


# ---------------------------------------------------------------------------
# parity


def test_parity_cases():
    cases = {
        Parity.EVEN: [identity(4), rotation(4) * rotation(4), contraction(4, 1, 2),
                      diagram(3, [[1, -3], [2], [3, -1], [-2]])],
        Parity.ODD: [rotation(4), diagram(3, [[1, -2], [2, 3], [-1, -3]])],
        Parity.MIXED: [diagram(3, [[1, -1], [2, -3], [3], [-2]]),
                       diagram(2, [[1, -1, 2, -2]]),
                       diagram(2, [[1, 2, -1], [-2]]),
                       diagram(2, [[1, 2, -2], [-1]]),
                       diagram(2, [[1, -1, -2], [2]])],
        Parity.RANK_ZERO: [adjacent_contraction(2, 1), diagram(1, [[1], [-1]])],
    }
    for kind, ds in cases.items():
        assert {PARITY_OF_CODE[parities(labels(d)[None])[0]] for d in ds} == {kind}
        want = kind in (Parity.EVEN, Parity.RANK_ZERO)
        for d in ds:
            assert even_or_rank_zero(labels(d)[None]).tolist() == [want]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False),
       st.sampled_from([oracle_random_brauer, random_partial_brauer,
                        random_partition_diagram]))
def test_even_mask_matches_scalar_parity(n, rng, sample):
    ds = [sample(n, rng) for _ in range(24)]
    want = [oracle_parity(d) in (Parity.EVEN, Parity.RANK_ZERO) for d in ds]
    assert even_or_rank_zero(label_array(ds, n)).tolist() == want


def test_parity_multiplicative_on_even_annular():
    # The sign rule needs even degree and annularity; general matchings mix.
    rng = random.Random(9)
    sign = {Parity.EVEN: 1, Parity.ODD: -1}
    pairs = []
    while len(pairs) < 200:
        pair = label_array([oracle_random_brauer(4, rng) for _ in range(2)], 4)
        if annular(pair).all():
            pairs.append(pair)
    a, b = np.transpose(pairs, (1, 0, 2))
    ab = multiply_pairs(a, b)
    codes = [[PARITY_OF_CODE[c] for c in parities(x)] for x in (a, b, ab)]
    for pa, pb, pab, rank in zip(*codes, ranks(ab)):
        if rank == 0:
            assert pab is Parity.RANK_ZERO
        else:
            assert sign[pab] == sign[pa] * sign[pb]


# ---------------------------------------------------------------------------
# family membership predicates


# the full transformation 1 -> 1, 2 -> 1: a block of three points
_MERGING = diagram(2, [[1, 2, -1], [-2]])


def test_membership_predicates():
    labs = label_array([rotation(4), partial_identity(4, 1)], 4)
    assert brauer(labs).tolist() == [True, False]
    assert partial_brauer(labs).tolist() == [True, True]
    assert partial_brauer(labels(_MERGING)[None]).tolist() == [False]
    for d, jones in ((cascade(5), True), (rotation(3), False)):
        lab = labels(d)[None]
        assert (brauer(lab) & planar(lab)).tolist() == [jones]


def test_planarity_matches_stack_oracle():
    rng = random.Random(13)
    ds = [oracle_random_pair_diagram(4, rng) for _ in range(500)]
    assert planar(label_array(ds, 4)).tolist() == list(map(oracle_planar_pairs, ds))


def test_annularity_matches_rotation_oracle():
    rng = random.Random(15)
    ds = [oracle_random_pair_diagram(3, rng) for _ in range(200)]
    assert annular(label_array(ds, 3)).tolist() == list(map(oracle_annular, ds))


def test_annularity_rejects_big_blocks():
    with pytest.raises(UnsupportedBlockSize):
        annular(labels(_MERGING)[None])


def _assert_predicates_match_oracles(ds, n):
    labs = label_array(ds, n)
    assert ranks(labs).tolist() == [oracle_rank(d) for d in ds]
    assert [PARITY_OF_CODE[c] for c in parities(labs)] == list(map(oracle_parity, ds))
    sizes = [sorted(map(len, d.signed_blocks)) for d in ds]
    pairs = [s[-1] <= 2 for s in sizes]
    assert partial_brauer(labs).tolist() == pairs
    assert brauer(labs).tolist() == [s == [2] * n for s in sizes]
    matchings = [d for d, ok in zip(ds, pairs) if ok]
    labs = label_array(matchings, n)
    assert planar(labs).tolist() == list(map(oracle_planar_pairs, matchings))
    assert annular(labs).tolist() == list(map(oracle_annular, matchings))
    if not all(pairs):
        for predicate in (planar, annular):
            with pytest.raises(UnsupportedBlockSize):
                predicate(label_array(ds, n))


@pytest.mark.parametrize("n", range(1, 6))
def test_predicates_match_oracles_on_partial_matchings(n):
    _assert_predicates_match_oracles(list(oracle_partial_matchings(n)), n)


def test_predicates_match_oracles_on_degree_6_perfect_matchings():
    _assert_predicates_match_oracles(list(oracle_perfect_matchings(6)), 6)


@pytest.mark.parametrize("n", range(1, 4))
def test_predicates_match_oracles_on_set_partitions(n):
    _assert_predicates_match_oracles(list(oracle_set_partitions(n)), n)


@pytest.mark.parametrize("n", range(1, 8))
def test_predicates_match_oracles_on_random_diagrams(n):
    rng = random.Random(n)
    for sample in (oracle_random_brauer, random_partial_brauer, random_partition_diagram):
        _assert_predicates_match_oracles([sample(n, rng) for _ in range(100)], n)


def test_predicates_match_oracles_at_degree_64():
    # int16 label arrays; the second row is annular and not planar
    n = 64
    rng = random.Random(64)
    ds = [random_partial_brauer(n, rng), rotation(n) * cascade(n),
          random_partition_diagram(n, rng)]
    assert labels(ds[0]).dtype == np.int16
    _assert_predicates_match_oracles(ds, n)
    lab = labels(ds[1])[None]
    assert (annular(lab).tolist(), planar(lab).tolist()) == ([True], [False])


def test_rotation_is_annular_but_not_planar():
    lab = labels(rotation(4))[None]
    assert annular(lab).tolist() == [True]
    assert planar(lab).tolist() == [False]


# ---------------------------------------------------------------------------
# shift (both rows turned by k) and twist (the top row turned by k)


def test_shift_is_rotation_conjugation():
    n = 5
    z = rotation(n)
    zk = {0: identity(n)}
    for k in range(1, n):
        zk[k] = zk[k - 1] * z
    rng = random.Random(19)
    ds, ks = [], []
    for _ in range(100):
        ds.append(random_partial_brauer(n, rng))
        ks.append(rng.randrange(1, n))
    labs = label_array(ds, n)
    assert from_label_array(turned(labs, ks, ks)) == [
        zk[n - k] * a * zk[k] for a, k in zip(ds, ks)]
    assert from_label_array(turned(labs, 0, ks)) == [a * zk[k] for a, k in zip(ds, ks)]


def test_shift_preserves_annularity():
    rng = random.Random(21)
    labs = label_array([oracle_random_pair_diagram(4, rng) for _ in range(100)], 4)
    assert np.array_equal(annular(turned(labs, 1, 1)), annular(labs))


# 63 pads int8 rows to int16 ones; 64 and 65 are int16 rows
_TRANSFORM_DEGREES = (*range(1, 9), 63, 64, 65)


@pytest.mark.parametrize("n", _TRANSFORM_DEGREES)
def test_label_array_transforms_match_the_block_oracles(n):
    """stars, turned with per-row turns (the rows turned apart, both by one
    turn as a shift, the top row alone as a twist) and pads on whole
    stacks, against the block-by-block oracles on random partition and
    partial-matching diagrams."""
    rng = random.Random(100 + n)
    ds = [sample(n, rng) for sample in (random_partition_diagram, random_partial_brauer)
          for _ in range(120)]
    bottom, top = ([rng.randrange(-2 * n, 2 * n + 1) for _ in ds] for _ in range(2))
    labs = label_array(ds, n)
    got = {"star": stars(labs), "turned": turned(labs, bottom, top),
           "shift": turned(labs, top, top), "twist": turned(labs, 0, top),
           "pad": pads(labs, n + 2)}
    want = {"star": [oracle_star(d) for d in ds],
            "turned": [oracle_turned(d, b, t) for d, b, t in zip(ds, bottom, top)],
            "shift": [oracle_turned(d, k, k) for d, k in zip(ds, top)],
            "twist": [oracle_turned(d, 0, k) for d, k in zip(ds, top)],
            "pad": [oracle_pad(d, n + 2) for d in ds]}
    for name, rows in got.items():
        assert rows.dtype == label_dtype(want[name][0].n), name
        assert from_label_array(rows) == want[name], name


def test_turns_broadcast_and_pads_check_the_target_degree():
    rng = random.Random(3)
    labs = label_array([random_partition_diagram(5, rng) for _ in range(30)], 5)
    assert np.array_equal(turned(labs, 2, -1), turned(labs, [2] * 30, [-1] * 30))
    assert np.array_equal(turned(labs[:1], 0, range(5)),
                          np.vstack([turned(labs[:1], 0, k) for k in range(5)]))
    assert np.array_equal(stars(stars(labs)), labs)
    with pytest.raises(BadDegree, match="target degree must be 7, got 6"):
        pads(labs, 6)


# ---------------------------------------------------------------------------
# codec


def test_encode_known_strings():
    assert encode(identity(2)) == "2:[{1,1'},{2,2'}]"
    assert encode(contraction(3, 1, 2)) == "3:[{1,2},{3,3'},{1',2'}]"


def test_decode_rejects_malformed():
    with pytest.raises(ParseError):
        decode("2:[{1,1'}")
    with pytest.raises(ParseError):
        decode("notadiagram")
    with pytest.raises(ParseError):
        decode("2:[{1,1'},{2,2'},{3,3'}]")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31))
def test_codec_round_trip(n, seed):
    a = random_partition_diagram(n, random.Random(seed))
    assert decode(encode(a)) == a
    assert decode(encode(a), n=n) == a


@pytest.mark.parametrize("text, message, offset", [
    ("0:[{1,1'}]", "degree must be >= 1", 0),
    ("2[{1,1'},{2,2'}]", "expected ':'", 1),
    ("2:{1,1'},{2,2'}]", "expected '['", 2),
    ("2:[1,1'},{2,2'}]", "expected '{'", 3),
    ("2:[{1,1'],{2,2'}]", "expected '}'", 8),
    ("2:[]", "empty block list", 3),
    ("2:[{,1'},{2,2'}]", "expected point index", 4),
    ("2:[{1,1},{2,2'}]", "point 1 repeated", 6),
    ("1:[{1,1'}]x", "trailing input", 10),
    ("2:[{1,1'}]", "blocks do not cover all 2n points", 9),
])
def test_decode_errors_name_the_problem_and_its_offset(text, message, offset):
    with pytest.raises(ParseError) as info:
        decode(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.position == offset


def test_decode_degree_mismatch():
    with pytest.raises(ParseError):
        decode(encode(identity(3)), n=4)
