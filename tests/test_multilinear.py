"""Sparse symmetric-use multilinear maps."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odexpand import MultiLinearMap
from odexpand.multilinear import _BLOCK

from helpers import (
    batch_oracle,
    burgers_galerkin_map,
    cvec,
    dense_apply,
    peak_bytes,
    random_multilinear,
    scalar_power,
)


def test_entries_merge_and_drop_zeros():
    G = MultiLinearMap(2, 2, ((0, (0, 1), 2.0), (0, (0, 1), 1.0), (1, (0, 0), 0.0)))
    assert G.entries == ((0, (0, 1), 3.0 + 0.0j),)


def test_entries_sorted_canonically():
    e1 = ((1, (1, 0), 1.0), (0, (0, 1), 2.0))
    e2 = ((0, (0, 1), 2.0), (1, (1, 0), 1.0))
    assert MultiLinearMap(2, 2, e1) == MultiLinearMap(2, 2, e2)


def _as_inputs(x: np.ndarray, kind: str):
    """x as the map's evaluators receive it: an array (``batch``), or a list
    of Python numbers (``__call__``)."""
    return x if kind == "array" else x.tolist()


def _apply(G: MultiLinearMap, xs, kind: str) -> np.ndarray:
    """G on xs passed as ``kind``, as a complex array: arrays through
    ``batch``, lists through ``__call__``, which gives the kernel's list of
    Python complex numbers back."""
    if kind == "array":
        got = G.batch(*xs)
    else:
        got = G(*(x.tolist() for x in xs))
        assert type(got) is list and all(type(v) is complex for v in got)
        got = np.array(got, dtype=complex)
    assert got.dtype == complex and got.shape == (G.dim,)
    return got


@pytest.mark.parametrize("kind", ["array", "list"])
def test_call_matches_bruteforce_bitwise(kind):
    rng = np.random.default_rng(11)
    for trial in range(200):
        arity = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=int(rng.integers(0, 9)), real=trial % 2 == 0)
        if trial % 3 == 0:  # real-valued inputs
            xs = [rng.standard_normal(dim) for _ in range(arity)]
        else:
            xs = [_spread_cvecs(rng, dim) for _ in range(arity)]
        got = _apply(G, xs, kind)
        # the same values as complex: a real array reaches the kernel converted
        want = dense_apply(G, [_as_inputs(x.astype(complex), kind) for x in xs])
        _assert_bitwise(got, want)
        if kind == "list":  # real floats in a list are used as they are
            _assert_bitwise(got, dense_apply(G, [x.tolist() for x in xs]))


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324, 1.0])


def _special_cvecs(rng, shape) -> np.ndarray:
    """Complex entries whose parts are drawn from signed zeros, infinities,
    nan, values whose products overflow or underflow, and ordinary ones."""
    return _complex(rng.choice(_SPECIAL, shape), rng.choice(_SPECIAL, shape))


def _assert_bitwise_up_to_nan_sign(a: np.ndarray, b: np.ndarray) -> None:
    """NaN where the other has NaN, the same bits everywhere else.  IEEE 754
    leaves the sign of a NaN result unspecified, and numpy's scalar product
    may take the operands of a NaN * NaN in the other order."""
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        nan = np.isnan(x)
        assert np.array_equal(nan, np.isnan(y))
        assert x[~nan].tobytes() == y[~nan].tobytes()


@pytest.mark.parametrize("kind", ["array", "list"])
def test_call_keeps_signed_zeros_inf_nan_and_overflow_bitwise(kind):
    rng = np.random.default_rng(12)
    for trial in range(300):
        arity, dim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        values = _special_cvecs(rng, int(rng.integers(0, 8))) if trial % 2 else _spread_cvecs(rng, 6)
        G = MultiLinearMap(
            arity,
            dim,
            tuple(
                (int(rng.integers(0, dim)), tuple(int(j) for j in rng.integers(0, dim, arity)), v)
                for v in values
            ),
        )
        xs = [_special_cvecs(rng, dim) for _ in range(arity)]
        if kind == "list":
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # overflow raises no RuntimeWarning
                got = _apply(G, xs, kind)
        else:
            with np.errstate(all="ignore"):  # batch's numpy arithmetic warns
                got = _apply(G, xs, kind)
        with np.errstate(all="ignore"):
            want = dense_apply(G, [_as_inputs(x, kind) for x in xs])
        _assert_bitwise_up_to_nan_sign(got, want)


def test_call_takes_lists_only():
    # arrays go through batch; the kernel would compute on numpy scalars
    rng = np.random.default_rng(16)
    G = random_multilinear(rng, 2, 3, n_entries=6)
    x, y = cvec(rng, 3), cvec(rng, 3)
    for args in ((x, y.tolist()), (x.tolist(), y), (x, y), (tuple(x.tolist()), y.tolist())):
        with pytest.raises(TypeError, match="arguments must be lists"):
            G(*args)
    _assert_bitwise(np.array(G(x.tolist(), y.tolist())), G.batch(x, y))


def test_call_starts_every_row_from_positive_zero():
    # -1 * 0j has real part -0.0, and 0j plus it is +0.0; row 1 has no
    # entries and stays +0.0
    assert np.signbit(((-1.0 + 0j) * 0j).real)
    G = MultiLinearMap(1, 2, ((0, (0,), -1.0),))
    x = np.zeros(2, dtype=complex)
    for kind in ("array", "list"):
        got = _apply(G, [x], kind)
        arg = _as_inputs(x, kind)
        assert got.tobytes() == np.zeros(2, dtype=complex).tobytes()
        assert got.tobytes() == dense_apply(G, [arg]).tobytes()


def test_kernel_compiles_on_first_call_once_per_map():
    G = random_multilinear(np.random.default_rng(13), 2, 3, n_entries=5)
    assert "kernel" not in vars(G)
    x = cvec(np.random.default_rng(14), 3).tolist()
    G(x, x)
    assert G.kernel is G.kernel
    assert "kernel" in vars(G)


def test_call_on_one_long_output_row_matches_bruteforce_bitwise():
    # 6,400 entries summed into one row: a single sum expression of that
    # length would exhaust the compiler's recursion limit
    rng = np.random.default_rng(15)
    dim = 80
    values = cvec(rng, dim * dim) * 10.0 ** rng.integers(-6, 7, dim * dim)
    G = MultiLinearMap(
        2, dim, tuple((0, (p, q), values[p * dim + q]) for p in range(dim) for q in range(dim))
    )
    assert len(G.entries) == 6400 and {i for i, _, _ in G.entries} == {0}
    x, y = _spread_cvecs(rng, dim), _spread_cvecs(rng, dim)
    _assert_bitwise(_apply(G, [x, y], "array"), dense_apply(G, [x, y]))
    _assert_bitwise(_apply(G, [x, y], "list"), dense_apply(G, [x, y]))


@pytest.mark.parametrize("n, size", [(8, 84), (16, 360), (32, 1488)])
def test_burgers_galerkin_map_matches_bruteforce_bitwise(n, size):
    G = burgers_galerkin_map(n)
    assert len(G.entries) == size and G.is_real()
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = _spread_cvecs(rng, n)
        _assert_bitwise(_apply(G, [x, x], "list"), dense_apply(G, [x, x]))
        _assert_bitwise(_apply(G.symmetrized, [x, x], "list"), dense_apply(G.symmetrized, [x, x]))
    # u u_x carries no energy: a . G(a, a) = 0 for real modes a
    a = rng.standard_normal(n)
    assert abs(a @ G.batch(a, a)) <= 1e-14 * float(np.abs(a) @ np.abs(G.batch(a, a)))


def test_call_is_multilinear_in_each_slot():
    rng = np.random.default_rng(12)
    G = random_multilinear(rng, 3, 3, n_entries=8)
    x, y, z, w = (cvec(rng, 3) for _ in range(4))
    a = 0.7 - 1.3j
    lhs = G.batch(x, a * y + w, z)
    rhs = a * G.batch(x, y, z) + G.batch(x, w, z)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_scalar_power_is_plain_power():
    cube = scalar_power(3)
    assert cube.arity == 3 and cube.dim == 1
    v = np.array([1.5 + 0.5j])
    np.testing.assert_allclose(cube.batch(v, v, v), v**3)


def test_index_validation():
    with pytest.raises(ValueError):
        MultiLinearMap(2, 2, ((2, (0, 0), 1.0),))  # output index out of range
    with pytest.raises(ValueError):
        MultiLinearMap(2, 2, ((0, (0, 2), 1.0),))  # input index out of range
    with pytest.raises(ValueError):
        MultiLinearMap(2, 2, ((0, (0,), 1.0),))  # tuple length != arity
    with pytest.raises(ValueError):
        MultiLinearMap(0, 2)  # arity must be >= 1


def test_is_real_detects_imaginary_entries():
    G = MultiLinearMap(2, 1, ((0, (0, 0), 1.0),))
    assert G.is_real()
    H = MultiLinearMap(2, 1, ((0, (0, 0), 1.0 + 1e-6j),))
    assert not H.is_real()
    # the test is exact: any nonzero imaginary part counts, a -0.0 does not
    assert MultiLinearMap(2, 1, ((0, (0, 0), complex(1.0, -0.0)),)).is_real()


def test_real_map_commutes_with_conjugation():
    rng = np.random.default_rng(17)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        G = random_multilinear(rng, 2, dim, real=True)
        assert G.is_real()
        xs = [cvec(rng, dim), cvec(rng, dim)]
        np.testing.assert_allclose(G.batch(*xs), dense_apply(G, xs), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            G.batch(*[x.conj() for x in xs]), G.batch(*xs).conj(), rtol=1e-13, atol=1e-13
        )
        reals = [rng.standard_normal(dim).astype(complex) for _ in range(2)]
        assert np.max(np.abs(G.batch(*reals).imag)) < 1e-14


def test_call_arity_mismatch():
    G = scalar_power(2)
    v = np.array([1.0 + 0j])
    with pytest.raises((TypeError, ValueError)):
        G(v)


def _spread_cvecs(rng, shape) -> np.ndarray:
    """Complex entries over many magnitudes, with exact zeros mixed in."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    z[rng.random(shape) < 0.1] = 0.0
    return z


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def test_batch_outer_product_equals_stacked_calls_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(60):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=int(rng.integers(1, 9)))
        counts = [int(rng.integers(1, 5)) for _ in range(arity)]
        stacks = [_spread_cvecs(rng, (k, dim)) for k in counts]
        shaped = []
        for s, x in enumerate(stacks):
            shape = [1] * arity
            shape[s] = counts[s]
            shaped.append(x.reshape(shape + [dim]))
        got = G.batch(*shaped)
        assert got.shape == tuple(counts) + (dim,)
        want = np.array(
            [_apply(G, [stacks[s][i] for s, i in enumerate(idx)], "list") for idx in np.ndindex(*counts)]
        ).reshape(got.shape)
        _assert_bitwise(got, want)


def test_batch_rowwise_equals_stacked_calls_bitwise():
    rng = np.random.default_rng(32)
    for _ in range(40):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=6)
        rows = int(rng.integers(1, 7))
        stacks = [_spread_cvecs(rng, (rows, dim)) for _ in range(arity)]
        got = G.batch(*stacks)
        want = np.array([_apply(G, [x[i] for x in stacks], "list") for i in range(rows)])
        _assert_bitwise(got, want)


def test_batch_with_empty_entry_table():
    G = MultiLinearMap(2, 3)
    x = np.ones((4, 3), dtype=complex)
    got = G.batch(x, x)
    _assert_bitwise(got, np.zeros((4, 3), dtype=complex))
    _assert_bitwise(got[0], _apply(G, [x[0], x[0]], "list"))


def test_batch_with_zero_rows():
    rng = np.random.default_rng(33)
    G = random_multilinear(rng, 3, 2, n_entries=5)
    empty = np.zeros((0, 1, 1, 2), dtype=complex)
    other = cvec(rng, 6).reshape(1, 3, 1, 2)
    assert G.batch(empty, other, other.reshape(1, 1, 3, 2)).shape == (0, 3, 3, 2)
    assert G.batch(*[np.zeros((0, 2), dtype=complex)] * 3).shape == (0, 2)


def test_batch_single_vectors_match_call():
    rng = np.random.default_rng(34)
    G = random_multilinear(rng, 2, 3, n_entries=7)
    x, y = cvec(rng, 3), cvec(rng, 3)
    _assert_bitwise(G.batch(x, y), _apply(G, [x, y], "list"))


def test_batch_validates_arguments():
    G = scalar_power(2)
    with pytest.raises(ValueError):
        G.batch(np.ones((3, 1), dtype=complex))
    with pytest.raises(ValueError):
        G.batch(np.ones((3, 2), dtype=complex), np.ones((3, 2), dtype=complex))


def _signed_zeros(rng, x: np.ndarray) -> np.ndarray:
    """x with about a fifth of its real and of its imaginary parts set to
    +0.0 or -0.0."""
    re, im = x.real.copy(), x.imag.copy()
    for part in (re, im):
        hit = rng.random(part.shape) < 0.2
        part[hit] = np.copysign(0.0, rng.standard_normal(hit.sum()))
    return _complex(re, im)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # re + 1j * im would turn -0.0 parts into +0.0
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _oracle_case_map(rng) -> MultiLinearMap:
    arity, dim = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    values = _signed_zeros(rng, _spread_cvecs(rng, int(rng.integers(0, 13))))
    entries = tuple(
        (int(rng.integers(0, dim)), tuple(int(j) for j in rng.integers(0, dim, arity)), v)
        for v in values
    )
    G = MultiLinearMap(arity, dim, entries)
    return G.symmetrized if rng.random() < 0.5 else G


def _oracle_case_args(rng, G: MultiLinearMap, kind: str) -> list[np.ndarray]:
    m, dim = G.arity, G.dim
    if kind == "single":
        shapes = [(dim,)] * m
    elif kind == "outer":
        counts = rng.integers(0, 4, m) if rng.random() < 0.2 else rng.integers(1, 5, m)
        shapes = [
            tuple(int(c) if s == t else 1 for t, c in enumerate(counts)) + (dim,)
            for s in range(m)
        ]
    elif kind == "rowwise":
        rows = int(rng.integers(0, 7))
        shapes = [(rows, dim)] * m
    else:  # mixed ranks: a stack against lone vectors and a broadcast axis
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        choices = [(dim,), (cols, dim), (rows, 1, dim), (rows, cols, dim)]
        shapes = [choices[int(rng.integers(0, 4))] for _ in range(m)]
    return [_signed_zeros(rng, _spread_cvecs(rng, shape)) for shape in shapes]


def test_batch_matches_the_per_entry_oracle_bitwise():
    rng = np.random.default_rng(35)
    kinds = ("single", "outer", "rowwise", "mixed")
    for trial in range(400):
        G = _oracle_case_map(rng)
        args = _oracle_case_args(rng, G, kinds[trial % 4])
        got, want = G.batch(*args), batch_oracle(G, *args)
        assert got.shape == want.shape
        _assert_bitwise(got, want)


@pytest.mark.parametrize("arity", [2, 3])
def test_batch_over_several_entry_chunks_matches_the_oracle_bitwise(arity):
    rng = np.random.default_rng(36)
    G = random_multilinear(rng, arity, 3, n_entries=12).symmetrized
    x = _signed_zeros(rng, _spread_cvecs(rng, (_BLOCK // 28, 1, 3)))
    y = _signed_zeros(rng, _spread_cvecs(rng, (1, 7, 3)))
    per_chunk = _BLOCK // (x.shape[0] * y.shape[1])
    chunks, last = divmod(len(G.entries), per_chunk)
    assert chunks >= 2 and last > 0  # several full chunks and a partial one
    args = [x, y, x][:arity]
    _assert_bitwise(G.batch(*args), batch_oracle(G, *args))
    _assert_bitwise(G.batch(*args[::-1]), batch_oracle(G, *args[::-1]))


def test_batch_peak_memory_stays_within_one_block_of_the_oracle():
    # the padded shape of exp-resonant's largest order-7 products: three
    # (terms, rows) axis pairs of a cubic map, 16,800 broadcast rows.
    # mul_apply_exp stacks only live rows, at most 2,000 at order 7, so this
    # stack is larger than any the package sends at that order
    rng = np.random.default_rng(37)
    G = random_multilinear(rng, 3, 3, n_entries=6)
    x0 = cvec(rng, 7 * 6 * 3).reshape(7, 6, 1, 1, 1, 1, 3)
    x1 = cvec(rng, 5 * 4 * 3).reshape(1, 1, 5, 4, 1, 1, 3)
    x2 = cvec(rng, 5 * 4 * 3).reshape(1, 1, 1, 1, 5, 4, 3)
    G.table  # built once per map, not on the measured call
    oracle = peak_bytes(lambda: batch_oracle(G, x0, x1, x2))
    got = peak_bytes(lambda: G.batch(x0, x1, x2))
    # one chunk's (rows, entries) products, of which about eight float64
    # arrays are alive at once
    block = max(1, _BLOCK // 16800) * 16800
    assert got <= oracle + 8 * 8 * block


# ---------------------------------------------------------------------------
# symmetrization

# Zero or of moderate size, so that no product of up to three factors leaves
# the normal range, where relative rounding bounds stop holding.
_magnitude = st.floats(1e-3, 2.0)
_part = st.one_of(st.just(0.0), _magnitude, _magnitude.map(lambda x: -x))
_value = st.builds(complex, _part, _part)


@st.composite
def _map_and_vectors(draw):
    """An m-linear map with an arbitrary (in general asymmetric) entry table,
    and m argument vectors."""
    arity, dim = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    entry = st.tuples(index, st.tuples(*[index] * arity), _value)
    entries = draw(st.lists(entry, min_size=1, max_size=8))
    vectors = [np.array(draw(st.lists(_value, min_size=dim, max_size=dim))) for _ in range(arity)]
    return MultiLinearMap(arity, dim, tuple(entries)), vectors


def _abs_apply(G: MultiLinearMap, args) -> float:
    """Largest component of |G|(|x1|, ..., |xm|): the scale rounding errors of
    G(x1, ..., xm) are relative to."""
    absolute = MultiLinearMap(G.arity, G.dim, tuple((o, ins, abs(v)) for o, ins, v in G.entries))
    return float(absolute.batch(*(abs(x) for x in args)).real.max())


@given(_map_and_vectors())
@settings(max_examples=150, deadline=None)
def test_symmetrized_map_ignores_argument_order(case):
    G, xs = case
    Gs = G.symmetrized
    want = Gs.batch(*xs)
    perms = list(itertools.permutations(range(G.arity)))
    scale = sum(_abs_apply(G, [xs[p] for p in perm]) for perm in perms)
    for perm in perms:
        assert abs(Gs.batch(*(xs[p] for p in perm)) - want).max() <= 1e-14 * scale


@given(_map_and_vectors(), st.data())
@settings(max_examples=150, deadline=None)
def test_ordering_sum_is_the_weighted_symmetrized_map(case, data):
    # a multiset of the drawn vectors: (a, a), (a, b), (a, a, a), (a, a, b), ...
    G, xs = case
    m = G.arity
    picks = tuple(sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))))
    orderings = set(itertools.permutations(picks))
    per_ordering = sum(G.batch(*(xs[i] for i in ordered)) for ordered in orderings)
    weighted = len(orderings) / math.factorial(m) * G.symmetrized.batch(*(xs[i] for i in picks))
    scale = sum(_abs_apply(G, [xs[i] for i in ordered]) for ordered in orderings)
    assert abs(per_ordering - weighted).max() <= 1e-15 * scale


@given(_map_and_vectors())
@settings(max_examples=100, deadline=None)
def test_symmetrizing_a_symmetric_map_multiplies_it_by_arity_factorial(case):
    G, _ = case
    # every entry under each of its distinct slot permutations, same value
    S = MultiLinearMap(
        G.arity,
        G.dim,
        tuple((o, p, v) for o, ins, v in G.entries for p in set(itertools.permutations(ins))),
    )
    factor = math.factorial(G.arity)
    got = {(o, ins): v for o, ins, v in S.symmetrized.entries}
    want = {(o, ins): factor * v for o, ins, v in S.entries}
    assert got.keys() == want.keys()
    for key, v in want.items():
        assert abs(got[key] - v) <= 1e-15 * abs(v)


@pytest.mark.parametrize("arity, dim", [(2, 1), (3, 4)])
def test_symmetrized_empty_map_stays_empty(arity, dim):
    assert MultiLinearMap(arity, dim).symmetrized.entries == ()


def test_symmetrized_scalar_power_is_exact_and_computed_once():
    for m in (2, 3):
        G = scalar_power(m)
        assert G.symmetrized.entries == ((0, (0,) * m, complex(math.factorial(m))),)
        assert G.symmetrized is G.symmetrized
    # the worked quadratic case: x0*x1 gains its mirror image
    G = MultiLinearMap(2, 2, ((0, (0, 1), 1.0), (1, (1, 1), 3.0)))
    assert G.symmetrized.entries == ((0, (0, 1), 1.0), (0, (1, 0), 1.0), (1, (1, 1), 6.0))
