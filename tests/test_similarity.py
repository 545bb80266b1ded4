import logging
import tracemalloc

import numpy as np
import pytest

import wideffn as w
from wideffn import similarity
from wideffn.errors import ConfigError, DataError
from wideffn.similarity import (
    ActivationMatrix,
    collect_activations,
    default_k,
    knn,
    linear_cka,
    lns,
    normalize_against_benchmark,
    pairwise_layer_similarity,
)
from wideffn.transformer import EVAL_ROWS
from wideffn.vocab import Corpus, generate_toy_task

from conftest import count_scored_cells, tiny_config


def _mat(values, h="hash"):
    return ActivationMatrix(np.asarray(values, dtype=np.float32), h)


# ---------------------------------------------------------------- linear CKA

def test_cka_orthogonal_columns_worked_case():
    a = [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]
    b = [[0.0, 2.0], [0.0, -2.0], [0.0, 0.0]]
    assert linear_cka(a, b) == pytest.approx(1.0)


def test_cka_self_is_one_and_range_is_unit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((12, 5))
        b = rng.standard_normal((12, 7))
        v = linear_cka(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert linear_cka(a, a) == pytest.approx(1.0)


def test_cka_invariant_to_rotation_and_scale():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal((20, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base = linear_cka(a, b)
    assert linear_cka(a @ q, b) == pytest.approx(base, abs=1e-10)
    assert linear_cka(3.7 * a, b) == pytest.approx(base, abs=1e-10)
    assert linear_cka(a, 0.01 * b @ q) == pytest.approx(base, abs=1e-10)


def test_cka_invariant_to_shared_row_permutation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((15, 4))
    b = rng.standard_normal((15, 4))
    perm = rng.permutation(15)
    assert linear_cka(a[perm], b[perm]) == pytest.approx(linear_cka(a, b), abs=1e-10)


def test_cka_centering_kills_constant_offsets():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 3))
    b = rng.standard_normal((10, 3))
    assert linear_cka(a + 100.0, b - 7.0) == pytest.approx(linear_cka(a, b), abs=1e-9)


def test_cka_degenerate_input_is_zero():
    const = np.ones((8, 4))
    rng = np.random.default_rng(6)
    assert linear_cka(const, rng.standard_normal((8, 4))) == 0.0
    assert linear_cka(const, const) == 0.0


def test_cka_row_count_mismatch():
    with pytest.raises(DataError):
        linear_cka(np.zeros((3, 2)), np.zeros((4, 2)))


def test_cka_of_paired_spaces_equals_the_cka_of_each_pair_bytes():
    rng = np.random.default_rng(35)
    spaces = [rng.standard_normal((16, d)).astype(np.float32) for d in (3, 8, 5)]
    spaces.append(np.ones((16, 4), dtype=np.float32))  # a constant side scores 0
    cells = [(0, 1), (2, 2), (3, 0), (1, 3), (0, 1), (2, 0), (3, 3)]  # repeats too
    want = np.array([linear_cka(spaces[i], spaces[j]) for i, j in cells])
    assert want[[2, 3, 6]].tolist() == [0.0, 0.0, 0.0]
    mats = [_mat(space) for space in spaces]
    for given in (spaces, mats):  # raw arrays, then matrices that keep their centring
        for _ in range(2):
            got = linear_cka([given[i] for i, _ in cells], [given[j] for _, j in cells])
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert linear_cka(tuple(mats[:2]), tuple(spaces[2:])).tolist() == \
        [linear_cka(spaces[0], spaces[2]), linear_cka(spaces[1], spaces[3])]


@pytest.mark.parametrize("metric", [linear_cka, lns])
def test_both_metrics_take_inputs_by_one_rule(metric):
    rng = np.random.default_rng(37)
    space = rng.standard_normal((6, 3))
    stack = np.stack([space, space])
    for a, b in ((stack, stack), (space, stack), (stack, space), (space[0], space)):
        with pytest.raises(DataError, match=r"an \(n, d\) matrix"):
            metric(a, b)
    for a, b in (([space], space), ([space, space], [space]), ([space], [space[:5]])):
        with pytest.raises(DataError):
            metric(a, b)
    one, other = _mat(space, h="aaa"), _mat(space, h="bbb")
    for a, b in ((one, other), ([one, one], [one, other])):
        with pytest.raises(DataError, match="different corpora"):
            metric(a, b)
    assert metric(space.tolist(), space) == metric(space, space)  # nested lists: one space


# ----------------------------------------------------------------------- kNN

def test_knn_ordering_by_cosine_angle():
    pts = np.array([
        [1.0, 0.0],     # query
        [0.95, 0.05],   # ~3 degrees
        [0.7, 0.7],     # 45 degrees
        [0.0, 1.0],     # 90 degrees
        [-1.0, 0.1],    # ~174 degrees
    ])
    assert knn(pts, 3)[0].tolist() == [1, 2, 3]
    assert knn(pts, 4)[0].tolist() == [1, 2, 3, 4]


def test_knn_excludes_query_and_breaks_ties_low():
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    # rows 1 and 2 are both at distance 0 from row 0 (same direction)
    assert knn(pts, 1)[0].tolist() == [1]
    assert knn(pts, 2)[0].tolist() == [1, 2]
    table = knn(pts, 3)
    assert all(i not in row for i, row in enumerate(table.tolist()))


def test_knn_zero_rows_warn_and_rank_last(caplog):
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.9, 0.1]])
    with caplog.at_level(logging.WARNING, logger="wideffn.similarity"):
        table = knn(pts, 2)
    assert table[0].tolist() == [2, 1]
    assert [r.message for r in caplog.records] == [
        "knn: 1 all-zero rows treated as distance 1 from everything"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="wideffn.similarity"):
        lns(pts, pts, k=1)
    assert len(caplog.records) == 2  # one per neighbour table


def _knn_oracle(x, k):
    """c05's brute force, one query row at a time; zero rows stay zero."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / np.where(norms == 0.0, 1.0, norms)
    rows = []
    for i in range(len(x)):
        dist = 1.0 - unit @ unit[i]
        dist[i] = np.inf
        rows.append(np.lexsort((np.arange(len(x)), dist))[:k].tolist())
    return rows


def _spaces_with_ties_and_zero_rows(rng):
    """Random float32 spaces of 2 to 300 rows, some with repeated rows (exact
    ties in every neighbour list) and some with all-zero rows."""
    spaces = [rng.standard_normal((32, 64)).astype(np.float32) for _ in range(3)]
    spaces.append(rng.standard_normal((6, 8)).astype(np.float32)[rng.integers(0, 6, 30)])
    for n in (2, 3, *rng.integers(4, 301, 8)):
        space = rng.standard_normal((n, rng.integers(1, 40))).astype(np.float32)
        if n > 3:
            space[rng.integers(0, n, n // 3)] = space[rng.integers(0, n, n // 3)]
            space[rng.integers(0, n, 2)] = 0.0
        spaces.append(space)
    return spaces


def test_knn_table_rows_equal_the_per_row_oracle(monkeypatch):
    rng = np.random.default_rng(13)
    spaces = _spaces_with_ties_and_zero_rows(rng)
    for space in spaces:
        x = space.astype(np.float64)
        for k in sorted({1, min(3, len(x) - 1), int(rng.integers(1, len(x))), len(x) - 1}):
            assert knn(space, k).tolist() == _knn_oracle(x, k), (space.shape, k)
    # a space over several row blocks: one row a block, then blocks of 5 rows
    # whose last one is partial, then a block of 97 rows and one of 1
    x = rng.standard_normal((98, 6))
    x[rng.integers(0, 98, 30)] = x[rng.integers(0, 98, 30)]
    x[[0, 50, 97]] = 0.0
    for cells in (1, 5 * 98, 97 * 98):
        monkeypatch.setattr(similarity, "ROW_BLOCK_CELLS", cells)
        for k in (1, 4, 97):
            assert knn(x, k).tolist() == _knn_oracle(x, k), (cells, k)


def test_a_stack_of_spaces_gets_each_space_s_table_bytes(monkeypatch):
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((5, 60, 7)).astype(np.float32)
    stack[:, rng.integers(0, 60, 20)] = stack[:, rng.integers(0, 60, 20)]  # exact ties
    stack[1, [0, 33]] = 0.0
    stack[3, 59] = 0.0
    want = {k: [knn(space, k) for space in stack] for k in (1, 4, 59)}
    # blocks of one row, of a partial 7 rows of every space, of 13 rows, and
    # of every row
    for cells in (1, 7 * 5 * 60, 13 * 5 * 60, similarity.ROW_BLOCK_CELLS):
        monkeypatch.setattr(similarity, "ROW_BLOCK_CELLS", cells)
        for k, tables in want.items():
            got = knn(stack, k)
            assert got.shape == (5, 60, k)
            for space, table in enumerate(tables):
                assert got[space].tobytes() == table.tobytes(), (cells, k, space)
            assert knn(stack[3:4], k)[0].tobytes() == tables[3].tobytes(), (cells, k)


def test_a_stack_warns_once_per_table_with_zero_rows(caplog):
    stack = np.ones((3, 4, 2))
    stack[0, 1] = stack[2, :2] = 0.0
    with caplog.at_level(logging.WARNING, logger="wideffn.similarity"):
        knn(stack, 2)
    assert [r.message for r in caplog.records] == [
        "knn: 1 all-zero rows treated as distance 1 from everything",
        "knn: 2 all-zero rows treated as distance 1 from everything"]


def test_knn_and_lns_hold_a_row_block_not_the_whole_space():
    rng = np.random.default_rng(21)
    space = rng.standard_normal((3000, 16)).astype(np.float32)
    inputs = 2 * space.astype(np.float64).nbytes  # the float64 copy and its unit rows
    bound = 4 * similarity.ROW_BLOCK_CELLS * 8 + inputs  # one n x n float64 is 72 MB
    tracemalloc.start()
    try:
        table = knn(space, 5)
        knn_peak = tracemalloc.get_traced_memory()[1]
        # k = 300 over 1,000 rows: all (row, id, id) tests at once would be 90 MB
        a, b = (_mat(rng.standard_normal((1000, 8))) for _ in range(2))
        lns(a, b, k=300)  # builds the two tables and keeps them
        tracemalloc.reset_peak()
        lns(a, b, k=300)
        lns_peak = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert knn_peak < bound, (knn_peak, bound)
    assert lns_peak < bound, (lns_peak, bound)
    x = space.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / norms
    for i in rng.choice(3000, 12, replace=False):
        dist = 1.0 - unit @ unit[i]
        dist[i] = np.inf
        assert table[i].tolist() == np.lexsort((np.arange(3000), dist))[:5].tolist(), i


def test_knn_argument_guards():
    pts = np.eye(3)
    with pytest.raises(ConfigError):
        knn(pts, 0)
    with pytest.raises(ConfigError):
        knn(pts, 3)  # k can be at most n-1


def test_default_k_is_five_percent_rounded_up():
    assert default_k(2) == 1
    assert default_k(20) == 1
    assert default_k(21) == 2
    assert default_k(100) == 5
    assert default_k(101) == 6


# ----------------------------------------------------------------------- LNS

def test_lns_identical_spaces_score_one():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 6))
    assert lns(a, a.copy(), k=3) == pytest.approx(1.0)


def _lns_oracle(table_a, table_b):
    """Mean Jaccard overlap of two tables' rows, from sets, summed left to right."""
    total = 0.0
    for row_a, row_b in zip(table_a, table_b):
        sa, sb = set(row_a), set(row_b)
        total += len(sa & sb) / len(sa | sb)
    return total / len(table_a)


def test_lns_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(8)
    pairs = [(rng.standard_normal((25, 5)), rng.standard_normal((25, 5)))]
    for space in _spaces_with_ties_and_zero_rows(rng):
        near = space + rng.normal(0.0, 0.3, space.shape).astype(np.float32)
        pairs.append((space, near))
    for a, b in pairs:
        n = len(a)
        for k in sorted({1, min(4, n - 1), int(rng.integers(1, n)), n - 1}):
            want = _lns_oracle(_knn_oracle(a.astype(np.float64), k),
                               _knn_oracle(b.astype(np.float64), k))
            assert lns(a, b, k=k) == want, (a.shape, k)
    a, b = pairs[0]
    want = lns(a, b, k=4)
    for cells in (1, 16 * 7, 16 * 24):  # a row a block, then partial blocks
        monkeypatch.setattr(similarity, "ROW_BLOCK_CELLS", cells)
        assert lns(a, b, k=4) == want


def test_lns_uses_default_k_when_unset():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((40, 4))
    b = rng.standard_normal((40, 4))
    assert lns(a, b) == pytest.approx(lns(a, b, k=default_k(40)))


def test_lns_reads_k_by_the_one_integer_rule():
    x = np.random.default_rng(0).normal(size=(10, 3))
    for k in (True, 2.5, np.float64(2.0), "2"):
        with pytest.raises(ConfigError, match="k must be int"):
            lns(x, x, k=k)
    with pytest.raises(ConfigError, match="k must be at least 1"):
        lns(x, x, k=0)
    with pytest.raises(ConfigError, match=r"k must be in \[1, 9\]"):
        lns(x, x, k=10)
    assert lns(x, x, k=np.int64(2)) == lns(x, x, k=2) == 1.0


def test_lns_rejects_mismatched_corpora():
    rng = np.random.default_rng(10)
    a = _mat(rng.standard_normal((6, 3)), h="aaa")
    b = _mat(rng.standard_normal((6, 3)), h="bbb")
    with pytest.raises(DataError):
        lns(a, b, k=1)


def test_lns_needs_two_rows():
    with pytest.raises(DataError):
        lns(np.ones((1, 3)), np.ones((1, 3)))


def test_lns_of_paired_spaces_equals_the_lns_of_each_pair_bytes(monkeypatch):
    rng = np.random.default_rng(32)
    spaces = _spaces_with_ties_and_zero_rows(rng)[:3]  # three 32 x 64 spaces
    spaces.append(spaces[0] + rng.normal(0.0, 0.3, spaces[0].shape).astype(np.float32))
    spaces[1][[3, 17]] = 0.0
    cells = [(0, 1), (2, 2), (3, 0), (1, 3), (0, 1), (2, 0)]  # any set, repeats too
    for k in (1, 3, 31):
        want = [lns(spaces[i], spaces[j], k=k) for i, j in cells]
        # blocks of one row, of 3 rows of one cell, of 2 whole cells, and of every cell
        for block in (1, 3 * k * k, 2 * 32 * k * k, similarity.ROW_BLOCK_CELLS):
            monkeypatch.setattr(similarity, "ROW_BLOCK_CELLS", block)
            mats = [_mat(space) for space in spaces]
            got = lns([mats[i] for i, _ in cells], [mats[j] for _, j in cells], k=k)
            assert got.tolist() == want, (k, block)
            assert lns(spaces[:2], spaces[2:], k=k).tolist() == \
                [lns(spaces[0], spaces[2], k=k), lns(spaces[1], spaces[3], k=k)]


def test_lns_of_paired_spaces_makes_one_knn_call_per_side(monkeypatch):
    rng = np.random.default_rng(34)
    a, b = ([_mat(rng.standard_normal((20, 4))) for _ in range(3)] for _ in range(2))
    calls = []
    monkeypatch.setattr(similarity, "knn", lambda x, k: calls.append(x.shape) or knn(x, k))
    lns([a[0], a[1], a[0], a[2]], [b[0], b[0], b[1], b[2]], k=2)
    assert calls == [(3, 20, 4), (3, 20, 4)]
    lns(a[:2], b[1:], k=2)  # every table is kept on its matrix
    assert len(calls) == 2
    with pytest.raises(DataError):
        lns(a, b[:2], k=2)


def test_lns_over_tap_stacks_holds_blocks_not_every_id_test():
    rng = np.random.default_rng(33)
    taps_a, taps_b = ([_mat(rng.standard_normal((1000, 8))) for _ in range(8)] for _ in range(2))
    left = [a for a in taps_a for _ in taps_b]
    right = [b for _ in taps_a for b in taps_b]
    lns(left, right, k=50)  # builds the tables and keeps them
    tracemalloc.start()
    try:
        got = lns(left, right, k=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 2 * 8 * 1000 * 50 * 8  # both sides' stacked tables
    scores = 3 * 64 * 1000 * 8  # each cell's row counts, ratios and running sums
    bound = tables + scores + 4 * similarity.ROW_BLOCK_CELLS * 8
    assert peak < bound, (peak, bound)  # every (cell, row, id, id) test at once is 160 MB
    assert got[[0, 9]].tolist() == [lns(taps_a[0].values, taps_b[0].values, k=50),
                                    lns(taps_a[1].values, taps_b[1].values, k=50)]


def test_normalization_reads_benchmark_as_100():
    assert normalize_against_benchmark(94.0, [96.0]) == pytest.approx(97.9166667)
    assert normalize_against_benchmark(0.5, [0.4, 0.6]) == pytest.approx(100.0)
    with pytest.raises(DataError):
        normalize_against_benchmark(1.0, [])
    with pytest.raises(DataError):
        normalize_against_benchmark(1.0, [0.0, 0.0])


# ------------------------------------------------------------------- reports

def _two_tap_sets():
    corpus = generate_toy_task("copy", 24, (3, 6), 12, seed=1)
    ma = w.build_model(tiny_config(), seed=0)
    mb = w.build_model(tiny_config(), seed=1)
    ta = collect_activations(ma, corpus)["encoder"]
    tb = collect_activations(mb, corpus)["encoder"]
    return ta, tb


def test_collect_activations_shapes_and_labels():
    corpus = generate_toy_task("copy", 10, (3, 6), 12, seed=1)
    m = w.build_model(tiny_config(), seed=0)
    sides = collect_activations(m, corpus)
    assert list(sides) == ["encoder", "decoder"]
    assert set(sides["encoder"]) == {"0.sa", "0.ffn", "1.sa", "1.ffn"}
    assert set(sides["decoder"]) == {"0.sa", "0.ca", "0.ffn", "1.sa", "1.ca", "1.ffn"}
    for taps in sides.values():
        for mat in taps.values():
            assert mat.values.shape == (10, 16)
            assert mat.corpus_hash == corpus.content_hash()
    dec_only = w.build_model(tiny_config(n_enc=0, architecture="decoder-only"), seed=0)
    assert list(collect_activations(dec_only, corpus)) == ["decoder"]
    with pytest.raises(DataError):
        collect_activations(m, Corpus([], corpus.vocab))


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_collect_activations_equals_the_per_sentence_mean_bytes(arch):
    # ragged pairs over at least three chunks, the last one partial: two
    # chunks' worth of the widest pairs, 1 to 9 tokens, and five more pairs
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=5)
    widest = 10 if arch == "encoder-decoder" else 20
    corpus = generate_toy_task("copy", 2 * (EVAL_ROWS // widest) + 5, (1, 9), 12, seed=3)
    assert len({len(src) for src, _ in corpus.pairs}) > 1
    chunks = m.chunk_pairs(corpus.pairs)
    assert len(chunks) >= 3 and len(chunks[-1]) < min(map(len, chunks[:-1]))
    oracle = {}
    for chunk, _, sides in m.eval_chunks(corpus.pairs):
        lengths = {"encoder": [len(src) + 1 for src, _ in chunk],
                   "decoder": [len(m.inputs(src, tgt)["decoder"]) for src, tgt in chunk]}
        for side, taps in sides.items():
            for name, tensor in taps.items():
                blocks = tensor.data.reshape(len(chunk), -1, tensor.shape[1])
                oracle.setdefault(side, {}).setdefault(name, []).extend(
                    block[:n].mean(axis=0) for block, n in zip(blocks, lengths[side]))
    got = collect_activations(m, corpus)
    assert {side: set(taps) for side, taps in got.items()} == \
        {side: set(taps) for side, taps in oracle.items()}
    for side, taps in oracle.items():
        for name, rows in taps.items():
            want = np.stack(rows)
            assert got[side][name].values.dtype == want.dtype
            assert got[side][name].values.tobytes() == want.tobytes(), (side, name)


def test_sentence_means_equal_np_mean_with_where_bytes():
    # ragged pairs, as in the test above: the oracle is np.mean(where=) of
    # each chunk's taps, which counts the real rows itself
    m = w.build_model(tiny_config(), seed=6)
    corpus = generate_toy_task("copy", 2 * (EVAL_ROWS // 10) + 5, (1, 9), 12, seed=4)
    oracle = {}
    for chunk, _, sides in m.eval_chunks(corpus.pairs):
        for side, taps in sides.items():
            lengths = np.array([len(m.inputs(src, tgt)[side]) for src, tgt in chunk])
            for name, tensor in taps.items():
                blocks = tensor.data.reshape(len(chunk), -1, tensor.shape[1])
                real = (np.arange(blocks.shape[1]) < lengths[:, None])[:, :, None]
                oracle.setdefault(side, {}).setdefault(name, []).append(
                    np.mean(blocks, axis=1, where=real))
    got = collect_activations(m, corpus)
    for side, taps in oracle.items():
        for name, parts in taps.items():
            assert got[side][name].values.tobytes() == np.concatenate(parts).tobytes()


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_stacked_sentence_means_equal_each_tap_s_masked_mean_bytes(arch):
    # a ragged probe of 1 to 12 tokens a sentence over several chunks; the
    # oracle is one masked sum per tap, divided as np.mean does
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=7)
    corpus = generate_toy_task("copy", 3 * (EVAL_ROWS // 24) + 7, (1, 12), 12, seed=8)
    assert {len(src) for src, _ in corpus.pairs} == set(range(1, 13))
    oracle = {}
    for chunk, _, sides in m.eval_chunks(corpus.pairs):
        for side, taps in sides.items():
            lengths = np.array([len(m.inputs(src, tgt)[side]) for src, tgt in chunk])[:, None]
            for name, tensor in taps.items():
                blocks = tensor.data.reshape(len(chunk), -1, tensor.shape[1])
                real = (np.arange(blocks.shape[1]) < lengths)[:, :, None]
                means = np.add.reduce(blocks, axis=1, where=real)
                np.true_divide(means, lengths, out=means, casting="unsafe")
                oracle.setdefault(side, {}).setdefault(name, []).append(means)
    got = collect_activations(m, corpus)
    assert list(got) == list(oracle)
    for side, taps in oracle.items():
        assert list(got[side]) == list(taps)
        for name, parts in taps.items():
            assert got[side][name].values.tobytes() == np.concatenate(parts).tobytes()


def test_activation_values_are_a_read_only_copy():
    given = np.ones((3, 2), dtype=np.float32)
    mat = _mat(given)
    given[0, 0] = 5.0
    assert mat.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        mat.values[0, 0] = 2.0
    with pytest.raises(AttributeError):
        mat.values = np.zeros((3, 2), dtype=np.float32)


def test_pairwise_matrices_equal_the_metric_on_raw_arrays():
    ta, tb = _two_tap_sets()
    rows, cols = sorted(ta), sorted(tb)
    # a memo keyed on anything less than (metric form, k) fails the later cases
    for metric, k in (("cka", None), ("lns", 2), ("lns", 3)):
        fn = linear_cka if metric == "cka" else lambda a, b: lns(a, b, k=k)
        want = {(r, c): fn(ta[r].values, tb[c].values) for r in rows for c in cols}
        for _ in range(2):  # the second call reads every matrix's memo
            rep = pairwise_layer_similarity(ta, tb, metric=metric, k=k)
            for i, r in enumerate(rep.row_labels):
                for j, c in enumerate(rep.col_labels):
                    assert rep.matrix[i, j] == want[r, c], (metric, k, r, c)


def test_every_lns_cell_set_of_a_report_equals_per_cell_lns_bytes(monkeypatch):
    ta, tb = _two_tap_sets()
    tc = {name: tb[name] for name in ("0.sa", "1.sa", "1.ffn")}
    for block in (1, 7, similarity.ROW_BLOCK_CELLS):
        monkeypatch.setattr(similarity, "ROW_BLOCK_CELLS", block)
        for a, b, only in ((ta, tb, False), (ta, tc, True), (ta, ta, False), (ta, ta, True)):
            rep = pairwise_layer_similarity(a, b, metric="lns", k=3, aggregate_only=only)
            scored = ~np.isnan(rep.matrix)
            for i, r in enumerate(rep.row_labels):
                for j, c in enumerate(rep.col_labels):
                    if scored[i, j]:
                        assert rep.matrix[i, j] == lns(a[r].values, b[c].values, k=3), (r, c)
            assert scored.sum() == (len(a) * len(b) if not only else
                                    len(set(a) & set(b))), (block, only)


def test_pairwise_report_layout_and_aggregate():
    ta, tb = _two_tap_sets()
    rep = pairwise_layer_similarity(ta, tb, metric="cka")
    assert rep.row_labels == ["0.sa", "0.ffn", "1.sa", "1.ffn"]
    assert rep.col_labels == rep.row_labels
    assert rep.matrix.shape == (4, 4)
    diag = [rep.matrix[i, i] for i in range(4)]
    assert rep.aggregate == pytest.approx(float(np.mean(diag)))


def test_an_aggregate_only_report_scores_only_the_cells_its_aggregate_reads(monkeypatch):
    ta, tb = _two_tap_sets()
    tb = {name: tb[name] for name in ("0.sa", "1.sa", "1.ffn")}
    cells = count_scored_cells(monkeypatch)
    for metric, k in (("cka", None), ("lns", 2)):
        full = pairwise_layer_similarity(ta, tb, metric=metric, k=k)
        cells.clear()
        rep = pairwise_layer_similarity(ta, tb, metric=metric, k=k, aggregate_only=True)
        assert cells == [3], metric  # one call scores every cell
        assert rep.aggregate == full.aggregate, metric
        assert (rep.row_labels, rep.col_labels) == (full.row_labels, full.col_labels)
        read = np.array([[r == c for c in rep.col_labels] for r in rep.row_labels])
        assert np.array_equal(rep.matrix[read], full.matrix[read]), metric
        assert np.isnan(rep.matrix[~read]).all(), metric


def test_decoder_labels_follow_execution_order():
    corpus = generate_toy_task("copy", 8, (3, 5), 12, seed=2)
    m = w.build_model(tiny_config(), seed=0)
    taps = collect_activations(m, corpus)["decoder"]
    rep = pairwise_layer_similarity(taps, taps)
    assert rep.row_labels == ["0.sa", "0.ca", "0.ffn", "1.sa", "1.ca", "1.ffn"]


def test_self_similarity_is_exactly_symmetric_from_the_upper_triangle(monkeypatch):
    corpus = generate_toy_task("copy", 8, (3, 5), 12, seed=2)
    taps = collect_activations(w.build_model(tiny_config(), seed=2), corpus)["decoder"]
    cells = count_scored_cells(monkeypatch)
    rep = pairwise_layer_similarity(taps, taps)
    n = len(rep.row_labels)
    assert np.array_equal(rep.matrix, rep.matrix.T)
    assert cells == [n * (n + 1) // 2]  # one call scores the upper triangle
    for i, r in enumerate(rep.row_labels):
        for j, c in enumerate(rep.col_labels[i:], start=i):
            assert rep.matrix[i, j] == linear_cka(taps[r], taps[c])


def test_self_similarity_diagonal_is_one():
    ta, _ = _two_tap_sets()
    rep = pairwise_layer_similarity(ta, ta)
    for i in range(len(rep.row_labels)):
        assert rep.matrix[i, i] == pytest.approx(1.0)


def test_zero_overlap_is_a_data_error():
    rng = np.random.default_rng(11)
    h = "same"
    a = {
        "0.ffn": _mat(rng.standard_normal((12, 4)), h),
        "1.ffn": _mat(rng.standard_normal((12, 4)), h),
    }
    b = {
        "0.sa": _mat(rng.standard_normal((12, 4)), h),
        "1.sa": _mat(rng.standard_normal((12, 4)), h),
    }
    with pytest.raises(DataError, match="share no module names"):
        pairwise_layer_similarity(a, b, metric="cka")
    with pytest.raises(DataError, match="share no module names"):
        pairwise_layer_similarity(a, {"0.sa": b["0.sa"]})


def test_pairwise_rejects_mixed_corpora():
    rng = np.random.default_rng(12)
    a = {"0.sa": _mat(rng.standard_normal((6, 3)), h="one")}
    b = {"0.sa": _mat(rng.standard_normal((6, 3)), h="two")}
    with pytest.raises(DataError):
        pairwise_layer_similarity(a, b)


def test_lns_report_over_real_activations():
    ta, tb = _two_tap_sets()
    rep = pairwise_layer_similarity(ta, tb, metric="lns", k=2)
    assert 0.0 <= rep.aggregate <= 1.0
    same = pairwise_layer_similarity(ta, ta, metric="lns", k=2)
    assert same.aggregate == pytest.approx(1.0)

