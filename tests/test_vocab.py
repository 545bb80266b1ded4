import pytest

from wideffn.errors import ConfigError, DataError
from wideffn.vocab import (
    BOS,
    EOS,
    PAD,
    RESERVED_TOKENS,
    UNK,
    Vocab,
    generate_toy_task,
    load_parallel_corpus,
)


def test_reserved_ids_are_fixed():
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
    v = Vocab(list(RESERVED_TOKENS) + ["x", "y"])
    assert v.encode(["x", "nope", "y"]) == [4, UNK, 5]
    assert [v.id_to_token[i] for i in (4, 5)] == ["x", "y"]
    with pytest.raises(ConfigError):
        Vocab(["a", "b", "c", "d"])


def test_toy_tasks_payloads_and_semantics():
    for kind, f in [("copy", lambda s: s), ("reverse", lambda s: s[::-1]),
                    ("sort", sorted)]:
        c = generate_toy_task(kind, 50, (2, 6), 15, seed=11)
        assert len(c) == 50
        for src, tgt in c.pairs:
            assert all(4 <= t < 15 for t in src)
            assert 2 <= len(src) <= 6
            assert tgt == f(src), kind


def test_toy_task_is_deterministic_per_seed():
    a = generate_toy_task("copy", 20, (3, 5), 12, seed=4)
    b = generate_toy_task("copy", 20, (3, 5), 12, seed=4)
    c = generate_toy_task("copy", 20, (3, 5), 12, seed=5)
    assert a.pairs == b.pairs
    assert a.pairs != c.pairs
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_toy_task_argument_validation():
    with pytest.raises(ConfigError):
        generate_toy_task("shuffle", 10, (2, 4), 12)
    with pytest.raises(ConfigError):
        generate_toy_task("copy", 0, (2, 4), 12)
    with pytest.raises(ConfigError):
        generate_toy_task("copy", 10, (4, 2), 12)
    with pytest.raises(ConfigError):
        generate_toy_task("copy", 10, (2, 4), 4)


def test_parallel_corpus_round_trip(tmp_path):
    (tmp_path / "s.txt").write_text("the cat sat\nthe dog ran\n")
    (tmp_path / "t.txt").write_text("le chat assis\nle chien courait\n")
    c = load_parallel_corpus(str(tmp_path / "s.txt"), str(tmp_path / "t.txt"))
    assert len(c) == 2
    # "the" and "le" both appear twice; ties break lexicographically
    assert c.vocab.id_to_token[4:6] == ["le", "the"]
    src0 = [c.vocab.id_to_token[i] for i in c.pairs[0][0]]
    assert src0 == ["the", "cat", "sat"]


def test_parallel_corpus_line_count_mismatch(tmp_path):
    (tmp_path / "s.txt").write_text("a b\nc d\n")
    (tmp_path / "t.txt").write_text("x y\n")
    with pytest.raises(DataError, match="line counts differ"):
        load_parallel_corpus(str(tmp_path / "s.txt"), str(tmp_path / "t.txt"))


def test_parallel_corpus_empty_line_reports_position(tmp_path):
    (tmp_path / "s.txt").write_text("a b\n\nc\n")
    (tmp_path / "t.txt").write_text("x\ny\nz\n")
    with pytest.raises(DataError, match="line 2"):
        load_parallel_corpus(str(tmp_path / "s.txt"), str(tmp_path / "t.txt"))


def test_parallel_corpus_empty_file(tmp_path):
    (tmp_path / "s.txt").write_text("")
    (tmp_path / "t.txt").write_text("")
    with pytest.raises(DataError):
        load_parallel_corpus(str(tmp_path / "s.txt"), str(tmp_path / "t.txt"))


def test_content_hash_tracks_pair_identity():
    a = generate_toy_task("copy", 5, (2, 2), 10, seed=0)
    b = generate_toy_task("reverse", 5, (2, 2), 10, seed=0)
    # same sources, different targets
    assert a.content_hash() != b.content_hash()
