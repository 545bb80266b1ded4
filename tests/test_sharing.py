import pytest

from wideffn.errors import ConfigError
from wideffn.sharing import FFNStrategy, resolve_ffn_assignment


def test_parse_round_trips():
    for text in ("Individual", "SharedAll", "NoOp", "Sequence(2)", "Cycle(3)", "CycleRev(3)"):
        assert str(FFNStrategy.parse(text)) == text


@pytest.mark.parametrize("bad", ["Shared", "ShardEnc", "Sequence", "Cycle()", "Sequence(-1)", "cycle(2)"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        FFNStrategy.parse(bad)


def test_assignments_for_six_layers():
    assert resolve_ffn_assignment("Individual", 6) == [0, 1, 2, 3, 4, 5]
    assert resolve_ffn_assignment("SharedAll", 6) == [0, 0, 0, 0, 0, 0]
    assert resolve_ffn_assignment("NoOp", 6) == []
    # contiguous blocks
    assert resolve_ffn_assignment("Sequence(1)", 6) == [0] * 6
    assert resolve_ffn_assignment("Sequence(2)", 6) == [0, 0, 0, 1, 1, 1]
    assert resolve_ffn_assignment("Sequence(3)", 6) == [0, 0, 1, 1, 2, 2]
    # rotation
    assert resolve_ffn_assignment("Cycle(1)", 6) == [0] * 6
    assert resolve_ffn_assignment("Cycle(2)", 6) == [0, 1, 0, 1, 0, 1]
    assert resolve_ffn_assignment("Cycle(3)", 6) == [0, 1, 2, 0, 1, 2]
    # palindrome
    assert resolve_ffn_assignment("CycleRev(3)", 6) == [0, 1, 2, 2, 1, 0]
    assert resolve_ffn_assignment("CycleRev(2)", 4) == [0, 1, 1, 0]


def test_group_count_constraints():
    with pytest.raises(ConfigError):
        resolve_ffn_assignment("Sequence(4)", 6)
    with pytest.raises(ConfigError):
        resolve_ffn_assignment("Cycle(5)", 6)
    with pytest.raises(ConfigError):
        resolve_ffn_assignment("CycleRev(2)", 6)  # only M = N/2 is defined
    with pytest.raises(ConfigError):
        resolve_ffn_assignment("CycleRev(3)", 5)


def test_physical_counts_match_assignments():
    for text, n, expect in [
        ("Individual", 6, 6),
        ("SharedAll", 6, 1),
        ("NoOp", 6, 0),
        ("Sequence(3)", 6, 3),
        ("Cycle(2)", 6, 2),
        ("CycleRev(3)", 6, 3),
    ]:
        assignment = resolve_ffn_assignment(FFNStrategy.parse(text), n)
        assert len(set(assignment)) == expect
        if assignment:
            assert len(assignment) == n
