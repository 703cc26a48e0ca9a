"""Unit tests for repro.core.isolation (levels and allocations)."""

import copy
import itertools
import operator
import pickle

import pytest

from repro.core.isolation import (
    Allocation,
    IsolationLevel,
    ORACLE_LEVELS,
    POSTGRES_LEVELS,
    allocation,
)
from repro.core.workload import WorkloadError, workload


class TestIsolationLevel:
    def test_preference_order(self):
        assert IsolationLevel.RC < IsolationLevel.SI < IsolationLevel.SSI

    def test_total_ordering_helpers(self):
        assert IsolationLevel.SSI >= IsolationLevel.SI
        assert IsolationLevel.RC <= IsolationLevel.RC
        assert max(IsolationLevel.RC, IsolationLevel.SSI) is IsolationLevel.SSI

    def test_ranks(self):
        assert [level.rank for level in IsolationLevel] == [0, 1, 2]

    def test_parse_short_names(self):
        assert IsolationLevel.parse("RC") is IsolationLevel.RC
        assert IsolationLevel.parse("si") is IsolationLevel.SI
        assert IsolationLevel.parse("Ssi") is IsolationLevel.SSI

    def test_parse_long_names(self):
        assert IsolationLevel.parse("read committed") is IsolationLevel.RC
        assert IsolationLevel.parse("snapshot-isolation") is IsolationLevel.SI
        assert (
            IsolationLevel.parse("serializable_snapshot_isolation")
            is IsolationLevel.SSI
        )

    def test_parse_identity(self):
        assert IsolationLevel.parse(IsolationLevel.SI) is IsolationLevel.SI

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            IsolationLevel.parse("serializable")

    def test_level_classes(self):
        assert POSTGRES_LEVELS == (
            IsolationLevel.RC,
            IsolationLevel.SI,
            IsolationLevel.SSI,
        )
        assert ORACLE_LEVELS == (IsolationLevel.RC, IsolationLevel.SI)

    def test_str(self):
        assert str(IsolationLevel.RC) == "RC"


#: Every way of writing each level that ``IsolationLevel.parse`` accepts.
_SPELLINGS = {
    IsolationLevel.RC: ("RC", "read committed"),
    IsolationLevel.SI: ("SI", "snapshot isolation"),
    IsolationLevel.SSI: ("SSI", "serializable snapshot isolation"),
}


def _variants(text):
    """``text`` in three cases, with ``-``/``_``/`` `` between words,
    bare and padded with outer whitespace."""
    for case in (str.lower, str.upper, str.title):
        for sep in (" ", "-", "_"):
            spelled = case(text).replace(" ", sep)
            yield spelled
            yield f"  {spelled}\t"


class TestIsolationLevelContract:
    """What callers may rely on, however the levels are implemented."""

    @pytest.mark.parametrize("level", list(IsolationLevel))
    def test_pickle_and_copy_return_the_member(self, level):
        assert pickle.loads(pickle.dumps(level)) is level
        assert copy.copy(level) is level
        assert copy.deepcopy(level) is level

    def test_unpickled_member_finds_its_dict_entry(self):
        table = {level: level.name for level in IsolationLevel}
        for level in IsolationLevel:
            assert table[pickle.loads(pickle.dumps(level))] == level.name
        assert pickle.loads(pickle.dumps(table)) == table

    def test_no_equality_with_ints(self):
        assert IsolationLevel.RC != 0
        assert IsolationLevel.SSI != 2
        assert IsolationLevel.SI not in (1, "SI")

    @pytest.mark.parametrize("other", [0, 1, "SI"])
    @pytest.mark.parametrize(
        "compare", [operator.lt, operator.le, operator.gt, operator.ge]
    )
    def test_order_against_a_non_level_raises(self, compare, other):
        for level in IsolationLevel:
            with pytest.raises(TypeError):
                compare(level, other)
            with pytest.raises(TypeError):
                compare(other, level)

    def test_order_matches_rank(self):
        for a, b in itertools.product(IsolationLevel, repeat=2):
            assert (a < b) == (a.rank < b.rank)
            assert (a <= b) == (a.rank <= b.rank)
            assert (a > b) == (a.rank > b.rank)
            assert (a >= b) == (a.rank >= b.rank)
        assert sorted(reversed(list(IsolationLevel))) == list(IsolationLevel)

    @pytest.mark.parametrize("level", list(IsolationLevel))
    def test_every_spelling_parses_to_the_member(self, level):
        for text in _SPELLINGS[level]:
            for spelled in _variants(text):
                assert IsolationLevel.parse(spelled) is level, spelled

    @pytest.mark.parametrize(
        "text", ["serializable", "", "R C", "SI SI", "1", None, 5, 1.5, b"SI"]
    )
    def test_unknown_input_is_a_value_error(self, text):
        with pytest.raises(ValueError) as excinfo:
            IsolationLevel.parse(text)
        assert str(excinfo.value) == f"unknown isolation level {text!r}"


class TestAllocation:
    def setup_method(self):
        self.wl = workload("R1[x]", "R2[y]", "R3[z]")

    def test_uniform_constructors(self):
        assert set(Allocation.rc(self.wl).items()) == {
            (1, IsolationLevel.RC),
            (2, IsolationLevel.RC),
            (3, IsolationLevel.RC),
        }
        assert Allocation.si(self.wl)[2] is IsolationLevel.SI
        assert Allocation.ssi(self.wl)[3] is IsolationLevel.SSI

    def test_parse_strings_in_mapping(self):
        alloc = Allocation({1: "RC", 2: "SSI"})
        assert alloc[1] is IsolationLevel.RC
        assert alloc[2] is IsolationLevel.SSI

    def test_getitem_missing(self):
        with pytest.raises(WorkloadError):
            Allocation({1: "RC"})[2]

    def test_with_level(self):
        base = Allocation.rc(self.wl)
        updated = base.with_level(2, "SSI")
        assert updated[2] is IsolationLevel.SSI
        assert base[2] is IsolationLevel.RC  # immutability

    def test_with_level_unknown_tid(self):
        with pytest.raises(WorkloadError):
            Allocation.rc(self.wl).with_level(9, "SI")

    def test_tids_at(self):
        alloc = Allocation({1: "RC", 2: "SSI", 3: "RC"})
        assert alloc.tids_at("RC") == (1, 3)
        assert alloc.tids_at(IsolationLevel.SI) == ()

    def test_covers(self):
        assert Allocation.rc(self.wl).covers(self.wl)
        assert not Allocation({1: "RC"}).covers(self.wl)

    def test_uses_only(self):
        alloc = Allocation({1: "RC", 2: "SI"})
        assert alloc.uses_only(ORACLE_LEVELS)
        assert not Allocation({1: "SSI"}).uses_only(ORACLE_LEVELS)

    def test_pointwise_order(self):
        lower = Allocation({1: "RC", 2: "SI"})
        upper = Allocation({1: "SI", 2: "SI"})
        assert lower <= upper
        assert lower < upper
        assert not upper <= lower

    def test_incomparable_allocations(self):
        a = Allocation({1: "RC", 2: "SSI"})
        b = Allocation({1: "SSI", 2: "RC"})
        assert not a <= b and not b <= a

    def test_order_requires_same_tids(self):
        with pytest.raises(WorkloadError):
            Allocation({1: "RC"}) <= Allocation({2: "RC"})

    def test_equality_and_hash(self):
        a = Allocation({1: "RC", 2: "SI"})
        b = Allocation({2: "SI", 1: "RC"})
        assert a == b and hash(a) == hash(b)

    def test_str(self):
        assert str(Allocation({1: "RC", 2: "SSI"})) == "T1:RC, T2:SSI"

    def test_levels_are_not_parsed_again(self, monkeypatch):
        def refuse(cls, text):
            raise AssertionError(f"parsed {text!r}")

        levels = {2: IsolationLevel.SI, 1: IsolationLevel.RC}
        monkeypatch.setattr(IsolationLevel, "parse", classmethod(refuse))
        alloc = Allocation(levels)
        assert list(alloc.items()) == sorted(levels.items())
        assert alloc.with_level(1, IsolationLevel.SSI)[1] is IsolationLevel.SSI
        assert alloc.tids_at(IsolationLevel.SI) == (2,)
        assert Allocation.uniform(self.wl, IsolationLevel.SI).tids == (1, 2, 3)

    def test_keyword_constructor(self):
        alloc = allocation(T1="RC", T2="SSI")
        assert alloc[1] is IsolationLevel.RC
        assert alloc[2] is IsolationLevel.SSI

    def test_keyword_constructor_bad_key(self):
        with pytest.raises(WorkloadError):
            allocation(X1="RC")

    def test_len_iter_contains(self):
        alloc = Allocation({1: "RC", 2: "SI"})
        assert len(alloc) == 2
        assert list(alloc) == [1, 2]
        assert 1 in alloc and 3 not in alloc
