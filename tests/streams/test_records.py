"""Record construction and access."""

import pytest

from repro.errors import SchemaError
from repro.streams.records import Record
from repro.streams.schema import Attribute, StreamSchema

SCHEMA = StreamSchema("S", [Attribute("a"), Attribute("b"), Attribute("name", "str")])


def make(a=1, b=2, name="x"):
    return Record(SCHEMA, (a, b, name))


class TestConstruction:
    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError, match="needs 3 values"):
            Record(SCHEMA, (1, 2))

    def test_from_mapping_defaults(self):
        rec = Record.from_mapping(SCHEMA, {"a": 7})
        assert rec["a"] == 7
        assert rec["b"] == 0
        assert rec["name"] == ""

    def test_from_mapping_none_in_key_column_rejected(self):
        from repro.streams.schema import Ordering

        ordered = StreamSchema(
            "O",
            [Attribute("t", "uint", Ordering.INCREASING), Attribute("v")],
        )
        with pytest.raises(SchemaError, match="None"):
            Record.from_mapping(ordered, {"t": None, "v": 1})
        # Unordered columns may hold None — only window-id columns are keys.
        rec = Record.from_mapping(ordered, {"t": 1, "v": None})
        assert rec["v"] is None

    def test_from_mapping_nan_in_key_column_rejected(self):
        from repro.streams.schema import Ordering

        ordered = StreamSchema(
            "O",
            [Attribute("t", "float", Ordering.INCREASING), Attribute("v")],
        )
        with pytest.raises(SchemaError, match="NaN"):
            Record.from_mapping(ordered, {"t": float("nan"), "v": 1})

    def test_from_mapping_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown attributes"):
            Record.from_mapping(SCHEMA, {"zzz": 1})

    def test_from_mapping_missing_default_names_attribute_and_tag(self):
        # A type tag outside the defaults table (a future type, or a
        # schema built around attribute validation) must raise a
        # SchemaError naming the attribute and tag — not a bare KeyError.
        schema = StreamSchema("S2", [Attribute("a"), Attribute("blob")])
        object.__setattr__(schema.attributes[1], "type_tag", "bytes")
        with pytest.raises(SchemaError, match="'blob'.*'bytes'.*no default"):
            Record.from_mapping(schema, {"a": 1})
        # Supplying the value explicitly still works: only the *default*
        # is undefined for the tag.
        rec = Record.from_mapping(schema, {"a": 1, "blob": b"x"})
        assert rec["blob"] == b"x"


class TestAccess:
    def test_by_name(self):
        assert make()["a"] == 1

    def test_by_index(self):
        assert make()[1] == 2

    def test_a_field_is_not_an_attribute(self):
        # Name access is by subscript only: a ``__getattr__`` or
        # ``__getattribute__`` hook on Record stops CPython from
        # specialising ``record.values`` in every hot loop.
        with pytest.raises(AttributeError):
            make().name
        assert not hasattr(Record, "__getattr__")
        assert Record.__getattribute__ is object.__getattribute__

    def test_missing_attribute_raises_attributeerror(self):
        with pytest.raises(AttributeError):
            make().missing

    def test_get_with_default(self):
        assert make().get("missing", 42) == 42
        assert make().get("a") == 1

    def test_as_dict(self):
        assert make().as_dict() == {"a": 1, "b": 2, "name": "x"}

    def test_iteration_and_len(self):
        assert list(make()) == [1, 2, "x"]
        assert len(make()) == 3


class TestReplaceEquality:
    def test_replace_returns_new_record(self):
        original = make()
        updated = original.replace(b=99)
        assert updated["b"] == 99
        assert original["b"] == 2

    def test_replace_unknown_rejected(self):
        with pytest.raises(SchemaError):
            make().replace(zzz=1)

    def test_equality(self):
        assert make() == make()
        assert make() != make(a=5)

    def test_hashable(self):
        assert make() in {make()}

    def test_not_equal_to_other_types(self):
        assert make() != (1, 2, "x")

    def test_repr_shows_fields(self):
        assert "a=1" in repr(make())
