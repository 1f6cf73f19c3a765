"""Schema model tests: typing, lookup, selection, cell validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnSchema, TableSchema, validate_column, validate_value
from repro.columnar.schema import ALL_TYPES
from repro.errors import SchemaError


class TestColumnSchema:
    def test_valid_types_accepted(self):
        for type_name in ("string", "int", "double", "bool", "list<string>", "list<int>"):
            ColumnSchema("c", type_name)

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSchema("c", "varchar")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSchema("", "string")

    def test_list_introspection(self):
        column = ColumnSchema("c", "list<int>")
        assert column.is_list
        assert column.element_type == "int"
        assert not ColumnSchema("c", "int").is_list


class TestTableSchema:
    def setup_method(self):
        self.schema = TableSchema(
            [ColumnSchema("a", "string"), ColumnSchema("b", "int")]
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema([ColumnSchema("a", "string"), ColumnSchema("a", "int")])

    def test_lookup(self):
        assert self.schema.column("b").type == "int"
        assert self.schema.index_of("b") == 1
        assert self.schema.has_column("a")
        assert not self.schema.has_column("z")

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            self.schema.column("z")
        with pytest.raises(SchemaError):
            self.schema.index_of("z")

    def test_select_reorders(self):
        selected = self.schema.select(["b", "a"])
        assert selected.names == ("b", "a")

    def test_equality_and_hash(self):
        same = TableSchema([ColumnSchema("a", "string"), ColumnSchema("b", "int")])
        assert self.schema == same
        assert hash(self.schema) == hash(same)


class TestValidateValue:
    def test_none_always_valid(self):
        validate_value(ColumnSchema("c", "int"), None)

    def test_scalar_type_checked(self):
        validate_value(ColumnSchema("c", "int"), 5)
        with pytest.raises(SchemaError):
            validate_value(ColumnSchema("c", "int"), "5")

    def test_bool_is_not_int(self):
        with pytest.raises(SchemaError):
            validate_value(ColumnSchema("c", "int"), True)

    def test_double_accepts_int(self):
        validate_value(ColumnSchema("c", "double"), 5)
        validate_value(ColumnSchema("c", "double"), 5.5)

    def test_list_elements_checked(self):
        validate_value(ColumnSchema("c", "list<string>"), ["a"])
        with pytest.raises(SchemaError):
            validate_value(ColumnSchema("c", "list<string>"), [1])

    def test_list_requires_sequence(self):
        with pytest.raises(SchemaError):
            validate_value(ColumnSchema("c", "list<string>"), "abc")


class _Text(str):
    """A ``str`` subclass: valid wherever a string is, whatever its type says."""


_any_scalar = st.sampled_from(
    [None, "a", "", _Text("sub"), 0, 1, -7, True, False, 0.0, -0.0, 1.5, float("nan"), b"x"]
)
_any_cell = _any_scalar | st.lists(_any_scalar, max_size=3) | st.lists(
    _any_scalar, max_size=3
).map(tuple)


def _first_error(column, values):
    try:
        for value in values:
            validate_value(column, value)
    except SchemaError as error:
        return str(error)
    return None


class TestValidateColumn:
    @pytest.mark.parametrize("type_name", ALL_TYPES)
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(_any_cell, max_size=8))
    def test_agrees_with_validate_value_cell_by_cell(self, type_name, values):
        """The bulk type check may only skip the walk, never change its
        verdict: same first error in row order, or none."""
        column = ColumnSchema("c", type_name)
        expected = _first_error(column, values)
        try:
            validate_column(column, tuple(values))
        except SchemaError as error:
            assert str(error) == expected
        else:
            assert expected is None

    def test_bool_hiding_behind_an_equal_int(self):
        with pytest.raises(SchemaError, match="expects int, got bool"):
            validate_column(ColumnSchema("c", "int"), [1, 1, True, 1])

    def test_null_inside_a_list_is_rejected(self):
        with pytest.raises(SchemaError, match="expects string, got NoneType"):
            validate_column(ColumnSchema("c", "list<string>"), [["a"], None, ["b", None]])

    def test_string_subclass_passes_the_slow_way(self):
        validate_column(ColumnSchema("c", "string"), ["a", _Text("b"), None])
