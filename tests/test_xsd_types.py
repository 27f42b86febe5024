"""Unit tests for atomic types."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.xsd.types import (
    BOOLEAN,
    FLOAT,
    INT,
    STRING,
    type_by_name,
    type_by_xsd_name,
)


class TestParsing:
    def test_int_parses_with_leading_zeros(self):
        assert INT.parse("0032") == 32

    def test_int_rejects_garbage(self):
        with pytest.raises(SchemaError):
            INT.parse("12a")

    def test_float_parses(self):
        assert FLOAT.parse("10.5") == 10.5

    def test_boolean_lexical_forms(self):
        assert BOOLEAN.parse("true") is True
        assert BOOLEAN.parse("0") is False
        with pytest.raises(SchemaError):
            BOOLEAN.parse("yes")

    def test_string_is_identity(self):
        assert STRING.parse(" padded ") == " padded "


class TestValidation:
    def test_int_accepts_int_not_bool(self):
        assert INT.validates(5)
        assert not INT.validates(True)
        assert not INT.validates("5")

    def test_float_promotes_int(self):
        assert FLOAT.validates(5)
        assert FLOAT.validates(5.5)
        assert not FLOAT.validates(True)

    def test_string_rejects_numbers(self):
        assert STRING.validates("x")
        assert not STRING.validates(5)

    def test_boolean_strict(self):
        assert BOOLEAN.validates(False)
        assert not BOOLEAN.validates(0)


class TestLookup:
    def test_by_name_case_insensitive(self):
        assert type_by_name("string") is STRING
        assert type_by_name("Int") is INT

    def test_by_name_unknown(self):
        with pytest.raises(SchemaError):
            type_by_name("decimal128")

    def test_by_xsd_name_with_prefix(self):
        assert type_by_xsd_name("xs:integer") is INT
        assert type_by_xsd_name("string") is STRING
        assert type_by_xsd_name("xs:double") is FLOAT

    def test_by_xsd_name_aliases(self):
        assert type_by_xsd_name("xs:ID") is STRING
        assert type_by_xsd_name("long") is INT

    def test_by_xsd_name_unknown(self):
        with pytest.raises(SchemaError):
            type_by_xsd_name("xs:duration")


class TestPickling:
    """Schemas cross process boundaries: batch pool workers receive the
    source schema to parse documents against."""

    @pytest.mark.parametrize("atomic", [STRING, INT, FLOAT, BOOLEAN])
    def test_atomic_types_round_trip(self, atomic):
        import pickle

        copy = pickle.loads(pickle.dumps(atomic))
        assert copy == atomic
        assert copy.parse(" 1 ") == atomic.parse(" 1 ")

    @pytest.mark.parametrize("figure", [
        "mapping_fig1_desired", "mapping_fig3", "mapping_fig4",
        "mapping_fig5", "mapping_fig6", "mapping_fig7", "mapping_fig8",
        "mapping_fig9",
    ])
    def test_every_deptstore_source_schema_round_trips(self, figure):
        import pickle

        from repro.scenarios import deptstore
        from repro.xml.parser import parse_xml
        from repro.xml.serialize import to_xml

        schema = getattr(deptstore, figure)().source
        copy = pickle.loads(pickle.dumps(schema))
        text = to_xml(deptstore.source_instance())
        assert to_xml(parse_xml(text, schema=copy)) == to_xml(
            parse_xml(text, schema=schema)
        )
