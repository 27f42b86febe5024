"""Atomic types for schema value nodes.

The paper annotates value nodes with types such as ``@pid: int`` and
``value: String``.  This module provides those atomic types with
parsing (text → Python value), validation (is this Python value an
instance of the type?) and XSD-name mapping (``xs:string`` etc.) used by
the XSD parser/serializer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import SchemaError
from ..xml.model import AtomicValue


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ValueError(f"not a boolean literal: {text!r}")


@dataclass(frozen=True)
class AtomicType:
    """An atomic value type carried by an attribute or text node."""

    name: str
    xsd_name: str
    python_type: type
    _parser: Callable[[str], AtomicValue]

    def parse(self, text: str) -> AtomicValue:
        """Parse a lexical representation into a typed Python value."""
        try:
            return self._parser(text)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"cannot parse {text!r} as {self.name}: {exc}") from exc

    def validates(self, value: AtomicValue) -> bool:
        """Check that a Python value is an instance of this type.

        ``int`` values are accepted where a ``float`` is declared (XML
        Schema decimal promotion); ``bool`` is *not* accepted as an
        ``int`` despite Python's subclassing.
        """
        if self.python_type is float:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.python_type is int:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, self.python_type)

    def __str__(self) -> str:
        return self.name


STRING = AtomicType("String", "xs:string", str, str)
INT = AtomicType("int", "xs:integer", int, int)
FLOAT = AtomicType("float", "xs:decimal", float, float)
BOOLEAN = AtomicType("boolean", "xs:boolean", bool, _parse_bool)
# No lambdas among the parsers (``int``/``float`` strip surrounding
# whitespace themselves): schemas must pickle to reach pool workers.

#: All built-in atomic types, by their display name.
BY_NAME: dict[str, AtomicType] = {
    t.name.lower(): t for t in (STRING, INT, FLOAT, BOOLEAN)
}

#: Lookup by XSD type name (with or without the ``xs:`` prefix), covering
#: the common aliases that appear in real-world schemas.
BY_XSD_NAME: dict[str, AtomicType] = {
    "string": STRING,
    "integer": INT,
    "int": INT,
    "long": INT,
    "short": INT,
    "decimal": FLOAT,
    "float": FLOAT,
    "double": FLOAT,
    "boolean": BOOLEAN,
    "date": STRING,
    "dateTime": STRING,
    "anyURI": STRING,
    "token": STRING,
    "NMTOKEN": STRING,
    "ID": STRING,
    "IDREF": STRING,
}


def type_by_name(name: str) -> AtomicType:
    """Resolve a display name (``int``, ``String`` …) to an atomic type."""
    try:
        return BY_NAME[name.lower()]
    except KeyError:
        raise SchemaError(f"unknown atomic type {name!r}") from None


def type_by_xsd_name(name: str) -> AtomicType:
    """Resolve an XSD type name (``xs:integer``, ``string`` …)."""
    local = name.split(":")[-1]
    try:
        return BY_XSD_NAME[local]
    except KeyError:
        raise SchemaError(f"unsupported XSD type {name!r}") from None
