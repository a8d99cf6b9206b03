"""Minimal JSON-Schema validator for the artifact store's manifests.

The store validates every manifest it writes *and* every manifest it reads
back (``ArtifactStore.verify``), so the validator must stay free of
dependencies, standard library only.  (scipy is a declared dependency, but
only pulse optimisation and ``cx_state_evolution`` load it.)  This module
implements the small, deterministic subset of JSON Schema
(draft-07 style) that :data:`repro.store.manifest.MANIFEST_SCHEMA` uses:

``type`` (single name or list), ``const``, ``enum``, ``pattern``,
``minimum`` / ``maximum``, ``required``, ``properties``,
``additionalProperties`` (boolean form) and ``items`` (single-schema form).

Errors carry a JSON-pointer-style path (``$.points[3].blob``) so a failed
``repro store verify`` names the exact offending field.
"""

from __future__ import annotations

import re

#: JSON type name -> Python type check.  ``bool`` is a subclass of ``int``
#: in Python, so integer/number checks must explicitly exclude it.
_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class SchemaError(ValueError):
    """A JSON instance violated its schema.

    ``path`` locates the offending value (``$.timings.executed``);
    ``message`` says what was expected.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _check_type(instance, expected, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        check = _TYPE_CHECKS.get(name)
        if check is None:
            raise SchemaError(f"schema uses unsupported type {name!r}", path)
        if check(instance):
            return
    raise SchemaError(
        f"expected {' or '.join(names)}, got {type(instance).__name__}", path
    )


def validate(instance, schema: dict, path: str = "$") -> None:
    """Validate ``instance`` against ``schema``; raise :class:`SchemaError`.

    Returns ``None`` on success so callers can use it as an assertion.
    """
    if not isinstance(schema, dict):
        raise SchemaError("schema must be an object", path)
    if "const" in schema and instance != schema["const"]:
        raise SchemaError(f"expected constant {schema['const']!r}, got {instance!r}", path)
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(f"{instance!r} not one of {schema['enum']!r}", path)
    if "type" in schema:
        _check_type(instance, schema["type"], path)
    if "pattern" in schema:
        if not isinstance(instance, str):
            raise SchemaError("pattern applies to strings only", path)
        if re.search(schema["pattern"], instance) is None:
            raise SchemaError(
                f"{instance!r} does not match pattern {schema['pattern']!r}", path
            )
    if "minimum" in schema:
        if not _TYPE_CHECKS["number"](instance):
            raise SchemaError("minimum applies to numbers only", path)
        if instance < schema["minimum"]:
            raise SchemaError(f"{instance!r} is below minimum {schema['minimum']!r}", path)
    if "maximum" in schema:
        if not _TYPE_CHECKS["number"](instance):
            raise SchemaError("maximum applies to numbers only", path)
        if instance > schema["maximum"]:
            raise SchemaError(f"{instance!r} is above maximum {schema['maximum']!r}", path)
    if isinstance(instance, dict):
        _validate_object(instance, schema, path)
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            validate(item, schema["items"], f"{path}[{index}]")


def _validate_object(instance: dict, schema: dict, path: str) -> None:
    properties = schema.get("properties", {})
    for name in schema.get("required", ()):
        if name not in instance:
            raise SchemaError(f"missing required property {name!r}", path)
    for name, value in instance.items():
        if name in properties:
            validate(value, properties[name], f"{path}.{name}")
        elif schema.get("additionalProperties", True) is False:
            raise SchemaError(f"unexpected property {name!r}", path)
