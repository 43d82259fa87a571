"""Exception types shared across the toolkit, the type rule that
configuration dataclasses and configuration files are checked by, and the
read that turns a missing or undecodable text file into a ``ResourceError``."""

import typing
from pathlib import Path


class SubsenseError(Exception):
    """Base class for all toolkit errors."""


class ResourceError(SubsenseError):
    """A required file or packaged resource is missing or unreadable."""


class SchemaError(SubsenseError):
    """An input record does not match the documented schema."""


class ConfigError(SubsenseError):
    """Model or schedule configuration violates its constraints."""


class ContractError(SubsenseError):
    """Caller broke an operation contract (shapes, alignment, missing cache,
    empty or single-class data)."""


class UsageError(SubsenseError):
    """Bad command line arguments."""


def check_fields(cls, values: dict, name: str) -> None:
    """Raise ``ConfigError`` unless ``values`` holds exactly the fields of
    ``cls`` (a dataclass, or a dict of names to types), each with a value of
    its type: an int also fills a float field, a bool fills neither.
    Messages name a key as ``<name>.<key>``."""
    types = cls if isinstance(cls, dict) else typing.get_type_hints(cls)
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ConfigError(f"unknown {name} keys {', '.join(unknown)}")
    missing = [key for key in types if key not in values]
    if missing:
        raise ConfigError(f"{name} lacks {', '.join(missing)}")
    for key, value in values.items():
        kind = types[key]
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            raise ConfigError(f"{name}.{key} must be {kind.__name__}, not {value!r}")


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``, without a leading byte order
    mark. A missing file, or one whose bytes are not UTF-8, raises
    ``ResourceError`` naming ``what`` and the path."""
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"{what} not found: {p}")
    try:
        return p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ResourceError(f"{what} {p} is not UTF-8 text: {exc}") from None
