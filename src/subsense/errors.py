"""Exception types shared across the toolkit, and the type rule that
configuration dataclasses and configuration files are checked by."""

import typing


class SubsenseError(Exception):
    """Base class for all toolkit errors."""


class ResourceError(SubsenseError):
    """A required file or packaged resource is missing or unreadable."""


class EmptyLexiconError(ResourceError):
    """A lexicon file parsed to zero usable entries."""


class EmptyDatasetError(SubsenseError):
    """An operation that needs data received none."""


class SchemaError(SubsenseError):
    """An input record does not match the documented schema."""


class DegenerateLabelsError(SubsenseError):
    """A labelled collection is single-class where both classes are required."""


class StratificationError(SubsenseError):
    """A class is too small to spread across train/val/test."""


class ConfigError(SubsenseError):
    """Model or schedule configuration violates its constraints."""


class ContractError(SubsenseError):
    """Caller broke an operation contract (shapes, alignment, missing cache)."""


class UsageError(SubsenseError):
    """Bad command line arguments."""


def check_fields(cls, values: dict, name: str, complete: bool = False) -> None:
    """Raise ``ConfigError`` unless every key of ``values`` is a field of the
    dataclass ``cls`` holding a value of the field's type: an int also fills
    a float field, a bool fills neither. With ``complete`` every field must
    be present. Messages name a key as ``<name>.<key>``."""
    types = typing.get_type_hints(cls)
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ConfigError(f"unknown {name} keys {', '.join(unknown)}")
    missing = [key for key in types if key not in values] if complete else []
    if missing:
        raise ConfigError(f"{name} lacks {', '.join(missing)}")
    for key, value in values.items():
        kind = types[key]
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            raise ConfigError(f"{name}.{key} must be {kind.__name__}, not {value!r}")
