"""Exception types shared across the toolkit, the type rule that
configuration dataclasses and configuration files are checked by, and the
read that turns a missing or undecodable text file into a ``ContractError``.

Every refusal of an input, a file or a setting is a ``ContractError``; the
command line prints its message as one line and exits 2. No handler tells
kinds of refusal apart, so there is one class for them all."""

import typing
from pathlib import Path


class SubsenseError(Exception):
    """Base class for all toolkit errors."""


class ContractError(SubsenseError):
    """An input, file or setting the toolkit refuses: a missing or unreadable
    file or packaged resource, a record off its documented schema, a model or
    schedule configuration that breaks its constraints, or a call that breaks
    an operation contract (shapes, alignment, missing cache, empty or
    single-class data). The command line exits 2 with its message."""


class UsageError(SubsenseError):
    """Bad command line arguments."""


def check_fields(cls, values: dict, name: str) -> None:
    """Raise ``ContractError`` unless ``values`` holds exactly the fields of
    ``cls`` (a dataclass, or a dict of names to types), each with a value of
    its type: an int also fills a float field, a bool fills neither.
    Messages name a key as ``<name>.<key>``."""
    types = cls if isinstance(cls, dict) else typing.get_type_hints(cls)
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ContractError(f"unknown {name} keys {', '.join(unknown)}")
    missing = [key for key in types if key not in values]
    if missing:
        raise ContractError(f"{name} lacks {', '.join(missing)}")
    for key, value in values.items():
        kind = types[key]
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            raise ContractError(f"{name}.{key} must be {kind.__name__}, not {value!r}")


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``, without a leading byte order
    mark. A missing file, or one whose bytes are not UTF-8, raises
    ``ContractError`` naming ``what`` and the path."""
    p = Path(path)
    if not p.exists():
        raise ContractError(f"{what} not found: {p}")
    try:
        return p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{what} {p} is not UTF-8 text: {exc}") from None
