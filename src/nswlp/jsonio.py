"""JSON readers and writers for instances and allocations.

Instance files look like::

    {"num_items": 3,
     "agents": [{"weight": "1/2", "values": ["3", "0.5", "0"]}, ...]}

Weights and values accept either 'p/q' or decimal notation, as strings
or bare JSON numbers; a bare number is read from its literal, as its
string would be, so 0.1 is 1/10 and 1e-400 is not rounded to 0.  A bare
integer past Python's int conversion limit is rejected, in any file.
Serialization emits the canonical 'p/q' form.  Any other top-level key
is rejected, so that no file is read silently in another value space or
format.  The
:class:`~nswlp.core.Instance` a file is read into checks the instance rules
against the file's own ``num_items`` when it is made.
Allocation files are ``{"owner": [agentIndex-or-null, ...]}``.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import Any

from .core import Agent, Allocation, Instance, InvalidInstance, as_fraction


def parse_rational(x: Any) -> Fraction:
    try:
        return as_fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidInstance(f"bad rational {x!r}: {exc}") from exc


def parse_int(literal: str) -> int:
    """A bare JSON integer.  One longer than Python's limit on int
    conversion (``sys.get_int_max_str_digits()``, 4,300 digits by default)
    is ``InvalidInstance``."""
    try:
        return int(literal)
    except ValueError as exc:
        raise InvalidInstance(
            f"bare integer of {len(literal.lstrip('-'))} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit on int conversion"
        ) from exc


def instance_to_obj(instance: Instance) -> dict:
    return {
        "num_items": instance.num_items,
        "agents": [
            {
                "weight": str(a.weight),
                "values": [str(v) for v in a.values],
            }
            for a in instance.agents
        ],
    }


def instance_from_obj(obj: Any) -> Instance:
    if not isinstance(obj, dict):
        raise InvalidInstance("instance JSON must be an object")
    unknown = [key for key in obj if key not in ("num_items", "agents")]
    if unknown:
        raise InvalidInstance(
            f"unknown field {unknown[0]!r}: an instance holds only num_items and agents"
        )
    try:
        m = obj["num_items"]
        agents = obj["agents"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"missing field: {exc}") from exc
    if not isinstance(m, int) or isinstance(m, bool):
        raise InvalidInstance("num_items must be an integer")
    if not isinstance(agents, list) or not agents:
        raise InvalidInstance("agents must be a nonempty list")
    rows = []
    for k, a in enumerate(agents):
        try:
            rows.append(Agent(parse_rational(a["weight"]),
                              tuple(parse_rational(v) for v in a["values"])))
        except (KeyError, TypeError) as exc:
            raise InvalidInstance(f"agent {k}: {exc}") from exc
    return Instance(num_items=m, agents=tuple(rows))


def allocation_to_obj(alloc: Allocation) -> dict:
    return {"owner": [i for i in alloc.owner]}


def allocation_from_obj(obj: Any) -> Allocation:
    if not isinstance(obj, dict) or "owner" not in obj:
        raise InvalidInstance("allocation JSON must be an object with 'owner'")
    owner = obj["owner"]
    if not isinstance(owner, list):
        raise InvalidInstance("'owner' must be a list")
    out = []
    for j, x in enumerate(owner):
        if x is None:
            out.append(None)
        elif isinstance(x, int) and not isinstance(x, bool):
            out.append(x)
        else:
            raise InvalidInstance(f"owner[{j}] must be an agent index or null")
    return Allocation(owner=tuple(out))


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_obj(json.load(fh, parse_float=parse_rational, parse_int=parse_int))


def _open_keeping_contents(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, as ``open(path, "w")`` would.

    An existing file is not truncated when it is opened: the text is written
    over its old bytes, and the file is then cut to the text's length when
    it was longer.  On ext4 mounted with ``discard``, truncating on open frees
    the file's block and the write allocates a new one, which costs several
    times the write itself.  The file ends with the bytes a fresh file would
    hold; a write that fails midway leaves an unusable file either way.  A
    new file, a FIFO and a device such as ``/dev/null`` have size 0 when
    opened, so they are never cut (``truncate`` on ``/dev/null`` raises
    ``EINVAL``).
    """
    with open(path, "w", encoding="utf-8", opener=_open_keeping_contents) as fh:
        old_size = os.fstat(fh.fileno()).st_size
        fh.write(text)
        # The text takes at least len(text) bytes; truncate() flushes it and
        # cuts the file at its end, a no-op when the file is no longer.
        if old_size > len(text):
            fh.truncate()


def save_instance(path: str, instance: Instance) -> None:
    write_text(path, dumps(instance_to_obj(instance)))


def load_allocation(path: str) -> Allocation:
    with open(path, "r", encoding="utf-8") as fh:
        return allocation_from_obj(json.load(fh, parse_int=parse_int))
