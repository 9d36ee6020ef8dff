"""JSON objects whose keys are a dataclass's field names.

Such an object is written with ``dataclasses.asdict`` and read with
:func:`from_doc`, so the dataclass is its one schema.  Its ``__post_init__``
checks the values with :func:`is_number` and :func:`is_numbers`.
"""

from __future__ import annotations

import math
import numbers


def is_number(v) -> bool:
    """A finite real number that is not a bool.  Python's ``json`` reads
    ``NaN``, ``Infinity`` and ``1e400``; none of them is a number here."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def is_numbers(v, n: int) -> bool:
    """A tuple of ``n`` numbers, as ``from_doc`` reads a JSON list."""
    return isinstance(v, tuple) and len(v) == n and all(map(is_number, v))


def from_doc(cls, doc, required=()):
    """``cls(**doc)``, with each JSON list as a tuple.

    An unknown key is the constructor's ``TypeError``, which names it.  A
    ``required`` key that ``doc`` lacks is a ``KeyError``, even where ``cls``
    has a default for it.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    for key in required:
        if key not in doc:
            raise KeyError(key)
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
