"""JSON envelopes for morphisms and channels.

A morphism travels as {"category", "domain", "codomain", "payload"};
the payload shape is category-specific and documented by each category
module.  Channels arrive as {"matrix": [[...], ...]} of JSON numbers.

dumps writes the same bytes as json.dumps(payload, sort_keys=True,
indent=2): sorted keys, two-space indent, ASCII escapes, shortest
round-trip floats (Python's repr) and NaN/Infinity as JavaScript spells
them, so identical values produce identical bytes.  Keys must be str.
A container met again at the same depth is rendered once: its text is
kept from its second meeting on and reused after that, so a report whose
violations share their member dicts costs its distinct members, not its
violations.  The payload must not change while dumps runs.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

from .capacity import Channel
from .core import CategoryId, category, dict_from_json, floats_from_json
from .errors import InvalidChannel, InvalidMorphism


def morphism_to_json(f) -> dict:
    ops = category(f.category)
    return {
        "category": f.category.value,
        "domain": ops.object_to_json(f.domain),
        "codomain": ops.object_to_json(f.codomain),
        "payload": ops.payload_to_json(f),
    }


def morphism_from_json(data: dict):
    if not isinstance(data, dict):
        raise InvalidMorphism(f"a morphism is a JSON object, not {type(data).__name__}")
    try:
        cat_id = CategoryId(data["category"])
    except (KeyError, ValueError) as exc:
        raise InvalidMorphism(f"unknown or missing category: {data.get('category')!r}") from exc
    ops = category(cat_id)
    try:
        domain, codomain, payload = (
            dict_from_json(data[key], key) for key in ("domain", "codomain", "payload")
        )
        return ops.morphism_from_json(
            ops.object_from_json(domain), ops.object_from_json(codomain), payload
        )
    except KeyError as exc:
        raise InvalidMorphism(f"missing morphism field: {exc}") from exc


def channel_from_json(data: dict) -> Channel:
    try:
        matrix = dict_from_json(data, "channel", InvalidChannel)["matrix"]
    except KeyError as exc:
        raise InvalidMorphism("channel JSON needs a 'matrix' field") from exc
    if not isinstance(matrix, list):
        raise InvalidChannel(f"matrix must be a list of rows, not {matrix!r}")
    return Channel(tuple(floats_from_json(row, "matrix row", InvalidChannel) for row in matrix))


_ONCE = object()
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def dumps(payload) -> str:
    """payload as canonical JSON text; see the module docstring."""
    # met[depth] maps id(container) to _ONCE after its first meeting at that
    # depth, and to its text from the second on.  The payload holds every
    # container alive, so no id is reused while dumps runs.
    met: list[dict] = []

    def value(o, depth: int) -> str:
        if isinstance(o, str):
            return _string(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float(o)
        if not isinstance(o, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        if depth == len(met):
            met.append({})
        seen = met[depth]
        text = seen.get(id(o))
        if text is None:
            seen[id(o)] = _ONCE
            return container(o, depth)
        if text is _ONCE:
            text = seen[id(o)] = container(o, depth)
        return text

    def container(o, depth: int) -> str:
        outer = "\n" + "  " * depth
        inner = outer + "  "
        if isinstance(o, dict):
            items = []
            for k, v in sorted(o.items()):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                items.append(f"{_string(k)}: {value(v, depth + 1)}")
            return f"{{{inner}{(',' + inner).join(items)}{outer}}}"
        items = [value(v, depth + 1) for v in o]
        return f"[{inner}{(',' + inner).join(items)}{outer}]"

    return value(payload, 0)
