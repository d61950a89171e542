"""JSON envelopes for morphisms and channels.

A morphism travels as {"category", "domain", "codomain", "payload"};
the payload shape is category-specific and documented by each category
module.  Channels arrive as {"matrix": [[...], ...]} of JSON numbers.  Serialization is
deterministic: sorted keys, two-space indent, shortest round-trip
floats (Python's repr), so identical values produce identical bytes.
"""

from __future__ import annotations

import json

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


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)
