"""Fixture: a hand-rolled module-level name table."""

from typing import Callable, Dict

_REGISTRY: Dict[str, Callable[[int], object]] = {}


def register_layout(name, builder):
    _REGISTRY[name] = builder
