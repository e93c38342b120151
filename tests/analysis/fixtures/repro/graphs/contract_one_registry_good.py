"""Fixture: the same table as one shared Registry."""

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry


@dataclass(frozen=True)
class LayoutInfo:
    name: str
    builder: Callable[[int], object]
    aliases: tuple = ()


LAYOUTS: Registry[LayoutInfo] = Registry("layout")


def register_layout(name, builder):
    return LAYOUTS.add(LayoutInfo(name, builder))
