"""One name table for every plane: :class:`Registry`.

Protocols, scenario families, compressors, rewire policies, lint rules,
topologies and workloads are all resolved by name.  Each plane keeps its
own frozen ``*Info`` dataclass and one :class:`Registry` of them
(``PROTOCOLS``, ``SCENARIOS``, ...); the contract they share is in
``docs/ARCHITECTURE.md`` ("Registries"): one spelling names one entry,
re-registering a name replaces its aliases, builtins load lazily on the
first lookup, and :meth:`Registry.remove` takes the aliases along.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Generic, Iterable, Iterator, List
from typing import Optional, Sequence, Type, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """``*Info`` records (each with a ``name``, maybe ``aliases``) by name.

    Args:
        kind: What one entry is (``"protocol"``); names the errors.
        record: The plane's ``*Info`` type, built by :meth:`register`.
        plural: The plural of ``kind`` when it is not ``kind + "s"``.
        builtins: Modules whose import registers the built-in entries.
        error: The ``ValueError`` subclass raised for unknown names.
    """

    def __init__(
        self,
        kind: str,
        record: Callable[..., T],
        plural: Optional[str] = None,
        builtins: Iterable[str] = (),
        error: Type[ValueError] = ValueError,
    ) -> None:
        self.kind = kind
        self.record = record
        self.plural = plural or f"{kind}s"
        self.error = error
        self._builtins = tuple(builtins)
        self._builtins_loaded = not self._builtins
        self._entries: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, *args, **fields) -> T:
        """Register (or re-register) ``record(*args, **fields)``."""
        return self.add(self.record(*args, **fields))

    def add(self, info: T) -> T:
        """Register ``info`` under ``info.name`` and its ``aliases``; a
        spelling that already names another entry raises ``ValueError``."""
        name, aliases = info.name, tuple(getattr(info, "aliases", ()))
        for spelling in (name, *aliases):
            owner = self._aliases.get(
                spelling, spelling if spelling in self._entries else name
            )
            if owner != name:
                raise ValueError(
                    f"cannot register {self.kind} {name!r}: {spelling!r} "
                    f"already names {self.kind} {owner!r}"
                )
        self.remove(name)
        self._entries[name] = info
        self._aliases.update(dict.fromkeys(aliases, name))
        return info

    def remove(self, name: str) -> None:
        """Drop ``name``'s entry (``name`` may be an alias) and its aliases."""
        canonical = self._aliases.get(name, name)
        self._entries.pop(canonical, None)
        self._aliases = {
            alias: owner
            for alias, owner in self._aliases.items()
            if owner != canonical
        }

    def get(self, name: str) -> T:
        """The entry ``name`` (or an alias) resolves to; an unknown name
        raises ``error`` listing every registered spelling."""
        if not self._builtins_loaded:
            self._load_builtins()
        try:
            return self._entries[self._aliases.get(name, name)]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{', '.join(self.names(include_aliases=True))}"
            ) from None

    def names(
        self,
        include_aliases: bool = False,
        where: Optional[Callable[[T], bool]] = None,
    ) -> List[str]:
        """Sorted names of the entries ``where`` accepts (all by default),
        plus their aliases when ``include_aliases``."""
        if not self._builtins_loaded:
            self._load_builtins()
        names = {
            name
            for name, info in self._entries.items()
            if where is None or where(info)
        }
        if include_aliases:
            names |= {a for a, owner in self._aliases.items() if owner in names}
        return sorted(names)

    def __iter__(self) -> Iterator[T]:
        """Every entry, in name order."""
        return iter([self._entries[name] for name in self.names()])

    def table(
        self, columns: Sequence[str], **formats: Callable[[object], object]
    ) -> List[dict]:
        """One ``{column: value}`` row per entry, in name order; aliases
        render as ``"a/b"`` and ``formats`` converts other columns."""
        formats = {"aliases": "/".join, **formats}
        rows = [{column: getattr(info, column) for column in columns}
                for info in self]
        for row in rows:
            for column in formats.keys() & row.keys():
                row[column] = formats[column](row[column])
        return rows

    def _load_builtins(self) -> None:
        for module in self._builtins:
            importlib.import_module(module)
        # Only after every import succeeded: a transient failure above
        # must surface again on the next lookup, not leave a half-filled
        # table behind.
        self._builtins_loaded = True
