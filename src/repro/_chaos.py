"""Seeded chaos: the one draw contract every fault engine shares.

The web (:mod:`repro.web.faults`), storage (:mod:`repro.storage.faults`)
and client (:mod:`repro.serve.netchaos`) engines each own a fault
taxonomy; this module owns how they decide.  Every decision is a pure
function of its coordinates: :func:`keyed_rng` joins them with ``:``,
hashes the UTF-8 bytes through BLAKE2b (8-byte digest, big-endian) and
seeds a private :class:`random.Random` with the result.  An engine
therefore keeps no mutable decision state, and the same seed produces
the same weather inline, across worker processes and across replays.

Within one decision, mutually exclusive fault kinds share a single
uniform roll as disjoint probability bands (:func:`pick_band`), so at
most one fires and each keeps its configured probability.
``tests/test_chaos_golden.py`` pins the schedules this produces.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import ClassVar, TypeVar

__all__ = ["ChaosProfile", "keyed_rng", "keyed_seed", "pick_band", "preset"]

P = TypeVar("P", bound="ChaosProfile")


def keyed_seed(*parts) -> int:
    """A 64-bit seed that depends only on ``parts`` (their ``str`` forms)."""
    digest = hashlib.blake2b(
        ":".join(map(str, parts)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def keyed_rng(*parts) -> random.Random:
    """A private RNG seeded by :func:`keyed_seed` over ``parts``."""
    return random.Random(keyed_seed(*parts))


def pick_band(roll: float, bands: Iterable[tuple[str, float]]) -> str | None:
    """The kind of the first ``(kind, rate)`` band ``roll`` falls in.

    Bands are laid end to end from 0 in the order given; a roll past
    their total picks nothing.
    """
    for kind, rate in bands:
        if roll < rate:
            return kind
        roll -= rate
    return None


@dataclass(frozen=True)
class ChaosProfile:
    """A named set of fault rates; subclasses declare the rate fields."""

    name: str = "custom"

    #: The probability fields (everything that can make the profile fire).
    RATE_FIELDS: ClassVar[tuple[str, ...]] = ()

    @property
    def active(self) -> bool:
        """Any fault kind has a non-zero probability."""
        return any(getattr(self, name) > 0.0 for name in self.RATE_FIELDS)

    def bands(self, *kinds: str) -> list[tuple[str, float]]:
        """``(kind, rate)`` bands for :func:`pick_band`, in ``kinds`` order."""
        return [(kind, getattr(self, kind)) for kind in kinds]


def preset(table: Mapping[str, P], name: str, label: str) -> P:
    """Look up preset ``name`` in ``table``; ``label`` names it in errors."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown {label} profile {name!r}; expected one of {sorted(table)}"
        ) from None
