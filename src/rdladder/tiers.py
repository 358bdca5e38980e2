"""Resolution tiers, ordered by vertical resolution."""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ValidationError


class ResolutionTier(NamedTuple):
    """One rung of the resolution ladder, e.g. 720p: its height in pixels
    and its name. Being a tuple, tiers order by height and hash and compare
    as plain values."""

    height: int
    name: str

    def __str__(self) -> str:
        return self.name


STANDARD_TIERS: tuple[ResolutionTier, ...] = (
    ResolutionTier(360, "360p"),
    ResolutionTier(540, "540p"),
    ResolutionTier(720, "720p"),
    ResolutionTier(1080, "1080p"),
)

# Standard names are looked up, which costs far less than matching the pattern.
_BY_NAME = {tier.name: tier for tier in STANDARD_TIERS}
# ASCII digits without a leading zero: '0720p' would otherwise be a second
# name for 720p's height.
_NAME_RE = re.compile(r"([1-9]\d{2,3})p", re.ASCII)


def tier_from_name(name: str) -> ResolutionTier:
    """Resolve a tier by its 'NNNp' name, NNN being its height."""
    tier = _BY_NAME.get(name)
    if tier is not None:
        return tier
    m = _NAME_RE.fullmatch(name)
    if m is None:
        raise ValidationError(f"unknown resolution tier {name!r}")
    return ResolutionTier(int(m.group(1)), name)
