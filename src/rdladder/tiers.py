"""Resolution tiers, totally ordered by vertical resolution."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import ValidationError


@functools.total_ordering
@dataclass(frozen=True)
class ResolutionTier:
    """One rung of the resolution ladder, e.g. 720p at 1280x720 pixels."""

    name: str
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"tier {self.name!r}: non-positive dimensions")

    def __lt__(self, other: "ResolutionTier") -> bool:
        return (self.height, self.width) < (other.height, other.width)

    def __str__(self) -> str:
        return self.name


TIER_360P = ResolutionTier("360p", 640, 360)
TIER_540P = ResolutionTier("540p", 960, 540)
TIER_720P = ResolutionTier("720p", 1280, 720)
TIER_1080P = ResolutionTier("1080p", 1920, 1080)

STANDARD_TIERS: tuple[ResolutionTier, ...] = (TIER_360P, TIER_540P, TIER_720P, TIER_1080P)

_BY_NAME = {t.name: t for t in STANDARD_TIERS}
# ASCII digits without a leading zero: '0720p' would otherwise be a second
# tier with 720p's dimensions.
_NAME_RE = re.compile(r"([1-9]\d{2,3})p", re.ASCII)


def tier_from_name(name: str) -> ResolutionTier:
    """Resolve a tier by name. Standard names get exact 16:9 dimensions;
    other 'NNNp' names derive a 16:9 width (rounded to even)."""
    tier = _BY_NAME.get(name)
    if tier is not None:
        return tier
    m = _NAME_RE.fullmatch(name)
    if m is None:
        raise ValidationError(f"unknown resolution tier {name!r}")
    height = int(m.group(1))
    width = int(round(height * 16 / 9 / 2) * 2)
    return ResolutionTier(name, width, height)
