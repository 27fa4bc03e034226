"""Scalar rewards and the structural-inequality check over per-step MI records.

The check encodes De Marcken's ordering I(X,Y) > I(Y,Z) > I(X,Z) with strict
comparisons (ties fail).  Two reward schemes are provided: ``margin`` scores
the worse of the two ordering gaps, ``xy_dominance`` scores how far I(X,Y)
rises above both other MIs, which is the separation the simulations
actually exhibit.
"""

from __future__ import annotations

from .density import MiRecord


class UnknownScheme(ValueError):
    """Asked for a reward scheme that does not exist."""


SCHEMES = ("margin", "xy_dominance")


def demarcken_check(rec: MiRecord) -> tuple[bool, tuple[float, float]]:
    """Whether i_xy > i_yz > i_xz holds strictly, plus the two margins."""
    margins = (rec.i_xy - rec.i_yz, rec.i_yz - rec.i_xz)
    return margins[0] > 0.0 and margins[1] > 0.0, margins


def reward(rec: MiRecord, scheme: str = "margin") -> float:
    """Score one MI record under the named scheme; a positive score means satisfied.

    Both schemes depend on MI differences only, so they are invariant under
    shifting all three components by a common constant.
    """
    if scheme == "margin":
        return min(rec.i_xy - rec.i_yz, rec.i_yz - rec.i_xz)
    if scheme == "xy_dominance":
        return rec.i_xy - max(rec.i_yz, rec.i_xz)
    raise UnknownScheme(f"scheme must be one of {SCHEMES}, got {scheme!r}")
