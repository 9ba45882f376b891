"""Record extraction, record-sample simulation, and record-based scale MLEs.

Upper records of an exponential stream have independent Exp(scale) gaps
(memorylessness), so the n-th record is location + a sum of n such gaps:
that is what the sampler draws directly instead of scanning a raw stream.
The scale MLE is X_{U(n)}/n when the location is known and
(X_{U(n)} - X_{U(1)})/n when it is not; the pivot 2*n*mle/scale is
chi-square with 2n (known location) or 2n-2 (location-scale) degrees of
freedom.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np


class Variant(enum.Enum):
    """Observation model for a record series."""

    KNOWN_LOCATION = "known"
    LOCATION_SCALE = "locscale"


@dataclass(frozen=True)
class RecordSample:
    """An ordered sequence of upper record values under one model variant."""

    values: tuple[float, ...]
    variant: Variant = Variant.KNOWN_LOCATION

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("record sample is empty")
        if not all(map(math.isfinite, vals)):
            raise ValueError("record values must be finite")
        if any(nxt <= cur for cur, nxt in zip(vals, vals[1:])):
            raise ValueError("record values must be strictly increasing")
        if self.variant is Variant.KNOWN_LOCATION and vals[0] <= 0.0:
            raise ValueError("known-location record values must be positive")
        if self.variant is Variant.LOCATION_SCALE and len(vals) < 2:
            raise ValueError("location-scale inference needs at least 2 records")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DesignPair:
    """Record counts (n1, n2) of the two series and their shared variant."""

    n1: int
    n2: int
    variant: Variant = Variant.KNOWN_LOCATION

    def __post_init__(self):
        least = 1 if self.variant is Variant.KNOWN_LOCATION else 2
        for name, n in (("n1", self.n1), ("n2", self.n2)):
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < least:
                raise ValueError(
                    f"{name} must be an integer >= {least} for variant "
                    f"{self.variant.value!r}, got {n!r}"
                )

    @property
    def lam(self) -> float:
        """Pooling weight n2/(n1+n2)."""
        return self.n2 / (self.n1 + self.n2)

    @property
    def df(self) -> tuple[int, int]:
        """Chi-square degrees of freedom of the two pivots."""
        off = 0 if self.variant is Variant.KNOWN_LOCATION else 2
        return 2 * self.n1 - off, 2 * self.n2 - off

    @property
    def shapes(self) -> tuple[int, int]:
        """Gamma shape of n_i*mle_i/theta_i (half the degrees of freedom)."""
        d1, d2 = self.df
        return d1 // 2, d2 // 2


def extract_upper_records(stream, variant: Variant = Variant.KNOWN_LOCATION) -> RecordSample:
    """Subsequence of strict running maxima; the first entry is always a record.

    A repeated maximum is not a new record (strict inequality).
    """
    vals = [float(v) for v in stream]
    if not vals:
        raise ValueError("cannot extract records from an empty stream")
    if not all(map(math.isfinite, vals)):
        raise ValueError("stream values must be finite")
    recs = [vals[0]]
    for v in vals[1:]:
        if v > recs[-1]:
            recs.append(v)
    return RecordSample(tuple(recs), variant)


def sample_exponential_records(
    n: int,
    scale: float,
    location: float = 0.0,
    *,
    rng: np.random.Generator,
    variant: Variant | None = None,
) -> RecordSample:
    """Draw the first n upper records of a (location-)scale exponential stream.

    Gaps come from inverse-CDF transforms of rng.random() so the draw is
    deterministic across platforms for a given generator state.  When
    ``variant`` is omitted it is inferred from the location: zero means
    KNOWN_LOCATION.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 records, got {n}")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    gaps = -scale * np.log1p(-rng.random(n))
    values = location + np.cumsum(gaps)
    if variant is None:
        variant = Variant.KNOWN_LOCATION if location == 0.0 else Variant.LOCATION_SCALE
    return RecordSample(tuple(float(v) for v in values), variant)


def mle_scale(sample: RecordSample) -> float:
    """Scale MLE of a record sample under its variant."""
    if sample.variant is Variant.KNOWN_LOCATION:
        return sample.values[-1] / sample.n
    return (sample.values[-1] - sample.values[0]) / sample.n
