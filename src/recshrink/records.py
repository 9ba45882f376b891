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
import functools
import math
from dataclasses import dataclass

import numpy as np


class Variant(enum.Enum):
    """Observation model for a record series."""

    KNOWN_LOCATION = "known"
    LOCATION_SCALE = "locscale"


# a member read off the Enum class takes the slow path that EnumType's
# Python-level __getattr__ imposes, which costs more than the rest of
# DesignPair.__hash__; the hash reads this module-level alias instead
_KNOWN = Variant.KNOWN_LOCATION


def check_positive(name: str, x) -> None:
    """Reject a scale, a scale ratio or a record x that is not positive and finite; NaN too.

    x is a float or, checked elementwise, an ndarray.  A float takes a plain
    comparison: ``np.all`` on it would cost more than some callers' whole
    evaluation, such as ``risk.d_bounds`` or ``risk.boundary_risks``.
    """
    if isinstance(x, np.ndarray):
        if not np.all((x > 0.0) & (x < np.inf)):  # NaN fails both comparisons
            raise ValueError(f"{name} must be positive and finite")
    elif not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")


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
        if self.variant is Variant.KNOWN_LOCATION:
            check_positive("the first known-location record", vals[0])
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

    def __hash__(self) -> int:
        """A hash of ints alone: the same in every process and after a pickle round trip.

        The generated hash would go through ``Enum.__hash__``, a Python-level
        hash of the member's name that PYTHONHASHSEED salts per process, on
        every ``critical_values`` lookup.  The variant enters as a bool;
        equal designs, with int or numpy-integer counts, hash equally.
        """
        return hash((self.n1, self.n2, self.variant is _KNOWN))

    @property
    def lam(self) -> float:
        """Pooling weight n2/(n1+n2)."""
        return self.n2 / (self.n1 + self.n2)

    @property
    def df(self) -> tuple[int, int]:
        """Chi-square degrees of freedom of the two pivots."""
        off = 0 if self.variant is Variant.KNOWN_LOCATION else 2
        return 2 * self.n1 - off, 2 * self.n2 - off

    @functools.cached_property
    def shapes(self) -> tuple[int, int]:
        """Gamma shape of n_i*mle_i/theta_i (half the degrees of freedom).

        Computed once per design: every risk evaluation reads it several times.
        """
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
    rng: "np.random.Generator",
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
    check_positive("scale", scale)
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
