"""The scalar risk route's bits, frozen.

``tests/data/risk_scalar_frozen.json`` holds ``float.hex`` values of
``risk_k_coefficients`` (h2, h1, h0), ``pt_risk`` and ``shrink_moments``
(bias, mse at k = 0.37, theta1 = 2.5) on eleven designs, three levels and
17 deltas log-spaced over [1e-3, 40], where every reported sup sits.  The
deltas are stored as hex too, so the file does not depend on numpy's
``geomspace`` rounding.  A change to the float route that moves any bit
fails here.  The file was written by this generator, run from the repo root:

    import json
    import numpy as np
    from recshrink.records import DesignPair, Variant
    from recshrink.risk import RiskParams, pt_risk, risk_k_coefficients, shrink_moments

    designs = [(n1, n2, v) for n1, n2 in ((2, 2), (5, 6), (10, 7), (40, 150), (150, 40))
               for v in ("known", "locscale")] + [(7, 2, "locscale")]
    deltas = np.geomspace(1e-3, 40.0, 17).tolist()
    cases = {}
    for n1, n2, v in designs:
        design = DesignPair(n1, n2, Variant(v))
        for alpha in (0.01, 0.16, 0.5):
            cases[f"{n1},{n2},{v},{alpha!r}"] = [
                [x.hex() for x in (*risk_k_coefficients(design, d, alpha),
                                   pt_risk(design, d, alpha),
                                   *shrink_moments(RiskParams(design, d, alpha, 0.37, 2.5)))]
                for d in deltas]
    out = {"deltas": [d.hex() for d in deltas], "k": 0.37, "theta1": 2.5, "cases": cases}
    with open("tests/data/risk_scalar_frozen.json", "w") as f:
        json.dump(out, f, indent=0)
        f.write("\\n")
"""

import json
import pathlib

import numpy as np
import pytest

from recshrink.records import DesignPair, Variant
from recshrink.risk import (
    RiskParams,
    _quadratic_constants,
    pt_risk,
    risk_k_coefficients,
    shrink_moments,
)

FROZEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "risk_scalar_frozen.json").read_text()
)
DELTAS = [float.fromhex(h) for h in FROZEN["deltas"]]


@pytest.mark.parametrize("key", sorted(FROZEN["cases"]))
def test_scalar_route_bits_are_frozen(key):
    n1, n2, variant, alpha = key.split(",")
    design = DesignPair(int(n1), int(n2), Variant(variant))
    alpha = float(alpha)
    k, theta1 = FROZEN["k"], FROZEN["theta1"]
    for delta, row in zip(DELTAS, FROZEN["cases"][key], strict=True):
        got = (*risk_k_coefficients(design, delta, alpha), pt_risk(design, delta, alpha),
               *shrink_moments(RiskParams(design, delta, alpha, k, theta1)))
        assert [x.hex() for x in got] == row, (key, delta)


def test_frozen_file_covers_every_design_and_level():
    assert len(FROZEN["cases"]) == 11 * 3
    assert len(DELTAS) == 17
    assert DELTAS[0] == 1e-3 and abs(DELTAS[-1] - 40.0) < 1e-12


def test_numpy_integer_counts_give_the_same_python_floats():
    # equal designs share one cache entry of per-design constants, so the
    # result must not depend on which kind of count filled it
    _quadratic_constants.cache_clear()
    want = risk_k_coefficients(DesignPair(5, 6), 1.7, 0.2)
    for counts in ((np.int64(5), 6), (5, 6), (np.int64(5), np.int32(6))):
        _quadratic_constants.cache_clear()
        got = risk_k_coefficients(DesignPair(*counts), 1.7, 0.2)
        assert got == want and {type(x) for x in got} == {float}
        assert risk_k_coefficients(DesignPair(5, 6), 1.7, 0.2) == want
