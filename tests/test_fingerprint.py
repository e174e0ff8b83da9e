"""One digest over the analytic outputs, so a speed change that moves any of
them by an ulp fails tier-1.

For each link the digest covers, per analytic method, the float hex of the BER
at every point of the default 41-point sweep and both ends of the
``fec_crossing`` bracket; where a call raises, it covers the exception's type
and message instead. The links are the 16 pointing x rytov links of
``tests/test_domain.py`` and the three presets, so beta runs from about 1e-3
to 1e6.

The digest holds on the pinned toolchain it was taken with (numpy 2.4, scipy
1.17, glibc 2.36 libm, x86-64), like the golden CLI digests. A change meant to
alter an analytic output updates it and says in CHANGES.md which values moved
and by how much.
"""

import hashlib

from fso_ber import (
    PRESETS,
    BerMethod,
    LinkParams,
    ber_approx_new,
    ber_approx_prev,
    ber_exact,
    dbm_to_watts,
    derive,
    fec_crossing,
)
from fso_ber.analysis import power_grid
from fso_ber.config import DEFAULT_FEC_THRESHOLD, DEFAULT_SWEEP

POINTING_M = (1e-3, 1e-2, 1e-1, 1.0)
RYTOV = (1e-6, 0.1, 0.5, 1.0)
METHODS = (
    (BerMethod.EXACT, ber_exact),
    (BerMethod.APPROX_NEW, ber_approx_new),
    (BerMethod.APPROX_PREV, ber_approx_prev),
)

# sha256 of the lines _outputs() yields, each followed by a newline
FINGERPRINT = "844644d418b68fe1025aa5e6404a518dc550565abd862d32f8d64def7034a48d"


def _links():
    for pointing_m in POINTING_M:
        for rytov in RYTOV:
            yield dict(PRESETS["case1"], pointing_std_m=pointing_m, rytov_variance=rytov)
    for name in sorted(PRESETS):
        yield PRESETS[name]


def _outcome(call) -> str:
    try:
        result = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, float):
        return result.hex()
    return " ".join(x.hex() for x in result.bracket)


def _outputs():
    grid = power_grid(*DEFAULT_SWEEP)
    for fields in _links():
        link = LinkParams(**fields)
        d = derive(link)
        for method, ber in METHODS:
            for p_dbm in grid:
                yield _outcome(lambda: ber(dbm_to_watts(p_dbm), d, link))
            yield _outcome(lambda: fec_crossing(method, DEFAULT_FEC_THRESHOLD, d, link))


def test_analytic_outputs_match_fingerprint():
    digest = hashlib.sha256()
    for line in _outputs():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FINGERPRINT
