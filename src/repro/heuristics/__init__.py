"""Black-box measurement heuristics — what an analyst can infer from traces.

The paper's methodology deliberately uses only what passive probe-side
captures reveal:

* :mod:`repro.heuristics.contributors` — which peers actually exchanged
  video (vs signaling-only contacts), from packet sizes and volumes;
* :mod:`repro.heuristics.bandwidth` — path-capacity classification from
  minimum inter-packet gaps (packet-pair dispersion);
* :mod:`repro.heuristics.hops` — router-hop distance from received TTLs,
  including initial-TTL detection;
* :mod:`repro.heuristics.registry` — IP → AS / country / subnet lookup
  (the whois/GeoIP step).

Each heuristic is validated in the test suite against the simulator's
ground truth, which the real paper could not do.
"""

from repro.heuristics.bandwidth import (
    HIGH_BW_IPG_THRESHOLD_S,
    classify_high_bandwidth,
    estimate_capacity_bps,
)
from repro.heuristics.contributors import (
    ContributorCriteria,
    contributor_mask,
    contributor_mask_packets,
)
from repro.heuristics.hops import hops_from_ttl, infer_initial_ttl
from repro.heuristics.registry import IpRegistry

__all__ = [
    "HIGH_BW_IPG_THRESHOLD_S",
    "classify_high_bandwidth",
    "estimate_capacity_bps",
    "ContributorCriteria",
    "contributor_mask",
    "contributor_mask_packets",
    "hops_from_ttl",
    "infer_initial_ttl",
    "IpRegistry",
]
