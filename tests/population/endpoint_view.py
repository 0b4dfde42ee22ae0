"""The object view over swarm columns: oracle for the column derivations.

Both swarm generators emit :class:`~repro.population.generator.SwarmColumns`,
whose derived columns (``subnet``, ``highbw``, ``access_depth``,
``firewalled``) restate properties the object model defines on
:class:`~repro.topology.host.NetworkEndpoint` and
:class:`~repro.topology.access.AccessLink`.  :func:`endpoints` rebuilds one
endpoint per row from the primary columns so tests can check every derived
column against the object model's own definition.  Nothing in ``src/``
calls it.
"""

from __future__ import annotations

import numpy as np

from repro.population.generator import SwarmColumns
from repro.topology.access import AccessClass, AccessLink
from repro.topology.host import NetworkEndpoint
from repro.topology.paths import ACCESS_DEPTH


def endpoints(cols: SwarmColumns, subnet_prefixlen: int) -> list[NetworkEndpoint]:
    """One endpoint per row; identical access plans share one link."""
    classes = list(AccessClass)
    pool: dict[tuple, AccessLink] = {}
    out: list[NetworkEndpoint] = []
    for i in range(len(cols)):
        key = (
            int(cols.kind[i]), float(cols.down_bps[i]), float(cols.up_bps[i]),
            bool(cols.nat[i]), bool(cols.firewalled[i]),
        )
        access = pool.get(key)
        if access is None:
            access = pool[key] = AccessLink(
                kind=classes[key[0]], down_bps=key[1], up_bps=key[2],
                nat=key[3], firewall=key[4],
            )
        out.append(
            NetworkEndpoint(
                ip=int(cols.ip[i]),
                asn=int(cols.asn[i]),
                country_code=str(cols.cc[i]),
                access=access,
                subnet_prefixlen=subnet_prefixlen,
                initial_ttl=int(cols.initial_ttl[i]),
            )
        )
    return out


def assert_derivations_match(cols: SwarmColumns, subnet_prefixlen: int) -> None:
    """Every derived column equals its object-model definition."""
    view = endpoints(cols, subnet_prefixlen)
    assert cols.subnet.tolist() == [e.subnet for e in view]
    assert cols.highbw.tolist() == [e.access.is_high_bandwidth for e in view]
    assert cols.access_depth.tolist() == [ACCESS_DEPTH[e.access.kind] for e in view]
    assert cols.firewalled.tolist() == [e.access.firewall for e in view]
    assert cols.ip.dtype == np.uint32 and cols.subnet.dtype == np.uint32
