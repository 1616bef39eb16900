"""Synthetic Internet topology and measurement infrastructure."""

from repro._lazy import lazy_exports as _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ark": (
            "ArkMonitor",
            "ArkTopoDataset",
            "collect_topology",
            "place_monitors",
            "random_routed_address",
        ),
        "builder": (
            "GENERIC_TIER1_SPECS",
            "GROUND_TRUTH_DOMAIN_SPECS",
            "SyntheticInternet",
            "TopologyBuilder",
            "TopologyConfig",
            "TransitSpec",
        ),
        "itdk": ("AliasMap", "AliasResolver"),
        "router": ("Interface", "PoP", "Router"),
        "rtt": (
            "FIBER_KM_PER_MS",
            "RttModel",
            "max_distance_km",
            "propagation_rtt_ms",
        ),
        "policy": (
            "RelationshipError",
            "is_valley_free",
            "relationship_census",
            "valley_free_paths",
        ),
        "traceroute": ("Hop", "TracerouteEngine", "TracerouteResult"),
    },
)
