"""rDNS substrate: hint dictionary, hostname conventions, DRoP decoding."""

from repro._lazy import lazy_exports as _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "drop": ("DecodedLocation", "DropEngine"),
        "hints": ("Hint", "HintDictionary", "HintKind", "city_slug"),
        "hostnames": (
            "EXTRA_CONVENTIONS",
            "GROUND_TRUTH_CONVENTIONS",
            "DomainConvention",
            "HostnameFactory",
        ),
        "rdns": (
            "ChurnModel",
            "RdnsConfig",
            "RdnsEvolution",
            "RdnsService",
            "evolve",
        ),
    },
)
