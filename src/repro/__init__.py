"""repro — router geolocation evaluation in public and commercial databases.

A full reproduction of Gharaibeh et al., *A Look at Router Geolocation in
Public and Commercial Databases* (IMC 2017), including the measurement
substrates (synthetic Internet topology, Ark-style traceroutes, RIPE-Atlas-
style probes, rDNS with DRoP decoding, RIR registry, and generative
geolocation-database snapshots) and the paper's evaluation framework
(coverage, consistency, ground-truth accuracy, regional breakdowns, and
recommendations).

Quick start::

    from repro import build_scenario, RouterGeolocationStudy

    scenario = build_scenario(seed=2016, scale=0.1)
    study = RouterGeolocationStudy.from_scenario(scenario)
    result = study.run()
    print(result.render_summary())
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports as _lazy_exports

# Lazy, so `import repro` stays cheap and free of import cycles while the
# primary public API is still exposed at the package root.
__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "scenario.build": ("build_scenario",),
        "scenario.config": ("ScenarioConfig",),
        "core.pipeline": ("RouterGeolocationStudy",),
    },
)
