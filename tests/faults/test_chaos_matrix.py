"""The chaos sweep: every fault-matrix cell, one invariant.

The serving layer's contract under faults is *fail closed*: for any
injected fault, every response is a correct answer, a flagged degraded
answer, or a typed error — never an unflagged wrong answer.  A compiled
index is immutable and in memory, so every fault in the matrix is a
load-time one: corrupt snapshot bytes must refuse to load with a typed
error, and a vendor whose snapshot never arrived must boot a degraded
generation that flags it on every answer.  Everything derives from
``CHAOS_SEED``, so the sweep is deterministic.
"""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultSpec, full_matrix
from repro.serve import (
    ServingEngine,
    SnapshotError,
    load_index,
    load_index_set,
    save_index_set,
)

from tests.faults.conftest import CHAOS_SEED


def missing_vendor_engine(compiled_indexes, root, victim):
    """An engine booted from ``root`` after ``victim``'s snapshot was
    deleted, with the full vendor set pinned via ``expected=``."""
    save_index_set(compiled_indexes, root)
    FaultInjector(
        CHAOS_SEED, [FaultSpec(FaultKind.INDEX_MISSING, vendor=victim)]
    ).sabotage_snapshots(root)
    return ServingEngine.from_snapshot_dir(root, expected=sorted(compiled_indexes))


class TestTotalOutage:
    def test_every_vendor_dead_is_a_typed_error(self, compiled_indexes, tmp_path):
        """No loadable vendor at all refuses to boot with a typed error —
        never an engine that answers with nothing."""
        root = save_index_set(compiled_indexes, tmp_path / "dead")
        FaultInjector(
            CHAOS_SEED, [FaultSpec(FaultKind.INDEX_MISSING)]  # every vendor
        ).sabotage_snapshots(root)
        with pytest.raises(SnapshotError, match="no .rgix snapshots"):
            ServingEngine.from_snapshot_dir(root, expected=sorted(compiled_indexes))

    def test_consensus_of_degraded_outcome_is_flagged(
        self, compiled_indexes, chaos_addresses, tmp_path
    ):
        victim = sorted(compiled_indexes)[0]
        engine = missing_vendor_engine(compiled_indexes, tmp_path / "set", victim)
        for addr in chaos_addresses:
            outcome = engine.lookup_outcome(addr)
            consensus = engine.consensus_of(outcome)
            assert outcome.degraded and consensus.degraded
            assert consensus.quorum == (consensus.voters >= 2)


class TestSnapshotCells:
    """Load-time faults: corrupt bytes refuse to boot, absence degrades."""

    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.SNAPSHOT_BITFLIP,
            FaultKind.SNAPSHOT_TRUNCATE,
            FaultKind.SNAPSHOT_MAGIC,
        ],
        ids=lambda kind: kind.value,
    )
    def test_corrupt_snapshot_raises_typed_error(
        self, kind, compiled_indexes, tmp_path
    ):
        victim = sorted(compiled_indexes)[1]
        root = save_index_set(compiled_indexes, tmp_path / kind.value)
        injector = FaultInjector(CHAOS_SEED, [FaultSpec(kind, vendor=victim)])
        applied = injector.sabotage_snapshots(root)
        assert len(applied) == 1 and victim in applied[0]
        with pytest.raises(SnapshotError):
            load_index(root / f"{victim}.rgix", expect_name=victim)
        # The set loader refuses the whole directory rather than serving
        # a silently smaller vendor set.
        with pytest.raises(SnapshotError):
            load_index_set(root)

    def test_missing_vendor_serves_degraded_not_silent(
        self, compiled_indexes, chaos_addresses, tmp_path
    ):
        victim = sorted(compiled_indexes)[2]
        engine = missing_vendor_engine(
            compiled_indexes, tmp_path / "missing", victim
        )
        assert engine.degraded
        assert victim in engine.vendor_names()
        assert engine.health_snapshot()[victim]["state"] == "missing"
        for addr in chaos_addresses[:100]:
            outcome = engine.lookup_outcome(addr)
            assert outcome.degraded and outcome.unavailable() == (victim,)
            assert set(outcome.answers) == set(compiled_indexes) - {victim}
            for name, answer in outcome.answers.items():
                assert answer == compiled_indexes[name].probe_answer(addr)


class TestDeterminism:
    def test_full_matrix_covers_every_cell(self, compiled_indexes):
        vendors = sorted(compiled_indexes)
        cells = full_matrix(vendors)
        assert len(cells) == len(FaultKind) * len(vendors)
        assert {(spec.kind, spec.vendor) for spec in cells} == {
            (kind, vendor) for kind in FaultKind for vendor in vendors
        }

    def test_same_seed_replays_the_same_chaos(
        self, compiled_indexes, chaos_addresses, tmp_path
    ):
        """The reproducibility bar: one seed, identical degradation —
        the same files wrecked the same way, the same vendors refused,
        the same flagged answers from the survivors."""
        vendors = sorted(compiled_indexes)
        specs = [
            FaultSpec(FaultKind.SNAPSHOT_TRUNCATE, vendor=vendors[0]),
            FaultSpec(FaultKind.INDEX_MISSING, vendor=vendors[1]),
        ]

        def one_run(name):
            root = save_index_set(compiled_indexes, tmp_path / name)
            applied = FaultInjector(CHAOS_SEED, specs).sabotage_snapshots(root)
            loaded, refused = {}, []
            for path in sorted(root.glob("*.rgix")):
                try:
                    loaded[path.stem] = load_index(path, expect_name=path.stem)
                except SnapshotError:
                    refused.append(path.stem)
            engine = ServingEngine(loaded, expected=vendors)
            outcomes = [engine.lookup_outcome(addr) for addr in chaos_addresses]
            return applied, refused, outcomes

        first = one_run("a")
        assert first[1] == [vendors[0]]
        assert all(o.unavailable() == tuple(vendors[:2]) for o in first[2])
        assert first == one_run("b")

    def test_sabotage_is_byte_deterministic(self, compiled_indexes, tmp_path):
        blobs = []
        for attempt in ("a", "b"):
            root = save_index_set(compiled_indexes, tmp_path / attempt)
            injector = FaultInjector(
                CHAOS_SEED, [FaultSpec(FaultKind.SNAPSHOT_BITFLIP)]
            )
            injector.sabotage_snapshots(root)
            blobs.append(
                {path.name: path.read_bytes() for path in sorted(root.glob("*.rgix"))}
            )
        assert blobs[0] == blobs[1]
