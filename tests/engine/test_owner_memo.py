"""`DesEngine.charge_md`'s owner memo bills exactly what placement says.

The memo maps a node key to its owning metadata provider's slot and
starts over at a private bound. An owner is a pure function of its key,
so every slot it bills must be the one :func:`placement_hash` picks,
across resets too, and the sequence of billed providers over a quick
fig3 run must be the one the engine billed when it hashed every key.
"""

import hashlib

import pytest

from repro.blobseer.metadata.dht import placement_hash
from repro.blobseer.metadata.segment_tree import key_bytes
from repro.common.config import ExperimentConfig
from repro.engine import des
from repro.experiments.figures import ALL_FIGURES

#: quick fig3's billed keys, and the SHA-256 of the provider index each
#: was billed to, in billing order — recorded while `charge_md` hashed
#: every key it billed
FIG3_BILLED_KEYS = 7814
FIG3_BILLED_DIGEST = (
    "772a80d126face483171982f559071478482eb0e6bede1b2d39845f178f7dddd"
)


def billed_fig3(monkeypatch):
    """Run quick fig3; return one ``(engine, keys, billed slots, memo
    size after)`` per `charge_md` call, and the placements computed."""
    charges = []
    hashes = [0]
    real_charge, real_batch = des.DesEngine.charge_md, des.batch_round_trips

    def charge_md(self, parent, keys):
        charges.append([self, list(keys), None, None])
        ev = real_charge(self, parent, keys)
        charges[-1][3] = len(self._md_owner)
        return ev

    def batch_round_trips(slots, *args):
        charges[-1][2] = list(slots)
        return real_batch(slots, *args)

    def counted(key_bytes, buckets):
        hashes[0] += 1
        return placement_hash(key_bytes, buckets)

    monkeypatch.setattr(des.DesEngine, "charge_md", charge_md)
    monkeypatch.setattr(des, "batch_round_trips", batch_round_trips)
    monkeypatch.setattr(des, "placement_hash", counted)
    ALL_FIGURES["fig3"](scale="quick", config=ExperimentConfig(repetitions=1))
    return charges, hashes[0]


def provider_digest(charges):
    digest = hashlib.sha256()
    for engine, _keys, billed, _size in charges:
        index = {id(slot): i for i, slot in enumerate(engine._md_owner.slots)}
        digest.update(bytes(index[id(slot)] for slot in billed))
    return digest.hexdigest()


def assert_billed_by_placement(charges):
    for engine, keys, billed, _size in charges:
        slots = engine._md_owner.slots
        n = len(slots)
        owners = [slots[placement_hash(key_bytes(k), n)] for k in keys]
        assert len(billed) == len(keys)
        assert all(got is want for got, want in zip(billed, owners))


@pytest.mark.parametrize("bound", [None, 2])
def test_every_billed_slot_is_the_keys_placement(bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(des, "_OWNER_MEMO_MAX", bound)
    charges, hashes = billed_fig3(monkeypatch)
    assert len({id(engine) for engine, *_ in charges}) > 1
    assert sum(len(keys) for _, keys, _, _ in charges) == FIG3_BILLED_KEYS
    assert_billed_by_placement(charges)
    assert provider_digest(charges) == FIG3_BILLED_DIGEST
    assert max(size for *_, size in charges) <= (bound or des._OWNER_MEMO_MAX)
    if bound is None:
        # concurrent appends share their tree paths: many keys repeat
        assert hashes < 0.7 * FIG3_BILLED_KEYS
    else:
        # a two-entry memo starts over inside nearly every charge
        assert hashes > 0.9 * FIG3_BILLED_KEYS

