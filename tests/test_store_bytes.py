"""The on-disk bytes of every store layout, pinned.

For every strategy that stores pairs, at arity 1 and 2, a fixed seeded
sink (every record form, pairs with no cells in an input included) is
ingested and flushed, and so is the ``absorb`` merge of that store with a
second one loaded back from its own segment — the compaction writer's
path.  Each segment file's sha256 must equal the constant recorded here,
and so must ``lowered_ready`` (before and after the flush) and
``persists_filters``.

Segment flushes are byte-deterministic, so these digests turn "a refactor
of the store layouts leaves the format alone" into a check.  A change
that alters the format on purpose bumps its version under the rules of
``docs/storage_format.md`` and records new digests here, saying why.
"""

import hashlib

import numpy as np
import pytest

from repro.arrays import coords as C
from repro.core.lineage_store import make_store
from repro.core.model import (
    BufferSink,
    ElementwiseBatch,
    PayloadBatch,
    RegionBatch,
    RegionPair,
)
from repro.core.modes import (
    COMP_MANY_B,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_MANY_B,
    PAY_ONE_B,
)

OUT = (12, 10)
INS = ((9, 8), (7, 11))
STRATEGIES = [
    FULL_ONE_B,
    FULL_MANY_B,
    FULL_ONE_F,
    FULL_MANY_F,
    PAY_ONE_B,
    PAY_MANY_B,
    COMP_ONE_B,
    COMP_MANY_B,
]


def _cellsets(rng, shape, n, lo, hi):
    size = int(np.prod(shape))
    return [
        np.unique(rng.integers(0, size, size=int(rng.integers(lo, hi + 1))))
        for _ in range(n)
    ]


def _offsets(parts):
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in parts], out=offsets[1:])
    return offsets


def _coords(sets, shape):
    return C.unpack_coords(np.concatenate(sets), shape)


def fixed_sink(seed: int, arity: int) -> BufferSink:
    """A deterministic sink holding every full and payload record form."""
    rng = np.random.default_rng(seed)
    in_shapes = INS[:arity]
    sink = BufferSink()
    for outs, *ins in zip(
        _cellsets(rng, OUT, 4, 1, 5), *(_cellsets(rng, s, 4, 1, 6) for s in in_shapes)
    ):
        sink.add_pair(
            RegionPair(
                outcells=C.unpack_coords(outs, OUT),
                incells=tuple(C.unpack_coords(i, s) for i, s in zip(ins, in_shapes)),
            )
        )
    n = 7
    sink.add_elementwise(
        ElementwiseBatch(
            outcells=C.unpack_coords(rng.integers(0, int(np.prod(OUT)), n), OUT),
            incells=tuple(
                C.unpack_coords(rng.integers(0, int(np.prod(s)), n), s)
                for s in in_shapes
            ),
        )
    )
    # region pairs, some with no cells in an input
    outs = _cellsets(rng, OUT, 6, 1, 6)
    ins = [_cellsets(rng, s, 6, 0, 8) for s in in_shapes]
    sink.add_region_batch(
        RegionBatch(
            out_coords=_coords(outs, OUT),
            out_offsets=_offsets(outs),
            in_coords=tuple(_coords(col, s) for col, s in zip(ins, in_shapes)),
            in_offsets=tuple(_offsets(col) for col in ins),
        )
    )
    # payloads: a fixed-width matrix, a list, a region batch, add_pair
    size = int(np.prod(OUT))
    sink.add_payload_batch(
        PayloadBatch(
            outcells=C.unpack_coords(rng.integers(0, size, 5), OUT),
            payloads=rng.integers(0, 256, size=(5, 3)).astype(np.uint8),
        )
    )
    blobs = [bytes(rng.integers(0, 256, int(rng.integers(0, 6))).tolist()) for _ in range(4)]
    sink.add_payload_batch(
        PayloadBatch(outcells=C.unpack_coords(rng.integers(0, size, 4), OUT), payloads=blobs)
    )
    outs = _cellsets(rng, OUT, 3, 1, 5)
    sink.add_region_batch(
        RegionBatch(
            out_coords=_coords(outs, OUT),
            out_offsets=_offsets(outs),
            payloads=b"".join(blobs[:3]),
            payload_offsets=_offsets(blobs[:3]),
        )
    )
    sink.add_pair(
        RegionPair(outcells=C.unpack_coords(_cellsets(rng, OUT, 1, 2, 4)[0], OUT), payload=b"pp")
    )
    return sink


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def flushed_digests(strategy, arity, directory) -> tuple:
    """The pinned facts of one strategy × arity case, as :data:`PINNED` holds them."""
    in_shapes = INS[:arity]
    store = make_store("n", strategy, OUT, in_shapes)
    store.ingest(fixed_sink(1, arity))
    lowered_before = store.lowered_ready()
    single = str(directory / "single.seg")
    store.flush_segment(single)
    other = make_store("n", strategy, OUT, in_shapes)
    other.ingest(fixed_sink(2, arity))
    other_path = str(directory / "other.seg")
    other.flush_segment(other_path)
    loaded = make_store("n", strategy, OUT, in_shapes)
    loaded.load_segment(other_path)
    merged = make_store("n", strategy, OUT, in_shapes)
    merged.absorb(store)
    merged.absorb(loaded)
    merged_path = str(directory / "merged.seg")
    merged.flush_segment(merged_path)
    loaded.close()
    return (
        _sha(single),
        _sha(merged_path),
        (lowered_before, store.lowered_ready(), merged.lowered_ready()),
        store.persists_filters(),
    )


#: ``(single sha256, merged sha256, lowered_ready before flush / after
#: flush / merged, persists_filters)``, recorded on the six hand-written
#: layout classes that preceded the one store kernel
PINNED = {
    ("<-FullOne", 1): (
        "32026343a2699a8b989f8a7d7c030dba2049e7077c06c6445c4691701d5a0319",
        "7a6f930c9c13e5aae573e20c35fe973e5d1751b18aeb31e5321e0c84d8dabfc9",
        (False, True, True),
        True,
    ),
    ("<-FullOne", 2): (
        "18d382f133cf2f114f594622d7d474151a11769594808aa9e108ef85a525c470",
        "ced0f9a705cee5efb1724ba49fd711f9fd0f5da860f434ddfe68e6c1e2b24e17",
        (False, True, True),
        True,
    ),
    ("<-FullMany", 1): (
        "cb32bec8b6f185346e2808a83b1694360f9cca2c8668b8f8622aee64da6105c2",
        "eedcfb63ff2adb147ef0ebee556e4cd93f0ce10d79f220d409e0b618e199edd6",
        (False, True, True),
        True,
    ),
    ("<-FullMany", 2): (
        "41aafc65bc0908ba75242691c61f83e78f5bd0cd021b92a9b099f46ee95ee92e",
        "8ede883198cf234803e5827acac52dc8901e445d6e8fe77567e0112df40b643d",
        (False, True, True),
        True,
    ),
    ("->FullOne", 1): (
        "659a0c1044b007e416cc900fdecc5bd776c393b7cd9b6ecb92322f74aa4e9e67",
        "c8c8c89f8323f7beedffd0921b8e72fbea94c2c94f6c3ffbe8748876d96a1ad3",
        (False, True, True),
        True,
    ),
    ("->FullOne", 2): (
        "016cd00c2de383427bf401bf73b341fdb4240c3970b9c22bfa85e37018fc9587",
        "23090dcf55acef2748457905afc3f1f3f750a006324f7f8e8d98631da24d2cb6",
        (False, True, True),
        True,
    ),
    ("->FullMany", 1): (
        "2fafe409e4b53dab1e9d4fa14a3a271f57b7d3990fa5badd6f19133f7eeb962a",
        "a82e41c73f465efa115e043f1f691e3b7f8763db1c19d7fedf900cbe3be7bb2c",
        (False, True, True),
        True,
    ),
    ("->FullMany", 2): (
        "70dd4451e1f81ba993fbd9f2c52dcdf1daf23533395e39d770b9b2f257f6921c",
        "f0ac667ced8e4d50b413f475f813685818c98a639a760431ce489dc1f08919f5",
        (False, True, True),
        True,
    ),
    ("<-PayOne", 1): (
        "d3aad906d277b3f3dd37138911e2d1d6f8098b86d307c96481e6479cab2acf6f",
        "1ec70bb72c7d59242f6c61c4c1897dc2d8471efd736301ff32a92c0d57d97114",
        (True, True, True),
        True,
    ),
    ("<-PayOne", 2): (
        "c7188749c7e544429981e1e0e6d88c9a19762fa198c9740d68756a4d93230c8e",
        "573295e268270c73de734dfb82e28e2a39d6ac18cdb01da9c41ac8388e1a8d95",
        (True, True, True),
        True,
    ),
    ("<-PayMany", 1): (
        "b0e6982e18c5aaafa99496f54a13240aaaf98619058c8c56f652c5b6b43dce2d",
        "d53a8286d69f77d3d96e80cbd883a8892e8a554861a2430db470475b45327dec",
        (True, True, True),
        True,
    ),
    ("<-PayMany", 2): (
        "b827db7483411aa2891a994efd50ba07c731098fd41d9c2262fa1209bfe796af",
        "9aa45a1da67a4252aa4bfdbb8503d902138a6c61fa435db125114253ad838df8",
        (True, True, True),
        True,
    ),
    ("<-CompOne", 1): (
        "35fa2fc3aa2b24b9352623173eed91c5a09dbf06dfc6a6bed073f0f9958ec5c8",
        "755fed7954df7b8d7d9748d4ec642cdb218906497d719a6e36879f577d7b19cf",
        (True, True, True),
        True,
    ),
    ("<-CompOne", 2): (
        "98f00c0375eb31bdb2c8ebbbb5f22e44cc9ac9922111ffafd0dd4462b105aa34",
        "8d612bc9ebd5f4d0fa174c905cb0bf3bbf8c3cd60bfa3374c711cd4811106fb7",
        (True, True, True),
        True,
    ),
    ("<-CompMany", 1): (
        "9cf15e92d38f0d5308658fdc563697146eb822d6f3e2043e7288cfb5e0c9e5a3",
        "52345a26ac4e94d5c9f5d0646bd1072751597b7bff9c96287475366e4acc67ac",
        (True, True, True),
        True,
    ),
    ("<-CompMany", 2): (
        "54bc25def10f5f04f65cbed549c197f431d16c0522ec6422589d95f60f85a154",
        "7263275c00c6542520896706fb53e3ffd508e78026f3982bf2f46e0b80fb3df6",
        (True, True, True),
        True,
    ),
}


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.label)
def test_flushed_bytes_are_pinned(strategy, arity, tmp_path):
    assert flushed_digests(strategy, arity, tmp_path) == PINNED[(strategy.label, arity)]
