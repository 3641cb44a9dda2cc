"""No-overwrite array version store.

SciDB is "no overwrite": every operator output is persisted as a new, named
version (§IV).  SubZero leans on this twice — it *is* the black-box lineage
(the stored inputs/outputs are sufficient to re-run any operator), and it
lets lineage stores be treated as a disposable cache.

:class:`VersionStore` keeps every version in memory and can spill buffers to
``.npy`` files under a directory so the benchmark harness can charge the
workflow's base storage cost the same way the paper does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.arrays.array import SciArray
from repro.errors import VersionError

__all__ = ["ArrayVersion", "VersionStore"]


@dataclass(frozen=True)
class ArrayVersion:
    """One immutable, named snapshot of an array.

    ``parents`` are the version ids of the operator inputs that produced this
    version (empty for workflow inputs); ``producer`` names the operator node.
    """

    version_id: int
    name: str
    array: SciArray
    parents: tuple[int, ...] = ()
    producer: str | None = None
    sequence: int = 0

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


class VersionStore:
    """Append-only store of :class:`ArrayVersion` objects.

    Versions are keyed by a monotonically increasing integer id.  A *name*
    (e.g. the workflow node that produced the array) may have many versions;
    :meth:`latest` returns the newest one.
    """

    def __init__(self, spill_dir: str | None = None):
        self._versions: dict[int, ArrayVersion] = {}
        self._by_name: dict[str, list[int]] = {}
        self._next_id = 0
        self._spill_dir = spill_dir
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)

    # -- writes ----------------------------------------------------------------

    def put(
        self,
        name: str,
        array: SciArray,
        parents: tuple[int, ...] = (),
        producer: str | None = None,
    ) -> ArrayVersion:
        """Persist ``array`` as a brand-new version of ``name``."""
        for parent in parents:
            if parent not in self._versions:
                raise VersionError(f"unknown parent version id {parent}")
        vid = self._next_id
        self._next_id += 1
        version = ArrayVersion(
            version_id=vid,
            name=name,
            array=array,
            parents=tuple(parents),
            producer=producer,
            sequence=len(self._by_name.get(name, ())),
        )
        self._versions[vid] = version
        self._by_name.setdefault(name, []).append(vid)
        if self._spill_dir is not None:
            self._spill(version)
        return version

    def _spill(self, version: ArrayVersion) -> None:
        base = os.path.join(self._spill_dir, f"v{version.version_id:06d}")
        for attr in version.array.schema.attr_names:
            np.save(f"{base}.{attr}.npy", version.array.values(attr))

    # -- reads ------------------------------------------------------------------

    def get(self, version_id: int) -> ArrayVersion:
        try:
            return self._versions[version_id]
        except KeyError:
            raise VersionError(f"unknown version id {version_id}") from None

    def latest(self, name: str) -> ArrayVersion:
        ids = self._by_name.get(name)
        if not ids:
            raise VersionError(f"no versions recorded under name {name!r}")
        return self._versions[ids[-1]]

    def history(self, name: str) -> list[ArrayVersion]:
        return [self._versions[i] for i in self._by_name.get(name, [])]

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, version_id: int) -> bool:
        return version_id in self._versions

    # -- accounting ---------------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes held across every version (the workflow's base storage)."""
        return sum(v.nbytes for v in self._versions.values())

    def input_bytes(self) -> int:
        """Bytes held by versions with no parents (the raw workflow inputs)."""
        return sum(v.nbytes for v in self._versions.values() if not v.parents)
