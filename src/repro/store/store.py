"""Versioned on-disk artifact store for graphs, object sets and indexes.

The paper's central tension is preprocessing cost vs. query time (Fig. 8,
Fig. 26, Table 3): G-tree and ROAD take seconds-to-minutes to build, SILC
hours — yet queries run in microseconds.  A long-lived query service must
therefore never rebuild an index it has already paid for.  ``IndexStore``
is that separation: every expensive build product is serialized (via the
index's ``to_arrays``) into a ``flat`` artifact keyed by a content hash
of the *graph* and the *build parameters*, with a JSON manifest recording
the store format version, per-array shapes and the original build
wall-time.

A ``flat`` artifact is one *directory* of per-array ``.npy`` files
written via ``np.lib.format``.  Loads return **read-only views of memory
maps** (``np.load(..., mmap_mode="r")``): pages are faulted in on demand and
shared across processes through the OS page cache, which is what makes
continental-scale graphs (millions of vertices) servable without copying
the arrays per worker.

Stores written by earlier builds may also hold compressed ``.npz``
artifacts (manifest records whose ``format`` is ``npz`` or absent).
Those stay *readable* — :meth:`IndexStore.get` decompresses them into
ordinary arrays — and re-:meth:`~IndexStore.put` of the same key
replaces the record with a ``flat`` one; nothing writes ``.npz`` any
more.

Layout::

    <root>/
        manifest.json               # format version + artifact records
        graph-9a8b7c6d5e4f3a2b.flat/   # one directory per (kind, key)
            vertex_start.npy
            edge_target.npy
            ...
        gtree-1f2e3d4c5b6a7988.npz  # legacy, read-only

Integrity rules:

* A lookup for a key the store has never seen raises
  :class:`ArtifactMissing` — callers (the ``IndexCache`` warm-start path)
  treat that as a normal cache miss and build.
* A manifest entry whose artifact file is gone, whose format version does
  not match :data:`FORMAT_VERSION`, or whose recorded shapes disagree
  with the file raises :class:`StoreCorruption` with the artifact id and
  the reason — never a bare ``KeyError`` from deep inside ``np.load``.
* :meth:`IndexStore.gc` sweeps exactly those corrupt states (and orphaned
  files) out of the store.

Writes are atomic (temp file + ``os.replace``) so a crashed build never
leaves a half-written artifact behind a valid manifest entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import time
import zipfile
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: single-writer stores only
    fcntl = None

import numpy as np

from repro.resilience.faults import fault_check

#: Store format version.  Bump when any ``to_arrays`` layout changes *or*
#: when an index build algorithm changes in a way that alters its output
#: (different partitioning, contraction order, compression, ...): the
#: version participates in every artifact key, so a bump makes all older
#: artifacts clean misses, and ``gc`` reclaims them.
FORMAT_VERSION = 2

#: The payload format :meth:`IndexStore.put` writes.  Reads honour the
#: format recorded per manifest entry, so legacy ``npz`` entries load.
_FLAT = "flat"

_MANIFEST = "manifest.json"

#: gc only sweeps ``.tmp`` files older than this (seconds), so it cannot
#: delete a concurrent writer's in-flight save out from under it.
TMP_SWEEP_AGE_S = 3600.0


class StoreError(RuntimeError):
    """Base class for index-store failures."""


class ArtifactMissing(StoreError):
    """No artifact for this (kind, key) — a normal cache miss."""


class StoreCorruption(StoreError):
    """The manifest and the on-disk artifacts disagree.

    Raised when a manifest entry references a missing file, an artifact
    written under a different :data:`FORMAT_VERSION`, or a payload whose
    shapes do not match the manifest.  The message names the artifact and
    the repair action (``repro store gc``).
    """


@dataclass
class ArtifactInfo:
    """One manifest record."""

    artifact_id: str
    kind: str
    key: str
    file: str
    format_version: int
    shapes: Dict[str, List[int]]
    build_time_s: float
    created_at: float
    nbytes: int
    params: Dict[str, object] = field(default_factory=dict)
    #: Payload format: "flat", or "npz" on legacy entries.  Defaults to
    #: "npz" so manifests written before the field existed keep parsing.
    format: str = "npz"
    #: Sum of the arrays' in-memory sizes (``arr.nbytes``) — what a full
    #: materialisation costs, vs ``nbytes`` which is the on-disk size.
    #: 0 on entries written before the field existed.
    mapped_nbytes: int = 0

    @property
    def mapped(self) -> bool:
        """True when :meth:`IndexStore.get` returns read-only memory maps."""
        return self.format == _FLAT


def canonical_params(params: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Normalise build params for hashing and the JSON manifest.

    Numpy scalars (``seed=np.int64(7)`` taken from an array) unwrap to
    their Python values so they hash identically to plain ints and stay
    JSON-serialisable — the key path and the manifest path must never
    disagree about the same parameters.
    """
    out: Dict[str, object] = {}
    for name, value in (params or {}).items():
        item = getattr(value, "item", None)
        if callable(item):
            try:
                value = item()
            except (TypeError, ValueError):
                pass
        out[name] = value
    return out


def artifact_key(graph, params: Optional[Dict[str, object]] = None) -> str:
    """Content key for an artifact: hash of (graph, build parameters).

    Uses :meth:`Graph.fingerprint` (topology + weights + coordinates) so
    the same build parameters on a different network — or the same
    network under travel-time weights — never collide.
    :data:`FORMAT_VERSION` is salted in, so bumping it (layout *or*
    build-algorithm changes) turns every pre-bump artifact into a clean
    miss instead of silently serving stale builds.
    """
    h = hashlib.sha256(graph.fingerprint().encode())
    h.update(
        json.dumps(canonical_params(params), sort_keys=True, default=str).encode()
    )
    h.update(str(FORMAT_VERSION).encode())
    return h.hexdigest()[:16]


class IndexStore:
    """A directory of versioned, content-addressed artifacts.

    :meth:`put` writes ``flat`` payloads (per-array ``.npy`` files,
    loaded as read-only memory maps).  Reads dispatch on the format
    recorded in each manifest entry, so legacy ``npz`` entries in an
    older store still load.
    """

    def __init__(self, root) -> None:
        self.root = Path(root).expanduser()

    def _ensure_root(self) -> None:
        """Create the store directory on first *write* — read-only
        operations (``store ls`` on a typo'd path) must not mkdir."""
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Manifest handling
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def _read_manifest(self) -> Dict[str, dict]:
        path = self._manifest_path()
        if not path.exists():
            return {}
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreCorruption(
                f"unreadable store manifest {path}: {exc}; delete the store "
                "directory (or run `repro store gc --all`) to start fresh"
            ) from exc
        artifacts = data.get("artifacts", {}) if isinstance(data, dict) else None
        if not isinstance(artifacts, dict):
            raise StoreCorruption(
                f"malformed store manifest {path} (not an artifact map); "
                "delete the store directory (or run `repro store gc --all`) "
                "to start fresh"
            )
        return artifacts

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Serialise manifest read-modify-write against other processes.

        Two `repro build` runs (or two benchmark sessions) sharing one
        store must not drop each other's manifest entries; an advisory
        ``flock`` on ``<root>/.lock`` covers the RMW window.  Released on
        close, so a killed process cannot wedge the store.
        """
        if fcntl is None or not self.root.is_dir():
            # No directory yet -> nothing on disk to race against (and
            # locking must not mkdir a path a read-only caller probed).
            yield
            return
        with open(self.root / ".lock", "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield

    def _write_manifest(self, artifacts: Dict[str, dict]) -> None:
        path = self._manifest_path()
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(
                {"format_version": FORMAT_VERSION, "artifacts": artifacts},
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Core artifact API
    # ------------------------------------------------------------------
    @staticmethod
    def _artifact_id(kind: str, key: str) -> str:
        return f"{kind}-{key}"

    def put(
        self,
        kind: str,
        key: str,
        arrays: Dict[str, np.ndarray],
        build_time_s: float = 0.0,
        params: Optional[Dict[str, object]] = None,
    ) -> ArtifactInfo:
        """Write one artifact atomically and record it in the manifest.

        Re-putting a (kind, key) recorded as a legacy ``npz`` entry
        replaces the manifest entry; the superseded ``.npz`` becomes an
        orphan the next ``gc`` reclaims — that is the whole migration
        story.
        """
        fault_check("store.save")
        self._ensure_root()
        artifact_id = self._artifact_id(kind, key)
        filename = f"{artifact_id}.flat"
        tmp = self._write_flat_tmp(artifact_id, arrays)
        path = self.root / filename
        # Publish + register under one lock so a concurrent gc can never
        # see the renamed file without its manifest entry (and sweep it
        # as an orphan).
        with self._locked():
            try:
                if path.is_dir():
                    # os.replace cannot overwrite a non-empty directory;
                    # drop the superseded payload first.  Readers that
                    # already mapped it keep their pages (POSIX unlink
                    # semantics) — only new opens see the replacement.
                    shutil.rmtree(path)
                os.replace(tmp, path)
            except FileNotFoundError as exc:
                # A concurrent `store gc --all` swept our in-flight tmp;
                # surface a retryable StoreError, not a raw traceback.
                raise StoreError(
                    f"in-flight artifact write {Path(tmp).name!r} "
                    "disappeared (concurrent `store gc --all`?); retry "
                    "the build"
                ) from exc
            except BaseException:
                with contextlib.suppress(OSError):
                    _remove_payload(Path(tmp))
                raise
            info = ArtifactInfo(
                artifact_id=artifact_id,
                kind=kind,
                key=key,
                file=filename,
                format_version=FORMAT_VERSION,
                shapes={k: list(np.shape(v)) for k, v in arrays.items()},
                build_time_s=float(build_time_s),
                created_at=time.time(),
                nbytes=_payload_nbytes(path),
                params=canonical_params(params),
                format=_FLAT,
                mapped_nbytes=int(
                    sum(np.asarray(v).nbytes for v in arrays.values())
                ),
            )
            manifest = self._read_manifest()
            manifest[artifact_id] = asdict(info)
            self._write_manifest(manifest)
        return info

    def _write_flat_tmp(self, artifact_id: str, arrays) -> str:
        """Write one ``<name>.npy`` per array into a unique temp dir.

        Unique temp name per writer: two processes racing to save the
        same artifact each publish a complete payload; last rename wins.

        ``np.save`` streams C-contiguous arrays straight to the file
        object, so saving memmap-backed inputs (the ingest path) never
        materialises them in RAM.
        """
        for name in arrays:
            if os.sep in name or name != os.path.basename(name) or not name:
                raise StoreError(
                    f"array name {name!r} is not a safe flat-artifact "
                    "member filename"
                )
        tmp = tempfile.mkdtemp(
            dir=self.root, prefix=f"{artifact_id}-", suffix=".flat.tmp"
        )
        try:
            for name, value in arrays.items():
                with open(Path(tmp) / f"{name}.npy", "wb") as fh:
                    np.save(fh, np.asarray(value), allow_pickle=False)
        except BaseException:
            with contextlib.suppress(OSError):
                shutil.rmtree(tmp)
            raise
        return tmp

    @staticmethod
    def _info_from_entry(entry: dict) -> ArtifactInfo:
        """Parse a manifest record, surfacing foreign formats as corruption.

        The version check runs on the *raw dict* before the dataclass is
        built, so entries written by a future format (extra or missing
        fields) still produce the designed :class:`StoreCorruption` with
        repair instructions instead of a ``TypeError``.
        """
        version = entry.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreCorruption(
                f"artifact {entry.get('artifact_id', '?')!r} was written "
                f"with store format v{version}, this build reads "
                f"v{FORMAT_VERSION}; run `repro store gc` to reclaim it, "
                "then rebuild"
            )
        known = {f.name for f in dataclass_fields(ArtifactInfo)}
        try:
            return ArtifactInfo(**{k: v for k, v in entry.items() if k in known})
        except TypeError as exc:
            raise StoreCorruption(
                f"manifest entry {entry.get('artifact_id', '?')!r} is not "
                f"readable by this build: {exc}; run `repro store gc`, "
                "then rebuild"
            ) from exc

    def info(self, kind: str, key: str) -> ArtifactInfo:
        """Manifest record for (kind, key); :class:`ArtifactMissing` if absent."""
        artifact_id = self._artifact_id(kind, key)
        entry = self._read_manifest().get(artifact_id)
        if entry is None:
            raise ArtifactMissing(
                f"store has no {kind!r} artifact for key {key!r}"
            )
        return self._info_from_entry(entry)

    def contains(self, kind: str, key: str) -> bool:
        return self._artifact_id(kind, key) in self._read_manifest()

    def get(self, kind: str, key: str) -> Dict[str, np.ndarray]:
        """Load one artifact's arrays, verifying version, file and shapes.

        Dispatches on the format recorded in the manifest entry: ``flat``
        artifacts return **read-only views of memory maps** — zero-copy,
        paged in by the OS on demand — and legacy ``npz`` artifacts decompress
        into ordinary arrays.  Callers that need to mutate must copy.

        Raises :class:`ArtifactMissing` on a clean miss (caller builds)
        and :class:`StoreCorruption` — never ``KeyError`` — when the
        manifest and disk disagree.
        """
        fault_check("store.load")
        info = self.info(kind, key)  # raises StoreCorruption on foreign formats
        path = self.root / info.file
        if not path.exists():
            raise StoreCorruption(
                f"manifest references missing artifact file {info.file!r} "
                f"(kind={kind!r}, key={key!r}); run `repro store gc` to "
                "drop the stale entry, then rebuild"
            )
        if info.mapped:
            arrays = self._load_flat(info, path)
        else:
            try:
                with np.load(path, allow_pickle=False) as data:
                    arrays = {name: data[name] for name in data.files}
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise StoreCorruption(
                    f"artifact file {info.file!r} is unreadable: {exc}; run "
                    "`repro store gc`, then rebuild"
                ) from exc
        for name, shape in info.shapes.items():
            if name not in arrays or list(arrays[name].shape) != list(shape):
                raise StoreCorruption(
                    f"artifact {info.artifact_id!r}: array {name!r} shape "
                    f"mismatch against manifest; run `repro store gc`, "
                    "then rebuild"
                )
        return arrays

    def _load_flat(self, info: ArtifactInfo, path: Path) -> Dict[str, np.ndarray]:
        """Memory-map every member of a flat artifact directory.

        Each member is handed out as a plain read-only ``np.ndarray``
        view whose ``.base`` is the ``np.memmap`` — zero-copy, but not a
        ``memmap`` itself: Python-level element reads on a ``memmap``
        go through ``memmap.__getitem__`` (~3x slower per scalar), so a
        store-loaded index would answer in a different in-memory form
        than a freshly built one (docs/performance.md).

        The manifest's ``shapes`` keys name the members, so a member
        missing on disk is detected here (as :class:`StoreCorruption`),
        not as a ``KeyError`` in the caller.  Scalar (0-d) members fall
        back to an eager read marked read-only — ``mmap_mode`` and 0-d
        headers disagree on some numpy versions and scalars carry no
        page-cache benefit anyway.
        """
        arrays: Dict[str, np.ndarray] = {}
        for name in info.shapes:
            member = path / f"{name}.npy"
            try:
                try:
                    arrays[name] = np.asarray(
                        np.load(member, mmap_mode="r", allow_pickle=False)
                    )
                except ValueError:
                    arr = np.load(member, allow_pickle=False)
                    arr.setflags(write=False)
                    arrays[name] = arr
            except (OSError, ValueError) as exc:
                raise StoreCorruption(
                    f"artifact {info.artifact_id!r}: member {member.name!r} "
                    f"is unreadable: {exc}; run `repro store gc`, then "
                    "rebuild"
                ) from exc
        return arrays

    def entries(self) -> List[ArtifactInfo]:
        """All manifest records, newest first.

        Entries a different store format wrote are skipped (``gc``
        reclaims them); listing must not crash on a half-migrated store.
        """
        out = []
        for entry in self._read_manifest().values():
            try:
                out.append(self._info_from_entry(entry))
            except StoreCorruption:
                continue
        out.sort(key=lambda i: -i.created_at)
        return out

    def stale_entry_count(self) -> int:
        """Manifest records unreadable by this build (another format).

        ``store ls`` surfaces this so a post-version-bump store never
        looks empty while stale artifacts still occupy disk.
        """
        count = 0
        for entry in self._read_manifest().values():
            try:
                self._info_from_entry(entry)
            except StoreCorruption:
                count += 1
        return count

    def delete(self, kind: str, key: str) -> None:
        """Remove one artifact (file + manifest entry); missing is a no-op."""
        artifact_id = self._artifact_id(kind, key)
        with self._locked():
            manifest = self._read_manifest()
            entry = manifest.pop(artifact_id, None)
            if entry is not None:
                self._write_manifest(manifest)
                file_name = entry.get("file")
                if file_name and (self.root / file_name).exists():
                    _remove_payload(self.root / file_name)

    def quarantine(self, kind: str, key: str) -> Optional[Path]:
        """Move one artifact into ``<root>/quarantine/``; drop its entry.

        The corruption-containment primitive behind
        :func:`repro.resilience.quarantine.quarantine_artifact`: the file
        is preserved for post-mortem instead of deleted, and the manifest
        forgets it so the next lookup is a clean
        :class:`ArtifactMissing` miss (the caller rebuilds).  Returns
        the quarantined file's new path, or ``None`` when no file was
        on disk to move.
        """
        artifact_id = self._artifact_id(kind, key)
        moved: Optional[Path] = None
        with self._locked():
            try:
                manifest = self._read_manifest()
            except StoreCorruption:
                manifest = None  # whole-manifest damage: gc territory
            entry = None
            if manifest is not None:
                entry = manifest.pop(artifact_id, None)
                if entry is not None:
                    self._write_manifest(manifest)
            file_name = entry.get("file") if isinstance(entry, dict) else None
            if file_name is None:
                # No manifest entry to consult: either payload spelling
                # may be on disk (damage can hit the manifest itself).
                for candidate in (f"{artifact_id}.flat", f"{artifact_id}.npz"):
                    if (self.root / candidate).exists():
                        file_name = candidate
                        break
                else:
                    return None
            src = self.root / file_name
            if src.exists():
                qdir = self.root / "quarantine"
                qdir.mkdir(parents=True, exist_ok=True)
                suffix = Path(file_name).suffix
                dest = qdir / file_name
                n = 1
                while dest.exists():
                    dest = qdir / f"{Path(file_name).stem}.{n}{suffix}"
                    n += 1
                os.replace(src, dest)
                moved = dest
        return moved

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self, dry_run: bool = False, clear: bool = False) -> List[Tuple[str, str]]:
        """Sweep corrupt, version-mismatched and orphaned artifacts.

        Removes (or with ``dry_run`` just reports) every manifest entry
        whose file is missing or whose format version differs from
        :data:`FORMAT_VERSION`, plus ``.flat``/``.npz`` payloads no manifest
        entry references and ``.tmp`` leftovers from interrupted writes.
        ``clear=True`` reclaims everything.  An unreadable manifest is
        itself a corruption gc repairs: every artifact file is then
        swept as orphaned and a fresh manifest written.  Returns
        ``[(artifact_id_or_file, reason), ...]``.
        """
        if not self.root.is_dir():
            return []  # nothing to collect; inspection must not mkdir
        removed: List[Tuple[str, str]] = []
        with self._locked():
            try:
                manifest = self._read_manifest()
            except StoreCorruption:
                manifest = {}
                removed.append((_MANIFEST, "unreadable manifest"))
            keep: Dict[str, dict] = {}
            condemned_files: set = set()
            for artifact_id, entry in manifest.items():
                file_name = entry.get("file") if isinstance(entry, dict) else None
                path = self.root / file_name if file_name else None
                if clear:
                    reason: Optional[str] = "cleared"
                elif path is None:
                    # Entries another format wrote may lack fields this
                    # build needs; never die on a raw KeyError here.
                    reason = "malformed manifest entry"
                elif entry.get("format_version") != FORMAT_VERSION:
                    reason = (
                        f"format version {entry.get('format_version')} != "
                        f"{FORMAT_VERSION}"
                    )
                elif not path.exists():
                    reason = "missing artifact file"
                else:
                    reason = self._payload_problem(entry, path)
                if reason is None:
                    keep[artifact_id] = entry
                    continue
                removed.append((artifact_id, reason))
                if path is not None:
                    condemned_files.add(path.name)
                    if not dry_run and path.exists():
                        _remove_payload(path)
            referenced = {entry["file"] for entry in keep.values()}
            orphans = sorted(
                [*self.root.glob("*.npz"), *self.root.glob("*.flat")]
            )
            for path in orphans:
                if path.name not in referenced and path.name not in condemned_files:
                    removed.append((path.name, "orphaned file"))
                    if not dry_run:
                        _remove_payload(path)
            # clear=True is an explicit full-reclaim request and ignores
            # the live-writer window routine gc uses.
            cutoff = time.time() if clear else time.time() - TMP_SWEEP_AGE_S
            for path in sorted(self.root.glob("*.tmp")):
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    continue  # the writer just renamed/removed it
                if mtime > cutoff:
                    continue  # possibly a live in-flight write: leave it
                removed.append((path.name, "interrupted write"))
                if not dry_run:
                    _remove_payload(path)
            if not dry_run:
                self._write_manifest(keep)
        return removed

    @staticmethod
    def _payload_problem(entry: dict, path: Path) -> Optional[str]:
        """Why this artifact payload cannot back its manifest entry (or None).

        The same states :meth:`get` rejects with :class:`StoreCorruption`
        — unreadable zip/headers, missing arrays/members, shape drift —
        so gc reclaims exactly what load refuses to serve.
        """
        if entry.get("format") == _FLAT:
            for name, shape in entry.get("shapes", {}).items():
                member = path / f"{name}.npy"
                try:
                    try:
                        arr = np.load(member, mmap_mode="r", allow_pickle=False)
                    except ValueError:
                        arr = np.load(member, allow_pickle=False)
                except FileNotFoundError:
                    return f"artifact lacks array {name!r}"
                except (OSError, ValueError):
                    return "unreadable artifact file"
                if list(arr.shape) != list(shape):
                    return "array shapes disagree with manifest"
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                names = set(data.files)
                for name, shape in entry.get("shapes", {}).items():
                    if name not in names:
                        return f"artifact lacks array {name!r}"
                    if list(data[name].shape) != list(shape):
                        return "array shapes disagree with manifest"
        except (OSError, ValueError, zipfile.BadZipFile):
            return "unreadable artifact file"
        return None

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries())


def _remove_payload(path: Path) -> None:
    """Remove an artifact payload, whichever shape it has (file or dir)."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        with contextlib.suppress(FileNotFoundError):
            path.unlink()


def _payload_nbytes(path: Path) -> int:
    """On-disk size of a payload: file size, or the sum over a flat dir."""
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size
