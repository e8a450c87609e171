"""Durable on-disk model store, format 6.

Layout of a saved model directory::

    <dir>/manifest.txt      UTF-8 key=value lines, checksums of every array
    <dir>/raw_values.f64    retained raw steps (NaN where missing)
    <dir>/sub_<i>/          per trained sub-model:
        U.f64 S.f64 V.f64              mean-model factors
        Uf.f64 Sf.f64 Vf.f64           mean forecast factors
        Uv.f64 Sv.f64 Vv.f64           variance-model factors
        Uvf.f64 Svf.f64 Vvf.f64        variance forecast factors
        beta_mean.f64 beta_var.f64     regression coefficients

Every ``.f64`` file is two little-endian uint64 dimensions (rows, cols)
followed by rows*cols little-endian IEEE-754 float64 values in column-major
order, the C-order bytes of the array's transpose: so ``raw_values.f64`` is
the raw window's time-major buffer as it is, written from the window and
read into a new one.  One routine writes every file and one reads it.  Exact
float state (running sums, gamma) is stored in the manifest as hex floats,
so a load reproduces predictions bit for bit.  Each field of
:class:`HyperParams` is the key ``hp.<name>``, a hex float for a float field
and JSON otherwise (formats 1-6 alike); load decodes it by the same rule and
lets HyperParams refuse a wrong type.  The rows of a V file are in
:mod:`~pagecast.page_matrix`'s column order.

Nothing that load can derive is stored.  The series count is the raw file's
header, the step count ``raw_start`` plus its steps, the sub-model count
ceil(n_steps / half_steps).  A sub-model keeps only ``retrain_history`` and
its checksums: its first step is i * half_steps, it is trained once it has
retrained, L, P, k1 and k2 are its factor shapes, and its next retrain
follows from its history and :func:`retrain_thresholds`.  The averaged
coefficients, each sub-model's unfinished Page column and last Page row, and
the observation mask (the finite raw entries) are recomputed.  Load refuses
names that disagree with the raw file, hyper-parameters or names that a new
model would refuse (a wrong type too), histories that disagree with the
factor files listed and factors whose L or P disagree with the history and
step count (CorruptManifest).  Formats 1-5 stored the counts and ``pending``
thresholds, formats 1-4 the sub-model shapes with the last retrain's columns
series-major (undone by :func:`_reorder_columns`), formats 1-3 the mask
(``raw_mask.f64``), formats 1 and 2 each sub-model's step count, column and
row (``steps``/``buf_len`` keys, ``buf.f64``, ``last_row_*.f64``), format 1
``coeff_avg.f64`` and ``half_steps``; such stores still load, ignoring them.

Load and save read a store's live copy (:func:`_live`).  A save is staged in
``<dir>.staging``; its commit renames a live ``<dir>`` to ``<dir>.bak`` (or
removes one that is not live) and the staging directory to ``<dir>``, and
only then removes the backup, so an interrupted save leaves the last
committed version loadable.  Every file and directory is fsynced before the
renames and the parent after them.
"""

import errno
import hashlib
import json
import os
import shutil
from dataclasses import fields

import numpy as np

from .errors import (ChecksumMismatch, CorruptManifest, InvalidParams,
                     VersionUnsupported)
from .incremental import HyperParams, PredictionModel, SubModel, _RawWindow
from .svd_engine import TruncatedSVD

FORMAT_VERSION = 6

_SVD_FILES = {
    "mean_svd": ("U", "S", "V"),
    "fc_mean_svd": ("Uf", "Sf", "Vf"),
    "var_svd": ("Uv", "Sv", "Vv"),
    "fc_var_svd": ("Uvf", "Svf", "Vvf"),
}
_VEC_FILES = ("beta_mean", "beta_var")


class PersistenceReadError(CorruptManifest):
    """Internal: manifest unreadable at one location (may fall back)."""


# Filesystem primitives routed through module functions so tests can inject
# faults at any point of the commit sequence.

def _write_bytes(path: str, *chunks) -> str:
    """Write the bytes-like ``chunks`` in order to a new file at ``path``
    and fsync it.  Returns the sha256 of the file, hashed as it is written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    return digest.hexdigest()


def _rename(src: str, dst: str) -> None:
    os.rename(src, dst)


def _fsync_dir(path: str) -> None:
    """Make the entries of directory ``path`` (creations, renames) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _refuse_file(directory: str) -> None:
    """Raise :class:`NotADirectoryError` naming the path if something other
    than a directory (a regular file, say) is at ``directory`` or at its
    ``.bak`` or ``.staging`` sibling: no save replaces it."""
    for path in (directory, directory + ".bak", directory + ".staging"):
        if os.path.exists(path) and not os.path.isdir(path):
            raise NotADirectoryError(errno.ENOTDIR, "not a directory, so not "
                                     "part of a model store", path)


def save_model(model: PredictionModel, directory) -> dict:
    """Persist the model, replacing any previous version atomically.

    Returns the manifest as a dict.  The previous version (if any) remains
    loadable if the process dies at any point during the save.  A path that
    holds a file is refused before anything is written (:func:`_refuse_file`).
    """
    directory = os.path.normpath(os.fspath(directory))
    _refuse_file(directory)
    staging, backup = directory + ".staging", directory + ".bak"
    live, prev = _live(directory)
    if os.path.exists(staging):
        shutil.rmtree(staging)
    os.makedirs(staging)

    manifest: dict[str, str] = {
        "format_version": str(FORMAT_VERSION),
        "model_version": str(int(prev["model_version"]) + 1 if prev else 1),
        "names": json.dumps(model.names),
        "t0": float(model.t0).hex(),
        "step": float(model.step).hex(),
        "obs_sum": float(model.obs_sum).hex(),
        "obs_sumsq": float(model.obs_sumsq).hex(),
        "obs_cnt": str(model.obs_cnt),
    }
    for f in fields(HyperParams):
        value = getattr(model.hp, f.name)
        manifest[f"hp.{f.name}"] = (float(value).hex() if f.type is float
                                    else json.dumps(value))

    checksums: dict[str, str] = {}

    def emit(relpath: str, arr: np.ndarray) -> None:
        """Write ``arr`` (a vector as one column) as ``relpath``; a payload
        already laid out as the file's is written where it is."""
        full = os.path.join(staging, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        payload = np.ascontiguousarray(np.atleast_2d(arr.T), dtype="<f8")
        checksums[relpath] = _write_bytes(
            full, np.array(payload.shape[::-1], dtype="<u8"), payload)

    # The window's T x N rows are the payload of the N x T array stored.
    manifest["raw_start"] = str(model.raw.start_step)
    emit("raw_values.f64", model.raw.rows().T)

    for sm in model.submodels:
        manifest[f"sub{sm.index}.retrain_history"] = json.dumps(sm.retrain_history)
        if not sm.trained:
            continue
        sub = f"sub_{sm.index}"
        for attr, names in _SVD_FILES.items():
            svd = getattr(sm, attr)
            for fname, arr in zip(names, (svd.U, svd.s, svd.V)):
                emit(f"{sub}/{fname}.f64", arr)
        for attr in _VEC_FILES:
            emit(f"{sub}/{attr}.f64", getattr(sm, attr))

    for relpath, digest in checksums.items():
        manifest[f"checksum.{relpath}"] = digest
    lines = "".join(f"{k}={v}\n" for k, v in manifest.items())
    _write_bytes(os.path.join(staging, "manifest.txt"), lines.encode("utf-8"))

    # Every file is on disk; make their directory entries durable too, so
    # that the renames below cannot outlive the files they commit.
    for root, _, _ in os.walk(staging):
        _fsync_dir(root)

    # Commit: demote a live primary to backup (a dead one is dropped),
    # promote staging, and drop the backup once the renames are durable.
    if live == directory:
        if os.path.exists(backup):
            shutil.rmtree(backup)
        _rename(directory, backup)
    elif os.path.exists(directory):
        shutil.rmtree(directory)
    _rename(staging, directory)
    _fsync_dir(os.path.dirname(os.path.abspath(directory)))
    if os.path.exists(backup):
        shutil.rmtree(backup)
    return manifest


def _read_manifest(directory: str) -> dict[str, str]:
    path = os.path.join(directory, "manifest.txt")
    if not os.path.isfile(path):
        raise PersistenceReadError(f"no manifest at {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise PersistenceReadError(f"{path}: not UTF-8 ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        if line and "=" not in line:
            raise PersistenceReadError(f"{path}:{lineno}: expected key=value")
    out = dict(line.split("=", 1) for line in lines if line)
    for key in ("format_version", "model_version"):
        if key not in out:
            raise PersistenceReadError(f"{path}: missing key {key!r}")
    return out


def _live(directory: str):
    """The committed copy of the store at ``directory`` and its manifest:
    ``directory`` if its manifest reads, else ``directory.bak`` if that
    one's does, else ``(None, None)``."""
    for copy in (directory, directory + ".bak"):
        try:
            return copy, _read_manifest(copy)
        except PersistenceReadError:
            pass
    return None, None


def _load_array(directory: str, relpath: str, manifest: dict[str, str],
                alloc=None) -> np.ndarray:
    """The rows x cols array stored as ``relpath`` in ``directory``.

    The payload is hashed as it is read into the C-order (cols, rows) float64
    buffer that ``alloc((cols, rows))`` returns, a new array by default, and
    only once the file's length bears out its header.  Returns the buffer's
    transpose, as a C-order copy for the default.  Refuses a file that cannot
    be read or whose checksum is not the manifest's (ChecksumMismatch), or
    that the manifest does not list or whose length disagrees with its header
    (CorruptManifest)."""
    full = os.path.join(directory, relpath)
    digest = hashlib.sha256()
    buf = None
    try:
        with open(full, "rb") as fh:
            header = fh.read(16)
            digest.update(header)
            if len(header) == 16:
                rows, cols = (int(d) for d in np.frombuffer(header, "<u8"))
                if os.fstat(fh.fileno()).st_size == 16 + 8 * rows * cols:
                    buf = (alloc or np.empty)((cols, rows))
                    payload = buf.reshape(-1).view(np.uint8)
                    got = fh.readinto(payload)
                    digest.update(payload[:got])
                    whole = got == len(payload)
            rest = fh.read()
            digest.update(rest)
    except OSError as exc:
        raise ChecksumMismatch(f"cannot read {full}: {exc}") from exc
    expect = manifest.get(f"checksum.{relpath}")
    if expect is None:
        raise CorruptManifest(f"manifest lacks checksum for {relpath}")
    if digest.hexdigest() != expect:
        raise ChecksumMismatch(f"checksum mismatch for {relpath}")
    if buf is None or not whole or rest:
        raise CorruptManifest(f"{relpath}: length disagrees with its header")
    if not np.little_endian:  # the payload is little-endian
        buf.byteswap(inplace=True)
    return buf.T if alloc else np.ascontiguousarray(buf.T)


def _rebuild(directory: str, manifest: dict[str, str]) -> PredictionModel:
    version = int(manifest["format_version"])
    if version > FORMAT_VERSION:
        raise VersionUnsupported(
            f"store format {version} newer than supported {FORMAT_VERSION}")

    hp = HyperParams(**{
        f.name: (float.fromhex if f.type is float else json.loads)(
            manifest[f"hp.{f.name}"]) for f in fields(HyperParams)})
    model = PredictionModel(json.loads(manifest["names"]), hp,
                            t0=float.fromhex(manifest["t0"]),
                            step=float.fromhex(manifest["step"]))

    def window(shape):  # rows of a new window: (steps, series)
        if shape[1] != model.N:
            raise CorruptManifest("names disagree with raw_values.f64's series")
        model.raw = _RawWindow(model.N, shape[0], int(manifest["raw_start"]))
        return model.raw.rows()

    _load_array(directory, "raw_values.f64", manifest, window)
    model.n_steps = model.raw.start_step + model.raw.n_cols
    model._moments = (float.fromhex(manifest["obs_sum"]),
                       float.fromhex(manifest["obs_sumsq"]),
                       int(manifest["obs_cnt"]), model.n_steps)

    histories = [list(json.loads(manifest[f"sub{i}.retrain_history"]))
                 for i in range(-(-model.n_steps // model.half_steps))]
    listed = {key.partition("/")[0] for key in manifest
              if key.startswith("checksum.sub_")}
    if listed != {f"checksum.sub_{i}" for i, h in enumerate(histories) if h}:
        raise CorruptManifest("retrain histories disagree with files listed")
    for i, history in enumerate(histories):
        sm = SubModel(i, i * model.half_steps, model.N)
        sm.retrain_history = history
        if history:
            sub = f"sub_{i}"
            for attr, fnames in _SVD_FILES.items():
                U, s, V = (_load_array(directory, f"{sub}/{name}.f64", manifest)
                           for name in fnames)
                setattr(sm, attr, TruncatedSVD(U, s.reshape(-1), V))
            for attr in _VEC_FILES:
                vec = _load_array(directory, f"{sub}/{attr}.f64", manifest)
                setattr(sm, attr, vec.reshape(-1))
            if version < 5:
                _reorder_columns(sm, int(manifest[f"sub{i}.P"]))
            if (sm.L != model._window_for(history[-1] // model.N - sm.start_step)
                    or sm.P != model._seg_steps(sm) // sm.L):
                raise CorruptManifest(f"sub_{i} shapes disagree with its history")
        model.submodels.append(sm)
    return model


def _reorder_columns(sm: SubModel, P: int) -> None:
    """Move the V rows of a format 1-4 sub-model of ``P`` columns per series
    to row N*j + n.  Those stores kept column j of series n at row n*R + j
    for the R columns per series of the last retrain."""
    R = (sm.retrain_history[-1] // sm.N - sm.start_step) // sm.L
    svds = [getattr(sm, attr) for attr in _SVD_FILES]
    if not 0 <= R <= P or any(svd.V.shape[0] != sm.N * P for svd in svds):
        raise CorruptManifest(f"sub{sm.index}.P={P} disagrees with its V files")
    j, n = np.arange(P)[:, None], np.arange(sm.N)
    old = np.where(j < R, n * R + j, sm.N * j + n).ravel()
    for svd in svds:
        svd.V = svd.V[old]


def load_model(directory) -> PredictionModel:
    """Load a model saved by :func:`save_model` from the store's live copy.

    That is ``<dir>.bak`` only when the primary's manifest is missing or
    unreadable (the signature an interrupted save leaves behind); with no
    live copy it raises :class:`CorruptManifest`.  A readable primary that
    fails validation raises :class:`ChecksumMismatch`,
    :class:`CorruptManifest` or :class:`VersionUnsupported` without trying
    the backup.
    """
    directory = os.path.normpath(os.fspath(directory))
    live, manifest = _live(directory)
    if live is None:
        raise CorruptManifest(f"no loadable model at {directory}")
    try:
        return _rebuild(live, manifest)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError,
            InvalidParams) as exc:
        raise CorruptManifest(f"{live}: malformed manifest: {exc}") from exc
