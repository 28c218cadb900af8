"""Reading and writing transaction databases.

Three interchange formats are supported:

* **FIMI / basket** (``.dat``): one transaction per line, items as
  whitespace-separated integers.  This is the format of the FIMI repository
  datasets the frequent-itemset-mining community standardised on.
* **CSV**: one transaction per line, comma-separated integers (spreadsheet
  friendly).
* **JSON**: ``{"universe": [...], "transactions": [[...], ...]}`` — the only
  format that round-trips an explicit universe with zero-support items.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Iterator, List, Optional, Union

from .transaction_db import TransactionDatabase
from .vertical import FlatBaskets

try:  # the array parse needs NumPy; without it every file streams
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by patching _np
    _np = None

PathLike = Union[str, Path]

#: Longest token the array parse accepts: any 18-digit integer fits int64.
_MAX_TOKEN_BYTES = 18


def iter_basket(path: PathLike) -> Iterator[List[int]]:
    """Stream a FIMI-format basket file: one list of items per basket line.

    Blank lines are skipped; a malformed token raises :class:`ValueError`
    with the offending line number.  The reference basket parser: used by
    :class:`~repro.db.disk.DiskTransactionDatabase`, and by
    :func:`load_basket` without NumPy or for any file the array parse
    does not read the same way.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                items = [int(token) for token in stripped.split()]
            except ValueError:
                raise ValueError(
                    "%s:%d: non-integer item in basket line" % (path, line_number)
                ) from None
            yield items


#: The bytes the array parse reads: whitespace that ``str.split`` and
#: ``np.fromstring`` both split on (never ``\r``: it ends lines in text
#: mode), signs and digits.  Whitespace is exactly the allowed bytes <= 32.
_ARRAY_BYTES = list(b" \t\n\x0b\x0c+-0123456789")


#: Bytes per parsed block (whole lines): keeps the temporaries of one
#: block cache-sized, so the parse stays linear in the file size.
_PARSE_BYTES = 1 << 22


def _parse_basket_bytes(data: bytes) -> Optional[FlatBaskets]:
    """Parse a whole basket file into :class:`FlatBaskets`, or None.

    The file is cut into blocks of whole lines.  In each block the items
    come from one ``np.fromstring`` and the basket of each item from the
    number of token starts on each ``\\n``-terminated line.  Every token
    must read ``[+-]?[0-9]+`` in at most :data:`_MAX_TOKEN_BYTES` bytes,
    where ``int`` and ``fromstring`` agree.  Anything else -- another
    byte (``\\r``, ``_``, non-ASCII, ...), a sign not starting a token or
    not followed by a digit, a longer token, a partial parse or a token
    count that disagrees -- returns None so that :func:`iter_basket`
    reads the file instead and raises its ``path:line:`` error if the
    file is malformed.
    """
    blocks = []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _PARSE_BYTES) + 1 or len(data)
        block = _parse_block(data[start:stop])
        if block is None:
            return None
        blocks.append(block)
        start = stop
    if not blocks:
        return FlatBaskets(_np.zeros(0, dtype=_np.int64), _np.zeros(1, _np.intp))
    items, lengths = (_np.concatenate(parts) for parts in zip(*blocks))
    offsets = _np.zeros(lengths.size + 1, dtype=_np.intp)
    _np.cumsum(lengths, out=offsets[1:])
    return FlatBaskets(items, offsets)


def _parse_block(data: bytes):
    """``(items, basket lengths)`` of whole lines, or None; see above."""
    raw = _np.frombuffer(data, dtype=_np.uint8)
    histogram = _np.bincount(raw, minlength=256)
    num_signs = histogram[ord("+")] + histogram[ord("-")]
    histogram[_ARRAY_BYTES] = 0
    if histogram.any():
        return None
    solid = raw > 32
    starts = solid.copy()
    starts[1:] &= ~solid[:-1]
    if num_signs:
        signs = (raw == ord("+")) | (raw == ord("-"))
        signs[:-1] &= ~(starts[:-1] & (raw[1:] >= ord("0")))
        if signs.any():
            return None
    # run[i]: bytes [i, i + width) are all solid; widen to one byte past
    # the longest token allowed by doubling, then by the remainder
    run, width = solid, 1
    while width < _MAX_TOKEN_BYTES + 1:
        shift = min(width, _MAX_TOKEN_BYTES + 1 - width)
        run = run[: max(run.size - shift, 0)] & run[shift:]
        width += shift
    if run.any():
        return None
    del run, solid
    # tokens per line: token starts before each newline, differenced
    token_starts = _np.flatnonzero(starts)
    del starts
    ends = _np.searchsorted(token_starts, _np.flatnonzero(raw == ord("\n")))
    per_line = _np.diff(ends, prepend=0, append=token_starts.size)
    lengths = per_line[per_line > 0]
    if not token_starts.size:  # ``fromstring`` reads blank text as [0]
        return _np.zeros(0, dtype=_np.int64), lengths
    del token_starts, ends, per_line
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            items = _np.fromstring(data, dtype=_np.int64, sep=" ")
        except (DeprecationWarning, ValueError):
            return None
    if items.size != lengths.sum():
        return None
    return items, lengths


def load_basket(path: PathLike) -> TransactionDatabase:
    """Load a FIMI-format basket file.

    With NumPy the file is read as one buffer and parsed into flat
    arrays; the database builds its per-row frozensets only if asked
    for rows.  Without NumPy, or for a file the array parse cannot read
    the same way, :func:`iter_basket` parses it; both give equal
    databases.
    """
    if _np is not None:
        with open(path, "rb") as handle:
            baskets = _parse_basket_bytes(handle.read())
        if baskets is not None:
            return TransactionDatabase(baskets)
    return TransactionDatabase(iter_basket(path))


def save_basket(db: TransactionDatabase, path: PathLike) -> None:
    """Write a FIMI-format basket file, items sorted per transaction."""
    with open(path, "w", encoding="utf-8") as handle:
        for transaction in db:
            handle.write(" ".join(str(item) for item in sorted(transaction)))
            handle.write("\n")


def load_csv(path: PathLike) -> TransactionDatabase:
    """Load a CSV basket file (one transaction per row, integer cells)."""
    transactions: List[List[int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                transactions.append(
                    [int(token) for token in stripped.split(",") if token.strip()]
                )
            except ValueError:
                raise ValueError(
                    "%s:%d: non-integer item in CSV line" % (path, line_number)
                ) from None
    return TransactionDatabase(transactions)


def save_csv(db: TransactionDatabase, path: PathLike) -> None:
    """Write a CSV basket file, items sorted per transaction."""
    with open(path, "w", encoding="utf-8") as handle:
        for transaction in db:
            handle.write(",".join(str(item) for item in sorted(transaction)))
            handle.write("\n")


def load_json(path: PathLike) -> TransactionDatabase:
    """Load the JSON interchange format (preserves the explicit universe)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "transactions" not in payload:
        raise ValueError("%s: expected an object with a 'transactions' key" % path)
    return TransactionDatabase(
        payload["transactions"], universe=payload.get("universe")
    )


def save_json(db: TransactionDatabase, path: PathLike) -> None:
    """Write the JSON interchange format."""
    payload = {
        "universe": list(db.universe),
        "transactions": [sorted(transaction) for transaction in db],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


_LOADERS = {".dat": load_basket, ".basket": load_basket, ".txt": load_basket,
            ".csv": load_csv, ".json": load_json}
_SAVERS = {".dat": save_basket, ".basket": save_basket, ".txt": save_basket,
           ".csv": save_csv, ".json": save_json}


def load(path: PathLike) -> TransactionDatabase:
    """Load a database, dispatching on file extension.

    ``.dat``/``.basket``/``.txt`` → FIMI, ``.csv`` → CSV, ``.json`` → JSON.
    """
    suffix = Path(path).suffix.lower()
    loader = _LOADERS.get(suffix)
    if loader is None:
        raise ValueError("unsupported database extension %r" % suffix)
    return loader(path)


def save(db: TransactionDatabase, path: PathLike) -> None:
    """Save a database, dispatching on file extension (see :func:`load`)."""
    suffix = Path(path).suffix.lower()
    saver = _SAVERS.get(suffix)
    if saver is None:
        raise ValueError("unsupported database extension %r" % suffix)
    saver(db, path)
