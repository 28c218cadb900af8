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
from pathlib import Path
from typing import Iterator, List, Union

from .transaction_db import TransactionDatabase

PathLike = Union[str, Path]


def iter_basket(path: PathLike) -> Iterator[List[int]]:
    """Stream a FIMI-format basket file: one list of items per basket line.

    Blank lines are skipped; a malformed token raises :class:`ValueError`
    with the offending line number.  The one basket parser, shared by
    :func:`load_basket` and :class:`~repro.db.disk.DiskTransactionDatabase`.
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


def load_basket(path: PathLike) -> TransactionDatabase:
    """Load a FIMI-format basket file (parsed by :func:`iter_basket`)."""
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
