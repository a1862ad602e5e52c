"""aukit's one table format: every CSV table aukit writes or reads goes
through here (the OpenFace and frame-prediction files of other tools have
their own readers in aukit.ingest).

A table is UTF-8 text: `# ` metadata lines, an optional header row, then
rows of comma-separated cells, all of one width. Floats are written as
their repr, so they read back bit for bit. A bad cell is a ContractError
naming its file line and column, both counted from 1.
"""

import math

import numpy as np

from .domain import ContractError

_INT64_BOUND = 2 ** 63  # int cells must fit the int64 arrays they are read into


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, rows, header=None, meta=()):
    """Write each `meta` entry as a `# ` line, then `header`, then `rows`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {entry}\n" for entry in meta)
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_matrix(path, row_names, values, header=None, meta=()):
    """write_table of a table whose row i is `row_names[i]`, then the
    numbers of values[i]; the inverse of read_matrix."""
    rows = ([name, *row] for name, row in zip(row_names, values.tolist()))
    write_table(path, rows, header, meta)


def read_table(path, what, header=None, width=None, version=None):
    """(meta, rows): meta maps each leading `# key=value` line's key to its
    value (a bare `# tag` to ""), and rows lists (file line, cells) of the
    other non-blank lines after the exact `header`. A `# version` line, if
    given, is required, and checked before the rows. Every row must have
    `width` cells, by default the header's width; `what` names the file in
    errors."""
    meta, rows = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if rows or not line.startswith("#"):
                rows.append((number, line.split(",")))
            else:
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
    if version is not None and version not in meta:
        raise ContractError(f"corrupt {what}: no '# {version}' version line")
    if header is not None:
        if not rows or rows[0][1] != list(header):
            raise ContractError(f"corrupt {what}: header must be {','.join(header)!r}")
        rows = rows[1:]
        width = width or len(header)
    for number, cells in rows:
        if width is not None and len(cells) != width:
            raise ContractError(f"corrupt {what}: bad row width at line {number} "
                                f"({len(cells)} cells, expected {width})")
    return meta, rows


def _fit(values, kind):
    """Whether numbers of `kind` are all finite floats or int64-range ints."""
    if kind is float:
        return all(map(math.isfinite, values))
    return not values or -_INT64_BOUND <= min(values) <= max(values) < _INT64_BOUND


def numbers(cells, what, line, kind=float, column=1):
    """`cells`, of file line `line`, as finite floats or int64-range ints.
    A bad cell is a ContractError naming its column; `column` is cells[0]'s."""
    try:  # one conversion per row; an error is worded only when it fails
        values = [kind(cell) for cell in cells]
        if _fit(values, kind):
            return values
    except ValueError:
        pass
    for offset, cell in enumerate(cells):
        try:
            if _fit([kind(cell)], kind):
                continue
            problem = "non-finite" if kind is float else "out-of-range"
        except ValueError:
            problem = "non-numeric"
        raise ContractError(f"corrupt {what}: {problem} cell {cell!r} at line {line}, "
                            f"column {column + offset}")


def meta_fields(meta, what, **kinds):
    """The values of the required metadata keys named in `kinds` (key=kind),
    in order."""
    values = []
    for key, kind in kinds.items():
        try:
            values.append(kind(meta[key]))
        except KeyError:
            raise ContractError(f"corrupt {what}: {key} missing") from None
        except ValueError:
            raise ContractError(
                f"corrupt {what}: non-numeric {key} {meta[key]!r}"
            ) from None
    return values


def read_matrix(path, what, row_names, columns, header=None, kind=float,
                version=None):
    """(meta, values) of a table whose rows are `row_names`, in order, each
    followed by `columns` numbers; values is a float64 (int64) array. See
    read_table for `version`."""
    meta, rows = read_table(path, what, header, 1 + columns, version)
    if len(rows) != len(row_names):
        raise ContractError(f"corrupt {what}: expected {len(row_names)} rows, "
                            f"got {len(rows)}")
    for (line, cells), name in zip(rows, row_names):
        if cells[0] != name:
            raise ContractError(f"corrupt {what}: line {line} is row {cells[0]!r}, "
                                f"expected {name!r}")
    values = [numbers(cells[1:], what, line, kind, column=2) for line, cells in rows]
    return meta, np.array(values, dtype=np.float64 if kind is float else np.int64)
