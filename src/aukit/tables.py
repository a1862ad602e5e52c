"""aukit's one table format: every CSV table aukit writes or reads goes
through here (the OpenFace and frame-prediction files of other tools have
their own readers in aukit.ingest).

A table is UTF-8 text: `# ` metadata lines, an optional header row, then
rows of comma-separated cells, all of one width. Floats are written as
their repr, so they read back bit for bit. A bad cell is a ContractError
naming its file line and column, both counted from 1.
"""

import re

import numpy as np

from .domain import ContractError

_DTYPES = {float: np.float64, int: np.int64}


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
    try:
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
    except UnicodeDecodeError:
        raise ContractError(f"corrupt {what}: {path} is not UTF-8 text") from None
    if rows and rows[0][0] == 1 and rows[0][1][0].startswith("\ufeff"):
        raise ContractError(f"corrupt {what}: byte-order mark at line 1")
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


def parse_cells(records, columns, dtype=float):
    """The `columns` cells of each record, a line of comma-separated cells:
    np.loadtxt's grammar, the one grammar of every number aukit reads. A bad
    cell is a ValueError; an empty record would be skipped."""
    if not records:  # loadtxt would warn of no data
        return np.empty((0, len(columns)), dtype)
    return np.loadtxt(records, dtype=dtype, delimiter=",", comments=None, ndmin=2,
                      usecols=columns)


def cell_value(cell, kind=float):
    """A cell as parse_cells reads it alone, a float or an int64-range int;
    None where it is empty or no number of `kind` (a comma makes two)."""
    try:
        return parse_cells([cell], None, _DTYPES[kind]).item() if cell else None
    except ValueError:  # .item() raises it for two cells
        return None


def numbers(cells, what, line, kind=float, column=1):
    """`cells`, of file line `line`, as finite floats or int64-range ints,
    read one at a time (cell_value). A bad cell is a ContractError naming
    its column; `column` is cells[0]'s."""
    values = [cell_value(cell, kind) for cell in cells]
    for offset, (cell, value) in enumerate(zip(cells, values)):
        if value is None or not np.isfinite(value):  # digits alone: out of int64's range
            problem = "non-finite" if value is not None else "out-of-range" if (
                kind is int and re.fullmatch(r"\s*[+-]?[0-9]+\s*", cell)) else "non-numeric"
            raise ContractError(f"corrupt {what}: {problem} cell {cell!r} at line {line}, "
                                f"column {column + offset}")
    return values


def number_columns(rows, what, columns, kind=float):
    """The cells `columns` (consecutive indices) of read_table's `rows`, as
    one float64 array of finite values (int64 for kind int), in one
    parse_cells call (a row is never blank, so none is skipped); only where
    it fails does numbers read the rows, to word the first bad cell."""
    try:  # texts joined one at a time, not all held; [] shows parse_cells no rows
        texts = (",".join(cells) for _, cells in rows) if rows else []
        values = parse_cells(texts, columns, _DTYPES[kind])
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for line, cells in rows:
        numbers([cells[i] for i in columns], what, line, kind, columns[0] + 1)


def meta_fields(meta, what, **kinds):
    """The values of the required metadata keys named in `kinds` (key=kind:
    str, or int or float as cell_value reads them), in order."""
    values = []
    for key, kind in kinds.items():
        if key not in meta:
            raise ContractError(f"corrupt {what}: {key} missing")
        values.append(meta[key] if kind is str else cell_value(meta[key], kind))
        if values[-1] is None:
            raise ContractError(f"corrupt {what}: non-numeric {key} {meta[key]!r}")
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
    return meta, number_columns(rows, what, range(1, 1 + columns), kind)
