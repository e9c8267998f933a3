"""Columnar text tables: the sweep's .dat files, and observations and
ground truths as the columns real, imag and (observations only) theta.
One header line names the columns; every value is written as %.17g, so a
read-back reproduces every float bit for bit.
"""

import os

import numpy as np


def write_dat(table, path, column_names):
    """Whitespace-delimited table, one header comment naming the columns,
    full float precision. Written to a temp file and renamed into place so
    an interrupted run leaves no partial file."""
    table = np.atleast_2d(np.asarray(table, dtype=float))
    if table.size == 0:
        raise ValueError("refusing to write an empty table")
    if len(column_names) != table.shape[1]:
        raise ValueError("column name count does not match table width")
    row = " ".join(["%.17g"] * table.shape[1]) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".dat-" + os.urandom(8).hex())
    # created 0o666 so that the umask sets the mode, as for a plain open
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("# " + " ".join(column_names) + "\n")
            fh.writelines(row % tuple(values) for values in table.tolist())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def read_dat(path):
    return np.loadtxt(path, comments="#", ndmin=2)


def save_observation(path, y, theta=None):
    y = np.asarray(y, dtype=complex)
    columns = [y.real, y.imag]
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != y.shape:
            raise ValueError("theta length does not match observation length")
        columns.append(theta)
    names = ("real", "imag", "theta")[:len(columns)]
    return write_dat(np.column_stack(columns), path, names)


def load_observation(path):
    """Returns (y, theta) where theta is None for two-column files."""
    data = read_dat(path)
    if data.shape[1] not in (2, 3):
        raise ValueError("%s: expected 2 or 3 columns, found %d"
                         % (path, data.shape[1]))
    y = data[:, 0] + 1j * data[:, 1]
    theta = data[:, 2] if data.shape[1] == 3 else None
    return y, theta


def save_ground_truth(path, z):
    return save_observation(path, np.asarray(z, dtype=complex))


def load_ground_truth(path):
    z, _ = load_observation(path)
    return z
