"""Read OBJ meshes back for the tests that check exported frames."""

from pathlib import Path

import numpy as np


def read_obj_vertices(path) -> np.ndarray:
    """Parse vertex lines back out of an OBJ file."""
    verts = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:4]])
    return np.array(verts)
