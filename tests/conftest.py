import types

import numpy as np
import pytest

from pixelinv import linsolve
from pixelinv.assembly import assemble_load, assemble_pixel_matrices
from pixelinv.mesh import PixelGrid, build_mesh, standard_disk_layout


@pytest.fixture(scope="session")
def grid3():
    return PixelGrid(3)


@pytest.fixture(scope="session")
def mesh3x4(grid3):
    return build_mesh(grid3, 4)


@pytest.fixture(scope="session")
def disks3x4(mesh3x4):
    return standard_disk_layout(mesh3x4, 0.25)


@pytest.fixture(scope="session")
def stiffness3x4(mesh3x4, grid3):
    return assemble_pixel_matrices(mesh3x4, grid3)


@pytest.fixture(scope="session")
def loads3x4(mesh3x4, disks3x4):
    return [assemble_load(mesh3x4, d) for d in disks3x4]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture()
def solve_counter(monkeypatch):
    """Counts the right-hand sides solved through ``pixelinv.linsolve`` while a
    test runs: ``solve_counter.solves`` rises by one per returned solution."""
    counter = types.SimpleNamespace(solves=0)
    solve_spd, solve_multi = linsolve.solve_spd, linsolve.solve_multi

    def counted_spd(*args, **kwargs):
        report = solve_spd(*args, **kwargs)
        counter.solves += 1
        return report

    def counted_multi(*args, **kwargs):
        reports = solve_multi(*args, **kwargs)
        counter.solves += len(reports)
        return reports

    monkeypatch.setattr(linsolve, "solve_spd", counted_spd)
    monkeypatch.setattr(linsolve, "solve_multi", counted_multi)
    return counter
