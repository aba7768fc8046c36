"""Byte pins of every output that a state family's formulas feed, and the
guard that keeps those formulas on the family classes.

The digests were taken with each family's formulas behind branches on its
kind, before they moved onto one class per family: the classes must give
every output the same bits.
"""

import ast
import hashlib
import math
import pathlib

import numpy as np
import pytest

import qarrival
from qarrival import fisher
from qarrival import process as pr
from qarrival.intensity import build_profile
from qarrival.scenario import Scenario, StateFamily, family_Hn, log_family_Fn

# Fock(2) samples records of 3 past its particle number
FAMILIES = {"coherent": StateFamily.coherent(10.0),
            "quasifree": StateFamily.quasifree(10.0),
            "fock12": StateFamily.fock(12),
            "fock2": StateFamily.fock(2)}
U = np.linspace(0.0, 15.6, 53)          # past N = 12, so Fock's zeros are pinned too
MASSES = (0.0, 0.3, 1.25, 2.0)
NS = tuple(range(1, 9))
TAIL_CONSTS = ((0.5, 0.3, 0.8, 0.2), (3.0, 0.2, -1.5, 0.0), (40.0, 0.1, 30.0, 1.0))


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def _fisher(family, profile):
    reps = fisher.fisher_info_many(NS, family, profile)
    return _digest([(r.value, r.detection_part, r.noevent_part, r.p_tot, r.conditional)
                    for r in reps])


def _closed_form_tails(family, consts):
    return family.beam_tail(np.asarray(NS + (20, 60), dtype=float), *consts)


def _profiles():
    """A point-detector packet whose Omega_inf (1.26) is below 2, so every
    family fits, and a short r0 = 1 beam."""
    packet = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-5.0, dp=math.sqrt(0.5), navg=10.0)
    beam = Scenario(m=1.0, a=0.1, eps=0.0, p0=1.0, x0=-20.0, navg=math.inf, r0=1.0)
    return (build_profile(packet, t_max=10.0, dt=0.005),
            build_profile(beam, t_max=30.0, dt=0.01))


@pytest.fixture(scope="module")
def profiles():
    return _profiles()


def _weights(family):
    # H_n where F_n > 0: below N, and up to n = N for Fock(N)
    top = min(family.domain_max, 8.0)
    return _digest([log_family_Fn(family, n, U) for n in range(9)],
                   [log_family_Fn(family, n, float(x)) for n in range(9) for x in U[::4]],
                   [family_Hn(family, n, U[U < family.domain_max])
                    for n in range(int(top) + 1)])


def _masses(family):
    return _digest([pr.noevent_mass(n, family, m) for n in NS for m in MASSES])


def _counts(family):
    char = pr.spatial_char(2.0, family, 1.5)
    grid, one = char(np.linspace(-4.0, 4.0, 33)), char(0.7)
    return _digest(grid.real, grid.imag, [one.real, one.imag])


def _records(family, profile):
    times, n_det = pr.sample_times_matrix(3, family, profile, 600, 7)
    with np.errstate(divide="ignore"):
        return _digest(times, n_det, pr.log_likelihood_batch(times, family, profile),
                       fisher._score_batch(times, family, profile))


# sha256 of each family's outputs
PINNED = {
    "weights": {
        "coherent": "6480567964677f399ad6c47e656f15648d983c41200e351167ab1d6c97ca0a6a",
        "quasifree": "7fe062e62aa6ca3a1b07eb7a2bf557681f38cd94f68e8ffcc04ed9495ac47ad8",
        "fock12": "797e2a2fa7b4671b5b8e7a0584d88f8809703b847574b7541e1ea49443df83fe",
        "fock2": "ede539a1379a4972ce4ad51384867dfef67ff1c45f8b72f54d536bc414a5d556",
    },
    "masses": {
        "coherent": "53d3bb08ac0a6f596993fed430b82e34ffd59341ea2a2c12df18222c0ade365d",
        "quasifree": "9f330a1e115752d37f63973b2eb0859e8ea1c90f16d8ec6f4d3acf53eb318fb2",
        "fock12": "0307835e1171420d339111daf9270815d950341328e2422b4d038738608617ae",
        "fock2": "a96acdfb3680c86aee4f46a97cb0543075a5940954e13941fed6b611233f816b",
    },
    "counts": {
        "coherent": "64928fa83dafadcb1dabf38d6facaf00fa7e268ada8bdfc4c42dba3c03db7111",
        "quasifree": "cc746f8f99c39d170ba39ff372334056c7abed1c04bc565eb680f617bfb53ca8",
        "fock12": "8e9ad9ffe1e66c4270818df325d032282f3f8ecc075cafe9a267a05edc475c3c",
        "fock2": "7babcad4d59d5ed9e0fbaa3c3a341d1f30c9e91353902d6dcbb1209f34cd582c",
    },
    "finite-records": {
        "coherent": "92834f54d386e4844bf6c103025a69e6933adb72957d171cb9d4e25381187de4",
        "quasifree": "5a61028211d3eece2158413b813d26df7e62da67e3d3c90604e381a4348cda1d",
        "fock12": "834c758cf3a3ad960c9eca5b719a432c0aec0dbd5a5e3d6cdfd1cf9abb787c14",
        "fock2": "43a83bc471fd422165efff47b7b12ae19a4d826067e065dbbb266970efc1feda",
    },
    "finite-fisher": {
        "coherent": "ddad43bc968e254e7fa0ae1378d37c235f6b3b37161f43f69241df112a2e0cec",
        "quasifree": "d1addc6aa7bbbb4d5ba35aeef6085818595409a51864cf868ce3cd1bc6f0953a",
        "fock12": "215bd66550b1719321bcf064031512ab567bfecb95ee3b8a8d1019c2691c8189",
        "fock2": "98119e1ac56e254eb9680c307351f839543a29f5b2138af9fb2761d5cda13eda",
    },
    "beam-records": {
        "coherent": "3a52cecbad9066681a43963e13d627aeafcd1fc07adf08416fa5233f2a71e983",
        "quasifree": "9b726e2e406b5725911f7fd0dc276eaae5c9531cdda79958472d793458700646",
    },
    "beam-fisher": {
        "coherent": "9cef8b1f89ef5b93b8a15ff1b198833d7de6395eaf486093b180da131a685269",
        "quasifree": "a607fb7df117cae3ea5d49ef9680bab4730a1fcd3390db4ddb5bf1d90d5b8719",
    },
    "stationary": {
        "coherent": "4a8d64254e05aec00faa92e5660a03219bf733f00c63e40ae41f71fef3fb0ff1",
        "quasifree": "b0727f24c0b0dcf0843829bb915cdee133513f36903ea53a94617c11ec7c9b0a",
    },
    "tails": {
        "coherent": "6dfce4c9a9285294d383e3f4271da2c9a04ea51f03583c31c3bc24b4a2d65425",
        "quasifree": "0e10b62b398addc4efeaaccb3a0af521b880addc7fbc7cd49b484b9ae5df5da9",
    },
}


# each output from (family, finite profile, beam profile)
OUTPUTS = {
    "weights": lambda fam, fin, beam: _weights(fam),
    "masses": lambda fam, fin, beam: _masses(fam),
    "counts": lambda fam, fin, beam: _counts(fam),
    "finite-records": lambda fam, fin, beam: _records(fam, fin),
    "finite-fisher": lambda fam, fin, beam: _fisher(fam, fin),
    "beam-records": lambda fam, fin, beam: _records(fam, beam),
    "beam-fisher": lambda fam, fin, beam: _fisher(fam, beam),
    "stationary": lambda fam, fin, beam: _digest([fisher.stationary_constant(n, fam) for n in NS]),
    "tails": lambda fam, fin, beam: _digest([_closed_form_tails(fam, c) for c in TAIL_CONSTS]),
}


@pytest.mark.parametrize("what, kind", [(what, kind) for what, pins in PINNED.items()
                                        for kind in pins])
def test_family_output_bytes(what, kind, profiles):
    got = OUTPUTS[what](FAMILIES[kind], *profiles)
    assert got == PINNED[what][kind]


# the string-keyed early-time series that criterion 10 compares against:
# a reference keyed by name, not a dispatch on a family
KIND_KEYED = {("process.py", "first_arrival_series_coeffs")}


def _is_kind(node):
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            or isinstance(node, ast.Name) and node.id == "kind")


def _kind_comparisons(node, module):
    """``module:line`` of each comparison that reads a family kind under ``node``."""
    if isinstance(node, ast.FunctionDef) and (module, node.name) in KIND_KEYED:
        return
    if isinstance(node, ast.Compare) and any(map(_is_kind, [node.left, *node.comparators])):
        yield f"{module}:{node.lineno}"
    for child in ast.iter_child_nodes(node):
        yield from _kind_comparisons(child, module)


def test_no_kind_branch_outside_scenario():
    # each family's formulas live on its class in scenario.py; the other
    # modules ask the family instead of branching on its kind
    found = [hit for path in sorted(pathlib.Path(qarrival.__file__).parent.glob("*.py"))
             if path.name != "scenario.py"
             for hit in _kind_comparisons(ast.parse(path.read_text()), path.name)]
    assert found == []
