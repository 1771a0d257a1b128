"""Golden hashes of printed reduced Groebner bases.

A reduced basis is unique for a fixed monomial order, so any change to the
reduction engine (term selection, key order, pair handling) that alters a
single printed basis below is a bug.  The hashes were recorded before the
normal form was rebuilt around a heap.

Run ``PYTHONPATH=src python tests/test_golden_gb.py`` to print the current
hashes.
"""

import hashlib

import pytest

from coxdescent import (FieldTower, IdealHandle, Multidegree, intersect,
                        make_product_projective, make_segre_p1p1, saturate)

from conftest import random_poly, seeded, sparse_poly


def _ideal(amb, degrees, seed, make=random_poly):
    ring = amb.ring
    rng = seeded(seed)
    return IdealHandle(ring, [make(ring, Multidegree(d), rng) for d in degrees])


def _cases():
    gf101, gf9 = FieldTower(101), FieldTower(3, 2)
    p1p1 = make_product_projective([1, 1], gf101)
    p2p2 = make_product_projective([2, 2], gf101)
    segre = make_segre_p1p1(gf101)
    p1p1_9 = make_product_projective([1, 1], gf9)
    segre_9 = make_segre_p1p1(gf9)
    return {
        "p1p1_gf101_22_22": lambda: _ideal(p1p1, [(2, 2), (2, 2)], 7),
        "p1p1_gf101_sparse": lambda: _ideal(p1p1, [(1, 1), (2, 1), (1, 2)], 3, sparse_poly),
        "p2p2_gf101_11_11_21": lambda: _ideal(p2p2, [(1, 1), (1, 1), (2, 1)], 7),
        "p2p2_gf101_22_22": lambda: _ideal(p2p2, [(2, 2), (2, 2)], 7),
        "segre_gf101": lambda: _ideal(segre, [(1,), (2,)], 5),
        "p1p1_gf101_saturate": lambda: saturate(
            _ideal(p1p1, [(1, 1), (2, 1)], 11, sparse_poly), p1p1.irrelevant_ideal()),
        "p1p1_gf101_intersect": lambda: intersect(
            _ideal(p1p1, [(1, 1), (1, 0)], 13), _ideal(p1p1, [(0, 1), (2, 1)], 17)),
        "p1p1_gf9_22_21": lambda: _ideal(p1p1_9, [(2, 2), (2, 1)], 7),
        "segre_gf9": lambda: _ideal(segre_9, [(1,), (2,), (2,)], 19),
        "p1p1_gf9_saturate": lambda: saturate(
            _ideal(p1p1_9, [(1, 1), (1, 2)], 23, sparse_poly), p1p1_9.irrelevant_ideal()),
        "p1p1_gf9_intersect": lambda: intersect(
            _ideal(p1p1_9, [(1, 0), (1, 1)], 29), _ideal(p1p1_9, [(1, 1), (0, 2)], 31)),
    }


def _digest(handle):
    printed = "\n".join(str(g) for g in handle.reduced_gb())
    return hashlib.sha256(printed.encode()).hexdigest()


GOLDEN = {
    "p1p1_gf101_22_22": "059bb7f5b764fbaa95b3e47e5a9be8627ffa398152181e1a1c0694bf15780b05",
    "p1p1_gf101_sparse": "db4ab1ddfbb57b7f57dd8a4991ee578bc81dc756cc8b60c0bfe16b69359d07c2",
    "p2p2_gf101_11_11_21": "837380bec7ecd362b93638e4076e8ee55f61d8fdab5f3a7791da5b070ab7f509",
    "p2p2_gf101_22_22": "3bbe2a3519cd74a49037bb69e1d53d0226278f4f0ab170abfa1361f80955abec",
    "segre_gf101": "3f4546b15dd4646bc8dda64c3db7cb6cece399688c736a7b254f24f8d7242e7a",
    "p1p1_gf101_saturate": "1049ff583fb18335fdee4f63bc4fb0b7eee409c5714a1cbc23eb8cbabe4d3aa5",
    "p1p1_gf101_intersect": "d8334cc2b2ef96d40433f27f68292e19b350e38025a4c94c00130e04aa20538c",
    "p1p1_gf9_22_21": "9377c8e06d08affa74dc6181c0372fc63752e4ff1bbfd6329027641a756f0759",
    "segre_gf9": "08069a8f99530d3560343fbb6615179bfb4e66fbee556992253ac53665a637ce",
    "p1p1_gf9_saturate": "b2035d3cde9d8969438cb3435e961e133ee89009a2d563afa96888e666ccb0a1",
    "p1p1_gf9_intersect": "6fed3eeec70fd1da25b4a1d0ae890a1e8d9c33af10a2adb9e91bfba5b06ea2f7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reduced_basis_matches_golden(name):
    assert _digest(_cases()[name]()) == GOLDEN[name]


def test_every_case_has_a_golden():
    assert sorted(_cases()) == sorted(GOLDEN)


if __name__ == "__main__":
    for name, build in _cases().items():
        print("    %r: %r," % (name, _digest(build())))
