"""DLA closure and Cartan split against brute-force dense closure."""

import numpy as np
import pytest

from cartansim import lie
from cartansim.errors import CapacityError, StructuralError
from cartansim.lie import (
    CartanSplit,
    cartan_split,
    cartan_subalgebra,
    check_hamiltonian_in_m,
    generate_dla,
    involution_split,
    require_valid_split,
    verify_cartan_relations,
)
from cartansim.pauli import AlgebraElement, commutes, parse_label

from oracles import closure_dim, random_label


def strs(*labels):
    return [parse_label(l) for l in labels]


TFIM2 = strs("XX", "ZI", "IZ")


# ---------------------------------------------------------------- closure

def test_single_string_is_self_closed():
    dla = generate_dla(strs("ZZ"))
    assert [p.label for p in dla.strings] == ["ZZ"]


def test_tfim_n2_closure_frozen():
    dla = generate_dla(TFIM2)
    assert dla.dim == 6
    assert [p.label for p in dla.strings] == ["XX", "ZI", "YX", "IZ", "XY", "YY"]  # canonical (z, x)
    assert closure_dim(["XX", "ZI", "IZ"]) == 6


def test_tfim_n3_dimension_matches_dense_oracle():
    terms = strs("XXI", "IXX", "ZII", "IZI", "IIZ")
    dla = generate_dla(terms)
    assert dla.dim == closure_dim([p.label for p in terms])


def test_random_generators_match_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        labels = list({random_label(rng, n) for _ in range(int(rng.integers(1, 4)))})
        dla = generate_dla([parse_label(l) for l in labels])
        assert dla.dim == closure_dim(labels)


def test_closure_is_idempotent():
    dla = generate_dla(TFIM2)
    again = generate_dla(list(dla.strings))
    assert again.strings == dla.strings


def test_closure_contains_generators_and_is_bracket_closed():
    dla = generate_dla(TFIM2)
    basis = set(dla.strings)
    assert set(TFIM2) <= basis
    from cartansim.pauli import bracket_strings

    for p in basis:
        for q in basis:
            hit = bracket_strings(p, q)
            assert hit is None or hit[1] in basis


def test_capacity_cap_raises(monkeypatch):
    monkeypatch.setattr(lie, "DLA_CAP", 5)
    terms = strs("XXX", "ZZI", "IYX", "ZIZ")
    with pytest.raises(CapacityError, match="5"):
        generate_dla(terms)


def test_generators_must_agree_on_n():
    with pytest.raises(StructuralError):
        generate_dla(strs("XX", "X"))
    with pytest.raises(StructuralError):
        generate_dla([])


# ---------------------------------------------------------------- involution

def test_involution_split_tfim_n2():
    k, m = involution_split(generate_dla(TFIM2))
    assert [p.label for p in k] == ["YX", "XY"]
    assert [p.label for p in m] == ["XX", "ZI", "IZ", "YY"]


def test_involution_split_degenerate_cases():
    k, m = involution_split(generate_dla(strs("ZZ")))
    assert k == [] and [p.label for p in m] == ["ZZ"]
    k, m = involution_split(generate_dla(strs("Y")))
    assert [p.label for p in k] == ["Y"] and m == []


def test_hamiltonian_membership_check():
    check_hamiltonian_in_m(AlgebraElement.from_label_dict({"XX": 1.0, "ZI": 1.0}))
    check_hamiltonian_in_m(AlgebraElement.from_label_dict({"YY": 1.0}))
    with pytest.raises(StructuralError, match="XY"):
        check_hamiltonian_in_m(AlgebraElement.from_label_dict({"XX": 1.0, "XY": 0.3}))


# ---------------------------------------------------------------- subalgebra

def test_cartan_subalgebra_tfim_n2():
    m = strs("XX", "YY", "ZI", "IZ")
    h, mtilde = cartan_subalgebra(m, strs("XX"))
    assert [p.label for p in h] == ["XX", "YY"]
    assert [p.label for p in mtilde] == ["ZI", "IZ"]


def test_cartan_subalgebra_seed_steers_selection():
    m = strs("ZI", "IZ", "XX")
    h, mtilde = cartan_subalgebra(m, strs("ZI"))
    assert [p.label for p in h] == ["ZI", "IZ"]
    assert [p.label for p in mtilde] == ["XX"]


def test_cartan_subalgebra_abelian_m():
    m = strs("ZI", "IZ", "ZZ")
    h, mtilde = cartan_subalgebra(m, [])
    assert h == sorted(m, key=lambda p: (p.z, p.x)) and mtilde == []


def test_cartan_subalgebra_errors():
    with pytest.raises(StructuralError):
        cartan_subalgebra([], [])
    with pytest.raises(StructuralError):
        cartan_subalgebra(strs("XX"), strs("ZZ"))


def test_cartan_subalgebra_maximality():
    rng = np.random.default_rng(29)
    for _ in range(20):
        labels = list({random_label(rng, 3) for _ in range(3)})
        dla = generate_dla([parse_label(l) for l in labels])
        _, m = involution_split(dla)
        if not m:
            continue
        h, mtilde = cartan_subalgebra(m, [])
        for p in h:
            assert all(commutes(p, q) for q in h)
        for q in mtilde:  # each rejected string conflicts with h somewhere
            assert any(not commutes(q, p) for p in h)


# ---------------------------------------------------------------- relations

def test_cartan_relations_tfim_n2():
    split = cartan_split(generate_dla(TFIM2), TFIM2)
    report = verify_cartan_relations(split)
    assert report.ok and report.summary() == "all Cartan relations hold"
    require_valid_split(split)  # should not raise
    assert split.dim == 6
    assert [p.label for p in split.h_basis] == ["XX", "YY"]


def test_cartan_relations_detect_corruption():
    split = cartan_split(generate_dla(TFIM2), TFIM2)
    # move YX from k into mtilde: bb with XY now lands outside the allowed spans
    bad = CartanSplit(
        split.n,
        tuple(p for p in split.k_basis if p.label != "YX"),
        split.h_basis,
        split.mtilde_basis + (parse_label("YX"),),
    )
    report = verify_cartan_relations(bad)
    assert not report.ok
    assert "YX" in report.summary()
    with pytest.raises(StructuralError):
        require_valid_split(bad)


def test_cartan_relations_with_empty_k():
    split = cartan_split(generate_dla(strs("ZI", "IZ")), strs("ZI", "IZ"))
    assert split.k_basis == ()
    assert verify_cartan_relations(split).ok
