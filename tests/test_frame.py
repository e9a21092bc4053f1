"""The symmetry frame: a Clifford map of the strings, and the dense curve run in it.

pauli.symmetry_frame turns a maximal commuting set of the Pauli symmetries
into single-site Z's; pipeline runs k_dense and error_curve on the mapped
H, ansatz and h0, where the x-mask cosets are all 2^r symmetry sectors.
"""

from pathlib import Path

import numpy as np
import pytest

from cartansim import (
    AlgebraElement,
    ModelSpec,
    PauliString,
    RunConfig,
    RunRecord,
    StructuralError,
    build_model,
    cartan_split,
    commutes,
    error_curve,
    evolution,
    generate_dla,
    k_dense,
    parse_label,
    pauli_mul,
    symmetry_frame,
    to_dense,
)
from cartansim.pipeline import _curve_in_frame, _StageClock, build_problem
from oracles import error_curve_oracle

RUNS = Path(__file__).resolve().parents[1] / "runs"
GRID = [("tfim", 4), ("xy", 4), ("tfxy", 4), ("heisenberg", 4), ("kitaev_even", 4), ("kitaev_odd", 5)]
ORACLE_TS = np.array([0.0, 0.37, 20.0, 123.4, 200.0])


def model_frame(name, n):
    h = build_model(ModelSpec(name, n))
    terms = [p for p, _ in h.sorted_terms()]
    dla = generate_dla(terms)
    split = cartan_split(dla, terms)
    return dla, symmetry_frame(terms + list(split.k_basis) + list(split.h_basis))


def labels(e):
    return {p.label: c for p, c in e.items()}


@pytest.mark.parametrize("name,n", GRID + [("kitaev_even", 8), ("kitaev_even", 10)])
def test_the_map_keeps_products_and_the_sectors(name, n):
    # U P U^dag = s_P P' is a Clifford conjugation: P Q = i^rho R must map to
    # s_P s_Q P' Q' = i^rho s_R R', which also keeps commutation
    dla, frame = model_frame(name, n)
    image = {p: frame.map(p) for p in dla.strings}
    for p, (sign, q) in image.items():
        assert sign in (1, -1)
        assert q.x & frame.stabilized == 0
        assert q.y_count % 2 == p.y_count % 2  # the frame keeps these models real
    for p in dla.strings:
        for q in dla.strings:
            (sp, pp), (sq, qq) = image[p], image[q]
            assert commutes(pp, qq) == commutes(p, q)
            rho, r = pauli_mul(p, q)
            rho_image, r_image = pauli_mul(pp, qq)
            sr, rr = frame.map(r)
            assert r_image == rr
            assert (1j**rho) * sr == sp * sq * (1j**rho_image)


@pytest.mark.parametrize("name,n,rank", [("heisenberg", 4, 2), ("kitaev_even", 4, 3), ("kitaev_even", 10, 6)])
def test_the_symmetries_become_single_site_z(name, n, rank):
    _, frame = model_frame(name, n)
    assert len(frame.symmetries) == rank
    assert frame.stabilized == (1 << rank) - 1
    for j, s in enumerate(frame.symmetries):
        assert frame.map(s) == (1, PauliString(n, 0, 1 << j))


@pytest.mark.parametrize("name,n", [("tfim", 4), ("tfim", 8), ("tfxy", 4), ("xy", 9), ("heisenberg", 5)])
def test_z_type_symmetries_give_the_identity_frame(name, n):
    dla, frame = model_frame(name, n)
    assert frame.pairs == () and frame.stabilized == 0
    assert frame.symmetries == (PauliString(n, 0, (1 << n) - 1),)  # parity
    assert all(frame.map(p) == (1, p) for p in dla.strings)


def test_a_string_outside_the_sectors_is_refused():
    _, frame = model_frame("kitaev_even", 4)
    with pytest.raises(StructuralError, match="anticommutes"):
        frame.map(parse_label("ZIII"))  # anticommutes with XXZZ
    _, identity = model_frame("tfim", 4)
    with pytest.raises(StructuralError, match="anticommutes"):
        identity.map(parse_label("XIII"))  # flips the parity ZZZZ
    prob = build_problem(RunConfig(model=ModelSpec("kitaev_even", 4), order=1))
    h0 = AlgebraElement.from_label_dict({"XXII": 0.5, "ZIII": 1e-3})
    with pytest.raises(StructuralError):
        _curve_in_frame(prob, np.zeros(prob.ansatz.parameter_count), h0, ORACLE_TS, _StageClock())


def blocks_used(monkeypatch, prob, theta, h0, ts):
    """The (sectors, size) shape of the curve's blocks, and the curve."""
    shapes = []
    sectors = evolution._sectors

    def spy(masks, dim):
        blocks = sectors(masks, dim)
        shapes.append(blocks.shape)
        return blocks

    monkeypatch.setattr(evolution, "_sectors", spy)
    errors = _curve_in_frame(prob, theta, h0, ts, _StageClock()).errors
    return shapes[-1], errors  # the last call is the one the curve ran with


def generic_point(prob, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-1, 1, size=prob.ansatz.parameter_count)
    h0 = AlgebraElement(prob.h.n, {p: float(rng.normal()) for p in prob.split.h_basis})
    return theta, h0


@pytest.mark.parametrize("name,n,shape", [("kitaev_even", 10, (64, 16)), ("heisenberg", 4, (4, 4)), ("tfim", 8, (2, 128))])
def test_the_curve_runs_in_every_symmetry_sector(name, n, shape, monkeypatch):
    prob = build_problem(RunConfig(model=ModelSpec(name, n), order=1))
    theta, h0 = generic_point(prob, n)
    assert blocks_used(monkeypatch, prob, theta, h0, np.array([20.0]))[0] == shape


@pytest.mark.parametrize("name,n", [("kitaev_even", 6), ("heisenberg", 4), ("xy", 4), ("kitaev_odd", 5)])
def test_the_frame_curve_matches_the_oracle_in_the_original_frame(name, n):
    prob = build_problem(RunConfig(model=ModelSpec(name, n), order=2))
    assert prob.frame.pairs  # these models gain sectors from the frame
    theta, h0 = generic_point(prob, 3 * n)
    got = _curve_in_frame(prob, theta, h0, ORACLE_TS, _StageClock()).errors
    want = error_curve_oracle(labels(prob.h), k_dense(prob.ansatz, theta), labels(h0), ORACLE_TS)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("name,n", [("tfim", 4), ("tfxy", 4), ("xy", 9)])
def test_h_blocks_from_the_strings_equal_the_dense_gather(name, n):
    h = build_model(ModelSpec(name, n))
    blocks = evolution._sectors(sorted({p.x for p in h.support()}), 2**n)
    dense = to_dense(h)[blocks[:, :, None], blocks[:, None, :]]
    assert np.array_equal(evolution._diagonal_blocks(h, blocks), dense)


def test_identity_frame_curves_are_the_original_frame_curves():
    prob = build_problem(RunConfig(model=ModelSpec("xy", 9), order=1))
    assert prob.frame_ansatz is prob.ansatz
    assert list(prob.frame_h.items()) == list(prob.h.items())
    theta, h0 = generic_point(prob, 9)
    ts = np.array([0.0, 20.0, 25.0])
    direct = error_curve(prob.h, k_dense(prob.ansatz, theta), h0, ts).errors
    assert np.array_equal(_curve_in_frame(prob, theta, h0, ts, _StageClock()).errors, direct)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(RUNS.rglob("record.json")) if RunRecord.load(p).config.model.name in ("tfim", "tfxy")],
    ids=lambda p: p.parent.name,
)
def test_identity_frame_records_reproduce_bit_for_bit(path):
    record = RunRecord.load(path)
    prob = build_problem(record.config)
    assert prob.frame.pairs == ()
    h0 = AlgebraElement.from_records(record.h0, n=record.config.model.n)
    ts = np.append(record.curve_ts, record.config.table_t)
    fresh = _curve_in_frame(prob, np.asarray(record.theta_star), h0, ts, _StageClock()).errors
    assert np.array_equal(fresh, np.append(record.curve_errors, record.error_at_table_t))
