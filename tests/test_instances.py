"""Family generators: dimensions, determinism, feasibility, boundedness."""

import re

import numpy as np
import pytest

from cutplane.instances import (
    FAMILIES,
    PRESETS,
    InstanceSpec,
    gen_packing,
    gen_set_cover,
    generate,
    load_instance,
    save_instance,
)
from cutplane.lp import GE, LE, OPTIMAL, solve_lp
from cutplane.oracle import ILP_OPTIMAL, solve_ilp


def test_deterministic_bytes(tmp_path):
    for family in FAMILIES:
        spec = InstanceSpec(family, "tiny", seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(generate(spec), spec, p1)
        save_instance(generate(spec), spec, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_round_trip(tmp_path):
    spec = InstanceSpec("max_cut", "tiny", seed=1)
    lp = generate(spec)
    path = tmp_path / "inst.json"
    save_instance(lp, spec, path)
    back, info = load_instance(path)
    np.testing.assert_array_equal(back.A, lp.A)
    np.testing.assert_array_equal(back.b, lp.b)
    np.testing.assert_array_equal(back.objective, lp.objective)
    assert back.senses == lp.senses
    assert info["family"] == "max_cut"


@pytest.mark.parametrize("text", ["[]", '{"format_version": 1, "fam', '{"format_version": 1}'],
                         ids=["list", "truncated", "no-rows"])
def test_malformed_instance_file_raises_value_error_naming_path(tmp_path, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_instance(path)


def test_all_coefficients_integral():
    for family in FAMILIES:
        lp = generate(InstanceSpec(family, "small", seed=2))
        for arr in (lp.objective, lp.A, lp.b):
            np.testing.assert_array_equal(arr, np.round(arr))


def test_feasible_and_bounded_everywhere():
    for family in FAMILIES:
        for seed in range(15):
            lp = generate(InstanceSpec(family, "tiny", seed=seed))
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL, f"{family} seed {seed}: {sol.status}"


def test_train_preset_dimensions():
    lp = generate(InstanceSpec("packing", "train", seed=0))
    assert lp.num_vars == 50 and lp.num_rows == 50
    lp = generate(InstanceSpec("bin_packing", "train", seed=0))
    assert lp.num_vars == 50 and lp.num_rows == 100  # 50 resource + 50 binary rows
    lp = generate(InstanceSpec("max_cut", "train", seed=0))
    assert lp.num_vars == 9 + 25
    lp = generate(InstanceSpec("production_planning", "train", seed=0))
    assert lp.num_vars == 10 + 9 + 10
    lp = generate(InstanceSpec("set_cover", "train", seed=0))
    assert lp.num_vars == 35 and lp.num_rows == 35 + 70  # coverage + two bound rows each


def test_large_preset_dimensions():
    assert generate(InstanceSpec("packing", "large", seed=0)).num_vars == 100
    assert generate(InstanceSpec("max_cut", "large", seed=0)).num_vars == 14 + 40
    assert generate(InstanceSpec("production_planning", "large", seed=0)).num_vars == 44
    assert generate(InstanceSpec("set_cover", "large", seed=0)).num_vars == 50


def test_tiny_preset_under_ten_variables():
    for family in FAMILIES:
        lp = generate(InstanceSpec(family, "tiny", seed=0))
        assert lp.num_vars <= 10, family


def test_packing_all_zero_capacity_forces_origin():
    lp = gen_packing(4, 3, seed=0)
    lp.b[:] = 0.0
    res = solve_ilp(lp)
    assert res.status == ILP_OPTIMAL
    assert res.value == 0


def test_bin_packing_has_unit_bounds():
    lp = generate(InstanceSpec("bin_packing", "tiny", seed=3))
    n = lp.num_vars
    np.testing.assert_array_equal(lp.A[-n:], np.eye(n))
    np.testing.assert_array_equal(lp.b[-n:], np.ones(n))


def test_set_cover_full_membership_optimum_one():
    lp = gen_set_cover(6, 6, p=0.999999, seed=0)
    res = solve_ilp(lp)
    assert res.status == ILP_OPTIMAL
    assert res.value == 1


def test_set_cover_coverage_after_repair():
    for seed in range(50):
        lp = gen_set_cover(8, 8, p=0.2, seed=seed)
        coverage = lp.A[:8]  # one GE row per element
        assert np.all(coverage.sum(axis=1) >= 1)


def test_production_planning_feasible_and_fractional_relaxations_exist():
    saw_fractional = False
    for seed in range(10):
        lp = generate(InstanceSpec("production_planning", "tiny", seed=seed))
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        if np.max(np.abs(sol.x - np.round(sol.x))) > 1e-6:
            saw_fractional = True
    assert saw_fractional  # setup variables keep the relaxation fractional


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        InstanceSpec("packing", "huge", seed=0).params()
    with pytest.raises(ValueError):
        InstanceSpec("knapsack", "tiny", seed=0).params()
