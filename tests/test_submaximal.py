from dataclasses import replace

import numpy as np
import pytest

from orbit_atlas import entanglement, states, submaximal
from orbit_atlas import (
    CASES,
    case_bloch,
    case_predictions,
    case_state,
    gram_closed_form,
    gram_direct,
    local_orbit_dim,
    orbit_dim_oracle,
    sample_params,
    swap_sides,
    validate_density,
    verify_case,
    verify_cases,
)

EXACT_CASES = (1, 2, 3, 5, 8, 9)
REGISTRY_CORANKS = {1: 6, 2: 4, 3: 3, 4: 2, 5: 2, 6: 1, 7: 1, 8: 1, 9: 1}


def test_registry_coranks():
    assert {cid: spec.corank for cid, spec in CASES.items()} == REGISTRY_CORANKS


@pytest.mark.parametrize("cid", sorted(CASES))
def test_sampled_states_are_valid(cid):
    for params in sample_params(cid, 5, seed=50 + cid):
        validate_density(case_state(cid, params))


@pytest.mark.parametrize("cid", sorted(CASES))
def test_sampled_states_attain_registered_corank(cid):
    for params in sample_params(cid, 5, seed=60 + cid):
        rep = gram_direct(case_state(cid, params))
        assert 6 - rep.rank == CASES[cid].corank


@pytest.mark.parametrize("cid", EXACT_CASES)
def test_exact_cases_match_all_formulas(cid):
    for params in sample_params(cid, 25, seed=70 + cid):
        v = verify_case(cid, params)
        assert v.matches(1e-9), (cid, params, v.residuals())


def test_case4_flags_only_the_xi_formula():
    worst = {"gram_eig": 0.0, "w_eig": 0.0, "pt_eig": 0.0, "xi": 0.0, "concurrence": 0.0}
    for params in sample_params(4, 25, seed=74):
        v = verify_case(4, params)
        assert v.corank_match and v.separability_match
        for key, val in v.residuals().items():
            worst[key] = max(worst[key], val)
    assert worst["xi"] > 1e-4
    for key in ("gram_eig", "w_eig", "pt_eig", "concurrence"):
        assert worst[key] <= 1e-9


def test_case6_flags_only_the_xi_formula():
    worst_xi, rest = 0.0, 0.0
    for params in sample_params(6, 25, seed=76):
        v = verify_case(6, params)
        assert v.corank_match and v.separability_match
        worst_xi = max(worst_xi, v.xi_residual)
        rest = max(rest, v.gram_eig_residual, v.w_eig_residual, v.pt_eig_residual,
                   v.concurrence_residual or 0.0)
    assert worst_xi > 1e-4
    assert rest <= 1e-9


def test_case7_flags_gram_and_xi_formulas():
    worst = {"gram_eig": 0.0, "xi": 0.0, "w_eig": 0.0, "pt_eig": 0.0}
    for params in sample_params(7, 25, seed=77):
        v = verify_case(7, params)
        assert v.corank_match and v.separability_match
        assert v.concurrence_residual is None
        worst["gram_eig"] = max(worst["gram_eig"], v.gram_eig_residual)
        worst["xi"] = max(worst["xi"], v.xi_residual)
        worst["w_eig"] = max(worst["w_eig"], v.w_eig_residual)
        worst["pt_eig"] = max(worst["pt_eig"], v.pt_eig_residual)
    assert worst["gram_eig"] > 1e-4
    assert worst["xi"] > 1e-4
    assert worst["w_eig"] <= 1e-9
    assert worst["pt_eig"] <= 1e-9


@pytest.mark.parametrize("cid", sorted(CASES))
def test_direct_numerics_self_consistency(cid):
    # closed Gram form and rank oracle must agree on every family, typo or not
    for params in sample_params(cid, 5, seed=80 + cid):
        w = case_state(cid, params)
        f = case_bloch(cid, params)
        direct = gram_direct(w)
        closed = gram_closed_form(f)
        np.testing.assert_allclose(closed.matrix, direct.matrix, atol=1e-10)
        assert local_orbit_dim(direct) == orbit_dim_oracle(w)


@pytest.mark.parametrize("cid", (2, 6))
def test_swapped_variants_preserve_orbit_dimension(cid):
    for params in sample_params(cid, 5, seed=90 + cid):
        f = case_bloch(cid, params)
        swapped = gram_closed_form(swap_sides(f))
        original = gram_closed_form(f)
        assert swapped.rank == original.rank
        np.testing.assert_allclose(swapped.spectrum, original.spectrum, atol=1e-10)


def test_verify_cases_report_structure():
    rep = verify_cases(case_ids=[1, 4], samples=5, seed=3, tol=1e-9)
    assert set(rep) == {"seed", "samples", "tol", "cases", "all_match"}
    assert rep["all_match"] is False
    one, four = rep["cases"]["1"], rep["cases"]["4"]
    assert one["all_match"] is True and one["typo_candidates"] == []
    assert four["all_match"] is False and four["typo_candidates"] == ["xi"]
    assert len(one["points"]) == 5
    point = four["points"][0]
    assert set(point) == {"params", "residuals", "corank_match", "separability_match"}
    # case 1 has no parameters: every residual is exactly zero
    assert all(v == 0.0 for v in one["max_residuals"].values())


def test_verify_cases_is_seed_reproducible():
    a = verify_cases(case_ids=[5], samples=4, seed=12)
    b = verify_cases(case_ids=[5], samples=4, seed=12)
    assert a == b


@pytest.mark.parametrize(
    "call",
    [
        lambda: case_bloch(10, {}),
        lambda: case_state(10, {}),
        lambda: case_predictions(10, {}),
        lambda: sample_params(0, 1),
        lambda: verify_case(10, {}),
        lambda: verify_cases(case_ids=[1, 11], samples=1),
    ],
    ids=["case_bloch", "case_state", "case_predictions", "sample_params", "verify_case",
         "verify_cases"],
)
def test_unknown_case_rejected(call):
    with pytest.raises(ValueError, match="unknown case id"):
        call()


def _forbid_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the case ids were checked")

    for cid, spec in CASES.items():
        monkeypatch.setitem(CASES, cid, replace(spec, sample=no_sampling))


def test_verify_cases_checks_ids_before_sampling(monkeypatch):
    _forbid_sampling(monkeypatch)
    with pytest.raises(ValueError, match="unknown case id 11"):
        verify_cases(case_ids=[1, 11], samples=1)


def test_verify_cases_rejects_repeated_ids_before_sampling(monkeypatch):
    _forbid_sampling(monkeypatch)
    with pytest.raises(ValueError, match="repeated case id"):
        verify_cases(case_ids=[2, 2], samples=2)


def _count_calls(monkeypatch, targets):
    """Count calls to each (namespace, name) in targets, all into one list."""
    calls = []
    for namespace, name in targets:
        def counting(*args, _fn=getattr(namespace, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(namespace, name, counting)
    return calls


# cases 1 and 2 never reject a draw, so each takes one sampling round


def test_verify_cases_composes_each_round_once(monkeypatch):
    calls = _count_calls(monkeypatch, [(submaximal, "bloch_matrices"), (submaximal, "compose_bloch"),
                                       (states, "bloch_matrices")])
    verify_cases([1, 2], samples=10)
    assert len(calls) == 2


def test_verify_cases_solves_spin_flip_spectra_once_per_case(monkeypatch):
    calls = _count_calls(monkeypatch, [(entanglement, "xi_spectra"), (submaximal, "xi_spectra")])
    verify_cases([1, 2], samples=10)
    assert len(calls) == 2


def test_verify_cases_builds_no_bloch_form(monkeypatch):
    calls = _count_calls(monkeypatch, [(states.BlochForm, "__post_init__")])
    verify_cases([1, 2], samples=10)
    assert len(calls) == 0
    case_bloch(2, sample_params(2, 1, seed=0)[0])
    assert len(calls) == 1


def test_verify_cases_solves_each_state_stack_once(monkeypatch):
    # per round: the positivity check, the Gram spectra and the PT spectra
    calls = _count_calls(monkeypatch, [(np.linalg, "eigvalsh")])
    verify_cases([1], samples=10)
    assert len(calls) == 3


def _sequential_params(spec, n, rng):
    """The one-candidate-at-a-time rejection loop that sampling rounds replace."""
    out, attempts = [], 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise RuntimeError(f"case {spec.case_id}: positivity rejection is not converging")
        draw = spec.sample(rng)
        if draw is None:
            continue
        params = dict(zip(spec.param_names, draw))
        if np.linalg.eigvalsh(case_state(spec.case_id, params).matrix).min() >= -1e-12:
            out.append(params)
    return out


def _param_bytes(points):
    return [[(k, np.asarray(v).tobytes()) for k, v in p.items()] for p in points]


@pytest.mark.parametrize("seed", (0, 3, 11))
@pytest.mark.parametrize("n", (1, 7, 100))
def test_sampling_rounds_keep_the_sequential_stream(n, seed):
    for cid, spec in CASES.items():
        want = _sequential_params(spec, n, np.random.default_rng(seed))
        assert _param_bytes(sample_params(cid, n, seed=seed)) == _param_bytes(want), cid


@pytest.mark.parametrize("n", (1, 7))
def test_sampling_rounds_hit_the_attempt_cap_after_the_same_draws(monkeypatch, n):
    draws = []

    def never_psd(rng):
        # mu = 0.3 puts an eigenvalue 0.25 - 0.3 below zero; every third draw is rejected early
        draws.append(rng.uniform())
        return None if len(draws) % 3 == 0 else (0.3,)

    monkeypatch.setitem(CASES, 3, replace(CASES[3], sample=never_psd))
    counts = []
    for run in (lambda: _sequential_params(CASES[3], n, np.random.default_rng(0)),
                lambda: sample_params(3, n, seed=0)):
        draws.clear()
        with pytest.raises(RuntimeError, match="not converging"):
            run()
        counts.append(len(draws))
    assert counts == [200 * n, 200 * n]


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_verify_cases_points_equal_verify_case(seed):
    report = verify_cases(samples=100, seed=seed)
    for cid, case in report["cases"].items():
        for point in case["points"]:
            v = verify_case(int(cid), point["params"])
            assert v.corank_match is point["corank_match"]
            assert v.separability_match is point["separability_match"]
            for q, want in v.residuals().items():
                got = point["residuals"][q]
                assert (got is None) == (want is None), (cid, q)
                assert got is None or abs(got - want) <= 1e-15, (cid, q, got, want)


def test_sampled_params_follow_param_names():
    for cid, spec in CASES.items():
        for params in sample_params(cid, 3, seed=cid):
            assert tuple(params) == spec.param_names


def test_case_predictions_shapes():
    params = sample_params(8, 1, seed=99)[0]
    pred = case_predictions(8, params)
    assert pred.gram_eigs.shape == (6,)
    assert pred.w_eigs.shape == (4,)
    assert pred.pt_eigs.shape == (4,)
    assert pred.xi.shape == (4,)
    assert pred.concurrence is None
    assert pred.separability in {"entangled", None}


# the samplers' cheap draws consume the seeded stream exactly as the Generator
# methods they replace, so every seeded report keeps its bytes


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
def test_signed_draws_as_uniform_times_a_choice_of_sign(seeds):
    for seed in seeds:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(50):
            lo, hi = (0.02, 0.1) if i % 2 else (0.02, 0.06)
            assert submaximal._signed(rng, lo, hi) == float(ref.uniform(lo, hi) * ref.choice([-1.0, 1.0]))
            assert rng.uniform() == ref.uniform()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bounds", [(0.02, 0.24), (-1.0 / 12.0 + 0.002, 0.245), (-1.8, 1.8), (0.0, 1.0)])
def test_uniform_draws_as_generator_uniform(bounds):
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert submaximal._uniform(rng, *bounds) == ref.uniform(*bounds)
            assert rng.integers(0, 2) == ref.integers(0, 2)
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        assert rng.bit_generator.state == ref.bit_generator.state


def _same_scalar(got, want) -> bool:
    """Equal value, NaN and sign of zero included, and both real or both complex."""
    if isinstance(got, complex) != isinstance(want, complex):
        return False
    pairs = [(got.real, want.real), (got.imag, want.imag)] if isinstance(got, complex) else [(got, want)]
    return all(np.array_equal(g, w, equal_nan=True) and np.signbit(g) == np.signbit(w) for g, w in pairs)


@pytest.mark.parametrize("x", [
    0.0, -0.0, 0.25, 2.0, 1e-300, 1e300, -3.0, -1e-300, float("nan"), float("inf"), float("-inf"),
    np.float64(-2.0), np.float64(0.5), 5, -4,
    2 + 1j, -4 + 0j, complex(-4.0, -0.0), complex(0.0, -2.0), np.complex128(-1 + 1e-20j),
], ids=repr)
def test_sqrt_is_emath_sqrt_on_one_scalar(x):
    assert _same_scalar(submaximal._sqrt(x), np.emath.sqrt(x))


def _nan_predictions(spec, **nans):
    def predict(*args):
        return replace(spec.predict(*args), **nans)

    return replace(spec, predict=predict)


def test_a_nan_residual_is_a_mismatch(monkeypatch):
    monkeypatch.setitem(CASES, 3, _nan_predictions(CASES[3], w_eigs=np.full(4, np.nan, dtype=complex)))
    case = verify_cases([3], samples=5, seed=0)["cases"]["3"]
    assert case["all_match"] is False and case["typo_candidates"] == ["w_eig"]
    assert case["max_residuals"]["w_eig"] is None
    assert all(p["residuals"]["w_eig"] is None for p in case["points"])
    assert case["max_residuals"]["gram_eig"] <= 1e-9
    assert not verify_case(3, case["points"][0]["params"]).matches(1e-9)


def test_a_nan_stated_concurrence_is_a_mismatch(monkeypatch):
    monkeypatch.setitem(CASES, 3, _nan_predictions(CASES[3], concurrence=float("nan")))
    case = verify_cases([3], samples=5, seed=0)["cases"]["3"]
    assert case["typo_candidates"] == ["concurrence"] and case["max_residuals"]["concurrence"] is None
    v = verify_case(3, case["points"][0]["params"])
    assert v.concurrence_residual == float("inf") and not v.matches(1e-9)


def test_unstated_concurrence_is_not_a_mismatch():
    # cases 7-9 state no concurrence: their column is null and never a candidate
    for cid, case in verify_cases([7, 8, 9], samples=5, seed=0)["cases"].items():
        assert case["max_residuals"]["concurrence"] == 0.0
        assert all(p["residuals"]["concurrence"] is None for p in case["points"])
        assert "concurrence" not in case["typo_candidates"]
