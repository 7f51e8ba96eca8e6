"""Seeded ensemble suites: shape, determinism, and small-scale sanity."""

import json
import tracemalloc

import numpy as np
import pytest

from loewner import (
    DEFAULT_DIMS,
    DEFAULT_TOL,
    SUITE_NAMES,
    HermitianMatrix,
    MatrixSet,
    ensemble_run,
    ensembles,
    identity,
    loewner_leq,
)
from loewner.ensembles import MAX_SUITE_DIM, _below, _no_dominating_perturbation
from loewner.errors import UnknownSuite, ValidationError
from loewner.infimum import (
    _joint_diagonals,
    commuting_glb_two_routes,
    positive_maximal_lb,
    simultaneous_eigenbasis,
)
from loewner.sampling import random_commuting_family, random_psd, trial_rng

from .conftest import no_dominating_perturbation_exact


# each suite's report keys, in report order
EXPECTED_KEYS = {
    "anti-lattice": (
        "trials",
        "infimum_nonexistent",
        "distinct_triples",
        "certified_triples",
        "min_separation",
    ),
    "stott-roundtrip": ("trials", "certified", "roundtrips_within_1e-8", "max_x_error"),
    "mt-family": (
        "trials",
        "lower_bounds",
        "certified",
        "max_congruence_residual",
        "max_polar_residual",
        "max_shift_residual",
    ),
    "commuting-tworoute": (
        "trials",
        "max_route_gap",
        "max_commutator",
        "dominates_candidates",
    ),
    "positive-mlb": (
        "trials",
        "psd",
        "lower_bounds",
        "certified",
        "dominates_scalar_floor",
        "no_dominating_perturbation",
    ),
    "albert-vs-spectral": ("trials", "agreements", "psd_instances"),
    "parallel-ando": (
        "trials",
        "max_scalar_residual",
        "rank_identity",
        "max_absorb_residual",
        "pair_family_agreements",
        "bounded_by_both",
    ),
    "effect-projection": ("trials", "glb_exists", "max_shorted_gap"),
}

# keys counting per-trial successes; a healthy small run scores trials on each
COUNT_KEYS = {
    "anti-lattice": ("infimum_nonexistent", "distinct_triples", "certified_triples"),
    "stott-roundtrip": ("certified", "roundtrips_within_1e-8"),
    "mt-family": ("lower_bounds", "certified"),
    "commuting-tworoute": ("dominates_candidates",),
    "positive-mlb": (
        "psd",
        "lower_bounds",
        "certified",
        "dominates_scalar_floor",
        "no_dominating_perturbation",
    ),
    "albert-vs-spectral": ("agreements",),
    "parallel-ando": ("rank_identity", "pair_family_agreements", "bounded_by_both"),
    "effect-projection": ("glb_exists",),
}


class TestSuiteCatalog:
    def test_names(self):
        assert SUITE_NAMES == tuple(sorted(EXPECTED_KEYS))
        assert set(DEFAULT_DIMS) == set(SUITE_NAMES)

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite, match="available"):
            ensemble_run("nonsense", 1)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError, match="trials"):
            ensemble_run("anti-lattice", 0)

    def test_bad_dims(self):
        with pytest.raises(ValidationError, match="dimension range"):
            ensemble_run("anti-lattice", 1, dims=(4, 2))
        with pytest.raises(ValidationError, match="dimension range"):
            ensemble_run("anti-lattice", 1, dims=(0, 3))

    def test_dimension_limit(self):
        assert max(hi for _, hi in DEFAULT_DIMS.values()) <= MAX_SUITE_DIM
        assert ensemble_run("mt-family", 1, dims=(MAX_SUITE_DIM, MAX_SUITE_DIM))["trials"] == 1
        with pytest.raises(ValidationError, match=f"limit of {MAX_SUITE_DIM}"):
            ensemble_run("positive-mlb", 1, dims=(2, MAX_SUITE_DIM + 1))


class TestSmallRuns:
    @pytest.mark.parametrize("suite", sorted(EXPECTED_KEYS))
    def test_keys_and_perfect_counts(self, suite):
        trials = 4
        result = ensemble_run(suite, trials, seed=7)
        assert tuple(result) == EXPECTED_KEYS[suite]
        assert result["trials"] == trials
        for key in COUNT_KEYS[suite]:
            assert result[key] == trials, f"{suite}: {key} = {result[key]}"

    @pytest.mark.parametrize("suite", sorted(EXPECTED_KEYS))
    def test_deterministic(self, suite):
        first = ensemble_run(suite, 3, seed=11)
        second = ensemble_run(suite, 3, seed=11)
        assert first == second

    def test_seed_changes_results(self):
        a = ensemble_run("mt-family", 3, seed=1)
        b = ensemble_run("mt-family", 3, seed=2)
        assert a["max_congruence_residual"] != b["max_congruence_residual"]

    def test_explicit_dims_respected(self):
        result = ensemble_run("albert-vs-spectral", 5, dims=(2, 2), seed=3)
        assert result["agreements"] == 5


class TestTotals:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_figures_are_counts_or_finite_residuals(self, suite):
        # a count is a Python int of trials, a max_/min_ figure a finite float, in the suite's
        # key order, and the report encodes as JSON with no numpy scalar left in it
        trials = 3
        result = ensemble_run(suite, trials, seed=5)
        assert tuple(result) == EXPECTED_KEYS[suite]
        for name, value in result.items():
            if name.startswith(("max_", "min_")):
                assert type(value) is float and np.isfinite(value), name
            else:
                assert type(value) is int and 0 <= value <= trials, name
        assert json.loads(json.dumps(result)) == result


# the suites whose draws carry the problem's scale; stott-roundtrip ({J, 0}) and
# effect-projection (a contraction beside a projection) have a fixed unit scale
SCALABLE_SUITES = (
    "albert-vs-spectral", "anti-lattice", "commuting-tworoute", "mt-family", "parallel-ando", "positive-mlb",
)


def _scaled_draws(monkeypatch, factor: float) -> None:
    """Multiply every draw that sets a suite's scale by ``factor``."""
    for name in ("random_hermitian", "random_psd", "random_commuting_family", "random_incomparable_pair"):
        draw = getattr(ensembles, name)

        def scaled(*args, _draw=draw):
            out = _draw(*args)
            if isinstance(out, HermitianMatrix):
                return factor * out
            return type(out)(factor * member for member in out)

        monkeypatch.setattr(ensembles, name, scaled)


class TestScaleFree:
    @pytest.mark.parametrize("suite", SCALABLE_SUITES)
    def test_report_is_unchanged_by_a_power_of_two(self, suite, monkeypatch):
        # scaling by 2^k is exact, and every suite decides and reports on its problem's scale
        plain = ensemble_run(suite, 12, seed=7)
        for k in (-40, 40):
            with monkeypatch.context() as patch:
                _scaled_draws(patch, 2.0**k)
                assert ensemble_run(suite, 12, seed=7) == plain, k

    def test_anti_lattice_separates_every_triple_at_benchmark_seed_30(self):
        # the chunk the suites-recursion benchmark draws at seed 30: distinct_maximals separates
        # its bounds on |S|, and gaps measured on 1 + |S| once counted one triple as not distinct
        assert ensemble_run("anti-lattice", 25, (2, 5), seed=2770938887)["distinct_triples"] == 25


def _psd_family(rng) -> MatrixSet:
    """A family drawn like the positive-mlb suite's."""
    n = int(rng.integers(2, 7))
    size = int(rng.integers(2, 5))
    return MatrixSet(
        random_psd(rng, n, int(rng.integers(max(1, n - 2), n + 1))) for _ in range(size)
    )


class TestPerturbationScreen:
    """The screened perturbation sweep against the exact route, which builds
    and decides every candidate."""

    def test_matches_exact_route(self):
        self._agrees_with_exact_route()

    def test_matches_exact_route_in_small_blocks(self, monkeypatch):
        # the suites' own sizes screen in one block; blocks of 2^7 product entries split every draw
        monkeypatch.setattr(ensembles, "_SCREEN_ENTRIES", 2**7)
        self._agrees_with_exact_route()

    @staticmethod
    def _agrees_with_exact_route():
        verdicts = []
        for t in range(8):
            mset = _psd_family(trial_rng(61, t))
            maximal = positive_maximal_lb(mset)
            for delta in (0.0, 1e-12, 1e-6, 1e-3, 0.5):
                m = maximal - delta * identity(mset.dim)
                rng, reference = trial_rng(62, t), trial_rng(62, t)
                screened = _no_dominating_perturbation(m, mset, rng, 1000, DEFAULT_TOL)
                exact = no_dominating_perturbation_exact(m, mset, reference, 1000)
                assert screened == exact, (t, delta)
                assert rng.bit_generator.state == reference.bit_generator.state
                verdicts.append(exact)
        assert verdicts.count(False) >= 8
        assert verdicts.count(True) >= 8

    def test_maximal_bound_needs_no_batched_eigenvalues(self, monkeypatch):
        batched = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            if np.ndim(a) == 3:
                batched.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        mset = _psd_family(trial_rng(63, 0))
        maximal = positive_maximal_lb(mset)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert _no_dominating_perturbation(maximal, mset, trial_rng(64, 0), 1000, DEFAULT_TOL)
        assert batched == []


    def test_memory_stays_near_the_draws(self):
        # one trial at n = 32 holds 1000 complex draws, 16.4 MB; the screen forms its products
        # block by block, so the trial's peak stays within twice that
        n, draws = 32, 1000 * 32 * 32 * 16
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            ensemble_run("positive-mlb", 1, (n, n), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 * draws


class TestCandidateScreen:
    def test_matches_loewner_leq(self):
        # the commuting-tworoute suite's stacked check against the loop it replaced, on
        # random candidates and on candidates 0.5x and 2x the order margin off the bound
        verdicts = []
        for t in range(12):
            rng = trial_rng(65, t)
            n = int(rng.integers(1, 6))
            family = random_commuting_family(rng, n, 3)
            folded, _ = commuting_glb_two_routes(family, DEFAULT_TOL)
            basis = simultaneous_eigenbasis(family)
            diag_min = _joint_diagonals(family, basis).min(axis=0)
            drops = np.zeros((10, n))
            drops[:6] = np.abs(rng.standard_normal((6, n)))
            drops[6:, 0] = DEFAULT_TOL.psd_rel * folded.norm() * np.array([-2.0, -0.5, 0.5, 2.0])
            lows = diag_min - drops
            expected = [loewner_leq(HermitianMatrix((basis * low) @ basis.conj().T), folded) for low in lows]
            assert _below(folded, basis, lows, DEFAULT_TOL).tolist() == expected, t
            verdicts += expected
        assert verdicts.count(False) >= 10
        assert verdicts.count(True) >= 100
