"""Property-based tests: the move kernel equals the per-row oracle (hypothesis).

On random problems — with and without timing constraints, with and
without a linear cost term —

* ``DeltaCache.all_move_deltas()`` matches the per-component
  ``move_deltas(j)`` loop element-wise, for the tracked assignment and
  for a hypothetical one,
* ``scan_move_deltas()`` is ``all_move_deltas()`` of the tracked
  assignment,
* after every ``apply_move`` / ``apply_swap`` of a random replay the
  maintained ``delta`` matches the oracle (``tests/engine/oracle.py``)
  within 1e-8, ``timing_block`` equals its per-constraint count
  exactly, and ``best_move`` picks its flat argmin,
* ``reset()`` to a fresh assignment leaves the cache matching the
  oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment
from repro.engine.delta import DeltaCache

from tests.engine import oracle
from tests.properties.test_property_delta import problems, random_assignment


class TestAllMoveDeltasMatchesScalarReference:
    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**31))
    def test_elementwise_against_move_deltas(self, problem, seed):
        """Every row of the full matrix equals the per-component row."""
        rng = np.random.default_rng(seed)
        a = random_assignment(problem, rng)
        cache = DeltaCache(problem, a)
        full = cache.all_move_deltas()
        assert full.shape == (problem.num_components, problem.num_partitions)
        for j in range(problem.num_components):
            assert np.allclose(full[j], cache.move_deltas(j), rtol=0.0, atol=oracle.TOL)

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**31))
    def test_explicit_part_argument(self, problem, seed):
        """all_move_deltas(part) evaluates a hypothetical assignment."""
        rng = np.random.default_rng(seed)
        a = random_assignment(problem, rng)
        other = random_assignment(problem, rng)
        cache = DeltaCache(problem, a)
        hypothetical = cache.all_move_deltas(other.part)
        reference = DeltaCache(problem, other)
        assert np.allclose(
            hypothetical, oracle.move_delta_rows(reference), rtol=0.0, atol=oracle.TOL
        )

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**31))
    def test_scan_is_all_move_deltas(self, problem, seed):
        rng = np.random.default_rng(seed)
        cache = DeltaCache(problem, random_assignment(problem, rng))
        assert np.array_equal(cache.scan_move_deltas(), cache.all_move_deltas())


class TestReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(0, 2**31), st.data())
    def test_random_replay_matches_oracle_after_every_move(self, problem, seed, data):
        rng = np.random.default_rng(seed)
        cache = DeltaCache(problem, random_assignment(problem, rng))
        oracle.assert_matches_oracle(cache)
        for _ in range(data.draw(st.integers(1, 8))):
            if rng.random() < 0.25 and problem.num_components >= 2:
                j1, j2 = rng.choice(problem.num_components, 2, replace=False)
                cache.apply_swap(int(j1), int(j2))
            else:
                j = int(rng.integers(0, problem.num_components))
                i = int(rng.integers(0, problem.num_partitions))
                cache.apply_move(j, i)
            oracle.assert_matches_oracle(cache)

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(0, 2**31), st.data())
    def test_reset_resynchronises_with_oracle(self, problem, seed, data):
        """reset() to a fresh assignment leaves the cache exact."""
        rng = np.random.default_rng(seed)
        cache = DeltaCache(problem, random_assignment(problem, rng))
        for _ in range(data.draw(st.integers(1, 4))):
            j = int(rng.integers(0, problem.num_components))
            i = int(rng.integers(0, problem.num_partitions))
            cache.apply_move(j, i)
        fresh = random_assignment(problem, rng)
        cache.reset(Assignment(fresh.part.copy(), problem.num_partitions))
        oracle.assert_matches_oracle(cache)
