"""The census of sensible inputs (census.py): 100 seeded configs with
n_s1 <= 257, each passing or failing for a reason it names."""

from collections import Counter

from census import census

# passes among the 100 configs; a change that raises it raises this too
PASSES_AT_LEAST = 66


def test_census_passes_or_names_its_cause():
    outcomes = census(100, max_n=257)
    assert len(outcomes) == 100
    odd = [(i, o) for i, o in enumerate(outcomes)
           if o.startswith(("unexpected", "non-finite"))]
    assert not odd, odd
    assert outcomes.count("passes") >= PASSES_AT_LEAST, Counter(outcomes)
    # a failure names the report keys of what it fails
    assert outcomes[7] == "fails: conservation.max_q0_residual"
