"""Assert rewriting for the helper and reference modules.

pytest rewrites the asserts of test modules only, unless a module is
registered here before it is imported.  Under python -O an assert that is
not rewritten is gone, so without this the references would check nothing
in the -O run."""

import pytest

pytest.register_assert_rewrite(
    "embedding_reference",
    "fixtures",
    "geometry_reference",
    "instance_gen",
    "layout_reference",
    "plane_reference",
    "reducer_reference",
    "solution_reference",
    "verifier_reference",
)
