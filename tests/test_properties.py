"""Property tests: stratum labels under drawn coordinate changes, and the
members at drawn pencil crossings.

The draws are derandomized and nothing is stored between runs, so every
run checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from cubicflex import (CubicForm, Pencil, StratumLabel, classify,
                       pencil_crossings)
from cubicflex.forms import proj_distance
from cubicflex.verify import CLASSIFY_CORPUS

DRAWS = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)

entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
matrices = st.lists(entries, min_size=18, max_size=18).map(
    lambda v: (np.array(v[:9]) + 1j * np.array(v[9:])).reshape(3, 3))


@DRAWS
@given(matrices)
def test_corpus_labels_survive_coordinate_changes(M):
    assume(np.linalg.cond(M) < 50)
    for name, make, want in CLASSIFY_CORPUS:
        assert str(classify(make().transform(M))[0]) == want, name


@settings(DRAWS, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_members_at_pencil_crossings_are_nodal(seed):
    # Gaussian pencils are generic, so every crossing is a simple node
    rng = np.random.default_rng(seed)
    f0, f1 = (CubicForm(rng.standard_normal(10)
                        + 1j * rng.standard_normal(10)) for _ in range(2))
    for c in pencil_crossings(Pencil(f0, f1)).crossings:
        label, cert = classify(c.member)
        assert label is StratumLabel.B1 and c.label is StratumLabel.B1
        assert c.multiplicity == 1
        node = cert.singular.points[0].point.coords
        assert proj_distance(node, c.witness.coords) < 1e-9
