"""The README's library tour runs as written."""

import os
import re

from rescomp.operators import GraphPoint

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_tour_runs_to_convergence():
    with open(README) as fh:
        text = fh.read()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    A, z, xstar = namespace["A"], namespace["z"], namespace["xstar"]
    assert A.graph_residual(GraphPoint(z - xstar, xstar)) <= 1e-10
    assert namespace["trace"].reason == "converged"
