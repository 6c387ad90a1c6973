"""The README's library tour and configuration example run as written.

Its descriptor key table lists exactly the keys of ``bench._TAGS``.
"""

import json
import os
import re

from rescomp import bench
from rescomp.cli import main
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


def test_configuration_example_solves(tmp_path, monkeypatch, capsys):
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("### Configuration"):]
    config = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "config.json").write_text(config)
    monkeypatch.chdir(tmp_path)  # the example writes its report and trace relative to the cwd
    assert main(["solve", "config.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "relaxed only"
    assert json.loads((tmp_path / "report.json").read_text()) == report
    assert (tmp_path / "trace.csv").exists()


def test_descriptor_key_table_matches_the_tag_table():
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("### Configuration"):text.index("## Library tour")]
    rows = re.findall(r"^\| `([^`]+)` \| (?:`([^`]+)`)? *\|(.*)\|$", section, re.MULTILINE)
    table = {(what, tag or None): re.findall(r"`([^`]+)`", keys) for what, tag, keys in rows}
    declared = {(what, tag): keys for what, entries in bench._TAGS.items()
                for tag, (_build, *keys) in entries.items()}
    assert len(rows) == len(table)
    assert table == declared
