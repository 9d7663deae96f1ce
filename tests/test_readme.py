"""The README's library example and sample document run as written."""

import json
import re
from pathlib import Path

from dlw.scenario import merge_config, scenario_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.DOTALL)


def test_readme_library_example_runs(capsys):
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("ResidualReport(max_abs=(")
    assert "evaluated=2205)" in out


def test_readme_sample_document_and_its_sweep_entries_are_accepted():
    blocks = readme_blocks("json")
    assert len(blocks) == 1
    document = json.loads(blocks[0])
    entries = document.pop("sweep")
    scenario_from_dict(document)
    for pos, entry in enumerate(entries):
        scenario_from_dict(merge_config(document, entry), where=f"sweep[{pos}]")
