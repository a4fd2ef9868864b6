"""README.md's Python examples, run in order in one namespace."""

import re
import shutil
from pathlib import Path

from sentireg.pipeline import PipelineConfig, default_data_path, run_pipeline

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    # The examples read corpus.csv, covariates.csv and a run's artifacts from
    # the working directory, and write tokens.csv and scored.csv there again.
    shutil.copy(default_data_path("fixture_corpus.csv"), tmp_path / "corpus.csv")
    shutil.copy(default_data_path("state_covariates.csv"), tmp_path / "covariates.csv")
    run_pipeline(PipelineConfig(corpus=tmp_path / "corpus.csv",
                                covariates=tmp_path / "covariates.csv", out=tmp_path))
    written = {name: (tmp_path / name).read_bytes() for name in ("tokens.csv", "scored.csv")}
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 5
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, Python example {i}", "exec"), namespace)
    # The examples' calls write the pipeline's bytes and build its table.
    for name, data in written.items():
        assert (tmp_path / name).read_bytes() == data, name
    table, same = namespace["table"], namespace["same"]
    assert table.text == same.text and table.pattern.tolist() == same.pattern.tolist()
