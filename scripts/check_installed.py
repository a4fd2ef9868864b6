"""Run the installed `sentireg` command on its bundled fixture and compare
each artifact with the sha256 pinned in tests/test_pipeline.py.

    pip install .
    cd "$(mktemp -d)" && python /path/to/checkout/scripts/check_installed.py out

Run it from outside the checkout and without PYTHONPATH, so that the
installed package and its package data are what run. It exits non-zero when
sentireg is imported from the checkout, when the command fails, or when an
artifact differs from its pinned hash.
"""

from __future__ import annotations

import ast
import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pinned_sha256() -> dict[str, str]:
    """tests/test_pipeline.py's PINNED_SHA256, read without importing the tests."""
    tree = ast.parse((ROOT / "tests" / "test_pipeline.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "PINNED_SHA256"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_pipeline.py has no PINNED_SHA256")


def main() -> None:
    import sentireg
    from sentireg.pipeline import default_data_path

    package = Path(sentireg.__file__).resolve()
    if ROOT in package.parents:
        raise SystemExit(f"sentireg was imported from the checkout: {package}")
    out = Path(sys.argv[1])
    subprocess.run(["sentireg", "run", "--corpus", str(default_data_path("fixture_corpus.csv")),
                    "--covariates", str(default_data_path("state_covariates.csv")),
                    "--out", str(out)], check=True)
    pinned = pinned_sha256()
    failed = [name for name, digest in sorted(pinned.items())
              if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest]
    if failed:
        raise SystemExit(f"artifacts differ from their pinned sha256: {failed}")
    print(f"all {len(pinned)} pinned artifacts match, from {package.parent}")


if __name__ == "__main__":
    main()
