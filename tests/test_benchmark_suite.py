"""The benchmark suite runs on plain pytest.

``benchmarks/`` is not part of this suite, and the CI job that runs it
does not block a merge, so this guard keeps it free of fixtures from
timing plugins: every benchmark test may ask for ``report`` and nothing
else.
"""

import ast
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmarks_take_only_the_report_fixture():
    paths = sorted(BENCHMARKS.glob("test_*.py"))
    assert paths
    extra = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")):
                params = [arg.arg for arg in ast.walk(node.args)
                          if isinstance(arg, ast.arg)]
                if set(params) - {"report"}:
                    extra[f"{path.name}::{node.name}"] = params
    assert not extra, f"benchmark tests take more than report: {extra}"
