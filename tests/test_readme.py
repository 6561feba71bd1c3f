"""README's code blocks run as written, and its plan-schema table lists
the plan's fields, so that they cannot drift from the API."""

import ast
import contextlib
import io
import pathlib
import re
from dataclasses import fields

from refine_es.plan import ExperimentPlan

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The one ```python block under the README heading `section`."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", body, re.S)
    assert len(blocks) == 1, f"{section}: {len(blocks)} python blocks"
    return blocks[0]


def test_library_use_block_runs():
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(python_block("Library use"), str(README), "exec"),
             namespace)
    mean_return, success_rate = ast.literal_eval(out.getvalue())
    assert mean_return < 0 and 0 <= success_rate <= 1
    assert namespace["state"]["steps_used"] == \
        namespace["twin_state"]["steps_used"] == 10 * 2 * 8 * 200


def test_plan_schema_table_lists_the_plan_fields():
    # a key added to or retired from the plan must change the table too
    table = re.search(r"\n### Plan schema\n\n((?:\|.*\n)+)",
                      README.read_text()).group(1)
    keys = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert keys == [f.name for f in fields(ExperimentPlan)]
