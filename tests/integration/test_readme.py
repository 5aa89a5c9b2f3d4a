"""README's Python snippets run as written.

The ```` ```python ```` blocks of ``README.md`` execute in order in one
namespace, as a reader pasting them into one session would run them:
later blocks reuse the ``w`` and ``sl`` the earlier ones bind.  An API
the README names but the package no longer has fails here.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = BLOCK.findall(README.read_text())
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"),
             namespace)
    # The last block's atomic batch committed every op of ``w``.
    assert len(namespace["res"]) == namespace["w"].n_ops
