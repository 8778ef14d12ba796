"""The README's library quick start runs as written, and its commented values hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_quick_start_runs_and_its_commented_values_hold():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # a bare call commented with its value, e.g. `corrupt_posterior(0.9, noise)  # 0.64`
    commented = re.findall(r"^(\w+\(.*\))\s+# ([-\d.]+)", block, re.M)
    assert [call.split("(")[0] for call, _ in commented] == ["corrupt_posterior", "recover_posterior"]
    for call, value in commented:
        assert abs(eval(call, namespace) - float(value)) <= 1e-12, call
    assert namespace["accuracy"] <= namespace["ceiling"] + 0.01
