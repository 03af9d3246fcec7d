"""The README's code runs against the current API, and its install line holds."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import ergolab as E
from ergolab import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md (Library sketch)", "exec"), scope)
    assert scope["box"] is not None
    assert scope["verdict"] in (E.VERDICT_HOLDS, E.VERDICT_VIOLATED, E.VERDICT_INCONCLUSIVE)


def test_readme_layout_has_a_row_per_module():
    text = README.read_text()
    layout = text[text.index("## Layout"):]
    layout = layout[:layout.index("\n## ")]
    rows = set(re.findall(r"^\| `ergolab\.(\w+)`", layout, re.M))
    modules = {p.stem for p in (ROOT / "src" / "ergolab").glob("*.py")} - {"__init__"}
    assert rows == modules


def test_readme_layout_rows_stay_short():
    # a row says what its module holds now, in at most 150 words; history
    # and bench numbers belong in CHANGES.md and the BENCH_*.json files
    text = README.read_text()
    layout = text[text.index("## Layout"):]
    layout = layout[:layout.index("\n## ")]
    rows = re.findall(r"^\| `ergolab\.(\w+)` *\|(.*)\|\s*$", layout, re.M)
    assert len(rows) > 1
    long = {module: len(contents.split()) for module, contents in rows
            if len(contents.split()) > 150}
    assert not long


def test_readme_configuration_lists_the_declared_fields():
    # the ini block names each section, then its fields, in declaration order
    text = README.read_text()
    section = text[text.index("## Configuration"):]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    listed = re.findall(r"\[\w+\]|\w+", re.sub(r"\([^)]*\)", "", block))
    declared = []
    for f in fields(ExperimentConfig):
        if f"[{f.metadata['section']}]" not in declared:
            declared.append(f"[{f.metadata['section']}]")
        declared.append(f.name)
    assert listed == declared


def test_import_needs_no_scipy():
    # the runtime dependencies are numpy alone; scipy serves the tests' oracles
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, ergolab, ergolab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_set_up_loads_no_thread_pool():
    # import and config validation, the set-up every run pays, leave out
    # concurrent.futures and the logging it loads: only a call of
    # systems.chunk_map at threads > 1 imports them; and csv, which only
    # --format csv writes with, and fractions and decimal, which no part of
    # ergolab needs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, ergolab\n"
            f"ergolab.load_config({str(ROOT / 'configs' / 'cat.ini')!r})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'logging', 'csv', 'fractions',\n"
            "                                    'decimal')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sources_parse_as_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10: no source may use
    # syntax a 3.10 interpreter cannot parse
    for path in sorted((ROOT / "src" / "ergolab").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
