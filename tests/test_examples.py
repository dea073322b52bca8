"""The README example and the experiment scripts, run at tiny sizes."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_python_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_scripts_run_at_tiny_size(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no scripts/__pycache__
    table = load_script("abscissa_table")
    table.run(table.TableConfig(N=1000))

    orbit = load_script("orbit_growth")
    orbit.run(orbit.OrbitConfig(k_max=10, out_dir=str(tmp_path)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diff_at_2.csv", "diff_at_3.csv", "int_at_2.csv"]
    assert len((tmp_path / "diff_at_3.csv").read_text().splitlines()) == 11

    sweep = load_script("spectral_gap_sweep")
    assert sweep.run(sweep.SweepConfig(n_points=20, brute_n_max=10**4)) == 0
    assert "mismatches      0" in capsys.readouterr().out
