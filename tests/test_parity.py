"""Smoke tests of the parity script `tools/parity.py`."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "parity.py"
ONE = ["-k", "spectra a23"]


def _parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_a_tree_matches_itself(capsys):
    src = str(ROOT / "src")
    assert _parity().main([src, src, *ONE]) == 0
    assert capsys.readouterr().out.splitlines() == ["# parity commands=1 differ=0"]


def test_an_altered_report_format_is_named(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "synalg", tmp_path / "synalg")
    report = tmp_path / "synalg" / "report.py"
    text = report.read_text(encoding="utf-8")
    assert 'return f"CHECK {self.name}' in text
    report.write_text(text.replace('return f"CHECK {self.name}', 'return f"CHECK  {self.name}'), encoding="utf-8")
    assert _parity().main([str(ROOT / "src"), str(tmp_path), *ONE]) == 1
    assert capsys.readouterr().out.splitlines() == ["DIFF spectra a23.mat", "# parity commands=1 differ=1"]
