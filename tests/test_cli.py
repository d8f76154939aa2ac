"""Command-line interface: report format, exit codes, determinism."""

import math
import subprocess
import sys

import numpy as np
import pytest

from synalg import Element, ModelShape, Projection, Symmetry
from synalg.cli import main
from synalg.matio import write_matrix

SH2 = ModelShape((2,))
ISQ2 = math.sqrt(0.5)


@pytest.fixture()
def matdir(tmp_path):
    write_matrix(tmp_path / "e.mat", Projection(SH2, [[1.0, 0.0], [0.0, 0.0]]))
    write_matrix(tmp_path / "f.mat", Projection(SH2, [[0.5, 0.5], [0.5, 0.5]]))
    write_matrix(tmp_path / "d2.mat", Projection(SH2, [[0.0, 0.0], [0.0, 1.0]]))
    write_matrix(tmp_path / "s.mat", Symmetry(SH2, [[ISQ2, ISQ2], [ISQ2, -ISQ2]]))
    write_matrix(tmp_path / "a.mat", Element(SH2, [[2.0, 0.0], [0.0, -1.0]]))
    # the half-ones projection is a common complement of the two axes
    write_matrix(tmp_path / "w.mat", Projection(SH2, [[0.5, 0.5], [0.5, 0.5]]))
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


def test_verify_exit_zero_and_format(capsys):
    code, out = run_cli(["verify", "--seed", "7", "--trials", "3", "--shape", "2",
                         "--suites", "synalg"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "RESULT PASS"
    checks = [l for l in lines if l.startswith("CHECK ")]
    assert checks
    for line in checks:
        parts = line.split()
        assert len(parts) == 5
        float(parts[2]), float(parts[3])
        assert parts[4] in ("PASS", "FAIL")


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _ = run_cli(["verify", "--suites", "bogus"], capsys)
    assert code == 2


def test_verify_tolerance_override(capsys):
    code, out = run_cli(["verify", "--seed", "7", "--trials", "2", "--shape", "2",
                         "--suites", "synalg", "--tol", "proj=1e-6"], capsys)
    assert code == 0


def test_witness_thm58(matdir, capsys):
    code, out = run_cli(["witness", "thm5.8", matdir / "e.mat", matdir / "f.mat"], capsys)
    assert code == 0
    assert "MATRIX s" in out
    # worked example: the symmetry is the normalized sign of e + f - 1
    row = [float(t) for t in out.splitlines()[2].split()]
    assert abs(row[0] - ISQ2) < 1e-12 and abs(row[1] - ISQ2) < 1e-12


def test_witness_all_ids_run(matdir, capsys):
    for args in (
        ["witness", "thm5.9i", matdir / "e.mat", matdir / "f.mat"],
        ["witness", "thm5.9ii", matdir / "e.mat", matdir / "f.mat"],
        ["witness", "thm5.9iii", matdir / "e.mat", matdir / "f.mat"],
        ["witness", "thm5.11", matdir / "e.mat", matdir / "s.mat"],
        ["witness", "thm5.12", matdir / "e.mat", matdir / "d2.mat", matdir / "w.mat"],
        ["witness", "thm8.3", matdir / "e.mat", matdir / "f.mat"],
        ["witness", "thm8.5", matdir / "e.mat", matdir / "f.mat"],
    ):
        code, out = run_cli(args, capsys)
        assert code == 0, (args, out)
        assert out.strip().endswith("RESULT PASS")


def test_witness_thm512_rejects_bad_complement(matdir, capsys):
    write_matrix(matdir / "bad.mat", Projection(SH2, np.eye(2)))
    code, out = run_cli(["witness", "thm5.12", matdir / "e.mat", matdir / "d2.mat",
                         matdir / "bad.mat"], capsys)
    assert code == 1
    assert "precondition" in out


def test_witness_bad_id_and_missing_file(matdir, capsys):
    code, _ = run_cli(["witness", "nope", matdir / "e.mat"], capsys)
    assert code == 2
    code, _ = run_cli(["witness", "thm5.8", matdir / "missing.mat", matdir / "f.mat"], capsys)
    assert code == 2


def test_witness_group_constructions(matdir, tmp_path, capsys):
    sh6 = ModelShape((6,))

    def basisproj(idx):
        d = np.zeros((6, 6))
        for i in idx:
            d[i, i] = 1.0
        return Projection(sh6, d)

    from synalg.symmetry import orthogonal_exchange_symmetry
    e1, f1 = basisproj([0]), basisproj([1])
    e2, f2 = basisproj([2]), basisproj([3])
    for name, val in (("e1", e1), ("f1", f1), ("e2", e2), ("f2", f2)):
        write_matrix(tmp_path / f"{name}.mat", val)
    write_matrix(tmp_path / "s1.mat", orthogonal_exchange_symmetry(e1, f1))
    write_matrix(tmp_path / "s2.mat", orthogonal_exchange_symmetry(e2, f2))
    args = ["witness", "lem5.6"] + [tmp_path / n for n in
                                    ("e1.mat", "f1.mat", "s1.mat", "e2.mat", "f2.mat", "s2.mat")]
    code, out = run_cli(args, capsys)
    assert code == 0 and out.strip().endswith("RESULT PASS")
    args = ["witness", "thm5.15"] + [tmp_path / n for n in
                                     ("e1.mat", "f1.mat", "s1.mat", "e2.mat", "f2.mat", "s2.mat")]
    code, out = run_cli(args, capsys)
    assert code == 0 and out.strip().endswith("RESULT PASS")


def test_witness_relative_center(tmp_path, capsys):
    sh22 = ModelShape((2, 2))
    pdata = np.zeros((4, 4)); pdata[0, 0] = pdata[1, 1] = pdata[2, 2] = 1.0
    ddata = np.zeros((4, 4)); ddata[0, 0] = ddata[1, 1] = 1.0
    write_matrix(tmp_path / "p.mat", Projection(sh22, pdata))
    write_matrix(tmp_path / "d.mat", Projection(sh22, ddata))
    code, out = run_cli(["witness", "thm8.6", tmp_path / "p.mat", tmp_path / "d.mat"], capsys)
    assert code == 0 and out.strip().endswith("RESULT PASS")


def test_spectra(matdir, capsys):
    code, out = run_cli(["spectra", matdir / "a.mat"], capsys)
    assert code == 0
    assert "JUMP -1 rank 1" in out and "JUMP 2 rank 1" in out
    assert "LOWER -1" in out and "UPPER 2" in out
    write_matrix(matdir / "one.mat", Element(SH2, np.eye(2)))
    code, out = run_cli(["spectra", matdir / "one.mat"], capsys)
    assert code == 0
    assert out.count("JUMP") == 1 and "JUMP 1 rank 2" in out


def test_lattice_tables(matdir, capsys):
    code, out = run_cli(["lattice", matdir / "e.mat", matdir / "f.mat"], capsys)
    assert code == 0
    assert "PAIR p0 p1 meet_rank 0 join_rank 2 sasaki_rank 1" in out
    assert "GAMMA p0 mask 1" in out


def test_compare_and_equiv(matdir, capsys):
    code, out = run_cli(["compare", matdir / "e.mat", matdir / "f.mat"], capsys)
    assert code == 0 and "MATRIX h" in out and "MATRIX s" in out
    code, out = run_cli(["equiv", matdir / "e.mat", matdir / "f.mat"], capsys)
    assert code == 0 and "VERDICT equivalent chain_length 1" in out
    write_matrix(matdir / "one.mat", Projection(SH2, np.eye(2)))
    code, out = run_cli(["equiv", matdir / "e.mat", matdir / "one.mat"], capsys)
    assert code == 1 and "VERDICT not-equivalent" in out


def test_oml_subcommands(tmp_path, capsys):
    code, out = run_cli(["oml", "gen", "mo", "2"], capsys)
    assert code == 0
    (tmp_path / "mo2.oml").write_text(out, encoding="ascii")
    code, out = run_cli(["oml", "verify", tmp_path / "mo2.oml"], capsys)
    assert code == 0
    assert "INFO elements 6 modular True distributive False" in out
    code, out = run_cli(["oml", "report", tmp_path / "mo2.oml", "a1", "a2"], capsys)
    assert code == 0
    assert "COMPATIBLE False" in out and "PERSPECTIVE a1'" in out
    code, out = run_cli(["oml", "gen", "boolean", "2"], capsys)
    assert code == 0
    (tmp_path / "b.oml").write_text(out, encoding="ascii")
    code, out = run_cli(["oml", "verify", tmp_path / "b.oml"], capsys)
    assert code == 0 and "distributive True" in out
    code, _ = run_cli(["oml", "report", tmp_path / "b.oml", "zz", "a"], capsys)
    assert code == 2
    for args in (["boolean", "9"], ["mo", "128"], ["mo", "0"]):
        assert main(["oml", "gen", *args]) == 2
        assert "usage error" in capsys.readouterr().err


def test_determinism_subprocess():
    cmd = [sys.executable, "-m", "synalg", "verify", "--seed", "42",
           "--suites", "synalg,lattice", "--shape", "2,2", "--trials", "4"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
