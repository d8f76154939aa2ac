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


def test_verify_drift_under_tight_proj_tolerance(capsys):
    code, out = run_cli(["verify", "--seed", "3", "--trials", "6", "--tol", "proj=1e-15"], capsys)
    assert code == 1
    assert out.splitlines()[-1] == "ERROR DriftError not a projection: |p^2 - p| = 1.139e-15"


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


def test_oml_verify_checks_de_morgan_triples_above_64_elements(tmp_path, capsys):
    code, out = run_cli(["oml", "gen", "boolean", "7"], capsys)
    assert code == 0
    path = tmp_path / "b7.oml"
    path.write_text(out, encoding="ascii")
    code, out = run_cli(["oml", "verify", path], capsys)
    assert code == 0
    assert "CHECK oml.de_morgan_triples 0.000e+00 0.0e+00 PASS" in out.splitlines()
    assert "INFO elements 128 modular True distributive True" in out.splitlines()
    assert main(["oml", "verify", "--cap", "64", str(path)]) == 2


def test_determinism_subprocess():
    cmd = [sys.executable, "-m", "synalg", "verify", "--seed", "42",
           "--suites", "synalg,lattice", "--shape", "2,2", "--trials", "4"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_missing_file_is_io_error(matdir, capsys):
    missing = matdir / "missing.mat"
    missing_oml = matdir / "missing.oml"
    binary = matdir / "bin.mat"
    binary.write_bytes(b"\xff\xfe")
    for args, bad in ((["spectra", missing], missing),
                      (["lattice", matdir / "e.mat", missing], missing),
                      (["compare", matdir / "e.mat", missing], missing),
                      (["equiv", missing, matdir / "f.mat"], missing),
                      (["oml", "verify", missing_oml], missing_oml),
                      (["oml", "report", missing_oml, "a", "b"], missing_oml),
                      (["spectra", binary], binary),
                      (["oml", "verify", binary], binary)):
        assert main([str(a) for a in args]) == 2, args
        captured = capsys.readouterr()
        assert captured.err.startswith(f"io error: cannot read {bad}:"), args
        assert captured.out == "", args


def test_witness_file_count_is_checked_before_loading(matdir, capsys):
    e, f, d2 = (str(matdir / n) for n in ("e.mat", "f.mat", "d2.mat"))
    missing = str(matdir / "missing.mat")
    for args in (["witness", "thm5.8", e, f, d2],          # one file too many
                 ["witness", "thm8.3", e],                  # one file too few
                 ["witness", "thm5.12", e, f, missing, d2],  # surplus, one of them missing
                 ["witness", "thm5.15", e, f],              # short of a triple
                 ["witness", "thm5.15", e, f, d2, e],       # a triple and one file
                 ["witness", "thm5.15"]):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {args[1]} takes "), args
        assert captured.out == "", args


def test_environment_does_not_set_flag_defaults(monkeypatch, capsys):
    monkeypatch.setenv("SYNALG_SEED", "5")
    monkeypatch.setenv("SYNALG_TRIALS", "2")
    assert main(["verify", "--suites", "synalg", "--shape", "2"]) == 0
    assert capsys.readouterr().out.startswith("# verify seed=42 trials=30 shape=2 ")


def test_bad_tolerance_values_are_usage_errors(capsys):
    for tol in ("psd=inf", "proj=nan", "zero=0", "rank=-1e-10", "cluster=-inf"):
        assert main(["verify", "--suites", "synalg", "--trials", "1", "--tol", tol]) == 2, tol
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: tolerance "), tol
        assert "must be finite and positive" in captured.err, tol
        assert captured.out == "", tol


MIXED_SHAPE_CALLS = {
    "lattice": ["lattice", "e", "other"],
    "witness": ["witness", "thm5.8", "e", "other"],
    "compare": ["compare", "e", "other"],
    "equiv": ["equiv", "other", "e"],
}


@pytest.mark.parametrize("command", sorted(MIXED_SHAPE_CALLS))
def test_inputs_of_different_shapes_are_usage_errors(command, matdir, capsys):
    # shape 1,1 has the dimension of shape 2, so only the block layout differs
    others = {"2,3": Projection(ModelShape((2, 3)), np.diag([1.0, 0.0, 1.0, 0.0, 0.0])),
              "1,1": Projection(ModelShape((1, 1)), np.diag([1.0, 0.0]))}
    for label, other in others.items():
        write_matrix(matdir / "other.mat", other)
        args = [a if a in (command, "thm5.8") else matdir / f"{a}.mat"
                for a in MIXED_SHAPE_CALLS[command]]
        assert main([str(a) for a in args]) == 2, label
        captured = capsys.readouterr()
        assert captured.err == "usage error: input files have different shapes\n", label
        assert captured.out == "", label
