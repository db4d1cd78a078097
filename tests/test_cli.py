from __future__ import annotations

import json
from pathlib import Path

import pytest

from gdlog.cli import main

from conftest import CORPUS


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_burglar(capsys):
    code, out, _ = run(capsys, "check", CORPUS / "burglar.gdl")
    assert code == 0
    assert out.strip() == "WEAKLY-ACYCLIC"


def test_check_doubling_exit_3(capsys):
    code, out, _ = run(capsys, "check", CORPUS / "doubling.gdl")
    assert code == 3
    assert "NOT-WEAKLY-ACYCLIC" in out
    assert "->*" in out


def test_check_dot(capsys):
    code, out, _ = run(capsys, "check", "--dot", CORPUS / "burglar.gdl")
    assert code == 0
    assert out.startswith("digraph")


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", CORPUS / "burglar.gdl")
    assert code == 0
    assert out.count(":-") == 10
    assert out.count("exists y:") == 4
    assert "Earthquake__Flip__2" in out
    assert out.count("// fd ") == 3


def test_sample_json_and_reproducibility(capsys):
    args = (
        "sample",
        CORPUS / "burglar.gdl",
        "--edb",
        CORPUS / "burglar.facts",
        "--seed",
        "5",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out1)
    assert set(payload) == {"facts", "log_probability", "terminated"}
    assert payload["terminated"] == "leaf"
    assert payload["facts"] == sorted(payload["facts"])
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical


def test_sample_budget_exhaustion(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        CORPUS / "doubling.gdl",
        "--edb",
        CORPUS / "chain.facts",
        "--seed",
        "1",
        "--budget",
        "200",
    )
    assert code == 0
    assert json.loads(out)["terminated"] == "budget-exhausted"


def test_enumerate_pdb(capsys):
    code, out, _ = run(
        capsys, "enumerate", CORPUS / "pdb.gdl", "--edb", CORPUS / "pdb.facts"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"outcomes", "explored_mass", "residual_mass"}
    assert len(payload["outcomes"]) == 4
    assert payload["explored_mass"] == pytest.approx(1.0, abs=1e-9)
    probs = sorted(o["probability"] for o in payload["outcomes"])
    assert probs == pytest.approx([0.12, 0.18, 0.28, 0.42], abs=1e-9)


def test_enumerate_with_csv_edb(tmp_path, capsys):
    rest = tmp_path / "rest.facts"
    rest.write_text(
        'Business("NP3", "Napa").\nBusiness("YU1", "Yucaipa").\n'
        'City("Napa", 0.03).\nCity("Yucaipa", 0.01).\n'
        'AlarmOn("NP1").\nAlarmOn("YU1").\n'
    )
    code, out, _ = run(
        capsys,
        "enumerate",
        CORPUS / "burglar.gdl",
        "--edb",
        f"House={CORPUS / 'house.csv'}",
        "--edb",
        rest,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["outcomes"]) == 2187


def test_infer_exact(capsys):
    code, out, _ = run(
        capsys,
        "infer",
        CORPUS / "burglar_ppdl.gdl",
        "--edb",
        CORPUS / "burglar_report.facts",
        "--query",
        'Earthquake("Napa", 1)',
        "--mode",
        "exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "exact"
    assert 0.15 < payload["point"] < 0.25


def test_infer_exact_builds_no_facts(capsys, monkeypatch):
    """Exact inference reads masses and query membership from the leaf
    chase states: it never turns a state into ``Fact`` objects, and never
    builds or sorts the entries of an ``OutcomeDistribution`` (which is
    where enumeration makes facts and their tie-break keys)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("exact inference built facts")

    monkeypatch.setattr("gdlog.chase.ChaseState.instance", forbidden)
    monkeypatch.setattr("gdlog.enumeration._distribution", forbidden)
    monkeypatch.setattr("gdlog.ppdl._distribution", forbidden)
    code, out, _ = run(
        capsys,
        "infer",
        CORPUS / "burglar_ppdl.gdl",
        "--edb",
        CORPUS / "burglar_report.facts",
        "--query",
        'Earthquake("Napa", 1)',
        "--mode",
        "exact",
    )
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / "infer_exact_burglar_ppdl.out"
    assert out == golden.read_text()


@pytest.mark.parametrize("mode", [("exact",), ("mc", "--samples", 50, "--seed", 3)])
def test_infer_translates_once(capsys, monkeypatch, mode):
    import gdlog.translate

    calls = []

    def counted(program):
        calls.append(program)
        return gdlog.translate.to_existential(program)

    for module in ("cli", "chase", "enumeration", "ppdl"):
        monkeypatch.setattr(f"gdlog.{module}.to_existential", counted)
    code, _, _ = run(
        capsys,
        "infer",
        CORPUS / "burglar_ppdl.gdl",
        "--edb",
        CORPUS / "burglar_report.facts",
        "--query",
        'Earthquake("Napa", 1)',
        "--mode",
        *mode,
    )
    assert code == 0
    assert len(calls) == 1


def test_infer_mc(capsys):
    code, out, _ = run(
        capsys,
        "infer",
        CORPUS / "burglar_ppdl.gdl",
        "--edb",
        CORPUS / "burglar_report.facts",
        "--query",
        'Earthquake("Napa", 1)',
        "--mode",
        "mc",
        "--samples",
        "4000",
        "--seed",
        "11",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples_total"] == 4000
    assert payload["samples_accepted"] > 50
    assert 0.0 < payload["point"] < 1.0
    assert payload["seed"] == 11


def test_infer_illegal_input_exit_4(tmp_path, capsys):
    prog = tmp_path / "denial.gdl"
    prog.write_text(
        (CORPUS / "burglar.gdl").read_text() + "\nCity(c, r) => false.\n"
    )
    code, _, err = run(
        capsys,
        "infer",
        prog,
        "--edb",
        CORPUS / "burglar.facts",
        "--query",
        'Earthquake("Napa", 1)',
    )
    assert code == 4
    assert "measure zero" in err


def test_undetermined_legality_exit_4(tmp_path, capsys):
    prog = tmp_path / "undet.gdl"
    prog.write_text(
        (CORPUS / "fork_escape.gdl").read_text() + "\nQ(x) => R(1, 1).\n"
    )
    code, _, err = run(
        capsys,
        "infer",
        prog,
        "--edb",
        CORPUS / "escape.facts",
        "--query",
        "R(0, 0)",
        "--nodes",
        "500",
    )
    assert code == 4
    assert "undetermined" in err


def test_unexplored_program_without_constraints_exit_0(capsys):
    """Nothing explored is no legality problem when nothing is observed:
    the bounds are the trivial ones."""
    code, out, err = run(
        capsys,
        "infer",
        CORPUS / "burglar.gdl",
        "--edb",
        CORPUS / "burglar.facts",
        "--query",
        'Earthquake("Napa", 1)',
        "--mode",
        "exact",
        "--nodes",
        "1",
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "explored_mass": 0.0,
        "mode": "exact",
        "point": 0.0,
        "point_upper": 1.0,
        "query": 'Earthquake("Napa", 1)',
        "residual_mass": 1.0,
    }


def test_parse_error_exit_1(tmp_path, capsys):
    prog = tmp_path / "broken.gdl"
    prog.write_text("idb R/1.\nR(x) :- Missing(x).\n")
    code, _, err = run(capsys, "check", prog)
    assert code == 1
    assert "undeclared relation" in err


def _single_error(err: str, message: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def _sample_e(tmp_path, capsys, *edb, rule="R(x) :- E(x)."):
    prog = tmp_path / "e.gdl"
    prog.write_text(f"edb E/1.\nidb R/1.\n{rule}\n")
    return run(capsys, "sample", prog, *edb, "--seed", "1")



def test_non_finite_number_in_facts_exit_1(tmp_path, capsys):
    facts = tmp_path / "e.facts"
    facts.write_text("E(1).\nE(1e999).\n")
    code, out, err = _sample_e(tmp_path, capsys, "--edb", facts)
    assert code == 1 and out == ""
    assert _single_error(err, "e.facts:2:3: '1e999' is not a finite number")


def test_string_separator_in_facts_exit_1(tmp_path, capsys):
    facts = tmp_path / "e.facts"
    facts.write_text('E("a" ")").\n')
    code, out, err = _sample_e(tmp_path, capsys, "--edb", facts)
    assert code == 1 and out == ""
    assert _single_error(err, "e.facts:1:7: expected ',' or ')', found '\")\"'")


def test_string_draw_parameter_exit_2(tmp_path, capsys):
    facts = tmp_path / "e.facts"
    facts.write_text("E(1).\n")
    code, out, err = _sample_e(
        tmp_path, capsys, "--edb", facts, rule='R(Flip["]"]) :- E(x).'
    )
    assert code == 2 and out == ""
    assert _single_error(err, "Flip: parameter ']' is symbolic, must be numeric")


@pytest.mark.parametrize("cell", ["inf", "-inf", "infinity", "1e999"])
def test_non_finite_number_in_csv_exit_1(tmp_path, capsys, cell):
    csv = tmp_path / "e.csv"
    csv.write_text(f"1\n{cell}\n")
    code, out, err = _sample_e(tmp_path, capsys, "--edb", f"E={csv}")
    assert code == 1 and out == ""
    assert _single_error(err, f"row 2: '{cell}' is not a finite number")


def test_non_finite_number_in_program_exit_1(tmp_path, capsys):
    code, out, err = _sample_e(tmp_path, capsys, rule="R(-1e999) :- E(x).")
    assert code == 1 and out == ""
    assert _single_error(err, "e.gdl:3:3: '-1e999' is not a finite number")


# one "error:" line, so no traceback, naming the file
_NOT_UTF8 = "{}: 'utf-8' codec can't decode byte 0xff"


def test_non_utf8_program_exit_1(tmp_path, capsys):
    prog = tmp_path / "e.gdl"
    prog.write_bytes(b'edb E/1.\nidb R/1.\nR(x) :- E(x).\n// \xff\n')
    code, out, err = run(capsys, "sample", prog, "--seed", "1")
    assert code == 1 and out == ""
    assert _single_error(err, _NOT_UTF8.format("e.gdl"))


def test_non_utf8_facts_exit_1(tmp_path, capsys):
    facts = tmp_path / "e.facts"
    facts.write_bytes(b'E("\xff").\n')
    code, out, err = _sample_e(tmp_path, capsys, "--edb", facts)
    assert code == 1 and out == ""
    assert _single_error(err, _NOT_UTF8.format("e.facts"))


def test_non_utf8_csv_exit_1(tmp_path, capsys):
    csv = tmp_path / "e.csv"
    csv.write_bytes(b"1\n\xff\n")
    code, out, err = _sample_e(tmp_path, capsys, "--edb", f"E={csv}")
    assert code == 1 and out == ""
    assert _single_error(err, _NOT_UTF8.format("e.csv"))


@pytest.mark.parametrize("bom_in", ["program", "facts", "csv"])
def test_leading_byte_order_mark_is_skipped(tmp_path, capsys, bom_in):
    """The U+FEFF that spreadsheets and editors write at the start of a
    UTF-8 file is not part of its first token or cell."""
    rest = "".join(
        line + "\n"
        for line in (CORPUS / "burglar.facts").read_text().splitlines()
        if not line.startswith("City(")
    )
    texts = {
        "program": (CORPUS / "burglar.gdl").read_text(),
        "facts": rest,
        "csv": "Napa,0.03\nYucaipa,0.01\n",
    }
    outs = []
    for bom in (False, True):
        d = tmp_path / str(bom)
        d.mkdir()
        paths = {}
        for kind, text in texts.items():
            paths[kind] = d / kind
            enc = "utf-8-sig" if bom and kind == bom_in else "utf-8"
            paths[kind].write_text(text, encoding=enc)
        assert paths[bom_in].read_bytes().startswith(b"\xef\xbb\xbf") is bom
        code, out, err = run(
            capsys, "sample", paths["program"], "--edb", paths["facts"],
            "--edb", f"City={paths['csv']}", "--seed", "5",
        )
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert 'City("Napa", 0.03)' in json.loads(outs[1])["facts"]


def test_byte_order_mark_after_the_start_exit_1(tmp_path, capsys):
    prog = tmp_path / "e.gdl"
    prog.write_text("edb E/1.\nidb R/1.\nR(x) :- E(x).\n\ufeff// x\n")
    code, out, err = run(capsys, "sample", prog, "--seed", "1")
    assert code == 1 and out == ""
    assert _single_error(err, "e.gdl:4:1: unexpected character '\\ufeff'")


def test_domain_error_exit_2(tmp_path, capsys):
    prog = tmp_path / "badparam.gdl"
    prog.write_text("edb S/2.\nidb R/2.\nR(x, Flip[p]) :- S(x, p).\n")
    facts = tmp_path / "bad.facts"
    facts.write_text('S("a", 1.5).\n')
    code, _, err = run(capsys, "sample", prog, "--edb", facts, "--seed", "3")
    assert code == 2
    assert "must be in [0, 1]" in err


@pytest.mark.parametrize("command", [("sample", "--seed", "1"), ("enumerate",)])
@pytest.mark.parametrize(
    "dist, fact, message",
    [
        ("Dbl", "S(1e308).", "[x=1e+308]: Dbl: parameter p=1e+308 doubles past"),
        ("Poisson", "S(1e17).", "[x=1e+17]: Poisson: parameter lambda=1e+17 must"),
        ("Fork", "S(1e16).", "[x=1e+16]: Fork: parameter p=1e+16 must be in"),
        (
            "Fork",
            "S(4503599627370497).",
            "[x=4503599627370497.0]: Fork: parameter p=4503599627370497.0 must be in",
        ),
    ],
    ids=["dbl", "poisson", "fork-even", "fork-odd"],
)
def test_parameter_past_float_steps_exit_2(tmp_path, command, dist, fact, message):
    """A parameter whose support values overflow (Dbl) or lose the float
    step of 1.0 (Poisson, and Fork's 2p + 1) is a domain error that names
    the firing. The command runs in a child process with a timeout: a
    Poisson walk from 1e17 never ends, a Dbl draw from 1e308 would print
    ``inf``, and a Fork from 1e16 would list 2p twice (a duplicate leaf)
    and from 2**52 + 1 would list 2p + 2, which Fork never takes."""
    import subprocess
    import sys
    from pathlib import Path

    import gdlog

    prog = tmp_path / "big.gdl"
    prog.write_text(f"edb S/1.\nidb R/2.\nR(x, {dist}[x]) :- S(x).\n")
    facts = tmp_path / "big.facts"
    facts.write_text(fact + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gdlog.cli", command[0], str(prog), "--edb", str(facts)]
        + list(command[1:]),
        capture_output=True,
        text=True,
        timeout=30,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(gdlog.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",  # no __pycache__ in the checkout
        },
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert _single_error(proc.stderr, "error: rule 0 " + message), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", CORPUS / "burglar.gdl", "--edb", CORPUS / "burglar.facts"),
        (
            "infer",
            CORPUS / "burglar_ppdl.gdl",
            "--edb",
            CORPUS / "burglar_report.facts",
            "--query",
            'Earthquake("Napa", 1)',
            "--mode",
            "mc",
            "--samples",
            "10",
        ),
    ],
    ids=["sample", "infer-mc"],
)
def test_negative_seed_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be >= 0" in err
    assert "Traceback" not in err


_INFER = (
    "infer",
    CORPUS / "burglar_ppdl.gdl",
    "--edb",
    CORPUS / "burglar_report.facts",
    "--query",
    'Earthquake("Napa", 1)',
)


@pytest.mark.parametrize("command", [("check",), ("sample", "--seed", "1")])
def test_invalid_program_exit_1(tmp_path, capsys, command):
    prog = tmp_path / "invalid.gdl"
    prog.write_text("edb S/1.\nidb R/1.\nS(x) :- R(x).\n")
    code, out, err = run(capsys, command[0], prog, *command[1:])
    assert (code, out) == (1, "")
    assert err == f"error: {prog}: invalid program: rule 0: head relation 'S' is not IDB\n"


def test_draw_in_body_atom_exit_1(tmp_path, capsys):
    prog = tmp_path / "body_draw.gdl"
    prog.write_text("edb S/1.\nidb R/1.\nR(x) :- S(x), S(Flip[0.5]).\n")
    code, out, err = run(capsys, "check", prog)
    assert (code, out) == (1, "")
    assert err == f"error: {prog}: invalid program: rule 0: Δ-term in body atom 'S'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*_INFER, "--mode", "mc"), "--seed is required with --mode mc"),
        (
            ("sample", CORPUS / "burglar.gdl", "--seed", "1", "--budget", "0"),
            "step_budget must be positive",
        ),
        (
            ("enumerate", CORPUS / "pdb.gdl", "--epsilon", "1"),
            "mass_epsilon must be in [0, 1)",
        ),
        (("enumerate", CORPUS / "pdb.gdl", "--nodes", "0"), "node_budget must be >= 1"),
        (
            ("enumerate", CORPUS / "pdb.gdl", "--support-mass", "0"),
            "support_mass_target must be in (0, 1]",
        ),
        ((*_INFER, "--mode", "exact", "--nodes", "0"), "node_budget must be >= 1"),
    ],
    ids=[
        "mc-without-seed",
        "budget-0",
        "epsilon-1",
        "nodes-0",
        "support-mass-0",
        "infer-nodes-0",
    ],
)
def test_bad_option_value_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_edb_path_with_equals_sign(tmp_path, capsys):
    # the text before the first '=' is no identifier: a fact file
    facts = tmp_path / "eq" / "d=1" / "b.facts"
    facts.parent.mkdir(parents=True)
    facts.write_bytes((CORPUS / "burglar.facts").read_bytes())
    code, out, err = run(
        capsys, "sample", CORPUS / "burglar.gdl", "--edb", facts, "--seed", 7
    )
    assert (code, err) == (0, "")
    golden = Path(__file__).resolve().parent / "golden" / "sample_burglar.out"
    assert out.encode() == golden.read_bytes()


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/nowhere.gdl")
    assert code == 1
    assert "error" in err


def test_output_identical_across_processes(capsys):
    # string hashing differs between processes; output must not
    import subprocess
    import sys
    from pathlib import Path

    import gdlog

    # the child imports the same gdlog as this process, whether it comes
    # from src/ on PYTHONPATH or from an installed copy
    import_root = str(Path(gdlog.__file__).resolve().parents[1])
    args = [
        "sample",
        str(CORPUS / "burglar.gdl"),
        "--edb",
        str(CORPUS / "burglar.facts"),
        "--seed",
        "17",
    ]
    outs = []
    for hashseed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "gdlog.cli", *args],
            capture_output=True,
            env={
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": import_root,
                "PYTHONDONTWRITEBYTECODE": "1",  # no __pycache__ in the checkout
            },
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {
            "facts",
            "log_probability",
            "terminated",
        }
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    code, in_process, _ = run(capsys, *args)
    assert code == 0
    assert outs[0] == in_process.encode()


def test_runs_without_numpy():
    # the standard library is the only runtime dependency, and the
    # command line loads no module that only check, enumerate or infer run
    import ast
    import subprocess
    import sys
    from pathlib import Path

    import gdlog

    root = Path(__file__).resolve().parent
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(gdlog.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",  # no __pycache__ in the checkout
    }
    # a None entry makes any ``import numpy`` fail
    child = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from gdlog.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    args = ["sample", "corpus/burglar.gdl", "--edb", "corpus/burglar.facts"]
    proc = subprocess.run(
        [sys.executable, "-c", child, *args, "--seed", "7"],
        capture_output=True,
        cwd=root.parent,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "golden" / "sample_burglar.out").read_bytes()

    loaded = (
        "import sys, gdlog.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
        "       or m in ('gdlog.analysis', 'gdlog.enumeration', 'gdlog.ppdl')])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", loaded], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

    # nor code-generating machinery, beyond what the standard-library
    # modules gdlog imports load on this Python by themselves
    stdlib = set()
    for path in Path(gdlog.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                stdlib.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                stdlib.add(node.module.split(".")[0])
    machinery = ("dataclasses", "inspect")
    stdlib -= {"__future__", *machinery}
    report = f"print(*(m for m in {machinery!r} if m in sys.modules))"
    loaded = {}
    for name, imports in (("gdlog", "gdlog.cli"), ("stdlib", ", ".join(stdlib))):
        child = f"import sys, {imports}\n{report}\n"
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        loaded[name] = set(proc.stdout.split())
    assert loaded["gdlog"] <= loaded["stdlib"], loaded


def test_verbosity_env_never_affects_results(capsys, monkeypatch):
    args = (
        "enumerate",
        CORPUS / "pdb.gdl",
        "--edb",
        CORPUS / "pdb.facts",
    )
    code, quiet, _ = run(capsys, *args)
    monkeypatch.setenv("GDLOG_LOG", "debug")
    code2, chatty, err = run(capsys, *args)
    assert (code, quiet) == (code2, chatty)
    assert err  # diagnostics went to stderr only
