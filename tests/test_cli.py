"""Command-line surface: flags, exit codes, deterministic output."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinor_s3.cli import DEFAULT_K_CAP, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--k-max", "2", "--format", "table")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert rows == [
        ["0", "-3/2", "2"],
        ["1", "3/2", "2"],
        ["1", "-5/2", "6"],
        ["2", "5/2", "6"],
        ["2", "-7/2", "12"],
    ]


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--k-max", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"k": 0, "eigenvalue": "-3/2", "multiplicity": 2}]


def test_spectrum_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--k-max", "999")
    assert code == 2
    assert "cap" in err


def test_unknown_flag_exits_2(capsys):
    code, out, err = run(capsys, "spectrum", "--k-max", "1", "--bogus")
    assert_usage_error(code, out, err, "unrecognized arguments: --bogus")


def test_missing_subcommand_exits_2(capsys):
    code, out, err = run(capsys)
    assert_usage_error(code, out, err, "required: command")


@pytest.mark.parametrize("argv, needle", [
    (("spectrum",), "required: --k-max"),
    (("spectrum", "--k-max", "x"), "argument --k-max: invalid int value: 'x'"),
    (("spectrum", "--k-max", "1", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
    (("verify", "--rule", "simpson"), "argument --rule: invalid choice: 'simpson'"),
    (("eigenbasis", "--k", "1.5"), "argument --k: invalid int value: '1.5'"),
], ids=["no-k-max", "k-max-not-int", "unknown-format", "unknown-rule", "k-not-int"])
def test_an_error_argparse_finds_is_one_line(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, out, err, needle)


def test_eigenbasis_k0(tmp_path, capsys):
    out_file = tmp_path / "basis.json"
    code, _, _ = run(capsys, "eigenbasis", "--k", "0", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["k"] == 0 and doc["count"] == 2
    assert all(s["eigenvalue"] == "-3/2" for s in doc["sections"])
    constants = {
        (json.dumps(s["f"]["terms"]), json.dumps(s["g"]["terms"])) for s in doc["sections"]
    }
    assert len(constants) == 2


def test_eigenbasis_k1_counts(tmp_path, capsys):
    out_file = tmp_path / "basis.json"
    code, _, _ = run(capsys, "eigenbasis", "--k", "1", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["count"] == 8
    values = [s["eigenvalue"] for s in doc["sections"]]
    assert values.count("3/2") == 2 and values.count("-5/2") == 6


def test_eigenbasis_output_roundtrips_documented_schema(tmp_path, capsys):
    from fractions import Fraction

    from spinor_s3.geometry import dirac_section
    from spinor_s3.polyring import SpinorSection
    from spinor_s3.transfer import transfer_eigenbasis

    out_file = tmp_path / "basis.json"
    assert run(capsys, "eigenbasis", "--k", "1", "--out", str(out_file))[0] == 0
    doc = json.loads(out_file.read_text())
    entries = transfer_eigenbasis(1)
    assert len(doc["sections"]) == len(entries)
    for record, entry in zip(doc["sections"], entries):
        section = SpinorSection.from_json(record)
        # the reader gives back exactly the section that was written
        assert section.degree == entry.section.degree == 1
        for got, want in ((section.f, entry.section.f), (section.g, entry.section.g)):
            assert (got._num, got._den, got.view) == (want._num, want._den, want.view)
        eigenvalue = Fraction(record["eigenvalue"])
        assert eigenvalue == entry.eigenvalue
        assert (dirac_section(section) - section.scale(eigenvalue)).is_zero()


def test_eigenbasis_internal_verification_gate(tmp_path, capsys, monkeypatch):
    # if an emitted section ever failed its eigen-equation, the command
    # must exit 1 instead of writing the file
    import spinor_s3.verify as verify

    monkeypatch.setattr(verify, "dirac_section", lambda s: s.scale(7))
    out_file = tmp_path / "basis.json"
    code, _, err = run(capsys, "eigenbasis", "--k", "1", "--out", str(out_file))
    assert code == 1
    assert "internal verification failed" in err
    assert not out_file.exists()


def test_eigenbasis_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "eigenbasis", "--k", "2", "--out", str(a))[0] == 0
    assert run(capsys, "eigenbasis", "--k", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_eigenbasis_stdout_and_out_file_are_the_same_bytes(tmp_path, capsys):
    out_file = tmp_path / "basis.json"
    code, out, err = run(capsys, "eigenbasis", "--k", "3")
    assert (code, err) == (0, "")
    assert run(capsys, "eigenbasis", "--k", "3", "--out", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == out.encode("utf-8")


def test_eigenbasis_never_holds_the_whole_document(tmp_path):
    # the k = 20 document is about 13 MB of Python objects when built
    # whole; streamed, only the sections (built under the trace), one
    # section record and the rank rows are live
    import tracemalloc

    tracemalloc.start()
    try:
        assert main(["eigenbasis", "--k", "20", "--out", str(tmp_path / "basis.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_failed_write_is_a_usage_error(capsys):
    # the device accepts the open and refuses the data
    code, out, err = run(capsys, "eigenbasis", "--k", "2", "--out", "/dev/full")
    assert_usage_error(code, out, err, "cannot write --out /dev/full")


STDOUT_MODES = [pytest.param(True, id="unbuffered"), pytest.param(False, id="buffered")]


ROOT = Path(__file__).resolve().parent.parent


def python_process(args, unbuffered, hash_seed=None, **kwargs):
    """``python args`` in a fresh interpreter that finds this package, with
    PYTHONUNBUFFERED set or unset, and PYTHONHASHSEED set to ``hash_seed``
    if one is given."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.Popen([sys.executable, *args], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def cli_process(argv, unbuffered, **kwargs):
    """The CLI in a fresh interpreter, with PYTHONUNBUFFERED set or unset."""
    return python_process(("-m", "spinor_s3.cli", *argv), unbuffered, **kwargs)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "transfer,dirac,laplace", "--k-max", "3"),
    ("eigenbasis", "--k", "3"),
    ("spectrum", "--k-max", "6", "--format", "json"),
    ("verify", "--suite", "casimir,quadratic,integral", "--k-max", "2",
     "--samples", "20000", "--seed", "3"),
])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # the operators and the lift's identities are built from dicts of
    # weights, and run_suites takes the suites through a set; str hashes
    # change with the seed, and no output may
    outs = []
    for seed in ("0", "1"):
        proc = cli_process(argv, False, hash_seed=seed, stdout=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        outs.append(out)
    assert outs[0] and outs[0] == outs[1]


def assert_stdout_error(code, err):
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("unbuffered", STDOUT_MODES)
@pytest.mark.parametrize("argv", [
    ("spectrum", "--k-max", "3"),
    ("eigenbasis", "--k", "3"),
    ("verify", "--suite", "casimir", "--k-max", "0"),
    # argparse writes help text itself and drops a failed write
    pytest.param(("--help",), id="help"),
    pytest.param(("verify", "--help"), id="verify-help"),
], ids=lambda argv: argv[0])
def test_a_full_stdout_is_a_usage_error(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = cli_process(argv, unbuffered, stdout=full)
        _, err = proc.communicate(timeout=120)
    assert_stdout_error(proc.returncode, err)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--k-max", "1"),
    ("eigenbasis", "--k", "1"),
    ("verify", "--suite", "casimir", "--k-max", "0"),
], ids=lambda argv: argv[0])
def test_a_closed_stdout_is_a_usage_error(argv):
    # file descriptor 1 closed before the interpreter starts, as by ``>&-``
    proc = cli_process(argv, False, preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=120)
    assert_stdout_error(proc.returncode, err)


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")], ids=["top", "verify"])
def test_help_prints_what_argparse_prints_and_exits_0(capsys, monkeypatch, argv):
    import argparse

    from spinor_s3 import cli

    guarded = run(capsys, *argv)
    monkeypatch.setattr(cli._Parser, "print_help", argparse.ArgumentParser.print_help)
    plain = run(capsys, *argv)
    assert guarded == plain
    assert guarded[0] == 0 and guarded[1].startswith("usage: spinor-s3")


@pytest.mark.parametrize("unbuffered", STDOUT_MODES)
def test_a_closed_stdout_pipe_is_a_usage_error(unbuffered):
    # the reader takes one line and goes away, as ``| head -1`` does; the
    # 480 KB document is far more than a pipe holds
    proc = cli_process(("eigenbasis", "--k", "12"), unbuffered, stdout=subprocess.PIPE)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert_stdout_error(proc.wait(timeout=120), err)


# -- the process entry ----------------------------------------------------
# ``cli.entry`` ends the process with os._exit after main() returns; these
# check that nothing written or registered is lost on the way.


def test_both_process_entries_are_cli_entry():
    import ast
    import importlib
    import inspect

    from spinor_s3 import cli

    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["spinor-s3"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry
    main_blocks = [node for node in ast.parse(inspect.getsource(cli)).body
                   if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(s) for s in node.body] for node in main_blocks] == [["entry()"]]


def run_to_file(tmp_path, args):
    """``python args`` with stdout block-buffered into a file: the exit
    code, the stdout bytes and the stderr text."""
    out_file = tmp_path / "stdout"
    with open(out_file, "wb") as out:
        proc = python_process(args, False, stdout=out)
        _, err = proc.communicate(timeout=120)
    return proc.returncode, out_file.read_bytes(), err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--k-max", "12", "--format", "json"),
    ("eigenbasis", "--k", "3"),
], ids=lambda argv: argv[0])
def test_the_process_writes_what_main_writes(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert run_to_file(tmp_path, ("-m", "spinor_s3.cli", *argv)) == (code, out.encode(), err)


# a wrapper that registers an exit handler writing to the block-buffered
# stdout, and can break Dbar the way the wrong_dbar_factor fixture does
ENTRY_WRAPPER = """\
import atexit, sys
from spinor_s3 import abstract_dirac, cli
atexit.register(print, "exit handler ran")
if sys.argv.pop(1) == "wrong-dbar":
    closed = abstract_dirac.dbar_apply
    abstract_dirac.dbar_apply = lambda v: closed(v).scale(2)
cli.entry()
"""


@pytest.mark.parametrize("mode, argv, expected_code", [
    ("as-is", ("verify", "--suite", "casimir", "--k-max", "1"), 0),
    ("wrong-dbar", ("verify", "--suite", "quadratic", "--k-max", "1"), 1),
    ("as-is", ("spectrum", "--k-max", str(DEFAULT_K_CAP + 1)), 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_the_process_runs_the_exit_handlers_and_keeps_the_exit_code(
        tmp_path, capsys, request, mode, argv, expected_code):
    if mode == "wrong-dbar":
        request.getfixturevalue("wrong_dbar_factor")
    code, out, err = run(capsys, *argv)
    assert code == expected_code
    # the handler's line is still in stdout's buffer when os._exit runs,
    # unless entry() flushes after running the handlers
    expected = (code, out.encode() + b"exit handler ran\n", err)
    assert run_to_file(tmp_path, ("-c", ENTRY_WRAPPER, mode, *argv)) == expected


def test_importing_the_cli_starts_no_thread_and_registers_no_exit_handler():
    # os._exit joins no thread, and entry() runs only the handlers
    # registered when main() returns: a thread or an exit hook added to
    # the import must be weighed against that design
    script = ("import atexit, threading; bare = atexit._ncallbacks(); import spinor_s3.cli; "
              "print(bare, atexit._ncallbacks(), [t.name for t in threading.enumerate()])")
    proc = python_process(("-c", script), False, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, "")
    bare, after, threads = out.split(" ", 2)
    assert int(after) <= int(bare)
    assert threads.strip() == "['MainThread']"


def test_importing_the_cli_imports_neither_dataclasses_nor_json():
    # every command is a fresh process that pays for what the import loads:
    # the records are written without dataclass code generation, and json
    # is imported by the one command that uses it (numpy is still imported,
    # by verify, which the CLI imports last; its place is tested below)
    script = "import sys, spinor_s3.cli; print(sorted({'dataclasses', 'json'} & set(sys.modules)))"
    proc = python_process(("-c", script), False, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err, out) == (0, "", "[]\n")


def test_the_package_namespace_imports_nothing():
    # each name has one import path, the module that defines it, and
    # importing one module runs only what that module imports
    tree = ast.parse((ROOT / "src" / "spinor_s3" / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def top_level_definitions(tree):
    """The names that a module's own top level binds: its functions, classes
    and assigned names, and none that it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_package_import_names_the_module_that_defines_the_name():
    # one import path per name: ``from .m import n`` reads n from the module
    # whose own top level defines it, never through a module that imports it
    package = ROOT / "src" / "spinor_s3"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    defined = {module: top_level_definitions(tree) for module, tree in trees.items()}
    imports, stray = 0, []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports += 1
                    if node.module is None:
                        ok = alias.name in trees  # ``from . import m`` names a module
                    else:
                        ok = alias.name in defined.get(node.module, ())
                    if not ok:
                        stray.append(f"{module}: from .{node.module or ''} import {alias.name}")
    assert imports > 0  # the walk found the package's imports
    assert stray == []


def test_the_exact_core_imports_neither_numpy_nor_geometry():
    # the abstract side and the polynomial ring are exact: floats, and the
    # numpy that verify's quadrature needs, stay out of their import; the
    # operators and the transfer are exact too, and import no numpy either
    script = ("import sys, spinor_s3.abstract_dirac, spinor_s3.polyring; "
              "print(sorted({'numpy', 'spinor_s3.geometry'} & set(sys.modules))); "
              "import spinor_s3.geometry, spinor_s3.transfer; "
              "print(sorted({'numpy'} & set(sys.modules)))")
    proc = python_process(("-c", script), False, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err, out) == (0, "", "[]\n[]\n")


IMPORT_ORDER = """
import sys
started = []
class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        started.append(name)
sys.meta_path.insert(0, Recorder)
import spinor_s3.cli
package = [i for i, name in enumerate(started) if name.partition('.')[0] == 'spinor_s3']
print(max(package) < started.index('numpy'))
"""


def test_the_cli_imports_numpy_after_every_module_of_the_package():
    # a module is found, then compiled, then run; numpy's import begins after
    # every spinor_s3 module has been found, so the whole package has compiled
    # before numpy loads, and numpy is still part of the CLI's import.
    # (sys.modules cannot show this: a module's key moves to the end when its
    # body finishes, so verify's and cli's keys always follow numpy's.)
    script = IMPORT_ORDER
    proc = python_process(("-c", script), False, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err, out) == (0, "", "True\n")


def zero_sections(entries):
    from spinor_s3.polyring import SpinorSection

    return tuple(e._replace(section=SpinorSection.zero()) for e in entries)


def first_of_each_family(entries):
    first = {}
    return tuple(e._replace(section=first.setdefault(e.family, e.section)) for e in entries)


def break_slices(monkeypatch, broken):
    """The slice builder, in every module that calls it, with ``broken``
    applied to the sections of slice q whenever ``broken(q)`` is not None."""
    import spinor_s3.transfer as transfer
    import spinor_s3.verify as verify

    build = transfer.transfer_slice

    def slice_(family, q, table):
        entries = build(family, q, table)
        wreck = broken(q)
        return wreck(entries) if wreck else entries

    for module in (transfer, verify):
        monkeypatch.setattr(module, "transfer_slice", slice_)


@pytest.fixture(params=[zero_sections, first_of_each_family])
def broken_eigenbasis(request, monkeypatch):
    """Sections that each satisfy D sigma = lambda sigma but are not a
    basis: all zero, or each family made of copies of its first section,
    on every slice."""
    break_slices(monkeypatch, lambda q: request.param)


def test_verify_dirac_fails_on_sections_that_are_not_a_basis(capsys, broken_eigenbasis):
    code, out, _ = run(capsys, "verify", "--suite", "dirac", "--k-max", "2")
    assert code == 1
    for k in range(3):
        assert f"FAIL  [dirac] eigen-identity k={k}: " in out


def assert_refused(code, out, err, out_file):
    assert code == 1
    assert out == ""
    assert err.startswith("internal verification failed") and err.count("\n") == 1
    assert not out_file.exists()


def test_eigenbasis_refuses_sections_that_are_not_a_basis(tmp_path, capsys, broken_eigenbasis):
    out_file = tmp_path / "basis.json"
    assert_refused(*run(capsys, "eigenbasis", "--k", "2", "--out", str(out_file)), out_file)


def test_only_the_export_gate_sees_a_broken_slice_above_q_0(tmp_path, capsys, monkeypatch):
    # verify checks slice q = 0 and lifts it; the sections of the other
    # slices are built only by the export, whose gate checks all it writes
    break_slices(monkeypatch, lambda q: zero_sections if q else None)
    code, out, _ = run(capsys, "verify", "--suite", "dirac", "--k-max", "3")
    assert (code, out.splitlines()[-1]) == (0, "4/4 checks passed")
    out_file = tmp_path / "basis.json"
    assert_refused(*run(capsys, "eigenbasis", "--k", "3", "--out", str(out_file)), out_file)


def test_an_image_off_the_right_ladder_fails_the_lift(capsys, monkeypatch):
    # the image of |1>|1> at k = 2 doubled: slice q = 0 is untouched, but
    # beta_R h_10 = 2 h_11 no longer holds, so neither suite may lift
    import spinor_s3.verify as verify

    closed = verify.transfer_table

    def doubled(k):
        table = closed(k)
        if k == 2:
            table[(1, 1)] = table[(1, 1)].scale(2)
        return table

    monkeypatch.setattr(verify, "transfer_table", doubled)
    code, out, _ = run(capsys, "verify", "--suite", "dirac,laplace", "--k-max", "3")
    assert code == 1
    failed = [line.split(": ")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL  [dirac] eigen-identity k=2", "FAIL  [laplace] laplace eigenvalue k=2"]
    assert out.count("; failed: closed = recursive") == 2
    assert "6/6 sections of slice q = 0 satisfy" in out


# -- the JSON documents ---------------------------------------------------


@pytest.mark.parametrize("k", range(5))
def test_eigenbasis_is_json_dumps_of_the_section_records(capsys, k):
    # the reference route: each record is the section's to_json() with the
    # entry's fields added, the document written by json.dumps; at k = 0
    # one part of each section has no terms
    from spinor_s3.exactnum import rational_to_str
    from spinor_s3.transfer import transfer_eigenbasis

    entries = transfer_eigenbasis(k)
    sections = [e.section.to_json() | {"eigenvalue": rational_to_str(e.eigenvalue),
                                       "family": e.family, "p": e.p, "q": e.q}
                for e in entries]
    doc = {"count": len(entries), "k": k, "sections": sections}
    code, out, err = run(capsys, "eigenbasis", "--k", str(k))
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# the eigenbasis export is held to json.dumps of its section records above
@pytest.mark.parametrize("argv", [("spectrum", "--k-max", str(k)) for k in range(4)])
def test_cli_documents_are_json_dumps_of_themselves(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# sha256 of the exports at k = 12, recorded when the polynomial core still
# stored GaussianRational coefficients and 12 was the cap, at k = 16,
# recorded with --unsafe-k before the cap was raised to 16, and at k = 20,
# the cap now, recorded with --unsafe-k before the section operators moved
# to merged shift tables and the cap was raised to 20; any change to the
# exact output, its order or its formatting changes them.
@pytest.mark.parametrize("argv, digest", [
    (("spectrum", "--k-max", "12", "--format", "json"),
     "2cb5088fbca4fc4e50f3d83bbad1b02672ced709897cb02e5967df06e1849034"),
    (("eigenbasis", "--k", "12"),
     "f6e85407b76ae3f86502658a94e2e16222d2fb88b86f018bd316efc82fc7bd7c"),
    (("spectrum", "--k-max", "16", "--format", "json"),
     "8843d87b39cb403b0cb481825e5098615547875185d9d9a77bc60e86715d8258"),
    (("eigenbasis", "--k", "16"),
     "508e29c3a2bc1ff6b245b85452ff9c49d661c070a487c20900bacfcf52b34eeb"),
    (("spectrum", "--k-max", "20", "--format", "json"),
     "42665052aa197d22537d578d8bec46f619d46b433a5f3479e6a891ee8122c931"),
    (("eigenbasis", "--k", "20"),
     "602f614607affafabe03614a4a1e8eafc3bc6bdc891dd107c6833b84c97e8a4a"),
])
def test_exports_at_the_cap_are_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_casimir_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "casimir", "--k-max", "4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "casimir k=4" in out


def test_verify_unknown_suite(capsys):
    # an unknown name is refused even beside "all", which would run every suite
    for suites in ("nonsense", "all,nonsense"):
        code, out, err = run(capsys, "verify", "--suite", suites)
        assert_usage_error(code, out, err, "unknown suite(s): nonsense")


def test_verify_multiple_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "casimir,quadratic", "--k-max", "3"
    )
    assert code == 0
    assert "[casimir]" in out and "[quadratic]" in out


def test_verify_report_lists_each_suite_once_by_name(capsys, monkeypatch):
    code, report, _ = run(capsys, "verify", "--suite", "quadratic,casimir", "--k-max", "2")
    assert code == 0
    assert run(capsys, "verify", "--suite", "casimir,quadratic", "--k-max", "2") == (0, report, "")
    # verify reads no environment variable, so a stale setting is ignored
    monkeypatch.setenv("SPINOR_S3_THREADS", "abc")
    assert run(capsys, "verify", "--suite", "quadratic,casimir", "--k-max", "2") == (0, report, "")
    code, out, _ = run(capsys, "verify", "--suite", "casimir,casimir", "--k-max", "1")
    assert code == 0
    assert out.strip().endswith("4/4 checks passed")


def test_verify_integral_tensor_only(capsys):
    # the Gram lines stop at the suite's default degree, 5, whatever --k-max says
    for k_max in ((), ("--k-max", "7")):
        code, out, _ = run(capsys, "verify", "--suite", "integral", "--rule", "tensor", *k_max)
        assert code == 0
        assert "tensor rule vs exact" in out
        assert "monte carlo" not in out
        assert [f"gram structure k={k}:" in out for k in range(7)] == [True] * 6 + [False]


def test_unknown_quadrature_rule_is_refused(capsys):
    # a misspelt rule used to run the integral suite with neither quadrature
    from spinor_s3 import verify

    for suites in (["integral"], ["casimir"]):
        with pytest.raises(ValueError, match="unknown quadrature rule 'tensr'"):
            verify.run_suites(suites, k_max=1, rule="tensr")
    code, out, _ = run(capsys, "verify", "--suite", "integral", "--rule", "tensr")
    assert code == 2 and out == ""


def test_a_negative_k_max_is_refused():
    # a negative degree is an error, not a run that checks nothing
    from spinor_s3 import verify

    for suite in verify.SUITES:
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            verify.run_suites([suite], k_max=-1, samples=100, seed=1)


def test_verify_defaults_are_those_of_run_suites():
    # the command line and an in-process caller run the same checks
    import inspect

    from spinor_s3 import verify
    from spinor_s3.cli import build_parser

    args = build_parser().parse_args(["verify"])
    params = inspect.signature(verify.run_suites).parameters
    assert {name: getattr(args, name) for name in params if name != "suites"} == {
        name: p.default for name, p in params.items() if name != "suites"}
    assert args.suites == list(verify.SUITES)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--rule", "simpson"])
    assert all(build_parser().parse_args(["verify", "--rule", rule]).rule == rule
               for rule in verify.RULES)


def test_verify_integral_mc_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "integral", "--rule", "mc",
        "--samples", "20000", "--seed", "3",
    )
    assert code == 0
    assert "monte carlo vs exact" in out


# -- usage and input errors: exit 2 with one error line, never a traceback --


def assert_usage_error(code, out, err, needle):
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert needle in lines[0]


def test_verify_negative_k_max_is_usage_error(capsys):
    # casimir at k-max -1 used to run zero checks and exit 0
    code, out, err = run(capsys, "verify", "--suite", "casimir", "--k-max", "-1")
    assert_usage_error(code, out, err, "--k-max")


def test_verify_empty_result_set_is_an_error(capsys, monkeypatch):
    import spinor_s3.cli as cli

    monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: [])
    code, out, err = run(capsys, "verify", "--suite", "casimir")
    assert_usage_error(code, out, err, "no checks ran")


@pytest.mark.parametrize("argv", [
    ("eigenbasis", "--k", "21"),
    ("verify", "--suite", "casimir", "--k-max", "21"),
    ("spectrum", "--k-max", "21"),
])
def test_degree_above_the_cap_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, out, err, f"exceeds the hard cap {DEFAULT_K_CAP}")


def test_cap_is_inclusive(capsys):
    # the spectrum and eigenbasis exports at k = 20 are run by
    # test_exports_at_the_cap_are_byte_identical
    assert DEFAULT_K_CAP == 20
    code, out, err = run(capsys, "verify", "--suite", "casimir", "--k-max", "20")
    assert (code, err) == (0, "")
    assert out.strip().endswith("42/42 checks passed")


@pytest.mark.parametrize("argv, needle", [
    (("eigenbasis", "--k", "-1"), "--k"),
    (("spectrum", "--k-max", "-1"), "--k-max"),
    (("spectrum", "--k-max", "-1", "--format", "json"), "--k-max"),
])
def test_negative_degree_is_usage_error(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, out, err, needle)


def test_verify_zero_samples_is_usage_error(capsys):
    # one sample has no variance estimate: every 3-sigma bound would
    # collapse to the 1e-12 slack and the Monte Carlo check would fail
    for samples in ("0", "1"):
        code, out, err = run(capsys, "verify", "--suite", "integral", "--samples", samples)
        assert_usage_error(code, out, err, "--samples")


def test_verify_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "integral", "--seed", "-1")
    assert_usage_error(code, out, err, "--seed")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--k-max", "1"),
    ("spectrum", "--k-max", "1", "--format", "json"),
    ("eigenbasis", "--k", "1"),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(missing))
    assert_usage_error(code, out, err, str(missing))
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ("spectrum", "--k-max", "0"),
    ("eigenbasis", "--k", "0"),
])
def test_empty_out_path_is_usage_error(capsys, argv):
    # an empty path names no file; it is not a request for stdout
    code, out, err = run(capsys, *argv, "--out", "")
    assert_usage_error(code, out, err, "cannot write --out")


def test_verify_transfer_fails_when_two_images_coincide(capsys, monkeypatch):
    # the image of |0>|1> replaced by that of |0>|0>: the two equal rows
    # form a component of their own, in which linalg._echelon_rank
    # eliminates one row against the other, so the rank comes out one short
    import spinor_s3.verify as verify

    closed = verify.transfer_table

    def collapsed(k):
        table = closed(k)
        if k:
            table[(0, 1)] = table[(0, 0)]
        return table

    monkeypatch.setattr(verify, "transfer_table", collapsed)
    code, out, _ = run(capsys, "verify", "--suite", "transfer", "--k-max", "2")
    assert code == 1
    assert "PASS  [transfer] images independent k=0" in out
    for k in (1, 2):
        assert f"FAIL  [transfer] images independent k={k}: rank {(k + 1) ** 2 - 1}" in out


@pytest.fixture
def wrong_dbar_factor(monkeypatch):
    """Dbar off by a factor 2: the abstract families fail their own
    eigenvector check for every k >= 1."""
    import spinor_s3.abstract_dirac as abstract_dirac

    closed = abstract_dirac.dbar_apply
    monkeypatch.setattr(abstract_dirac, "dbar_apply", lambda v: closed(v).scale(2))


@pytest.mark.parametrize("argv", [("spectrum", "--k-max", "2"), ("eigenbasis", "--k", "2")])
def test_a_failed_family_check_is_one_line(capsys, wrong_dbar_factor, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("internal verification failed: ")
    assert err.count("\n") == 1


def test_verify_reports_a_failed_family_check_as_fail_lines(capsys, wrong_dbar_factor):
    code, out, _ = run(capsys, "verify", "--suite", "quadratic,dirac,laplace", "--k-max", "2")
    assert code == 1
    for k in (1, 2):
        for suite, name in (("quadratic", "spectrum two ways"),
                            ("quadratic", "family union is a basis"),
                            ("dirac", "eigen-identity")):
            assert f"FAIL  [{suite}] {name} k={k}: " in out
        # the laplace suite checks the images, which no family enters
        for name in ("laplace eigenvalue", "dirac-laplace commute"):
            assert f"PASS  [laplace] {name} k={k}: " in out


def test_verify_ranks_the_one_slice_of_the_families(capsys, monkeypatch):
    # the minus vector with p = 0 replaced by its neighbour: the slice, and
    # with it every q slice, loses rank
    import spinor_s3.verify as verify

    families = verify.eigenbasis_abstract

    def corrupted(k):
        plus, minus = families(k)
        if not k:
            return plus, minus
        vectors = list(minus.vectors)
        j = minus.ps.index(0)
        vectors[j] = vectors[j + 1]
        return plus, minus._replace(vectors=tuple(vectors))

    monkeypatch.setattr(verify, "eigenbasis_abstract", corrupted)
    code, out, _ = run(capsys, "verify", "--suite", "quadratic", "--k-max", "3")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL  [quadratic] family union is a basis k={k}: rank {2 * (k + 1)} "
                      "on every q slice" for k in (1, 2, 3)]
    assert out.endswith("13/16 checks passed\n")


def test_verify_fails_on_a_false_quadratic_relation(capsys, monkeypatch):
    # the report's quadratic line is quadratic_check's own verdict
    import spinor_s3.verify as verify

    monkeypatch.setattr(verify, "quadratic_check", lambda block: False)
    code, out, _ = run(capsys, "verify", "--suite", "quadratic", "--k-max", "3")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL  [quadratic] quadratic relation k={k}: (Dbar + {k})(Dbar - {k + 2}) "
                      "= 0 on the 2(k+1) block" for k in range(4)]
    assert out.endswith("12/16 checks passed\n")


def laplace_lines(out):
    """The report's (eigenvalue, commute) status words, by degree."""
    lines = out.splitlines()
    return [(e.split()[0], c.split()[0]) for e, c in zip(lines[0:-1:2], lines[1:-1:2])]


def test_verify_dirac_fails_on_a_wrong_operator(capsys, monkeypatch):
    # D + 1 has the same eigensections, each with its eigenvalue shifted
    # by 1, so no section passes D sigma = lambda sigma
    import spinor_s3.verify as verify

    dirac = verify.dirac_section
    monkeypatch.setattr(verify, "dirac_section", lambda s: dirac(s) + s)
    code, out, _ = run(capsys, "verify", "--suite", "dirac", "--k-max", "2")
    assert code == 1
    lines = [line for line in out.splitlines() if "eigen-identity k=" in line]
    assert len(lines) == 3
    assert all(line.startswith("FAIL") for line in lines)


def test_verify_laplace_fails_on_a_wrong_eigenvalue(capsys, monkeypatch):
    # 2 Delta still commutes with D, but scales each eigensection by
    # twice the eigenvalue, which is 0 only at k = 0
    import spinor_s3.verify as verify

    laplace = verify.laplace_section
    monkeypatch.setattr(verify, "laplace_section", lambda s: laplace(s).scale(2))
    code, out, _ = run(capsys, "verify", "--suite", "laplace", "--k-max", "2")
    assert code == 1
    assert laplace_lines(out) == [("PASS", "PASS"), ("FAIL", "PASS"), ("FAIL", "PASS")]


def test_verify_laplace_fails_when_it_does_not_commute_with_dirac(capsys, monkeypatch):
    # Delta + l1 as the weights the identities read, while laplace_section
    # still runs Delta: the left field l1 commutes with beta_R, so the
    # eigenvalue lines lift, but not with D
    from spinor_s3 import geometry
    from spinor_s3.geometry import KillingPair

    wrong = geometry._combine(((geometry._laplace_weights(), 1),
                               (geometry._field_weights(KillingPair.left(1)), 1)))
    monkeypatch.setitem(geometry._OPERATORS, "Delta", lambda: (wrong,))
    code, out, _ = run(capsys, "verify", "--suite", "laplace", "--k-max", "2")
    assert code == 1
    assert laplace_lines(out) == [("PASS", "FAIL")] * 3


def test_gram_check_demands_the_exact_constant(monkeypatch):
    # a Gram matrix off by a constant factor is still diagonal and
    # proportional to 1/(C(k,p)C(k,q)); the verify check must fail it
    from spinor_s3 import verify
    from spinor_s3.exactnum import gauss
    from spinor_s3.transfer import gram_matrix

    good = verify._check_gram(2)
    assert [r.passed for r in good] == [True, True, True]

    def doubled(k):
        return [[v * gauss(2) for v in row] for row in gram_matrix(k)]

    monkeypatch.setattr(verify, "gram_matrix", doubled)
    assert [r.passed for r in verify._check_gram(2)] == [False, False, False]


# sha256 of verify reports.  The casimir,quadratic report was recorded
# while verify could still run its jobs on a thread pool and sorted the
# records afterwards, and while SpinorVector and KetVector still stored
# GaussianRational coefficients; the serial loop must print it byte for
# byte.  The reports with dirac or laplace lines were recorded again when
# those suites came to check slice q = 0 and lift it to every slice, and
# the laplace ones again when the commute lines came to read [D, Delta] = 0
# off the weights.  The reports with transfer lines were recorded again
# when its equivariance and harmonicity lines came to be derived from the
# ladder and identities of weights, and the reports with dirac or laplace
# lines again when the lifts came to be worded like those derived lines.
# Each time only the detail text of those lines changed.
@pytest.mark.parametrize("argv, digest", [
    (("verify", "--suite", "all", "--k-max", "3", "--samples", "20000", "--seed", "3"),
     "eba6d539f2f825e593f6d3b421b9e8c8571c7a804e7992f2d0adbd872b90c22d"),
    (("verify", "--suite", "laplace,casimir,integral", "--k-max", "2",
      "--samples", "20000", "--seed", "3"),
     "bc6bbb219e45c38679681990b45aa54e6b32461599a4858742a3bdc53631db4e"),
    (("verify", "--suite", "transfer,dirac,laplace"),
     "f136543872fdd296eaadb065f9c1faba76694d463eda208499cb6fc8e0b0b7c1"),
    (("verify", "--suite", "casimir,quadratic"),
     "7d91764e4932bdf69eac62e4239fbe5cc9bc673a70f6f7d8bb3caf5c77a674fd"),
    (("verify", "--suite", "laplace", "--k-max", "10"),
     "5977532bdad60247d81225135c186898c35e073b3922e5ea772ce211cb61a327"),
])
def test_verify_reports_are_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

