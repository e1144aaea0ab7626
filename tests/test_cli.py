"""End-to-end runs of the command line front end, including exit codes."""

import importlib.util
import io
import json
import time
from pathlib import Path

import pytest

from helpers import FAMILY_POOL, pool_variant
from symunion import cli, construct, corpus, invariant
from symunion.construct import SymUnionSpec, to_spec_doc
from symunion.diagram import MAX_CROSSINGS, parse_pd
from symunion.report import VerificationReport
from symunion.tangle import kt_tangle, numerator, parse_tangle, rational_tangle


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture()
def spec_path(tmp_path, capsys):
    path = tmp_path / "spec.json"
    rc, out, _ = run(capsys, "fixtures", "kt_union_1", "-o", str(path))
    assert rc == 0
    return path


class TestFixtures:
    def test_listing_names_every_fixture(self, capsys):
        rc, out, _ = run(capsys, "fixtures")
        assert rc == 0
        for name in list(corpus.SPEC_FIXTURES) + list(corpus.DIAGRAM_FIXTURES):
            assert name in out

    def test_unknown_name_is_an_input_error(self, capsys):
        rc, _, err = run(capsys, "fixtures", "no_such_thing")
        assert rc == 2
        assert "no_such_thing" in err

    def test_spec_round_trips(self, spec_path):
        doc = json.loads(spec_path.read_text())
        assert set(doc) == {"partial", "marked_arcs", "tangles"}
        assert doc["marked_arcs"] == [5, 8]

    @pytest.mark.parametrize(
        "name, parse, fixture",
        [
            ("trefoil", parse_pd, corpus.DIAGRAM_FIXTURES["trefoil"]),
            ("kt_tangle_3", parse_tangle, corpus.TANGLE_FIXTURES["kt_tangle_3"]),
        ],
    )
    def test_diagram_and_tangle_round_trip(self, name, parse, fixture, capsys):
        rc, out, err = run(capsys, "fixtures", name)
        assert (rc, err) == (0, "")
        assert parse(json.loads(out)) == fixture


class TestBuild:
    def test_doc_output(self, spec_path, tmp_path, capsys):
        out_path = tmp_path / "built.json"
        rc, _, _ = run(capsys, "build", str(spec_path), "-o", str(out_path))
        assert rc == 0
        d = parse_pd(json.loads(out_path.read_text()))
        assert len(d.crossings) == 15
        assert "a0" in d.labels.values()

    def test_text_output(self, spec_path, capsys):
        rc, out, _ = run(capsys, "build", str(spec_path), "--format", "text")
        assert rc == 0
        assert len(parse_pd(out.strip()).crossings) == 15

    def test_bad_spec_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"partial": "X[1,2,3]"}')
        rc, _, err = run(capsys, "build", str(p))
        assert rc == 2
        assert "error:" in err

    def test_missing_file_is_exit_2(self, capsys):
        rc, _, _ = run(capsys, "build", "/nonexistent/spec.json")
        assert rc == 2

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_repeated_marked_edge_is_exit_2(self, command, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(_set("marked_arcs", value=[5, 5])))
        rc, out, err = run(capsys, command, str(p))
        assert rc == 2
        assert err == "error: ConstructError: marked arcs must be distinct edges\n"
        assert out == ""


def _set(*path, value):
    """The kt_union_1 spec document with the entry at path set to value."""
    doc = to_spec_doc(corpus.SPEC_FIXTURES["kt_union_1"])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestMalformedDocuments:
    """A document of the wrong shape is bad input (exit 2) with a one-line
    error, never a traceback."""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            _set("tangles", value=[5]),
            _set("tangles", value=[{"crossings": [], "boundary": [1, 2]}]),
            _set("marked_arcs", value=5),
            _set("partial", value={"crossings": 5}),
            _set("partial", value={"crossings": [[1, 2, 3, 4]], "labels": [1]}),
        ],
        ids=["top-level-list", "tangle-not-object", "boundary-not-object",
             "marked-arcs-not-list", "crossings-not-list", "labels-not-object"],
    )
    def test_wrong_shape_is_exit_2(self, command, doc, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, command, str(p))
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize("value", ["", {}, "ab"], ids=["empty-string", "object", "string"])
    def test_tangles_not_an_array_is_exit_2(self, command, value, tmp_path, capsys):
        # "" and {} read as no tangles, which built the bare union
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(
            {"partial": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "marked_arcs": [1], "tangles": value}
        ))
        rc, out, err = run(capsys, command, str(p))
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""


class TestIntegerFields:
    """Every integer field must be a JSON integer: a bool, a float or a
    string standing for a number is bad input, never converted."""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [
            _set("marked_arcs", value="58"),
            _set("marked_arcs", value=[5.9, 8.2]),
            _set("marked_arcs", 0, value=True),
            _set("partial", "crossings", 0, 0, value=1.5),
            _set("partial", "free_loops", value="0"),
            _set("tangles", 0, "crossings", 0, 0, value="1"),
            _set("tangles", 0, "boundary", "NW", value=1.0),
            _set("tangles", 0, "closed_loops", value=False),
            _set("tangles", 0, value={"kt": "3"}),
            _set("tangles", 0, value={"kt": 3.0}),
        ],
        ids=["marked-arcs-string", "marked-arcs-floats", "marked-arcs-bool",
             "pd-entry-float", "free-loops-string", "tangle-entry-string",
             "boundary-float", "closed-loops-bool", "kt-string", "kt-float"],
    )
    def test_non_integer_is_exit_2(self, command, doc, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, command, str(p))
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "expected an integer" in err
        assert "Traceback" not in err
        assert out == ""


class TestInputCaps:
    """A document that describes more than MAX_CROSSINGS crossings is bad
    input, refused before anything is built."""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "tangle", [{"kt": 1_000_000}, {"rational": [1_000_000]}], ids=["kt", "rational"]
    )
    def test_oversized_tangle_is_exit_2_at_once(self, command, tangle, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(_set("tangles", value=[tangle])))
        start = time.perf_counter()
        rc, out, err = run(capsys, command, str(p))
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_oversized_union_is_exit_2_at_once(self, command, tmp_path, capsys):
        """Four kt(1000) tangles, each under the cap, over a 12-crossing
        partial: the union would have 2 * 12 + 4 * 1999 = 8020 crossings."""
        partial = numerator(rational_tangle([2, 2, 2, 2, 2, 1, 1]))
        doc = to_spec_doc(SymUnionSpec(partial, (12, 14, 1, 18, 20), (kt_tangle(3),) * 4))
        doc["tangles"] = [{"kt": 1000}] * 4
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        rc, out, err = run(capsys, command, str(p))
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"8020 crossings; at most {MAX_CROSSINGS}" in err
        assert "Traceback" not in err
        assert out == ""

    def test_oversized_pd_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text(" ".join(["X[1,2,3,4]"] * (MAX_CROSSINGS + 1)))
        rc, out, err = run(capsys, "invariants", str(p))
        assert rc == 2
        assert f"at most {MAX_CROSSINGS}" in err
        assert out == ""


class TestInvariants:
    def test_default_runs_everything(self, spec_path, tmp_path, capsys):
        built = tmp_path / "built.json"
        assert run(capsys, "build", str(spec_path), "-o", str(built))[0] == 0
        rc, out, _ = run(capsys, "invariants", str(built))
        assert rc == 0
        assert "methods agree: yes" in out
        assert "jones:" in out

    @pytest.mark.parametrize(
        "name, text",
        [
            ("hopf.txt", "X[1,3,2,4] X[3,1,4,2]"),
            ("loops.json", '{"crossings": [], "free_loops": 2}'),
        ],
    )
    def test_default_run_skips_jones_on_a_link(self, tmp_path, capsys, name, text):
        p = tmp_path / name
        p.write_text(text)
        rc, out, err = run(capsys, "invariants", str(p))
        assert (rc, err) == (0, "")
        assert "alexander (region matrix):" in out and "jones" not in out
        rc, out, _ = run(capsys, "invariants", str(p), "--format", "doc")
        assert rc == 0
        doc = json.loads(out)
        assert "alexander" in doc and "jones" not in doc

    @pytest.mark.parametrize("args", [["--jones"], ["--alexander", "--jones"]])
    def test_jones_asked_for_on_a_link_is_exit_2(self, tmp_path, capsys, args):
        p = tmp_path / "hopf.txt"
        p.write_text("X[1,3,2,4] X[3,1,4,2]")
        rc, out, err = run(capsys, "invariants", str(p), *args)
        assert rc == 2
        assert err.startswith("error: MultiComponentInput:") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("fmt", ["text", "doc"])
    @pytest.mark.parametrize("args", [["--conway"], ["--alexander", "--conway"]])
    def test_conway_asked_for_on_a_link_is_exit_2(self, tmp_path, capsys, args, fmt):
        # the Hopf link's Alexander polynomial does not vanish, so it has no
        # Conway form here; the default run leaves the line out instead
        p = tmp_path / "hopf.txt"
        p.write_text("X[1,3,2,4] X[3,1,4,2]")
        rc, out, err = run(capsys, "invariants", str(p), *args, "--format", fmt)
        assert rc == 2
        assert err.startswith("error: UnsupportedLinkCase:") and err.count("\n") == 1
        assert out == ""
        rc, out, err = run(capsys, "invariants", str(p), "--format", fmt)
        assert (rc, err) == (0, "")
        assert "alexander" in out and "conway" not in out

    @pytest.mark.parametrize("args", [[], ["--conway"]])
    def test_conway_of_a_split_link_is_zero(self, tmp_path, capsys, args):
        p = tmp_path / "loops.json"
        p.write_text('{"crossings": [], "free_loops": 2}')
        rc, out, err = run(capsys, "invariants", str(p), *args)
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == "conway: 0"
        rc, out, err = run(capsys, "invariants", str(p), *args, "--format", "doc")
        assert (rc, err) == (0, "")
        assert json.loads(out) == {"alexander": "0", "conway": "0", "crossings": 0}

    def test_fox_disagreement_is_exit_1(self, tmp_path, capsys, monkeypatch):
        fox = cli.alexander_fox
        monkeypatch.setattr(cli, "alexander_fox", lambda p: fox(p).shift(1))
        path = tmp_path / "trefoil.txt"
        path.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        rc, out, err = run(capsys, "invariants", str(path))
        assert (rc, err) == (1, "")
        assert out.splitlines()[-1] == "methods agree: NO"
        rc, out, err = run(capsys, "invariants", str(path), "--format", "doc")
        assert (rc, err) == (1, "")
        assert json.loads(out)["alexander_methods_agree"] is False

    def test_doc_format_with_selected_flags(self, tmp_path, capsys):
        p = tmp_path / "trefoil.txt"
        p.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        rc, out, _ = run(capsys, "invariants", str(p), "--jones", "--format", "doc")
        assert rc == 0
        doc = json.loads(out)
        assert "jones" in doc and "alexander" not in doc

    def test_too_large_is_exit_3(self, tmp_path, capsys, monkeypatch):
        from symunion import invariant

        monkeypatch.setattr(invariant, "_STATE_LIMIT", 1)
        # two twist boxes: the sweep keeps both pairings of the first box's
        # ends (the trefoil is one cycle, whose sweep keeps a single state)
        p = tmp_path / "figure8.txt"
        p.write_text("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
        rc, _, err = run(capsys, "invariants", str(p), "--jones")
        assert rc == 3
        assert "TooLarge" in err

    def test_too_many_bits_is_exit_3(self, tmp_path, capsys, monkeypatch):
        from symunion import invariant

        monkeypatch.setattr(invariant, "_BIT_LIMIT", 64)
        p = tmp_path / "figure8.txt"
        p.write_text("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
        rc, _, err = run(capsys, "invariants", str(p), "--jones")
        assert rc == 3
        assert "TooLarge" in err and "limits are 50000 states and 64 bits" in err

    def test_cancelled_is_exit_3(self, tmp_path, capsys, monkeypatch):
        det = invariant.det_laurent

        def cancelled_det(rows, cancel=None):
            tok = invariant.CancelToken()
            tok.cancel()
            return det(rows, tok)

        monkeypatch.setattr(invariant, "det_laurent", cancelled_det)
        p = tmp_path / "trefoil.txt"
        p.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        rc, out, err = run(capsys, "invariants", str(p), "--alexander")
        assert rc == 3
        assert err.startswith("error: Cancelled:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""


class TestVerify:
    def test_all_checks_pass_text(self, spec_path, capsys):
        rc, out, _ = run(capsys, "verify", str(spec_path))
        assert rc == 0
        assert "FAIL" not in out
        assert "PASS: alexander product formula" in out
        assert "PASS: fold-down epimorphism certificate" in out

    def test_doc_output_is_deterministic(self, spec_path, capsys):
        rc1, out1, _ = run(capsys, "verify", str(spec_path), "--format", "doc")
        rc2, out2, _ = run(capsys, "verify", str(spec_path), "--format", "doc")
        assert rc1 == rc2 == 0
        assert out1 == out2
        titles = [r["title"] for r in json.loads(out1)]
        assert len(titles) == 4

    def test_spec_from_stdin(self, spec_path, capsys, monkeypatch):
        rc, want, _ = run(capsys, "verify", str(spec_path), "--format", "doc")
        monkeypatch.setattr("sys.stdin", io.StringIO(spec_path.read_text()))
        rc2, out, err = run(capsys, "verify", "-", "--format", "doc")
        assert (rc, rc2, err) == (0, 0, "")
        assert out == want

    def test_flag_subsets(self, spec_path, capsys):
        rc, out, _ = run(capsys, "verify", str(spec_path), "--lemma", "--format", "doc")
        assert rc == 0
        assert len(json.loads(out)) == 1

    def test_timings_doc_has_wall_seconds_per_report(self, spec_path, capsys):
        rc, out, _ = run(capsys, "verify", str(spec_path), "--format", "doc", "--timings")
        assert rc == 0
        reports = json.loads(out)
        assert len(reports) == 3 + len(corpus.SPEC_FIXTURES["kt_union_1"].tangles)
        assert sorted(reports[0]["timings"]) == ["build", "wall"]
        assert all(list(r["timings"]) == ["wall"] for r in reports[1:])
        for r in reports:
            assert all(type(v) is float and v >= 0 for v in r["timings"].values())

    def test_timings_text_has_wall_seconds_per_report(self, spec_path, capsys):
        rc, out, _ = run(capsys, "verify", str(spec_path), "--timings")
        assert rc == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 3 + len(corpus.SPEC_FIXTURES["kt_union_1"].tangles)
        for i, block in enumerate(blocks):
            times = dict(line[len("  time "):].split(": ") for line in block.splitlines()
                         if line.startswith("  time "))
            assert list(times) == (["build", "wall"] if i == 0 else ["wall"])
            assert all(t.endswith("s") and float(t[:-1]) >= 0 for t in times.values())

    def test_no_timings_without_the_flag(self, spec_path, capsys):
        rc, out, _ = run(capsys, "verify", str(spec_path), "--format", "doc")
        assert rc == 0
        assert all("timings" not in r for r in json.loads(out))
        rc, out, _ = run(capsys, "verify", str(spec_path))
        assert rc == 0
        assert "  time " not in out

    def test_union_is_built_once_and_its_determinant_taken_once(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = corpus.SPEC_FIXTURES["kt_union_3"]
        union = construct.build_symmetric_union(spec)
        path = tmp_path / "kt_union_3.json"
        path.write_text(json.dumps(to_spec_doc(spec)))

        built, matrices = [], []
        build, matrix = construct.build_symmetric_union, invariant.region_matrix

        def counting_build(s):
            built.append(s)
            return build(s)

        def counting_matrix(d):
            matrices.append(d)
            return matrix(d)

        monkeypatch.setattr(construct, "build_symmetric_union", counting_build)
        monkeypatch.setattr(invariant, "region_matrix", counting_matrix)
        rc, _, _ = run(capsys, "verify", str(path), "--format", "doc")
        assert rc == 0
        # one build, for the union; the zero replacement and the fraction
        # complements are read off it
        assert built == [spec]
        assert sum(d.crossings == union.crossings for d in matrices) == 1

    def test_equal_tangles_share_one_numerator_closure(self, tmp_path, capsys, monkeypatch):
        # kt_union_3 holds kt(3) in all three regions: one Alexander
        # polynomial each for the union, the partial and N(kt(3)), and one
        # phase 1 per region for both closures of its complement; the zero
        # replacement is the fourth, a diagram made from the union's mates
        spec = corpus.SPEC_FIXTURES["kt_union_3"]
        path = tmp_path / "kt_union_3.json"
        path.write_text(json.dumps(to_spec_doc(spec)))
        computed, complements = [], []
        alexander, complement = invariant.alexander_region, invariant.complement_closures

        def counting(d, cancel=None):
            computed.append(d)
            return alexander(d, cancel)

        def counting_complements(k, region, cancel):
            complements.append(region)
            return complement(k, region, cancel)

        monkeypatch.setattr(invariant, "alexander_region", counting)
        monkeypatch.setattr(invariant, "complement_closures", counting_complements)
        rc, out, _ = run(capsys, "verify", str(path), "--format", "doc")
        assert rc == 0
        assert len(computed) == 4
        assert computed[0].meta is None
        assert len(computed[0].crossings) == 2 * len(spec.partial.crossings)
        assert complements == [1, 2, 3]
        factors = [json.loads(out)[1]["data"][f"numerator factor {i}"] for i in (1, 2, 3)]
        assert factors == [factors[0]] * 3

    def test_parser_is_built_once_and_keeps_no_flags(self, spec_path, capsys):
        assert cli._parser() is cli._parser()
        rc, out, _ = run(capsys, "verify", str(spec_path), "--lemma", "--format", "doc")
        assert rc == 0
        assert len(json.loads(out)) == 1
        rc, out, _ = run(capsys, "verify", str(spec_path), "--format", "doc")
        assert rc == 0
        n = len(corpus.SPEC_FIXTURES["kt_union_1"].tangles)
        assert len(json.loads(out)) == 3 + n

    def test_spec_without_tangles_passes_with_a_vacuous_lemma(self, tmp_path, capsys):
        trefoil = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        path = tmp_path / "no_tangles.json"
        path.write_text(json.dumps(to_spec_doc(SymUnionSpec(trefoil, (1,), ()))))
        rc, out, _ = run(capsys, "verify", str(path), "--format", "doc")
        assert rc == 0
        reports = json.loads(out)
        assert [r["passed"] for r in reports] == [True] * 3
        lemma = reports[0]
        assert lemma["title"] == "zero replacement collapses the polynomial"
        assert lemma["checks"] == []
        assert "vacuous" in lemma["data"]["tangle regions"]

    def test_every_pool_variant_passes(self):
        # all four certificates on the benchmark's 64 scaling-family
        # variants, the split zero replacements among them
        for key in sorted(FAMILY_POOL):
            reports = cli.verify_reports(pool_variant(key))
            assert [r.passed for r in reports] == [True] * len(reports), key

    def test_failing_check_is_exit_1(self, spec_path, capsys, monkeypatch):
        bad = VerificationReport("alexander product formula")
        bad.add("union polynomial equals product", False, "forced for the test")
        monkeypatch.setattr(cli, "verify_product_formula", lambda spec: bad)
        rc, out, _ = run(capsys, "verify", str(spec_path), "--theorem1")
        assert rc == 1
        assert "FAIL" in out


def test_verify_documents_match_the_pin_file():
    """`verify --format doc` on the 7 corpus specs and on the special cases
    scripts/pin_verify_docs.py names, exit status and output byte for
    byte, as that script wrote them."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "pin_verify_docs.py"
    loader = importlib.util.spec_from_file_location("pin_verify_docs", path)
    pins = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(pins)
    assert pins.documents() == json.loads(pins.PIN_FILE.read_text())
