"""End-to-end runs of the command line front end, including exit codes."""

import json
import time

import pytest

from symunion import cli, construct, corpus, invariant
from symunion.construct import SymUnionSpec, to_spec_doc
from symunion.diagram import MAX_CROSSINGS, parse_pd
from symunion.report import VerificationReport
from symunion.tangle import kt_tangle, numerator, rational_tangle


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


def _with(key, value):
    doc = to_spec_doc(corpus.SPEC_FIXTURES["kt_union_1"])
    doc[key] = value
    return doc


class TestMalformedDocuments:
    """A document of the wrong shape is bad input (exit 2) with a one-line
    error, never a traceback."""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            _with("tangles", [5]),
            _with("tangles", [{"crossings": [], "boundary": [1, 2]}]),
            _with("marked_arcs", 5),
            _with("partial", {"crossings": 5}),
            _with("partial", {"crossings": [[1, 2, 3, 4]], "labels": [1]}),
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


class TestInputCaps:
    """A document that describes more than MAX_CROSSINGS crossings is bad
    input, refused before anything is built."""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "tangle", [{"kt": 1_000_000}, {"rational": [1_000_000]}], ids=["kt", "rational"]
    )
    def test_oversized_tangle_is_exit_2_at_once(self, command, tangle, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(_with("tangles", [tangle])))
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
        p = tmp_path / "trefoil.txt"
        p.write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        rc, _, err = run(capsys, "invariants", str(p), "--jones")
        assert rc == 3
        assert "TooLarge" in err

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

    def test_flag_subsets(self, spec_path, capsys):
        rc, out, _ = run(capsys, "verify", str(spec_path), "--lemma", "--format", "doc")
        assert rc == 0
        assert len(json.loads(out)) == 1

    def test_union_is_built_once_and_its_determinant_taken_once(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = corpus.SPEC_FIXTURES["kt_union_3"]
        union = construct.build_symmetric_union(spec)
        path = tmp_path / "kt_union_3.json"
        path.write_text(json.dumps(to_spec_doc(spec)))

        searched, matrices = [], []
        search, matrix = construct._assemble, invariant.region_matrix

        def counting_search(s, **kwargs):
            searched.append(s)
            return search(s, **kwargs)

        def counting_matrix(d):
            matrices.append(d)
            return matrix(d)

        monkeypatch.setattr(construct, "_assemble", counting_search)
        monkeypatch.setattr(invariant, "region_matrix", counting_matrix)
        rc, _, _ = run(capsys, "verify", str(path), "--format", "doc")
        assert rc == 0
        # the attachment search runs once for the union (and once for its
        # zero replacement, a different spec)
        assert sum(s == spec for s in searched) == 1
        assert sum(d.crossings == union.crossings for d in matrices) == 1

    def test_failing_check_is_exit_1(self, spec_path, capsys, monkeypatch):
        bad = VerificationReport("alexander product formula")
        bad.add("union polynomial equals product", False, "forced for the test")
        monkeypatch.setattr(cli, "verify_product_formula", lambda spec: bad)
        rc, out, _ = run(capsys, "verify", str(spec_path), "--theorem1")
        assert rc == 1
        assert "FAIL" in out
