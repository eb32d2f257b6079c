import hashlib
import json

import pytest

from hatilt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPaths:
    def test_dyck_csv_rows(self, capsys):
        code, out, _ = run(capsys, "paths", "--d", "3", "--n", "4", "--dyck", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5
        assert rows[0].split(",")[1] == "1 2 3"

    def test_tiny_grid(self, capsys):
        code, out, _ = run(capsys, "paths", "--d", "1", "--n", "1", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 paths

    def test_orbits(self, capsys):
        code, out, _ = run(capsys, "paths", "--d", "3", "--n", "4", "--orbits")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["orbits"]) == 5
        assert all(len(o["elements"]) == 7 for o in doc["orbits"])
        for o in doc["orbits"]:
            assert o["elements"][0] == o["representative"]

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "paths", "--d", "2", "--n", "3", "--format", "json")
        _, out2, _ = run(capsys, "paths", "--d", "2", "--n", "3", "--format", "json")
        assert out1 == out2

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "paths", "--d", "2", "--n", "3", "--orbits", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_usage_error_on_bad_grid(self, capsys):
        code, _, err = run(capsys, "paths", "--d", "0", "--n", "4")
        assert code == 2

    def test_orbits_need_coprime(self, capsys):
        code, _, _ = run(capsys, "paths", "--d", "2", "--n", "4", "--orbits")
        assert code == 2

    def test_missing_flags(self, capsys):
        assert main(["paths", "--d", "3"]) == 2


class TestQuiver:
    def test_algebra_B_has_35_vertices(self, capsys):
        code, out, _ = run(capsys, "quiver", "--n", "4", "--d", "3", "--algebra", "B")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 35

    def test_algebra_B0(self, capsys):
        code, out, _ = run(capsys, "quiver", "--n", "4", "--d", "3", "--algebra", "B0")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 5
        assert len(doc["arrows"]) == 5
        assert len(doc["relations"]) == 2

    def test_algebra_lambda_vertices(self, capsys):
        code, out, _ = run(capsys, "quiver", "--n", "2", "--d", "3", "--algebra", "Lambda")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 12

    def test_algebra_A_dot(self, capsys):
        # --n 4 --d 3 names the model (d, n) = (3, 4), so A has 35 vertices
        code, out, _ = run(
            capsys, "quiver", "--n", "4", "--d", "3", "--algebra", "A", "--format", "dot"
        )
        assert code == 0
        nodes = [l for l in out.splitlines() if "[label=" in l and "->" not in l]
        assert len(nodes) == 35

    def test_algebra_tex(self, capsys):
        code, out, _ = run(
            capsys, "quiver", "--n", "2", "--d", "3", "--algebra", "Tr", "--format", "tex"
        )
        assert code == 0
        assert out.startswith("\\begin{tabular}")

    def test_pi_and_tr_agree(self, capsys):
        _, out1, _ = run(capsys, "quiver", "--n", "2", "--d", "3", "--algebra", "Pi")
        _, out2, _ = run(capsys, "quiver", "--n", "2", "--d", "3", "--algebra", "Tr")
        assert out1 == out2
        assert len(json.loads(out1)["vertices"]) == 10

    # SHA-256 of each JSON export at --n 2 --d 3: the presentation and the
    # algebra named by each --algebra value must reproduce these bytes
    EXPORT_SHA256 = {
        "A": "adc56eab0076977f83d48f61063ba014aba4f6a8d1bbb66c0b4b704cf0976f58",
        "B0": "1b9353363023f07d4bcdcb4917d56cbe98baaf1403e4519b113a91ed70a08f88",
        "B": "fd9223c3380fc9b5846d1142f28ea04647b4ec6b35989b9b4b724ce6ac31f62e",
        "Lambda": "8ecfb761dca799a43bde9f21afd191c5b2a3f6a97e1731d3c96a0811837fe96d",
        "Pi": "c712b20d8f8f14ce8160a677d64035fa5dafaf40aa00a0c86c24813624f5dd09",
        "Tr": "c712b20d8f8f14ce8160a677d64035fa5dafaf40aa00a0c86c24813624f5dd09",
    }

    @pytest.mark.parametrize("algebra", sorted(EXPORT_SHA256))
    def test_json_export_is_pinned(self, capsys, algebra):
        code, out, _ = run(
            capsys, "quiver", "--n", "2", "--d", "3", "--algebra", algebra, "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.EXPORT_SHA256[algebra]

    # SHA-256 of the JSON exports of B0, B, Lambda and Pi at (d, n) = (4, 3)
    # and (3, 4), where the structure constants of the corner e A e differ
    # from those of End(P) built through chain maps, but the presentations
    # do not; the two models export the same bytes
    LARGER_EXPORT_SHA256 = {
        "B0": "f4de1fe3fbe308621ff98f0afad8af3ef2e15090e0a5dfb1b7054175a15e6423",
        "B": "3e9c300f43cf6850868e67f453165cd4b3264f390731b0858ed8199445ccf174",
        "Lambda": "bcec9298395f307643ebbff4be78f1d83f4b47cebdbe03c2e015775dd5509f8a",
        "Pi": "9f5e88725401fcf2c6a4000161b24a412c49db424787706e13d16bd72631eaf4",
    }

    @pytest.mark.parametrize("algebra", sorted(LARGER_EXPORT_SHA256))
    @pytest.mark.parametrize("d, n", [(4, 3), (3, 4)])
    def test_larger_json_export_is_pinned(self, capsys, d, n, algebra):
        code, out, _ = run(capsys, "quiver", "--n", str(n), "--d", str(d), "--algebra", algebra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.LARGER_EXPORT_SHA256[algebra]

    def test_non_coprime_is_construction_failure(self, capsys):
        # for quiver construction a bad gcd is a precondition failure (1),
        # unlike the verify command where it is a usage error (2)
        code, _, err = run(capsys, "quiver", "--n", "3", "--d", "3", "--algebra", "B")
        assert code == 1


class TestVerify:
    def test_combinatorial_claims_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "4", "--d", "3",
            "--claims", "dyck_count,orbit_normal_form,rigidity,generation",
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["status"] for c in doc["claims"]] == ["pass"] * 4
        assert doc["params"] == {"d": 3, "n": 4}
        assert doc["schema"] == 1

    def test_gcd_violation_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "3", "--d", "3", "--claims", "all")
        assert code == 2

    def test_unknown_claim(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "2", "--d", "3", "--claims", "nope")
        assert code == 2

    def test_report_file_and_exit_zero(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify", "--n", "2", "--d", "3",
            "--claims", "dyck_count,gldim_B0",
            "--report", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["claims"][1]["value"]["gldim"] == 1

    def test_unwritable_report_is_usage_error(self, capsys, monkeypatch, tmp_path):
        import hatilt.verify

        def run_claims(*args, **kwargs):
            raise AssertionError("a claim ran before the report path was checked")

        monkeypatch.setattr(hatilt.verify, "run_claims", run_claims)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys,
            "verify", "--d", "3", "--n", "2",
            "--claims", "dyck_count",
            "--report", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.parametrize("claims", [",", " , ,", ""])
    def test_empty_claim_list_is_usage_error(self, capsys, claims):
        code, out, err = run(capsys, "verify", "--d", "3", "--n", "2", "--claims", claims)
        assert code == 2
        assert out == ""
        assert "no claims" in err

    def test_repeated_budget_key_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--d", "3", "--n", "2",
            "--claims", "dyck_count",
            "--budget", "iso_budget=5,iso_budget=7",
        )
        assert code == 2
        assert out == ""
        assert "iso_budget" in err

    def test_budget_exhaustion_exit_three(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "2", "--d", "3",
            "--claims", "gldim_B",
            "--budget", "max_resolution_length=2",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["claims"][0]["status"] == "skipped"

    @pytest.mark.parametrize("d, n", [(1, 2), (2, 1)])
    def test_degenerate_idempotent_corner_is_skipped(self, capsys, d, n):
        # d = ceil(d/n): there is no smaller Auslander algebra to compare with
        code, out, _ = run(
            capsys,
            "verify", "--d", str(d), "--n", str(n),
            "--claims", "idempotent_corner",
        )
        assert code == 3
        claim = json.loads(out)["claims"][0]
        assert claim["status"] == "skipped"
        assert claim["value"] == {
            "reason": f"the smaller Auslander algebra degenerates: d = ceil(d/n) = {d}"
        }

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_budget_value_is_usage_error(self, capsys, value):
        code, out, err = run(
            capsys,
            "verify", "--n", "2", "--d", "3",
            "--claims", "gldim_A",
            "--budget", f"max_resolution_length={value}",
        )
        assert code == 2
        assert out == ""
        assert "max_resolution_length" in err

    def test_deterministic_modulo_ms(self, capsys):
        argv = ["verify", "--n", "2", "--d", "3", "--claims", "dyck_count,rigidity"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        for c in doc1["claims"] + doc2["claims"]:
            c["ms"] = 0
        assert doc1 == doc2

    def test_inconclusive_iso_search_is_skipped(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify", "--d", "3", "--n", "2",
            "--claims", "endo_replicate",
            "--budget", "iso_budget=1",
            "--report", str(report),
        )
        assert code == 3
        doc = json.loads(out)
        claim = doc["claims"][0]
        assert claim["status"] == "skipped"
        assert "budget" in claim["value"]["reason"]
        assert json.loads(report.read_text()) == doc

    def test_claim_exception_is_error_exit_four(self, capsys, monkeypatch, tmp_path):
        import hatilt.verify

        def gldim(*args, **kwargs):
            raise AssertionError("boom")

        monkeypatch.setattr(hatilt.verify, "gldim", gldim)
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify", "--d", "3", "--n", "2",
            "--claims", "dyck_count,gldim_A",
            "--report", str(report),
        )
        assert code == 4
        doc = json.loads(report.read_text())
        assert doc == json.loads(out)
        dyck, gldim_a = doc["claims"]
        assert dyck["name"] == "dyck_count" and dyck["status"] == "pass"
        assert gldim_a["name"] == "gldim_A"
        assert gldim_a["status"] == "error"
        assert gldim_a["value"] == {"reason": "AssertionError: boom"}

    @pytest.mark.parametrize("fault", ["dimension_mismatch", "not_isomorphic"])
    def test_b0_presentation_fault_fails_the_claim(self, capsys, monkeypatch, fault):
        import hatilt.verify

        if fault == "dimension_mismatch":
            def present(fd):
                raise ValueError("presentation mismatch: rebuilt dimension 4 != 3")

            monkeypatch.setattr(hatilt.verify, "presentation_data", present)
        else:
            monkeypatch.setattr(hatilt.verify, "iso_test", lambda *args, **kwargs: None)
        code, out, _ = run(
            capsys, "verify", "--d", "3", "--n", "2", "--claims", "b0_presentation"
        )
        assert code == 1
        claim = json.loads(out)["claims"][0]
        assert claim["status"] == "fail"
        assert claim["value"]["reason"]

    def test_preprojective_iso_search_obeys_the_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--d", "3", "--n", "2",
            "--claims", "preprojective",
            "--budget", "iso_budget=1",
        )
        assert code == 3
        claim = json.loads(out)["claims"][0]
        assert claim["status"] == "skipped"
        assert "budget" in claim["value"]["reason"]

    def test_rejected_generation_certificate_fails_the_claim(self, capsys, monkeypatch):
        import hatilt.verify

        def certificate(d, n):
            raise RuntimeError("dependency order violated")

        monkeypatch.setattr(hatilt.verify, "generation_certificate", certificate)
        code, out, _ = run(
            capsys, "verify", "--d", "3", "--n", "2", "--claims", "generation"
        )
        assert code == 1
        claim = json.loads(out)["claims"][0]
        assert claim["status"] == "fail"
        assert claim["value"]["reason"] == "dependency order violated"


class TestHomdim:
    def test_interleaving_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "homdim", "--n", "4", "--d", "3", "--from", "1,2,4,6@0", "--to", "1,3,5,7@0",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_identity(self, capsys):
        code, out, _ = run(
            capsys,
            "homdim", "--n", "4", "--d", "3", "--from", "1,2,4,6@0", "--to", "1,2,4,6@0",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_shifted_pair_with_linear_algebra(self, capsys):
        code, out, _ = run(
            capsys,
            "homdim", "--n", "4", "--d", "3",
            "--from", "2,3,5,7@0", "--to", "1,2,4,6@1", "--linear-algebra",
        )
        assert code == 0
        assert out.startswith("1 ")

    def test_algebra_over_budget_exits_three_without_traceback(self, capsys, monkeypatch):
        # at (7, 6) the algebra exceeds its dimension budget; the build is
        # planted here so the test does not spend seconds reaching it
        import hatilt.quiveralg

        def over_budget(*args, **kwargs):
            raise hatilt.quiveralg.BudgetError("algebra dimension exceeds budget 40000")

        monkeypatch.setattr(hatilt.quiveralg, "build_auslander_algebra", over_budget)
        code, out, err = run(
            capsys,
            "homdim", "--n", "7", "--d", "6", "--from", "1,2,3,4,5,6,7@0",
            "--to", "1,2,3,4,5,6,7@0", "--linear-algebra",
        )
        assert (code, out) == (3, "")
        assert err == "budget exhausted: algebra dimension exceeds budget 40000\n"

    def test_malformed_coordinates(self, capsys):
        code, _, _ = run(
            capsys, "homdim", "--n", "4", "--d", "3", "--from", "huh", "--to", "1,2,4,6@0"
        )
        assert code == 2

    def test_out_of_range_coordinates(self, capsys):
        code, _, _ = run(
            capsys,
            "homdim", "--n", "4", "--d", "3", "--from", "1,2,4,9@0", "--to", "1,2,4,6@0",
        )
        assert code == 2

    def test_zero_coordinate_is_reported_out_of_range(self, capsys):
        # 0 lies below the alphabet; it is not an ordering fault
        code, _, err = run(
            capsys,
            "homdim", "--d", "2", "--n", "3", "--from", "0,2,3@0", "--to", "1,2,4@0",
        )
        assert code == 2
        assert err.strip() == "error: entries (0, 2, 3) out of range [1, 6]"
