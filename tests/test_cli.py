import json

import pytest

from nashblowup.cli import main
from nashblowup.parser import parse_polynomial
from nashblowup.polynomial import Polynomial, lex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out) if out else None, err


# -- jac ------------------------------------------------------------------


def test_jac_text(capsys):
    code, out, _ = run(capsys, "jac", "--poly", "x^3-y^2", "--vars", "x,y", "-n", "2")
    assert code == 0
    assert "3 x 5" in out
    assert "3*x^2" in out and "-2*y" in out


def test_jac_structured(capsys):
    code, payload, _ = run_json(capsys, "jac", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["command"] == "jac"
    assert payload["rows"][0] == ["3*x^2", "-2*y", "3*x", "0", "-1"]
    assert payload["col_labels"] == [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_jac_parse_error(capsys):
    code, _, err = run(capsys, "jac", "--poly", "x^3-w^2", "--vars", "x,y", "-n", "2")
    assert code == 2
    assert "input error" in err


def test_jac_bad_vars(capsys):
    code, _, err = run(capsys, "jac", "--poly", "x", "--vars", "x,x", "-n", "1")
    assert code == 2


def test_vars_must_be_parser_names(capsys):
    for argv in (("jac", "--poly", "x+1", "--vars", "x,y z", "-n", "1"),
                 ("singular", "--poly", "x", "--vars", "x,2y", "-n", "1", "--point", "0,5")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("input error: malformed variable list")


# -- singular / tangent ------------------------------------------------------


def test_singular_at_origin(capsys):
    code, payload, _ = run_json(capsys, "singular", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2", "--point", "0,0")
    assert code == 0
    assert payload["verdict"] == "singular"
    assert payload["rank"] == 1 and payload["full_rank"] == 3


def test_singular_at_smooth_point(capsys):
    code, out, _ = run(capsys, "singular", "--poly", "x^3-y^2",
                       "--vars", "x,y", "-n", "2", "--point", "1,1")
    assert code == 0
    assert "non-singular" in out


def test_singular_off_hypersurface(capsys):
    code, _, err = run(capsys, "singular", "--poly", "x^3-y^2",
                       "--vars", "x,y", "-n", "2", "--point", "1,2")
    assert code == 3
    assert "precondition" in err


def test_point_rejects_decimals(capsys):
    code, _, err = run(capsys, "singular", "--poly", "x^3-y^2",
                       "--vars", "x,y", "-n", "2", "--point", "1.0,1")
    assert code == 2


def test_point_accepts_rationals(capsys):
    code, payload, _ = run_json(capsys, "singular", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2", "--point", "1/4,1/8")
    assert code == 0
    assert payload["verdict"] == "non-singular"


def test_tangent(capsys):
    code, payload, _ = run_json(capsys, "tangent", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "1", "--point", "1,1")
    assert code == 0
    assert payload["dim"] == 1


def test_tangent_at_singular_point(capsys):
    code, _, err = run(capsys, "tangent", "--poly", "x^3-y^2",
                       "--vars", "x,y", "-n", "2", "--point", "0,0")
    assert code == 3


# -- minors / nashideal -----------------------------------------------------


def test_minors(capsys):
    code, payload, _ = run_json(capsys, "minors", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2")
    assert code == 0
    assert payload["count"] == 10
    first = payload["minors"][0]
    assert first["index"] == 1 and first["columns"] == [1, 2, 3]
    last = payload["minors"][-1]
    assert last["columns"] == [3, 4, 5]
    assert last["minor"] == "-9*x^4 + 12*x*y^2"


def test_nashideal(capsys):
    code, payload, _ = run_json(capsys, "nashideal", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2")
    assert code == 0
    assert payload["minor_count"] == 10
    # the emitted generators, together with F, span <x*y^2, y^3, F>
    from nashblowup.groebner import Ideal, ideal_equal

    ring = ("x", "y")
    gens = [parse_polynomial(g, ring) for g in payload["generators"]]
    F = parse_polynomial("x^3 - y^2", ring)
    expected = [parse_polynomial(t, ring) for t in ("x*y^2", "y^3")]
    assert ideal_equal(Ideal(ring, gens + [F]), Ideal(ring, expected + [F]))


# -- limits ------------------------------------------------------------------


def test_limits_cusp(capsys):
    code, payload, _ = run_json(capsys, "limits", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2", "--point", "0,0")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["lambda_size"] == 10
    assert payload["oracle"] is True
    assert payload["generators"][-1] == "u_9^2"
    assert payload["planes"] == [[["0"] * 9 + ["1"]]]


def test_limits_smooth_center(capsys):
    code, _, err = run(capsys, "limits", "--poly", "x^3-y^2",
                       "--vars", "x,y", "-n", "2", "--point", "1,1")
    assert code == 3


def test_limits_center_off_surface(capsys):
    code, _, err = run(capsys, "limits", "--poly", "x^3-y^2",
                       "--vars", "x,y", "-n", "2", "--point", "1,3")
    assert code == 3


def test_limits_order_zero_is_input_error(capsys):
    # like jac -n 0, singular -n 0 and tangent -n 0: the order is checked
    # before the center, so an off-surface center is an input error too
    for point in ("0,0", "1,3"):
        code, out, err = run(capsys, "limits", "--poly", "x^3-y^2",
                             "--vars", "x,y", "-n", "0", "--point", point)
        assert code == 2
        assert out == "" and err == "input error: order must be >= 1, got 0\n"
        for command in ("singular", "tangent"):
            assert run(capsys, command, "--poly", "x^3-y^2", "--vars", "x,y",
                       "-n", "0", "--point", point) == (code, out, err)


def test_limits_budget_abort_still_prints_minors(capsys):
    code, payload, _ = run_json(capsys, "limits", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2", "--point", "0,0",
                                "--max-pairs", "1")
    assert code == 4
    assert payload["status"] == "resource-budget-exceeded"
    assert len(payload["minors"]) == 10


def test_limits_negative_budget_is_input_error(capsys):
    for flag in ("--max-pairs", "--max-reductions"):
        code, out, err = run(capsys, "limits", "--poly", "x^3-y^2", "--vars", "x,y",
                             "-n", "2", "--point", "0,0", flag, "-3")
        assert code == 2
        assert out == ""
        assert err == f"input error: {flag[2:].replace('-', '_')} must be >= 0, got -3\n"


def test_limits_has_no_order_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["limits", "--poly", "x^3-y^2", "--vars", "x,y", "-n", "2",
              "--point", "0,0", "--order", "lex"])
    assert info.value.code == 2
    assert "--order" in capsys.readouterr().err


# -- hilbert -------------------------------------------------------------------


def test_hilbert_monomials(capsys):
    code, out, _ = run(capsys, "hilbert", "--monomials", "x^2,y^2", "-n", "3")
    assert code == 0
    assert out.strip() == "0"


def test_hilbert_monomials_with_vars(capsys):
    code, out, _ = run(capsys, "hilbert", "--monomials", "y^2",
                       "--vars", "x,y", "-n", "2")
    assert code == 0
    assert out.strip() == "2"


def test_hilbert_local(capsys):
    code, payload, _ = run_json(capsys, "hilbert", "--poly", "x^3-y^2",
                                "--vars", "x,y", "-n", "2")
    assert code == 0
    assert payload["dim"] == 2


def test_hilbert_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2")
    assert code == 2
    code, _, err = run(capsys, "hilbert", "--monomials", "x", "--poly", "x",
                       "--vars", "x", "-n", "2")
    assert code == 2


def test_hilbert_origin_precondition(capsys):
    code, _, err = run(capsys, "hilbert", "--poly", "x+1", "--vars", "x,y", "-n", "2")
    assert code == 3


def test_hilbert_poly_input_errors_exit_2(capsys):
    # --poly reports the input errors that --monomials and jac report
    for argv in (("hilbert", "--monomials", "x^2", "-n", "-1"),
                 ("hilbert", "--poly", "x^3-y^2", "--vars", "x,y", "-n", "-1"),
                 ("hilbert", "--poly", "0", "--vars", "x,y", "-n", "2"),
                 ("jac", "--poly", "0", "--vars", "x,y", "-n", "1")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("input error: "), argv


def test_hilbert_rejects_non_monomial(capsys):
    code, _, err = run(capsys, "hilbert", "--monomials", "x+y", "-n", "2")
    assert code == 2


# -- gb --------------------------------------------------------------------


def test_gb(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x^2 - y\nx^3 - z\n")
    code, payload, _ = run_json(capsys, "gb", str(path), "--vars", "x,y,z",
                                "--order", "lex")
    assert code == 0
    assert "y^3 - z^2" in payload["basis"]


def test_gb_prints_terms_in_the_requested_order(capsys, tmp_path):
    # x*z - y^2 and x - y^2 lead with y^2 under grevlex but not under lex
    names = ("x", "y", "z")
    path = tmp_path / "gens.txt"
    for gens in ("x^2 - y\nx^3 - z\n", "x^2 - y\nx*y - 1\n"):
        path.write_text(gens)
        code, payload, _ = run_json(capsys, "gb", str(path), "--vars", "x,y,z",
                                    "--order", "lex")
        assert code == 0
        for text in payload["basis"]:
            f = parse_polynomial(text, names)
            first = parse_polynomial(text.split(" ")[0], names)
            assert first == Polynomial(names, {f.leading_monomial(lex()): 1}), text


def test_gb_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "gb", str(tmp_path / "nope.txt"), "--vars", "x")
    assert code == 2


def test_gb_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    code, _, err = run(capsys, "gb", str(path), "--vars", "x")
    assert code == 2


def test_gb_budget(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x^5*y^4 - z^3\nx*y^6 + z^5 - y\ny^2*z^4 - x^3 - 1\n")
    code, _, err = run(capsys, "gb", str(path), "--vars", "x,y,z",
                       "--order", "lex", "--max-pairs", "2")
    assert code == 4
    assert "budget" in err


def test_gb_negative_budget_is_input_error(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x*y - 1\n")
    for flag in ("--max-pairs", "--max-reductions"):
        code, out, err = run(capsys, "gb", str(path), "--vars", "x,y", flag, "-2")
        assert code == 2
        assert out == ""
        assert err == f"input error: {flag[2:].replace('-', '_')} must be >= 0, got -2\n"


# -- determinism ---------------------------------------------------------------


def test_structured_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "limits", "--poly", "x^3-y^2", "--vars", "x,y",
                        "-n", "2", "--point", "0,0", "--format", "structured")
        outputs.append(out)
    assert outputs[0] == outputs[1]
