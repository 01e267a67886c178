"""Record the golden outputs the benchmark checks every case against.

Run from the repository root:  python3 perfbench/record_goldens.py
It rewrites perfbench/goldens.json from the package as it stands, so run it
only when a change of output is intended, and say why in the change.
"""

from __future__ import annotations

import json

import perf_workloads as wl


def record(nb) -> dict:
    curves = {}
    for curve, poly in wl.CURVES:
        code, stdout = wl.run_cli(nb, [
            "limits", f"--poly={poly}", "--vars", "x,y", "--point=0,0",
            "-n", str(wl.CURVE_ORDER), "--format", "structured"])
        assert code == 0, (curve, code)
        payload = json.loads(stdout)
        curves[curve] = {k: payload[k] for k in ("generators", "planes", "oracle", "lambda_size")}

    code, stdout = wl.run_cli(nb, [
        "nashideal", f"--poly={wl.SURFACE_GOLDEN_POLY}", "--vars", ",".join(wl.SURFACE_RING),
        "-n", str(wl.SURFACE_ORDER), "--format", "structured"])
    assert code == 0, code
    payload = json.loads(stdout)
    parse = nb.parser.parse_polynomial
    F = parse(wl.SURFACE_GOLDEN_POLY, wl.SURFACE_RING)
    gens = [parse(g, wl.SURFACE_RING) for g in payload["generators"]]
    basis = wl.surface_basis(nb, F, gens)
    surface = {"poly": wl.SURFACE_GOLDEN_POLY, "n": wl.SURFACE_ORDER,
               "minor_count": payload["minor_count"],
               "basis": [nb.parser.format_polynomial(g) for g in basis]}
    return {"curve-limits": curves, "surface-nash": surface}


if __name__ == "__main__":
    goldens = record(wl.load_package())
    with open(wl.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
