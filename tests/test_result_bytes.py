"""Result files stay byte for byte what they were.

Each command below writes its result files into a fresh directory; the
sha256 of every file but the manifest (which holds timestamps) is pinned.
A change to the writer, the serializers, the samplers or the numbers they
write shows
here as a changed or missing hash.
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import run_cli

# A 4-alternative table metric with entries in {1, 9/8, ..., 2}, so it
# satisfies the triangle inequality; pav is not robust under it.
TABLE_M4 = {
    "m": 4,
    "name": "t4",
    "entries": [
        {
            "x": [label for i, label in enumerate("abcd") if a >> i & 1],
            "y": [label for i, label in enumerate("abcd") if b >> i & 1],
            "d": str(1 + Fraction((7 * a + 3 * b) % 9, 8)),
        }
        for a, b in combinations(range(16), 2)
    ],
}

# A jaccard level model at m = 5 with weights 8, 7, ..., 1 on its 8 levels
# (sizes 1, 3, 5, 1, 6, 6, 2, 8 from the ground {a, b}), normalized by 118.
LEVEL_M5 = {
    "type": "level",
    "metric": "jaccard",
    "ground": ["a", "b"],
    "alternatives": list("abcde"),
    "probs": [str(Fraction(w, 118)) for w in range(8, 0, -1)],
}

CONVERGE = ["converge", "--rule", "av", "--model", "mp", "--p", "3/5", "--m", "5", "--k", "2",
            "--ground", "a,b", "--n-grid", "3,12", "--trials", "3", "--seed", "3"]

CASES = {
    "robust": (
        ["robust", "--rule", "pav", "--metric", "jaccard", "--m", "5", "--k", "2"],
        {"robust_pav_jaccard_m5k2.json":
         "b3b434caa384cd78ae2e42a35d5570512b0058433b285f9dd83b472567de2c14"},
    ),
    "robust-degenerate": (
        ["robust", "--rule", "cc", "--metric", "trivial", "--m", "4", "--k", "2"],
        {"robust_cc_trivial_m4k2.json":
         "8b4c299637f18640ac6e25fd0c3998467aaa5999e516c1548af4e59b31c2ab4e",
         "robust_cc_trivial_m4k2_witness_model.json":
         "ca6fb0ff5f187a04ac3fcd36f8c215a9ab655fd4661ebb7351a737e21f28ad28"},
    ),
    "robust-not-robust-signature": (
        ["robust", "--rule", "pav", "--metric", "example2", "--m", "3", "--k", "2"],
        {"robust_pav_example2_m3k2.json":
         "b36e2617cbd7610523be40864b17a8534c20fd7bc082c7e62c325f56dd2b1828",
         "robust_pav_example2_m3k2_witness_model.json":
         "0563a17ff1b58d21a3269dd0192ba5817a961a9ab73d37d9c21783d494f97858"},
    ),
    "robust-not-robust-table": (
        ["robust", "--rule", "pav", "--metric-file", "{table}", "--m", "4", "--k", "2"],
        {"robust_pav_t4_m4k2.json":
         "a0877d1e0590bd6222d4418b0cb9d2ce10202ea189a64073378bfb7f588b8c9e",
         "robust_pav_t4_m4k2_witness_model.json":
         "49e8b52baa9d0ca4c95fda0deb9b472e5b8755ff66b0a972e99f30fcdb9d1b31"},
    ),
    "counterexample": (
        ["counterexample", "--rule", "pav", "--m", "4", "--k", "2"],
        {"counterexample_pav_m4k2.json":
         "4ca651ccdd2c9b7c9909cdc247384116fe75d38f1f4942fba94797068ef4c8de"},
    ),
    "taxonomy-failing": (
        ["taxonomy", "--metric-file", "{table}", "--m", "4", "--k", "2"],
        {"taxonomy_t4_m4k2.json":
         "020e8fe685d235870e2520605f2ea5ce97e4deffe227d687bc8b8aa8201d8f24"},
    ),
    "hierarchy": (
        ["hierarchy", "--rules", "av,cc,pav", "--metrics", "jaccard,trivial", "--m", "4", "--k", "2"],
        {"hierarchy_m4k2.csv":
         "1d57b2d1ba3a1f81376ba2ecb6d325fc7f4dab8dc731bb69e55fd7654e4a9b8b",
         "hierarchy_m4k2.json":
         "a819f540e73e69e105cb989424839c5502d4bde2dc95844f9fccb9b5933c7673"},
    ),
    # m = 10: fifteen verdicts and five nontriviality checks on overlap classes
    "hierarchy-m10": (
        ["hierarchy", "--rules", "av,cc,pav,sav,mc", "--metrics", "set_difference,jaccard,trivial",
         "--m", "10", "--k", "3"],
        {"hierarchy_m10k3.csv":
         "392728c950726cc906f99cc1beca187a4c8e1fc8dc1960a2aaf8438a7dd1b120",
         "hierarchy_m10k3.json":
         "dda55aea31bf5ade25b4ec0b94c2fc91cdb6adc0365f351dcaf111ca17b07829"},
    ),
    "converge": (
        CONVERGE,
        {"converge_av_seed3.csv":
         "767ea3ea8f6724a64cd1353a46b82bee94f16c1b17b54b832855ac7b12682c4e",
         "converge_av_seed3.json":
         "51263d3eed58227230d05760aeff81070511a8e979936ceab16097abd9bc23ef"},
    ),
    "converge-approx": (
        [*CONVERGE, "--approx"],
        {"converge_av_seed3.csv":
         "89859df911232efb2059f5506b7df37cd4d440dc1649a777e58dceb66229cd0a",
         "converge_av_seed3.json":
         "c1d349adf0cd1772d4d88ef43f563636b7d909eaeeb154d2abb087a8ec5d7637"},
    ),
    "sample-level": (
        ["sample", "--model-file", "{model}", "--n", "40", "--seed", "7"],
        {"sample_n40_seed7.txt":
         "cf62fd636d87d260053d36051898b99def1decf632ad63f11c7d8200a8e4c8fd"},
    ),
    "sample-mp": (
        ["sample", "--model", "mp", "--p", "3/5", "--m", "5", "--ground", "a,b",
         "--n", "40", "--seed", "7"],
        {"sample_n40_seed7.txt":
         "a8e89ac8b6d1b5e3adf8d0c0da45c7d5b13410cfbb7764fddee39f33ad8a80d9"},
    ),
    "converge-tie-heavy": (
        ["converge", "--rule", "cc", "--model", "mp", "--p", "3/5", "--m", "6", "--k", "3",
         "--ground", "a,b,c", "--n-grid", "1,2,3,10", "--trials", "40", "--seed", "5"],
        {"converge_cc_seed5.csv":
         "e8529a2753dbb822fa9a625124107212053e569812d2a246e295d606fede1a57",
         "converge_cc_seed5.json":
         "eae8ed3f55e70ebd2b697808507c151b49302b8bdcefd535181518f4f13ec07a"},
    ),
    "converge-level": (
        ["converge", "--rule", "pav", "--model-file", "{model}", "--n-grid", "1,4,20",
         "--trials", "30", "--seed", "11"],
        {"converge_pav_seed11.csv":
         "076f9a343bb0deef8b289ed018595e11595cf5a3810aa097c526fe49f742c09c",
         "converge_pav_seed11.json":
         "fd08b27d637ff1df346d9b0579cda7b49c8de2c46662c3f3eadc9fa0bd423602"},
    ),
    "mle-check-m8": (
        ["mle-check", "--p", "3/4", "--m", "8", "--k", "3", "--profiles", "200", "--seed", "4"],
        {"mle_check_m8k3_seed4.json":
         "900866c6f0d905d952a4261695e58bc578b0d7725d2f2e0f4ec9d4211f4ea360"},
    ),
    "mle-check": (
        ["mle-check", "--p", "3/4", "--m", "4", "--k", "2", "--profiles", "6", "--seed", "2"],
        {"mle_check_m4k2_seed2.json":
         "9d533e1516803481941c48bf650fa4fdc12e33c172b52a34797dbe8cfaff0912"},
    ),
}


def file_hashes(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.jsonl"
    }


@pytest.mark.parametrize("argv, hashes", CASES.values(), ids=CASES.keys())
def test_result_file_bytes(argv, hashes, tmp_path):
    metric_file = tmp_path / "t4.json"
    metric_file.write_text(json.dumps(TABLE_M4), encoding="utf-8")
    model_file = tmp_path / "level5.json"
    model_file.write_text(json.dumps(LEVEL_M5), encoding="utf-8")
    out = tmp_path / "out"
    argv = [arg.format(table=metric_file, model=model_file) for arg in argv]
    code, _, err = run_cli([*argv, "--out", str(out)])
    assert code == 0, err
    assert file_hashes(out) == hashes
