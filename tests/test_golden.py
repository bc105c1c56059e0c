"""Golden-bytes regression: SHA-256 of CLI output files for a fixed case matrix.

The hashes were recorded from the two-pass scan (vectorised prefilter plus a
scalar decay-rate re-confirmation of every surviving point) and the
per-cell decay curve. Any later change to the scans or to the CSV/PLY
rendering must reproduce those bytes exactly.

rel-ent is left out: its kernel calls ``log``, which may round differently
on other numpy builds. The property tests in ``test_scan.py`` cover it by
comparing against the scalar path on the same build.

The oracle is pinned at the CLI as well: every worst value ``verify --json``
reports at seeds 42 and 7 x 1000 trials, by its float hex, as recorded from
the per-row ``take_along_axis`` channel step.
"""

import hashlib
import json

import pytest

from coherence_lab.cli import main

# channel, p, n, grid, extra options
SURFACE_CASES = (
    ("bf", "0.5", "3", "21", ()),
    ("bf", "0.02", "2", "41", ("--tol", "1e-4")),
    ("bf", "0.5", "5", "101", ()),  # the surface-dense benchmark's grid
    ("pf", "1e-4", "2", "21", ()),
    ("pf", "0.003", "1", "41", ("--tol", "0.01")),
    ("bpf", "0.3", "2", "21", ()),
    ("bpf", "1e-3", "4", "41", ("--min-coherence", "0.05")),
    ("bpf", "0.5", "5", "101", ()),  # the other surface-dense benchmark cloud
    ("dep", "1e-4", "1", "21", ()),
    ("dep", "2e-4", "2", "41", ("--coeff-map", "paper", "--tol", "2e-3")),
    ("gad", "1e-4", "1", "21", ()),
    ("gad", "5e-4", "1", "41", ("--tol", "5e-3")),
)

# channel, state, n list, grid, extra options
CURVE_CASES = (
    ("bf", "0.6,0.1,0.2", "1,2,5,10,50", "19", ()),
    ("pf", "0.6,0.1,0.2", "1,2,5,10,50", "19", ()),
    ("bpf", "1,-0.5,0.5", "1,3,7", "19", ()),
    ("dep", "0.6,0.1,0.2", "1,2,12", "99", ()),
    ("dep", "-0.3,0.2,0.4", "1,4", "31", ("--coeff-map", "paper")),
    ("gad", "0.25,-0.25,0.5", "1,2,5,10,50", "19", ()),
    # the curve-sweep benchmark's size
    ("dep", "0.3,-0.2,0.1", "1,2,5,10,20", "199", ()),
    ("gad", "0.3,-0.2,0.1", "1,2,5,10,20", "199", ()),
)


def _surface_argv(case, measure, fmt):
    channel, p, n, grid, extra = case
    return ["frozen-surface", "--channel", channel, "--measure", measure, "--p", p,
            "--n", n, "--grid", grid, "--format", fmt, *extra]


def _curve_argv(case, measure):
    channel, state, n_list, grid, extra = case
    return ["decay-curve", "--channel", channel, "--measure", measure,
            f"--state={state}", "--n-list", n_list, "--grid", grid, *extra]


def _case_id(argv):
    return " ".join(argv)


CASES = [
    _surface_argv(case, measure, fmt)
    for case in SURFACE_CASES
    for measure in ("l1", "skew")
    for fmt in ("csv", "ply")
] + [_curve_argv(case, measure) for case in CURVE_CASES for measure in ("l1", "skew")]

GOLDEN = {
    'frozen-surface --channel bf --measure l1 --p 0.5 --n 3 --grid 21 --format csv':
        '65b19cfe1f755d730cf2b5ce8743355eadb1cd9b894cf700c16fa32e22fae4a2',
    'frozen-surface --channel bf --measure l1 --p 0.5 --n 3 --grid 21 --format ply':
        '0dc14e441f5b5362eeaab16dec1de8d89105dcf3bbdcffcc4d453db64ba5dc34',
    'frozen-surface --channel bf --measure skew --p 0.5 --n 3 --grid 21 --format csv':
        'ab7d40e0756e5ae298e1a1a36ba57860759b9ecc786eee4cbb2a5edd9b7a9d56',
    'frozen-surface --channel bf --measure skew --p 0.5 --n 3 --grid 21 --format ply':
        '1692559b3b5436da9df6abc6e69c056ca6a3c2d471d3b9237ff05216de93d1f4',
    'frozen-surface --channel bf --measure l1 --p 0.02 --n 2 --grid 41 --format csv --tol 1e-4':
        '4eae3f0ef96d6de4997f00a869e16c8afee2167119e7c11baa3b83f5c893c551',
    'frozen-surface --channel bf --measure l1 --p 0.02 --n 2 --grid 41 --format ply --tol 1e-4':
        '8f5b2b6f172f7d8e991e4b8c93e601c65f46007ce6a51ef09ad3cf2b558ceba7',
    'frozen-surface --channel bf --measure skew --p 0.02 --n 2 --grid 41 --format csv --tol 1e-4':
        '5b3b0e037b4b0a860ba23b74cbbb4816d44246a2b10d4d02be014cb8a512a215',
    'frozen-surface --channel bf --measure skew --p 0.02 --n 2 --grid 41 --format ply --tol 1e-4':
        '42d6f3c9bdf11477e5ab5aecd928fc1c711d4100f8e93f2b20bf36d971738a77',
    'frozen-surface --channel bf --measure l1 --p 0.5 --n 5 --grid 101 --format csv':
        'd607093c133909c0b43a21046d0513776fbd4d7b262316fb35940521d536223b',
    'frozen-surface --channel bf --measure l1 --p 0.5 --n 5 --grid 101 --format ply':
        '237f906ba2996b6f7577bb1d2f6cd727f36a648c2f84025a813559eed5374b83',
    'frozen-surface --channel bf --measure skew --p 0.5 --n 5 --grid 101 --format csv':
        '54dab04eb75efc69860fb98ca9bb593a533c47016b9a0600536207dd5d2cbdc9',
    'frozen-surface --channel bf --measure skew --p 0.5 --n 5 --grid 101 --format ply':
        '87e11513723f3226b4b6a936025ce42f68a566d8bdfbb8aec9c8e41fba742ab8',
    'frozen-surface --channel pf --measure l1 --p 1e-4 --n 2 --grid 21 --format csv':
        'b327faf571ff62ca6712445387f5d983374b12e316a4107948b62efbeab4d882',
    'frozen-surface --channel pf --measure l1 --p 1e-4 --n 2 --grid 21 --format ply':
        '07fcb9bdc1a6760ab847bdf2671b63b5485a64b977c4ef05125f2e163620f4c3',
    'frozen-surface --channel pf --measure skew --p 1e-4 --n 2 --grid 21 --format csv':
        '479f8be68c2b0358aae6174e7aef431e6affaeaa04e5e9a692378810c5995242',
    'frozen-surface --channel pf --measure skew --p 1e-4 --n 2 --grid 21 --format ply':
        '1220df431620ac704d0ff729441b8c6c1ad4871636cb17c0fa3922e6450d764d',
    'frozen-surface --channel pf --measure l1 --p 0.003 --n 1 --grid 41 --format csv --tol 0.01':
        'c0487ba0ab87f83da8d792f36bca5ea7f05db4cd8e40f27d24d0d30b3053e465',
    'frozen-surface --channel pf --measure l1 --p 0.003 --n 1 --grid 41 --format ply --tol 0.01':
        '848c090aa72320a0ca96b930ad8d7e433553a90de8c20e858c70ff628b7db85a',
    'frozen-surface --channel pf --measure skew --p 0.003 --n 1 --grid 41 --format csv --tol 0.01':
        'add7901414b4f9f5e0ccbf2cf8c8461c44244d439ba6195f09880d26c687edea',
    'frozen-surface --channel pf --measure skew --p 0.003 --n 1 --grid 41 --format ply --tol 0.01':
        '141a6b088cef21b8a0209d037a411238db03a3f290e72830c330afe040f6044d',
    'frozen-surface --channel bpf --measure l1 --p 0.3 --n 2 --grid 21 --format csv':
        'ec79260dbd9ea66299ad2fe835f98b88a4c9d220e91b87752d6de07d500b5114',
    'frozen-surface --channel bpf --measure l1 --p 0.3 --n 2 --grid 21 --format ply':
        '2803b43331d39044773a5b4f3451a0c06c6e66209f02e56a7da6104f0a39e560',
    'frozen-surface --channel bpf --measure skew --p 0.3 --n 2 --grid 21 --format csv':
        '313487568b42305cb8b5cd189d96a01262f012dd891804c38a1514ab3006e25d',
    'frozen-surface --channel bpf --measure skew --p 0.3 --n 2 --grid 21 --format ply':
        'f438a2bc5d698377de80973bd0c32e6962edfbac03b4c435ed310c24db4fee90',
    'frozen-surface --channel bpf --measure l1 --p 1e-3 --n 4 --grid 41 --format csv --min-coherence 0.05':
        'c666f1bcf78601aede585c1faa5415a89d3feaf9127077ab92d1b64468880436',
    'frozen-surface --channel bpf --measure l1 --p 1e-3 --n 4 --grid 41 --format ply --min-coherence 0.05':
        '7a4e9016265e8bf7dd8af0d2f591fbda23fcc3c12f60e6704da9d7151101aa54',
    'frozen-surface --channel bpf --measure skew --p 1e-3 --n 4 --grid 41 --format csv --min-coherence 0.05':
        'b3d6b028a9b287fa39b2e9432f453fd5370cc432d3a6adc22760ca71d8b35fb2',
    'frozen-surface --channel bpf --measure skew --p 1e-3 --n 4 --grid 41 --format ply --min-coherence 0.05':
        '4ee969b1640467d2f3b051e0cdaf3c7c2b5d8ae48ab8429d2aa12080651bd9a0',
    'frozen-surface --channel bpf --measure l1 --p 0.5 --n 5 --grid 101 --format csv':
        '96d4b2615ebf23fbd160d9877c16aef98f42cbfd076e3535c7aab1edc93aaae0',
    'frozen-surface --channel bpf --measure l1 --p 0.5 --n 5 --grid 101 --format ply':
        '674494d5bcf2fa77c23b6f9b13d5ba875f81da9b28977aeb212e0ee09dc138e0',
    'frozen-surface --channel bpf --measure skew --p 0.5 --n 5 --grid 101 --format csv':
        'a073fdf8d6ca94d8a2f6b3a83dbee9ba8a62658e144adf0fe53b7cff64a4897e',
    'frozen-surface --channel bpf --measure skew --p 0.5 --n 5 --grid 101 --format ply':
        '524e23e345d0711e6007b278bdee6928dffb40bb80f0ec8941450f0c275967df',
    'frozen-surface --channel dep --measure l1 --p 1e-4 --n 1 --grid 21 --format csv':
        'd71e0653bd4cc1c45a3f0fb94576f2514df5115ae636360b1d44e6ac4fc781b1',
    'frozen-surface --channel dep --measure l1 --p 1e-4 --n 1 --grid 21 --format ply':
        'e4c04e9b14e464f7923a491dae1d6c209c8766ed2658f6052743e84cb545255f',
    'frozen-surface --channel dep --measure skew --p 1e-4 --n 1 --grid 21 --format csv':
        '363ebbdc787a377a089f4f4102f677cde4f8aa6b1e21a4ad042b07b43bfbad9e',
    'frozen-surface --channel dep --measure skew --p 1e-4 --n 1 --grid 21 --format ply':
        '6e5d797a9edff48af9706b884a83cb33371eae4f3118e590572730449db63c62',
    'frozen-surface --channel dep --measure l1 --p 2e-4 --n 2 --grid 41 --format csv --coeff-map paper --tol 2e-3':
        'b9a76a1b03e8d072e34b60b03e46eadab50dafb5f4fdf5b341c23b841323266e',
    'frozen-surface --channel dep --measure l1 --p 2e-4 --n 2 --grid 41 --format ply --coeff-map paper --tol 2e-3':
        'f0f4637e5ca0d79ae2b10240e834045e8506ada13fbdc45d50c33965cad6e6ae',
    'frozen-surface --channel dep --measure skew --p 2e-4 --n 2 --grid 41 --format csv --coeff-map paper --tol 2e-3':
        '6a87bb47e5e5b3eded6f665553010168b3cb3c8acdf84a3304ded5e7e3375ceb',
    'frozen-surface --channel dep --measure skew --p 2e-4 --n 2 --grid 41 --format ply --coeff-map paper --tol 2e-3':
        'c6e88865330c2afc9fde0ec541ec915e92b2a81c72f0eedde96dd8c6146be059',
    'frozen-surface --channel gad --measure l1 --p 1e-4 --n 1 --grid 21 --format csv':
        'c5ad780e34b60c0994e5ed3dc2cc332da4f47801d4fcac3b383dbdfab3311feb',
    'frozen-surface --channel gad --measure l1 --p 1e-4 --n 1 --grid 21 --format ply':
        'c73873c76fd1c3b7741690b98887253456fd1cb164b05e9baba514f83918b48d',
    'frozen-surface --channel gad --measure skew --p 1e-4 --n 1 --grid 21 --format csv':
        'f1856b153f38371d8ef07efcf245332bb62c004ae2ac8a54fa63243026055aff',
    'frozen-surface --channel gad --measure skew --p 1e-4 --n 1 --grid 21 --format ply':
        '060c6b312394154c52458e136e6245435c220bde411db05e953fba1ab78efc6b',
    'frozen-surface --channel gad --measure l1 --p 5e-4 --n 1 --grid 41 --format csv --tol 5e-3':
        '989c90aad9ac2b28ad8181ea88f3b51543a3f5ad16450dd61b5ada7bb8f67809',
    'frozen-surface --channel gad --measure l1 --p 5e-4 --n 1 --grid 41 --format ply --tol 5e-3':
        '9f0fdb0fa6a9e243248dbe71b926e26826e37abd6305d3ecf1e9a2b83a8820b7',
    'frozen-surface --channel gad --measure skew --p 5e-4 --n 1 --grid 41 --format csv --tol 5e-3':
        'add3d216388277662e616067e8bd59413851b995ecea7ef09a43929d547ed9d0',
    'frozen-surface --channel gad --measure skew --p 5e-4 --n 1 --grid 41 --format ply --tol 5e-3':
        '73082acfc9c297e2f1398b2b67ba0cc776beaf2176346305981f8c90d4fdefbd',
    'decay-curve --channel bf --measure l1 --state=0.6,0.1,0.2 --n-list 1,2,5,10,50 --grid 19':
        '78be11fa9aefac33d0ef823f324fa12c0750bea017dc6804dd320cf6071bc512',
    'decay-curve --channel bf --measure skew --state=0.6,0.1,0.2 --n-list 1,2,5,10,50 --grid 19':
        '7232957ca842ccbdefe88de6413976528a6c13b535502bcce4643b685e2e4d24',
    'decay-curve --channel pf --measure l1 --state=0.6,0.1,0.2 --n-list 1,2,5,10,50 --grid 19':
        '136fc3853612c0cdcb0f358b707ace4a776ebe259ce791b833dbc5a283904422',
    'decay-curve --channel pf --measure skew --state=0.6,0.1,0.2 --n-list 1,2,5,10,50 --grid 19':
        'c88b8307f01c23f1e088f52cdc26e12ac8399be2229b08e6d2471a4e610fde40',
    'decay-curve --channel bpf --measure l1 --state=1,-0.5,0.5 --n-list 1,3,7 --grid 19':
        '120dcfeca471257d6f2b5cdfc349732332979e333d68ed3b51cda03bf501168b',
    'decay-curve --channel bpf --measure skew --state=1,-0.5,0.5 --n-list 1,3,7 --grid 19':
        '80b4fdb85e022d89f453154927fb01de5feeaf3fa1edf870e2827f7f568a7b56',
    'decay-curve --channel dep --measure l1 --state=0.6,0.1,0.2 --n-list 1,2,12 --grid 99':
        '15807ccad98d555dcea2052072b87e32402e4b0d7f80d43cad348b754e215839',
    'decay-curve --channel dep --measure skew --state=0.6,0.1,0.2 --n-list 1,2,12 --grid 99':
        'd80dd3678d2d01b6ddf256a7d96a6ccd95c30ae126f53b81d07ba930b484fe78',
    'decay-curve --channel dep --measure l1 --state=-0.3,0.2,0.4 --n-list 1,4 --grid 31 --coeff-map paper':
        '75aa8d656499217f77ddb592b47ca76319ddca594c9c09f820776de98d22c5c2',
    'decay-curve --channel dep --measure skew --state=-0.3,0.2,0.4 --n-list 1,4 --grid 31 --coeff-map paper':
        'c95dbc004bfe0f803a961fef71586e482fcb59343801652a92c980e5f2d608a2',
    'decay-curve --channel gad --measure l1 --state=0.25,-0.25,0.5 --n-list 1,2,5,10,50 --grid 19':
        'c88994d3501cfba90a4eb4a8f645e659d0f8021e5754571765d7b28400d46689',
    'decay-curve --channel gad --measure skew --state=0.25,-0.25,0.5 --n-list 1,2,5,10,50 --grid 19':
        '6075e815657a5bc227c07eb7ed7987f1c87fd9e486946a4e2a93d3d6f940936f',
    'decay-curve --channel dep --measure l1 --state=0.3,-0.2,0.1 --n-list 1,2,5,10,20 --grid 199':
        '16546a91673a815b9085217766a1e47b15fd2b3da602c7c915ad0dd9895e8bf1',
    'decay-curve --channel dep --measure skew --state=0.3,-0.2,0.1 --n-list 1,2,5,10,20 --grid 199':
        '586d11b7c8dd81492aebc4b786b9135456ef4bee219db69d84ce8f1c8b3b0ea8',
    'decay-curve --channel gad --measure l1 --state=0.3,-0.2,0.1 --n-list 1,2,5,10,20 --grid 199':
        '9ed55912c7c11506e8ae40d4e55d79ca839aa1e3610a8e2e89627efb30faf19c',
    'decay-curve --channel gad --measure skew --state=0.3,-0.2,0.1 --n-list 1,2,5,10,20 --grid 199':
        'a4ec673011d84736c204273b5cee71b69208e9fc87bad66ed2f9b2041330f0e7',
}


def output_digest(argv, out_path):
    """SHA-256 of the file the CLI writes for ``argv``."""
    assert main([*argv, "--out", str(out_path)]) == 0
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


# seed -> the float hex of each check's worst value, in report order
VERIFY_WORST = {
    42: {
        'closed vs matrix [l1]': '0x0.0p+0',
        'closed vs matrix [rel-ent]': '0x1.e000000000000p-51',
        'closed vs matrix [skew]': '0x1.0780000000000p-46',
        'coefficient map vs Kraus route': '0x1.8000000000000p-49',
        'Bell-diagonal extraction residual': '0x1.8000000000000p-50',
        'dep paper-mode gap vs Kraus route': '0x1.50e54748fdeecp-3',
        'closed-form vs matrix-oracle decay rate': '0x1.1a40800000000p-36',
    },
    7: {
        'closed vs matrix [l1]': '0x0.0p+0',
        'closed vs matrix [rel-ent]': '0x1.4000000000000p-51',
        'closed vs matrix [skew]': '0x1.8000000000000p-50',
        'coefficient map vs Kraus route': '0x1.a000000000000p-50',
        'Bell-diagonal extraction residual': '0x1.7000000000000p-50',
        'dep paper-mode gap vs Kraus route': '0x1.c53dfc0ddeac0p-3',
        'closed-form vs matrix-oracle decay rate': '0x1.7e80000000000p-41',
    },
}


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_output_bytes_match_golden(argv, tmp_path, capsys):
    digest = output_digest(argv, tmp_path / "out")
    capsys.readouterr()
    assert digest == GOLDEN[_case_id(argv)]


@pytest.mark.parametrize("seed", sorted(VERIFY_WORST))
def test_verify_worst_values_match_golden(seed, tmp_path, capsys):
    path = tmp_path / "verify.json"
    assert main(["verify", "--seed", str(seed), "--trials", "1000", "--json", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    worst = {check["check"]: float(check["worst"]).hex()
             for suite in report["suites"] for check in suite["checks"]}
    assert list(worst.items()) == list(VERIFY_WORST[seed].items())
