"""Pinned outputs of the tree builders, the tree-text codec and the reports.

The tree digests and parser messages were recorded from the library before
its node-building loops and parsers were folded into one builder and one
codec in `hiertree`. They pin node ids, not only the canonical text:
`node_weights` keys and the axis order of `embed_euclidean` are read off
those ids. The report digests were recorded before the distance and
split-revenue kernels were folded into one of each; their inputs span several
row blocks of those kernels. The three `eval_*` digests were recorded again
when the report's value column took the objective's name; before that the
ckmm and dasgupta files were byte-identical. The `bkm_lloyd_*` digests of
`_LLOYD_EDGE_CASES` were recorded before the Lloyd restarts of a node ran
as one batch. `enumerate_opt_revenue` was recorded again when the exact
optimum became a subset DP: its six points tie at the n(n-1)/2 bound on
several trees, and the DP's tie rule returns `((0,1),((2,3),(4,5)))` where
enumeration order returned `(((0,1),(2,3)),(4,5))`, both worth 15.0.
`revenue_random_tree_600x64` pins the row-block layout of split revenue: it
was recorded before split revenue skipped the exact distance of pairs that
provably earn 1, and moving the row-block size of `_distance_blocks` alone
(to 1, 3 or 5 million entries) changes at least one of its per-split
values. Each digest is SHA-256 over `repr` of a Python value, over an array's bytes, or
over a file's bytes.
"""

import hashlib

import numpy as np
import pytest

from hierclust import (
    HierTree,
    PointSet,
    RngStream,
    TreeParseError,
    TwoMeansSolverConfig,
    UltrametricSpec,
    bisecting_kmeans,
    build_generating_tree,
    cli_main,
    embed_euclidean,
    generate_random,
    high_revenue_stats,
    pairwise_distances,
    parse,
    random_tree,
    synth_gaussian_mixture,
    tree_revenue,
)
from hierclust import algorithms

SIZES = (1, 2, 3, 17, 64)
MODES = ("strict", "with_ties")


def _digest(value) -> str:
    if isinstance(value, bytes):
        data = value
    else:
        data = value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _ids(tree: HierTree):
    return tree.root, tree.nodes


def _points(n: int, seed: int, dim: int = 3, grid: bool = False) -> PointSet:
    coords = np.random.default_rng(seed).standard_normal((n, dim))
    return PointSet(np.round(coords) if grid else coords)


def _scrambled(n: int, seed: int):
    """A nested tree over 0..n-1 in no canonical order: random merges, random sides."""
    g = np.random.default_rng(seed)
    items = [int(i) for i in g.permutation(n)]
    while len(items) > 1:
        a = items.pop(int(g.integers(len(items))))
        b = items.pop(int(g.integers(len(items))))
        items.append((a, b))
    return items[0]


def _text(nested) -> str:
    if isinstance(nested, int):
        return str(nested)
    return f"({_text(nested[0])}, {_text(nested[1])})"


def _spec(mode: str, n: int) -> UltrametricSpec:
    return generate_random(n, RngStream(n, (MODES.index(mode),)), mode)


def _cases():
    out = {}
    for n in SIZES:
        lloyd = TwoMeansSolverConfig(kind="lloyd", seed=n)
        out[f"bkm_lloyd_{n}"] = lambda n=n, c=lloyd: _ids(bisecting_kmeans(_points(n, n), c))
        out[f"random_tree_{n}"] = lambda n=n: _ids(random_tree(n, RngStream(n)))
        out[f"parse_{n}"] = lambda n=n: _ids(parse(_text(_scrambled(n, n))))
        out[f"from_nested_{n}"] = lambda n=n: _ids(HierTree.from_nested(_scrambled(n, n + 1)))
        for mode in MODES:
            key = f"{mode}_{n}"
            out[f"generating_tree_{key}"] = lambda m=mode, n=n: _ids(
                build_generating_tree(_spec(m, n).induced_matrix())
            )
            out[f"spec_text_{key}"] = lambda m=mode, n=n: _spec(m, n).serialize()
            out[f"spec_parsed_{key}"] = lambda m=mode, n=n: _parsed(_spec(m, n))
            out[f"embed_{key}"] = lambda m=mode, n=n: embed_euclidean(_spec(m, n)).coords
            out[f"embed_parsed_{key}"] = lambda m=mode, n=n: embed_euclidean(
                UltrametricSpec.parse(_spec(m, n).serialize())
            ).coords
    for n in (1, 2, 3, 12, 17):
        exhaustive = TwoMeansSolverConfig(kind="exhaustive", seed=n)
        out[f"bkm_exhaustive_{n}"] = lambda n=n, c=exhaustive: _ids(
            bisecting_kmeans(_points(n, 100 + n), c)
        )
    grid = TwoMeansSolverConfig(kind="lloyd", seed=5)
    out["bkm_lloyd_grid_40"] = lambda: _ids(bisecting_kmeans(_points(40, 7, 2, grid=True), grid))
    for name, (points, fields) in _LLOYD_EDGE_CASES.items():
        config = TwoMeansSolverConfig(kind="lloyd", seed=11, **fields)
        out[f"bkm_lloyd_{name}"] = lambda p=points, c=config: _ids(bisecting_kmeans(p(), c))
    return out


# Lloyd inputs and solver settings no other digest covers: 1-D sums, ties,
# coincident and all-zero points, one-iteration and one-restart solves, the
# tolerance at both ends, and a table1-sized mixture. The iteration cap and
# the tolerance are module constants of `algorithms`, set in `_CONSTANTS`.
_LLOYD_EDGE_CASES = {
    "dim1_200": (lambda: _points(200, 21, 1), {}),
    "dim1_grid_150": (lambda: _points(150, 22, 1, grid=True), {}),
    "coincident_48": (lambda: PointSet(np.tile(_points(6, 23).coords, (8, 1))), {}),
    "zeros_20": (lambda: PointSet(np.zeros((20, 3))), {}),
    "max_iters_1": (lambda: _points(64, 24), {}),
    "restarts_1": (lambda: _points(64, 25), {"lloyd_restarts": 1}),
    "tol_0": (lambda: _points(64, 26), {}),
    "tol_half": (lambda: _points(200, 27, 4), {}),
    "tol_half_grid": (lambda: _points(120, 28, 2, grid=True), {}),
    "mixture_1000x8": (
        lambda: synth_gaussian_mixture(8, 1000, 8, 20.0, RngStream(11)),
        {},
    ),
}
_CONSTANTS = {
    "bkm_lloyd_max_iters_1": {"LLOYD_MAX_ITERS": 1},
    "bkm_lloyd_tol_0": {"LLOYD_TOL": 0.0},
    "bkm_lloyd_tol_half": {"LLOYD_TOL": 0.5},
    "bkm_lloyd_tol_half_grid": {"LLOYD_TOL": 0.5},
}


def _parsed(spec: UltrametricSpec):
    again = UltrametricSpec.parse(spec.serialize())
    return _ids(again.topology), sorted(again.node_weights.items())


CASES = _cases()

GOLDEN = {
    "bkm_exhaustive_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "bkm_exhaustive_12": "017d5508a8f3cab22e069701cd85150743216c298cdac2b648c67df07e9f4004",
    "bkm_exhaustive_17": "61068b4c69d8cc00ea1af3682637008c38d937fc5c86de5e9e5af34350324ac7",
    "bkm_exhaustive_2": "e545e1dbf7b5f917e524165e7c1931a77164c175e3d3c7c5d8cbd614408e850a",
    "bkm_exhaustive_3": "db97f6094030570c4a04bc2bb0f688570f5266fe8b4d2a671291c01309dbbd9f",
    "bkm_lloyd_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "bkm_lloyd_17": "43d0209aaf476a6e011ddb823c4fe20b8246c2a1e22a2e1e6fee03baae4c6ab5",
    "bkm_lloyd_2": "e545e1dbf7b5f917e524165e7c1931a77164c175e3d3c7c5d8cbd614408e850a",
    "bkm_lloyd_3": "db97f6094030570c4a04bc2bb0f688570f5266fe8b4d2a671291c01309dbbd9f",
    "bkm_lloyd_64": "e584f8034b5d20d649146cd910aea761033cd34007ebde032dc9997d37729c6b",
    "bkm_lloyd_coincident_48": "7fd335f049905df5a896768ab6267636fbaedf4275281f9f90bd38f576c3f50b",
    "bkm_lloyd_dim1_200": "08747889a8a474410f4f1a94d2c1e56d0a3d4859f445a8b23c118018c959e1a1",
    "bkm_lloyd_dim1_grid_150": "747d74bd4f323a574353691ab1c6f822eadd734d23f62b0228457fb9c43302a6",
    "bkm_lloyd_grid_40": "a33e3943f58bb8808c932d50f0610f76c5d66330e3b0163dbb440022a70efc2f",
    "bkm_lloyd_max_iters_1": "4d383af219cb0a5d51f792533ce418432bdf02ad9cf9a6203b87a681a4f240c7",
    "bkm_lloyd_mixture_1000x8": "ab649853d0f9dd1c9432f6af079211b27977c3015e84a6bfc6aa386eca7cbdfc",
    "bkm_lloyd_restarts_1": "94e9158701e0c13a5e207e46ec773153f45a18bd2bebee366db6c0a56ee76e36",
    "bkm_lloyd_tol_0": "9d253eac377d95340e4f4f39407e389cfbf7c2a1245ea65d626e97e1a62dd836",
    "bkm_lloyd_tol_half": "feb8859508d71a33b4354cba2181a6da13bd7df163903ef72aa231e636ab7475",
    "bkm_lloyd_tol_half_grid": "8ad4c2cb2b2092c0d3e874761fa41f123860ad0f852ca2c1bf48e70c2c09ef0e",
    "bkm_lloyd_zeros_20": "658520dbcc581cad87e6ac9666693477a8916fb309bf41c5f2cb507dff662bdd",
    "embed_parsed_strict_1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "embed_parsed_strict_17": "4cc79c602df6a2ece2b039d817009489a4a7f5941edb9363d2c60a332e3ff971",
    "embed_parsed_strict_2": "5f28532b47fd3703c80fbe79a33bdd2dd0f392e6a37e5e4d8b1d5e76d07c9b2a",
    "embed_parsed_strict_3": "50a3924441aecccbd1955f0a68de2be6cd6b31cf6af890a7258456639129d2d7",
    "embed_parsed_strict_64": "8a8e93c40e516d042ab1e01a589a8a9a53dee52039286c792dd71ff4cfe574e5",
    "embed_parsed_with_ties_1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "embed_parsed_with_ties_17": "bbe69cee6e71db5a53463f9018686a28751a0274173a341b8919c2e0e914f39a",
    "embed_parsed_with_ties_2": "16581b3eb43e511759a4a4ef644c5c112cfa779db4eca4f2bdeedb8d5c7b4cd7",
    "embed_parsed_with_ties_3": "8946e4a562242710aa6d3dbbd3829a43844a25d06cfc89f9b1213e806fa5aa18",
    "embed_parsed_with_ties_64": "dbb27cce518f282236241b6fff0722d5c1aa131a731aba4dba53ea38d9ffe77e",
    "embed_strict_1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "embed_strict_17": "fe4fd706ac10aa78f2c20ebe3c6b81f47062b64908a26d0474d6772059f3e095",
    "embed_strict_2": "5f28532b47fd3703c80fbe79a33bdd2dd0f392e6a37e5e4d8b1d5e76d07c9b2a",
    "embed_strict_3": "031d2f5b41bff5e95d6b6efd04f5a10cf526b31944f3be82b6e77e22b456ec0d",
    "embed_strict_64": "7a65fddf1feda6d98b887a2e4e87cdf34e492027074c3748e77abb4e408c6fd5",
    "embed_with_ties_1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "embed_with_ties_17": "2300fa1990f30c2e716f281cbcf35757203c9e2b48ee8974efa1fe4247e3010b",
    "embed_with_ties_2": "16581b3eb43e511759a4a4ef644c5c112cfa779db4eca4f2bdeedb8d5c7b4cd7",
    "embed_with_ties_3": "b50d077f9ca107d687f2966ed4ab3671fac9cc435ef2ee00e1e4641a3af2f14c",
    "embed_with_ties_64": "689fb7470b6aeeb5fda4cb98690f85830d3730c0a82d6edaf3eb5b485cbac7f5",
    "from_nested_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "from_nested_17": "01b9ffe5952e8675c65caa440816252f1ba218cff5077e7a682bf8aae805ec42",
    "from_nested_2": "a77b9ef86d38e789dc017df8c706939438c2c5195d7c4563108f30670df7f8cc",
    "from_nested_3": "b9b2e86ce528536ff832322cb82080a413b604e670ad6220603a819e836468ed",
    "from_nested_64": "c3e570fa0f9f175474e173f2483458f3dec3d7d375f50ac22ab385bb863a24b5",
    "generating_tree_strict_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "generating_tree_strict_17": "a66051fdde47ab08dc5bc8cd1eae3b9454076ea2ff44503cb897591f8ff370c0",
    "generating_tree_strict_2": "e545e1dbf7b5f917e524165e7c1931a77164c175e3d3c7c5d8cbd614408e850a",
    "generating_tree_strict_3": "db97f6094030570c4a04bc2bb0f688570f5266fe8b4d2a671291c01309dbbd9f",
    "generating_tree_strict_64": "c3b78744a1ee4f9c2b6a759e881c64e77ea0e9a673e9eae522f0ce1f4152e439",
    "generating_tree_with_ties_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "generating_tree_with_ties_17": "9be1000c4302610b72b125ccac2060c94c3cbbeed950313f799e80c2338cf6e0",
    "generating_tree_with_ties_2": "e545e1dbf7b5f917e524165e7c1931a77164c175e3d3c7c5d8cbd614408e850a",
    "generating_tree_with_ties_3": "feb2a76267ad0ba318522aadb1e57e6d16df103eeecb6199806616690586ede5",
    "generating_tree_with_ties_64": "136433519a79887403cd10c6498113fa44884a6039bd3a8a5729d38f024e871e",
    "parse_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "parse_17": "13578e5d39c5b1e952e4b3612662c2781c2b6a299fe1774d75d9ff0c6814fd69",
    "parse_2": "e545e1dbf7b5f917e524165e7c1931a77164c175e3d3c7c5d8cbd614408e850a",
    "parse_3": "591f7ec1367745a4972924ae4e823caf830f34838f496d73ef78c2aa82044e84",
    "parse_64": "a8f403e942a63c60af5dcf4353f3b10d2d5d17e3d633e67ecbce6ad44970354e",
    "random_tree_1": "d53af4c1d9a28d4eb8aa9cb54220a483a914fc944364b37c8461c9b438f590e3",
    "random_tree_17": "ea55e60477dc1ce448a233b3855d34e9d242aff09c797694e2a9b6fce3de6d2c",
    "random_tree_2": "e545e1dbf7b5f917e524165e7c1931a77164c175e3d3c7c5d8cbd614408e850a",
    "random_tree_3": "db97f6094030570c4a04bc2bb0f688570f5266fe8b4d2a671291c01309dbbd9f",
    "random_tree_64": "d9ea0be53bc54da6e9d771f16823200eeb3092650701ef64ce935e15434a4481",
    "spec_parsed_strict_1": "21be5db657b888cee136783d11e45d51cc134a85d434409e82ba222027a2ed95",
    "spec_parsed_strict_17": "94d3cd2da683e58631c110da192b69e4ed06de18448ff21d7ad89039a0aee1f8",
    "spec_parsed_strict_2": "bca7fbb1b7c15bab663496089b6238cd2f08725965118df8315154ac597ec403",
    "spec_parsed_strict_3": "3a6a36b874a68722e6ec74f3a95a00f947d465e5a430fb4a177f46bc3b14d1e0",
    "spec_parsed_strict_64": "fdee5c6a1be5baa965fb587bcb8b4895ea58117373abaae21fab569384c79412",
    "spec_parsed_with_ties_1": "21be5db657b888cee136783d11e45d51cc134a85d434409e82ba222027a2ed95",
    "spec_parsed_with_ties_17": "7e34584e0b443de5e4f48d4fe59b69171bd47726b1ee74e244f1cb102a8ba8cd",
    "spec_parsed_with_ties_2": "45e34c6b2269caa18224b0f90b4d5ba374382969b4577e700f6e0973d9c909d2",
    "spec_parsed_with_ties_3": "142b2c6426234a3ccc07b892ff88e94a365019098acd92d21f33afe78231361f",
    "spec_parsed_with_ties_64": "d6da751c466caaecbd65ed0cbcde2c72afb917f53b7cb98ec195a6590f6d9838",
    "spec_text_strict_1": "59a984d6e30211daccf6e26a37b9072d26fe6a602047a6bbda948ed227f67a8b",
    "spec_text_strict_17": "dee0a2fd53f9b55699570d8e85561d234813dc9a4525b7418f40ef93031dae3a",
    "spec_text_strict_2": "26e38250aa5d2d702bf2d3120b70eaa7837847cf0a8ad102347bdf8df284f52e",
    "spec_text_strict_3": "db86a71e7aa1ca132f2f2a8f56737eac59d672497a8f64a860b2f50cb56df837",
    "spec_text_strict_64": "72f89b08dd39c4d39687ec351fb8d052998105e4966cab5b73b3e48a9021fe06",
    "spec_text_with_ties_1": "59a984d6e30211daccf6e26a37b9072d26fe6a602047a6bbda948ed227f67a8b",
    "spec_text_with_ties_17": "b4d176d1762f8963682684090c637968f29b8660c3bb0006bdb60efca6083bf2",
    "spec_text_with_ties_2": "95f84e1bc99a48ad87b9052e1d8995e834139885ac02163f7d8ed72907eb562a",
    "spec_text_with_ties_3": "473c61ea4808a7754803baf1fcaf394425553e043f9a84b25bc65eecdee69320",
    "spec_text_with_ties_64": "107b1f59a36d8195fc88e92867ef71d6575478756385fda1d3c286c18b1254c3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, monkeypatch):
    for constant, value in _CONSTANTS.get(name, {}).items():
        monkeypatch.setattr(algorithms, constant, value)
    assert _digest(CASES[name]()) == GOLDEN[name]


# ----------------------------------------------------------------------
# parser errors: (text, outcome of parse, outcome of UltrametricSpec.parse)

ERROR_TABLE = [
    ('', ('TreeParseError', 'empty input (at position 0)'), ('TreeParseError', 'empty input (at position 0)')),
    (' ', ('TreeParseError', 'empty input (at position 0)'), ('TreeParseError', 'empty input (at position 0)')),
    ('(', ('TreeParseError', 'unbalanced tree text (at position 0)'), ('TreeParseError', 'unbalanced tree text (at position 0)')),
    (')', ('TreeParseError', "unexpected ')' (at position 0)"), ('TreeParseError', "unexpected ')' (at position 0)")),
    ('(0,1', ('TreeParseError', 'unbalanced tree text (at position 4)'), ('TreeParseError', 'unbalanced tree text (at position 4)')),
    ('((0,1)2)', ('TreeParseError', "expected ',' or ')' (at position 6)"), ('TreeParseError', "expected ':weight' after ')' (at position 6)")),
    ('(0,,1)', ('TreeParseError', "unexpected ',' (at position 3)"), ('TreeParseError', "unexpected ',' (at position 3)")),
    ('(0,0)', ('TreeParseError', 'duplicate leaf index 0 (at position 3)'), ('TreeParseError', 'duplicate leaf index 0 (at position 3)')),
    ('(0,2)', ('ValueError', 'leaf indices must cover 0..1; missing [1]'), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    ('(0,1)x', ('TreeParseError', "unexpected character 'x' (at position 5)"), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    ('(0,1):1.0', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ok', '(0,1):1.0')),
    ('0 1', ('TreeParseError', "expected ',' or ')' (at position 2)"), ('TreeParseError', "expected ',' or ')' (at position 2)")),
    ('((0,1),2)', ('ok', '((0,1),2)'), ('TreeParseError', "expected ':weight' after ')' (at position 6)")),
    ('(0,1):', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', 'expected a weight (at position 6)')),
    ('(0,1):x', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', 'expected a weight (at position 6)')),
    ('(0,1):1.0x', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', "unexpected character 'x' (at position 9)")),
    ('(0,1):0', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ValueError', 'internal node weights must be positive and finite')),
    ('((0,1):2.0,2):1.0', ('TreeParseError', "unexpected character ':' (at position 6)"), ('ValueError', 'weights must be monotone: ancestors never lighter')),
    ('0', ('ok', '0'), ('ok', '0')),
    ('1', ('ValueError', 'leaf indices must cover 0..0; missing [0]'), ('ValueError', 'leaf indices must cover 0..0; missing [0]')),
    ('(0,1)', ('ok', '(0,1)'), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    (' ( 1 , 0 ) ', ('ok', '(0,1)'), ('TreeParseError', "expected ':weight' after ')' (at position 10)")),
    ('(0 1)', ('TreeParseError', "expected ',' or ')' (at position 3)"), ('TreeParseError', "expected ',' or ')' (at position 3)")),
    ('(0,1)(', ('TreeParseError', "expected ',' or ')' (at position 5)"), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    ('(0,1),', ('TreeParseError', "unexpected ',' (at position 5)"), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    ('(0,1))', ('TreeParseError', "unexpected ')' (at position 5)"), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    (',', ('TreeParseError', "unexpected ',' (at position 0)"), ('TreeParseError', "unexpected ',' (at position 0)")),
    ('-1', ('TreeParseError', "unexpected character '-' (at position 0)"), ('TreeParseError', "unexpected character '-' (at position 0)")),
    ('x', ('TreeParseError', "unexpected character 'x' (at position 0)"), ('TreeParseError', "unexpected character 'x' (at position 0)")),
    ('(0,(1,2))', ('ok', '(0,(1,2))'), ('TreeParseError', "expected ':weight' after ')' (at position 8)")),
    ('((0,1):1.0,2):2.0', ('TreeParseError', "unexpected character ':' (at position 6)"), ('ok', '((0,1):1.0,2):2.0')),
    ('(0,1) :1.0', ('TreeParseError', "unexpected character ':' (at position 6)"), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    ('(0,1): 1.0', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', 'expected a weight (at position 6)')),
    ('(0,1):1.5e-3', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ok', '(0,1):0.0015')),
    ('(0,1):1e400', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ValueError', 'internal node weights must be positive and finite')),
    ('(0,1):-1.0', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', 'expected a weight (at position 6)')),
    ('(0,1):.5', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', 'expected a weight (at position 6)')),
    ('(0,1):1.', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', "unexpected character '.' (at position 7)")),
    ('((0,1):1.0,(0,2):1.0):2.0', ('TreeParseError', "unexpected character ':' (at position 6)"), ('TreeParseError', 'duplicate leaf index 0 (at position 12)')),
    ('(٠,1)', ('TreeParseError', "unexpected character '٠' (at position 1)"), ('TreeParseError', "unexpected character '٠' (at position 1)")),
    ('(0,1)\n', ('ok', '(0,1)'), ('TreeParseError', "expected ':weight' after ')' (at position 5)")),
    ('(0,2):1.0', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ValueError', 'leaf indices must cover 0..1; missing [1]')),
    ('((0,2):1.0,3):2.0', ('TreeParseError', "unexpected character ':' (at position 6)"), ('ValueError', 'leaf indices must cover 0..2; missing [1]')),
    ('((0,1):1.0,2)', ('TreeParseError', "unexpected character ':' (at position 6)"), ('TreeParseError', "expected ':weight' after ')' (at position 13)")),
    ('(0,1):1.0  ', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ok', '(0,1):1.0')),
    ('(0,1):1.0:2.0', ('TreeParseError', "unexpected character ':' (at position 5)"), ('TreeParseError', "unexpected character ':' (at position 9)")),
    ('(1,1):1.0', ('TreeParseError', 'duplicate leaf index 1 (at position 3)'), ('TreeParseError', 'duplicate leaf index 1 (at position 3)')),
    ('(0,1):1E+2', ('TreeParseError', "unexpected character ':' (at position 5)"), ('ok', '(0,1):100.0')),
]


def _outcome(fn, text):
    try:
        value = fn(text)
    except (TreeParseError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", value.serialize()


@pytest.mark.parametrize("text,tree_outcome,spec_outcome", ERROR_TABLE)
def test_parser_outcomes(text, tree_outcome, spec_outcome):
    assert _outcome(parse, text) == tree_outcome
    assert _outcome(UltrametricSpec.parse, text) == spec_outcome


# ----------------------------------------------------------------------
# reports: CLI output files and the distance, revenue and high-revenue kernels


def _cli(tmp, *argv) -> bytes:
    out = tmp / "out.txt"
    assert cli_main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _csv(tmp, n: int) -> str:
    path = tmp / f"points_{n}.csv"
    if not path.exists():
        _cli(tmp, "synth", "--k", "3", "--n", str(n), "--dim", "4", "--separation", "6", "--seed", "7")
        (tmp / "out.txt").rename(path)
    return str(path)


def _cluster(tmp, n: int, algo: str, *extra) -> bytes:
    return _cli(tmp, "cluster", "--points", _csv(tmp, n), "--algo", algo, "--seed", "9", *extra)


def _eval(tmp, objective: str) -> bytes:
    tree = tmp / "tree.txt"
    tree.write_bytes(_cluster(tmp, 40, "bkm"))
    return _cli(tmp, "eval", "--points", _csv(tmp, 40), "--objective", objective, "--tree-file", str(tree))


def _wide(noise: float = 1.0, n: int = 700, dim: int = 64) -> PointSet:
    """Two clusters, 60% and 40% of the points, interleaved by index."""
    g = np.random.default_rng(dim)
    return PointSet(noise * g.standard_normal((n, dim)) + 4.0 * (np.arange(n) % 5 >= 3)[:, None])


def _per_split(points: PointSet, tree: HierTree):
    report = tree_revenue(points, tree)
    return [v for _, v in report.per_split], report.total


def _hex_per_split(seeds, n: int, dim: int):
    """`float.hex` of each split's revenue on a Gaussian random tree, per seed."""
    out = []
    for seed in seeds:
        points = PointSet(np.random.default_rng(seed).standard_normal((n, dim)))
        report = tree_revenue(points, random_tree(n, RngStream(seed)))
        out.append([v.hex() for v in report.values])
    return out


def _high(points: PointSet, cut: int):
    stats = high_revenue_stats(points, range(cut), range(cut, points.n))
    return sorted(stats.high_revenue_points_in_larger), stats.fraction


def _report_cases():
    out = {
        "cluster_bkm_lloyd": lambda t: _cluster(t, 40, "bkm"),
        "cluster_bkm_exhaustive": lambda t: _cluster(t, 16, "bkm", "--solver", "exhaustive"),
        "cluster_avg": lambda t: _cluster(t, 40, "avg"),
        "cluster_single": lambda t: _cluster(t, 40, "single"),
        "cluster_random": lambda t: _cluster(t, 40, "random"),
        "table1": lambda t: _cli(
            t, "experiment", "table1", "--synth-k", "3", "--synth-n", "60", "--synth-dim", "4",
            "--synth-separation", "6", "--synth-seed", "7", "--subsample", "30", "--runs", "2",
            "--seed", "3", "--algo", "bkm,avg,single,random", "--objective", "revenue,ckmm,dasgupta",
        ),
        "random_bad": lambda t: _cli(
            t, "experiment", "random-bad", "--sizes", "3,5", "--trials", "20", "--seed", "4"
        ),
        "bkm_lloyd_wide": lambda t: _ids(
            bisecting_kmeans(_wide(), TwoMeansSolverConfig(kind="lloyd", lloyd_restarts=2, seed=3))
        ),
        "revenue_random_tree_wide": lambda t: _per_split(_wide(), random_tree(700, RngStream(8))),
        "revenue_random_tree_600x64": lambda t: _hex_per_split((0, 1, 4, 5), 600, 64),
        "revenue_small": lambda t: [
            _per_split(_points(n, n, dim), random_tree(n, RngStream(n)))
            for n, dim in ((2, 1), (3, 2), (17, 3), (64, 5))
        ],
        "high_revenue_wide_even": lambda t: _high(_wide(0.05), 350),
        "high_revenue_wide_uneven": lambda t: _high(_wide(0.05), 200),
        "pairwise_wide": lambda t: pairwise_distances(_wide()).values,
        "pairwise_small": lambda t: pairwise_distances(_points(17, 3)).values,
    }
    for objective in ("revenue", "ckmm", "dasgupta"):
        out[f"eval_{objective}"] = lambda t, o=objective: _eval(t, o)
        out[f"enumerate_opt_{objective}"] = lambda t, o=objective: _cli(
            t, "enumerate-opt", "--points", _csv(t, 6), "--objective", o
        )
    for mode in MODES:
        out[f"revenue_ultrametric_{mode}_64"] = lambda t, m=mode: _per_split(
            embed_euclidean(_spec(m, 64)), _spec(m, 64).topology
        )
    return out


REPORT_CASES = _report_cases()

REPORT_GOLDEN = {
    "bkm_lloyd_wide": "4f74cf5c38372cbb0ae157bd59fa5e0c01cd588beaf8feda6cfe26f4de3f67c0",
    "cluster_avg": "7ed012ac3f2a40ba1866f8647d03f29eb71f6053f15e91c0e78447e0b5b4631e",
    "cluster_bkm_exhaustive": "ab40edef6cb8bdd1085cad27f37d65252368fd5b5d22a0f56d121351285df565",
    "cluster_bkm_lloyd": "4603c24356708bf7208dc3046441110ffae19d7346bb673cbee5e15d8b27f2ce",
    "cluster_random": "063715bfbb4b9d55b6749783d20c39018301c00c876cbd94a4a63eae59bdf9b1",
    "cluster_single": "42c4c4202cffddad015634cf80c2482e3d606b3127c9f6ea1a1cea767357aa6c",
    "enumerate_opt_ckmm": "ec9d02078e92fa4ad51c16395e4fa34ca9b4de2933ce9b7977dd4257c9fddd94",
    "enumerate_opt_dasgupta": "87a2556442b3f4b7d4e05254f88f4ecf887d173438c9a5d9a0a5dd36f8bf6132",
    "enumerate_opt_revenue": "c2b51f4fedb4ea6f1fb50eef429e03575b5d857bfed714f4594e65ab41c94c34",
    "eval_ckmm": "952e84285815770cd031ab36608e9787be70e94b7498e4aede379b68452aa324",
    "eval_dasgupta": "6adec1f03f7ef738f8e171d6ab604a39fdfbff33396651fe6f3f16ebedad29d3",
    "eval_revenue": "94b324daa1a53eb47cce4c4241fa3aa68571dd8319b5c4fb7cf33a9033826c32",
    "high_revenue_wide_even": "c01bb25110caa9234363cbd3d88b1a40c4130825ec2cb0ee421117e2a47e4a1e",
    "high_revenue_wide_uneven": "454437eadda33c36879bbf5bb7e132856376b3cce9cf6a36542be7466b6acb15",
    "pairwise_small": "2e896e5f056b98110ac0a74cf7e2838f1b344f0b9e785f81892862a0274e8dde",
    "pairwise_wide": "c8df333c77d021f47124ed633487e478f6effebeffce9d4e80475b9ed34cc2bd",
    "random_bad": "fe370ee9f9d5dc2553b64e3e01eb5a3b69744398aa650e623be9af0fee9eeaa3",
    "revenue_random_tree_600x64": "e71f68a00211d3f88f6a9e27b23dd0132f9c6bfa4bb1b079db1532cd4db34f2f",
    "revenue_random_tree_wide": "8bbe4ced69c938794ca62d76e2fabe03828ccd9bf0c81e99dd9c81443973c385",
    "revenue_small": "b676eba8a0371432b6ce287fb992e6bd64e6c6d5efc714dbf990e48c3be9dc48",
    "revenue_ultrametric_strict_64": "61a10e896c8ed17c0b92ee47f4f8e7c894dcc9bf5c900a30a312e11f99d1f80e",
    "revenue_ultrametric_with_ties_64": "be5c49de3436a0251279ba29454821fb31f80b47027b84ebea35e115ec067bd5",
    "table1": "96d0a1d4b788c048d758c5d76a1ac8489ed0eeba9a8b87beca8af8b3b5498017",
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_digest(name, tmp_path):
    assert _digest(REPORT_CASES[name](tmp_path)) == REPORT_GOLDEN[name]
