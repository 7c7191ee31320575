"""Golden CLI output: exit code and SHA-256 of stdout for searches, checks,
certificates, the other JSON reports and replay.

The digests were recorded from the code before the search, triple-kernel,
solver and builder merges (the bicirc --params, --sp-complement and --sp-size
runs, and "bicirc --n 6" and "tricirc --n 3" with --no-prune, before the two
search workers became one; the bicirc n = 11, 12 and 13 runs before the
default bicirculant path solved T from its autocorrelation; the tricirc n = 7
run before the tricirculant search solved its connections from their
autocorrelations; the tricirc n = 11 and 13 runs before that search walked
only the diagonal triples of the connection-size shapes its candidate count
admits).  --no-prune ran the plain product of every symbol; that
path and the flag are gone, and the join prints the same bytes for those two
runs.  Any change to the bytes these commands print fails here.
Each search runs at --jobs 1 and --jobs 2.  The certificate digests were
recorded from the code that scanned every R in 0..lambda, before the
edge-parameter solver walked one arithmetic progression in R; they pin the
certificate bytes, solver oracle included.  The REPORTS and REPLAYS digests
were recorded from the code that wrote every indented report with
json.dumps(sort_keys=True, indent=2), before one list-append emitter wrote
them all, except the two "params solve 16" reports, recorded from the code
before the value classes became NamedTuples, the "params solve 16 10 6 6"
and "params solve 37 21 10 14" reports, recorded from the code whose local
solver filtered the edge solver's tuples, before both solvers walked only
the R that solve their congruences and bounds, and the "check srg" reports of
c5, paley-13 and petersen, recorded from the code that computed eigenvalues
and the Hoffman bound with a general quadratic-surd class, before one
closed-form formatter printed them (tests/test_srg.py pins that text over
4,320 parameter sets the same way).  "check isoreg k4xk4 --k 4" and the four
"check tvertex" reports at t = 3 and 4 were recorded from the code that typed
induced subgraphs by trying every vertex ordering, with a separate size-3
path in the t-vertex condition, before one degree-sequence table typed them.
The "check srg" reports of C6 and K6 and the two "check local3 --vertex"
reports were recorded from the code that emitted each check kind's report
with its own copy of the output and exit-code tail, before the four kinds
shared one.
"""

import hashlib
import json

import pytest

from isoreg.cli import main

SEARCHES = {
    "search tricirc --n 5 --params 15,6,1,3": (
        0, "a02c7a9c2975f5c49f6da620fd3f91c9e6ec221cc196c5e796bd625de6ac31ac"),
    "search tricirc --n 5 --params 15,8,4,4": (
        0, "325ff997837a35758d3f1570ec33e991f669755e3db688e5c85a05fb01509010"),
    "search tricirc --n 7 --params 21,10,5,4": (
        0, "0c5de22041d464f7bab1157de1aecb1509dedbbf44069013440af96567f5732a"),
    "search tricirc --n 3 --params 9,4,1,2": (
        0, "889e260485b62ffaa3610b21a2ec5d7c3f75065bd2e6804ffafb1742fa08d4f4"),
    "search tricirc --n 13 --params 39,2,1,0": (
        0, "da2eef7358804a2f6242bd4385d489e0f22ec98c6a6d35fc6e9440fc527988af"),
    "search tricirc --n 13 --params 39,4,3,0": (
        0, "d70c1259e80bc4668b321f71c5f13954ede2e1336267b30a8aeeaf4129a9bc84"),
    "search tricirc --n 11 --params 33,2,1,0": (
        0, "4f377db29377f0e8e533097914cd922981367b64ab61cab5f7aeee5e25ba47e1"),
    "search bicirc --n 8": (
        0, "2c46ca6affd41b8b611ef645c3e3c83213dd1c0cfa7b02294659904766496f1f"),
    "search bicirc --n 8 --iso3": (
        0, "a90518053a77d889a683c075448d6fda7634359a9db8755a84400c4623cbdd0a"),
    "search bicirc --n 5 --params 10,3,0,1": (
        0, "5fca75511712b7784c60ab642ffb491abb8c2d50afc63547e817cdf94cea612c"),
    "search bicirc --n 5 --sp-complement --params 10,3,0,1 --s-size 2 --t-size 1": (
        0, "788b9f41b89ddc1cd12d9110a26cdbe0ded68936ab2f2492621a6615ee0b26d1"),
    "search bicirc --n 9 --sp-complement --s-size 4 --t-size 4": (
        0, "f2e792493ad0759e3e1dcab3a0143340e794b41421be8645a10d506ecd4efec0"),
    "search bicirc --n 8 --sp-size 3": (
        0, "5badaf60e497974809432430518e14ec371bb4758de6deab483099dc290b7b88"),
    "search bicirc --n 6": (
        0, "dff9c191a9ed79d56778d4b987f7fd55ad77a98eedd585a78fbfb8ed62d7774f"),
    "search bicirc --n 11": (
        0, "dc8ea72dec920fa52cbce0a57af75a040186b6c85a03fc5196d0374abb198948"),
    "search bicirc --n 12": (
        0, "f4a0d6cee356514b9fdef58b5c442a67febcdd7c281df4e49b789dab5b2e3e6b"),
    "search bicirc --n 13 --params 26,10,3,4 --sp-complement --s-size 6 --t-size 4": (
        0, "7b0cbdc64c765fd99bf79a99beeff5aa4b36f54565881d3535dfe41850f622b1"),
    "search bicirc-odd --n 5": (
        0, "115e98adcb89e9cb32e9349fca8808d97959fba26e8aada39833de5fb3165fb4"),
    "search bicirc-odd --n 7": (
        0, "66b3e6be428822e1a7f9e7fd5197f0fde2a88cda4cdc82eb472f81f28d8d3be2"),
}

CHECKS = {
    "check isoreg clebsch --k 4": (
        1, "7af93b64cd4f8b4e638cb592d8f0f1e317aa3892bf6f157aabcf40f95a55454a"),
    "check isoreg clebsch --k 3": (
        0, "68d8e263f6424d6186f6a6688e48eb80724519d9f74ef9ceaade2cb0e543375f"),
    "check isoreg shrikhande-a --k 3": (
        1, "16a4d4d16a917a5736d051dfdb711d798f18b11e2a9e73e251a18035e3e9a8a2"),
    "check isoreg k4xk4 --k 3": (
        0, "e957f9912d8ee95a60f56ca8ae362e3885f39d6e3625202b426e398909e678da"),
    "check local3 petersen": (
        1, "11c214e98a4a5dd49a0f69171a7a7613f26b35cfadbb38ec75f021058fdf96f1"),
    # A 2K2 witness: the first size-4 type whose valency varies.
    "check isoreg k4xk4 --k 4": (
        1, "00a76fc0a5df240c57c3e8bcffe8fc6491153493e58ecae4b82bbbabde5ee377"),
}

CERTIFICATES = {
    "certify bicirc-odd --range 2..60": (
        0, "872902563407bf9d49ff31f03ce12142af83796d6bc9bc1cbbeefff97aa14dc4"),
    "certify family-b --range 3..59": (
        0, "ffce317cc8aa866b323cf27f8d7925bc4850d7ea3ec7d835897e3753ac699b6b"),
    "certify family-c --range 3..59": (
        0, "13c068a58c048cfd9efd25f33c081c5ef079dae44af178bfcf4f643f85c34866"),
    # Leading-dash ranges need the --range=lo..hi spelling under argparse.
    "certify tri1 --range=-50..50": (
        0, "01e940849541d7a98e3be8611f1fe7f612b0c26ec411d5db82368a5352863951"),
    "certify tri2 --range=-50..50": (
        0, "59fc9697f2768ea809569fca033d1e0c4d6c1e4d7b2de0443c70d4816be7e75e"),
}

# The indented reports of build, check, params and families that no entry
# above covers.
REPORTS = {
    "build c5 --format json": (
        0, "840e4b4f913b6efc0a1b6739580235804b10dd6f5bfe8db9f14356f4332d613d"),
    "check srg clebsch": (
        0, "74fedaafa3da6fc210e3c6e375b0e6aa5525356211c85cacfe9d634e610ab332"),
    # Irrational eigenvalues and Hoffman bound: (-1+-sqrt(5))/2 and sqrt(5).
    "check srg c5": (
        0, "d2faf6cfe05a07a120fa27b9ba859c71f8ebb200e530103cc90546ee9e843055"),
    # (-1+-sqrt(13))/2 and sqrt(13).
    "check srg paley-13": (
        0, "2fc4c3e011593133e56eb00d88dba77bbf0434c4a5bef571b179c0df3b9f2d73"),
    # Integer eigenvalues 1 and -2 with a fractional bound, 5/2.
    "check srg petersen": (
        0, "084f4ee5a6e0853b5baeed90e78e5a53385a41748748518d56d76898b2bfe4b7"),
    "check tvertex petersen --t 2": (
        0, "29815a0a39780fcb76f5246b9fea8d5a60c7be958e09816c5a5707baaceed8fc"),
    # Fails at j = 4 on a non-adjacent pair, 4K1 counts 1 and 2.
    "check tvertex shrikhande-a --t 4": (
        1, "35318651021724593dc6b670407d0156fa2080d40aedaf59556a73c85e3e084b"),
    "check tvertex shrikhande-b --t 4": (
        1, "aaa7242a7c8d332809d280af3defcdc434777a2dfa1d42a6fa2e79980dc1a31b"),
    # Fails at j = 3: C6 is regular but not strongly regular.
    "check tvertex circ:n=6;S=1,-1 --t 3": (
        1, "a928a021e094b0b7db9733b2ac0a4130c783fd3c20ccd31deca99f04ac98ecf6"),
    "check tvertex clebsch --t 4": (
        0, "138d66087e8387ba04edd0c1121a04fd2754d1545a0c16e52b2aaf48d255eec1"),
    "check local3 clebsch": (
        0, "a7fdcb2303250d55b7dbffa6fe7ae624308d98d28a5dbde07455f4c1eefce697"),
    # C6 is regular but not strongly regular: "srg" is null.
    "check srg circ:n=6;S=1,-1": (
        1, "98817329eb618b0b087c3b286b355b0945044788d04dfed045b7610362a8fbc3"),
    # K6 is trivially strongly regular, so the report has no eigenvalues.
    "check srg circ:n=6;S=1,2,3,4,5": (
        0, "e9492f1d11ec1d70042c0f168f7cce645362ecbbb9dcce28007d08e6ad7c9ac3"),
    "check local3 clebsch --vertex 3": (
        0, "66cc8c5cf3e623afc76204c19168a2b002e0ee20ef3a75065ec9ec886add0581"),
    # Fails on the edge side at x = 0, so "nonedge" is null.
    "check local3 petersen --vertex 0": (
        1, "dd75a398e561347bf38e2160ccb70931f0466def36143b8d957a695fbacb4105"),
    # No solution: "solutions" is an empty list.
    "params solve 50 21 8 9": (
        0, "802b6af8323dc4ad5d66613f80143df2204a686f58768d76a9a36a292a62dcf0"),
    # Solutions with an empty "trace" object.
    "params solve 16 6 2 2": (
        0, "7893254d9227161c4e322c3aface1e6078c5ab1eb56bcf5ca36e256b36b3d4fc"),
    # lambda = 0, so Q is vacuous.
    "params solve 16 5 0 2": (
        0, "b5d7f25314fd1201a2c29dd49da30a291d6bfbd2f9a5eabd1ef69d0041a2824d"),
    # The complement of the Clebsch graph: D22 = 0, so V is vacuous.
    "params solve 16 10 6 6": (
        0, "b935ceb4ccfb61c037ad03b7d71727c7e66978934ba87353e86da0a8b431c068"),
    # Four solutions, R = 5..8.
    "params solve 37 21 10 14": (
        0, "afe6dfeb95d394358c6522245dd7bf58f8f4ebcd3d260843c0a80f80e54fe03c"),
    "families thm22 --max 10": (
        0, "e8a1bff43db503c3f8b1775d2b6a8e182007821abc78096f864e55e9ee4b795e"),
    "families lm93 --max 10": (
        0, "99f82e01705621d01a94f18e5e2d740278b104a868044a9ad99b00b80d41c401"),
    "families tri --max 10": (
        0, "4f0efb3397071635c8ef247715a58c2d10b29dba0cf81b5833b32574df3b81a7"),
}

CASES = [(f"{cmd} --jobs {jobs}", want) for cmd, want in SEARCHES.items() for jobs in (1, 2)]
CASES += list(CHECKS.items()) + list(CERTIFICATES.items()) + list(REPORTS.items())

# The replay report of the certificate `certify bicirc-odd --range 2..5`
# writes, as written and with the lhs of index 3's first step raised by 1.
REPLAYS = {
    "as-written": (
        0, "06fb7838be1dec04fa0efed2ca9f5d89baa5d2466488824b921997e1a4faf67d"),
    "step-shifted": (
        1, "4b54af6aae122a0ec00422dc9386f8e6674f0d40879caea9b0a9b7ad6e574663"),
}


@pytest.mark.parametrize("command,want", CASES, ids=[c for c, _ in CASES])
def test_golden_stdout(capsys, command, want):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == want


@pytest.mark.parametrize("variant", sorted(REPLAYS))
def test_golden_replay_report(capsys, tmp_path, variant):
    path = tmp_path / "cert.json"
    assert main(["certify", "bicirc-odd", "--range", "2..5", "-o", str(path)]) == 0
    if variant == "step-shifted":
        cert = json.loads(path.read_text())
        cert["instances"][1]["steps"][0]["data"]["lhs"] += 1
        path.write_text(json.dumps(cert))
    capsys.readouterr()
    code = main(["replay", str(path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPLAYS[variant]
