"""Golden CLI output: sha256 digests of stdout, recorded before the
row-list table refactor (the ``oracle --n 7`` digests before the oracle
grouped permutations by descent word, the ``series --order 24`` digests
before large ``QPoly`` products moved to Kronecker substitution).

Any change to the tables, the rewrite engines, the oracles, the renderers,
the disk cache or the check registry must leave these bytes unchanged.
Every ``table`` command is also run through a fresh disk cache, once as a
miss and once as a hit.  The mutated fixture cases pin the discrepancy
index of a failing report.
"""

import hashlib

import pytest

from qderiv import cli, verify

FAMILIES = ("a_small", "b_small", "A", "B", "Ac", "carlitz", "fib", "springer", "tq")
FORMATS = ("json", "csv", "latex", "text")

COMMANDS = (
    [("table", family, "--n", "6", "--format", fmt) for family in FAMILIES for fmt in FORMATS]
    + [("oracle", family, "--n", "5") for family in ("A", "B", "Ac")]
    + [("oracle", family, "--n", "7", "--format", "json") for family in ("A", "B", "Ac")]
    + [
        ("verify", "all", "--format", fmt, "--n", "4", "--order", "6", "--bound-bruteforce", "4")
        for fmt in ("json", "text")
    ]
    + [("series", name, "--order", "24", "--format", "json") for name in ("tan_q", "sec_q", "Sec_q")]
)

# (fixture key, cell, check id): bump the cell's first coefficient by one
MUTATIONS = (
    ("table2.a", (3, 1, 1, 1), "table2"),
    ("table3", (3, (0, 1, 2)), "table3"),
    ("carlitz", (4, 1), "10.2"),
)

GOLDEN = {
    "table a_small --n 6 --format json": (0, "384c82e78a631b9a206cd99830269f224007aeb91830b43e9d2276d08bc7631c"),
    "table a_small --n 6 --format csv": (0, "f0633ec97e486d2568f945fa9714196bb3bef90c9ea3437434ea84ecd8883541"),
    "table a_small --n 6 --format latex": (0, "1923346cfece2100868f5b32b86c15cf09059ca6a5a33e25309802bc48e3c4ad"),
    "table a_small --n 6 --format text": (0, "d0e11b3806c97469e424771b8a0f9845f5bb381dc2321e193172abcada7eff8d"),
    "table b_small --n 6 --format json": (0, "95a42495ddec828fad76c877965f335c0e279d19268cc654c449d23c74f15110"),
    "table b_small --n 6 --format csv": (0, "36c1fdb86a154ae84b7ca62abb496930019dcf4e2db899f9f49700114d64b579"),
    "table b_small --n 6 --format latex": (0, "69fc96e00c497efdc26f3ee09378a704629a22fda82ed3042962070f26d0e9a2"),
    "table b_small --n 6 --format text": (0, "88d79ce10bb8f5af03705b53fc59bacb9ede1289653ae14dedaebba5595e47ab"),
    "table A --n 6 --format json": (0, "2e6501cc772ccdf54bde30f982afa5a3960ba59965807948b055c2cd2a265361"),
    "table A --n 6 --format csv": (0, "be548b905eae4de9e7f8098bb5ccc80adccd07d049564a631ec85d0ff66bef3b"),
    "table A --n 6 --format latex": (0, "7c774ba2fdacdf0579ce550443ba1f36a4db0da6176b85738c3a99226d870b8b"),
    "table A --n 6 --format text": (0, "ed70686531222eb4693657786efc0a0fda6128c414919c6ab05e482f1975b647"),
    "table B --n 6 --format json": (0, "0a181099363e0113a37c949c080af6d19a82b29ffb102488c389aeb909b37a4d"),
    "table B --n 6 --format csv": (0, "64a9bbf81d8729b405fddec2145c8e19139abd48bd703848a8dcaf38086031d0"),
    "table B --n 6 --format latex": (0, "32205babd740a6030840829d393e028ad44e875350b6edd9e7ff4d97b06b461b"),
    "table B --n 6 --format text": (0, "4a7805ef2107f5986e02f4950930c85b1bb04fc0e5cd13ed1ade83e720e5f2e0"),
    "table Ac --n 6 --format json": (0, "ce2cba0dda0bbf1b4b74f1e81d05980a09a4e07b54a1fba28ccc910a1f642471"),
    "table Ac --n 6 --format csv": (0, "70197428db5dcf34805721e47309ef8dd2a4c8d7edaaf2847639cd2f134230a0"),
    "table Ac --n 6 --format latex": (0, "d23cfe0117538f4d83c6a111eec64da0bad89de066a0f39e1f6733fbfb4efb73"),
    "table Ac --n 6 --format text": (0, "66932e5bea07180d8e15dae408eb5e36b640a57af15053ad3025fb5ba33a64a9"),
    "table carlitz --n 6 --format json": (0, "7aaf04a1bb863c374a5b493106933c762671541b1f450942fff7fd22e41c90a1"),
    "table carlitz --n 6 --format csv": (0, "0f8031b3825afbfa28ee5b13150f772d501d331b9c6f3e68a62673814d249d0c"),
    "table carlitz --n 6 --format latex": (0, "69490b2c9cb9b81dab43b92714dbfacd3f6a1e19aee24321b7da9107fb0a8892"),
    "table carlitz --n 6 --format text": (0, "cd654953a33ad6899de62f62a4dade92902bdb2721828563a3de17814a11e1b0"),
    "table fib --n 6 --format json": (0, "630cb4caab92272342dd901622d713a2b600ce3a2ae31fa47d35b7669b8c3681"),
    "table fib --n 6 --format csv": (0, "3e69cd478866e8f3147002b2f5d259971b81e0703b5c9a7755ffefc0385da8d5"),
    "table fib --n 6 --format latex": (0, "5912453b6d01c8b5d5454c55b039f58c357c8ed537f0b0c36cd05c6ae68bf3aa"),
    "table fib --n 6 --format text": (0, "0754458008a1bd5c7df3b8a83065638fc38f037bd2c767449079a412cc1e3742"),
    "table springer --n 6 --format json": (0, "a2228b0e6e31c4ba8416eb40a14a0c459400987dcbd7ff5f620201c632fb742c"),
    "table springer --n 6 --format csv": (0, "3947ad03da2fa23574b09c759e66c7ae3d10784b12780c9405c0e81e0e2aeeba"),
    "table springer --n 6 --format latex": (0, "0ff868c713870ce6504d6eebed75686e50404c15ed531b6d573432e2506a576c"),
    "table springer --n 6 --format text": (0, "8b003d0520214300cd3d91994a7664e5c31fb4208ade34e45773dd6acb6fb97b"),
    "table tq --n 6 --format json": (0, "1331bc66ecda03d36757719cb54059b5c888dc0b668b1e2de255db051a5f77a2"),
    "table tq --n 6 --format csv": (0, "08d610f5d24fda6533240d999a0a6d336ae1f9a135dbf32852ad65c2c491c889"),
    "table tq --n 6 --format latex": (0, "e4efba64a4af1e226e5399099df108fb9a43fd8e116ee23d3eb172d0ef9d48e7"),
    "table tq --n 6 --format text": (0, "b5ea48baac1c95ead857380f23088d91ecfa9be44a783db932362ea79729d97b"),
    "oracle A --n 5": (0, "21ee6b1001b378fabb1e246cefcfbd7ceba6819b1d6598ed74e94d0a3d051bf9"),
    "oracle B --n 5": (0, "2d22931784798993c36622a2cfa6c874368d11420d00c5f44619ae320daaf613"),
    "oracle Ac --n 5": (0, "f19c21157effa2256e13845db9601db6c938f42d426805b6222a626e58250b40"),
    "oracle A --n 7 --format json": (0, "b64a5a2b9f6a6b4529ae266f31285606a8c7dc6367940bdd1e2aac5151204db0"),
    "oracle B --n 7 --format json": (0, "0fcfd8dbc2b839a2bb7351a76e1f66f893de32a3b9807db143f7b2af4428ac0a"),
    "oracle Ac --n 7 --format json": (0, "be94fdec69954b92c09c417668f969e9349de5f0fef1b07769da7b80b8cadbf0"),
    "verify all --format json --n 4 --order 6 --bound-bruteforce 4": (0, "894a3e7591bbb25ee881ebde1530a47c99473aeb05074a3b6458089095f340b0"),
    "verify all --format text --n 4 --order 6 --bound-bruteforce 4": (0, "72fea9d18a2057ad93524158bc82eaa799193b50fb79b9457f4b5899602c9997"),
    "series tan_q --order 24 --format json": (0, "9f4fa3519903544c8250fa3b84a7d1278e14795da34b458462ea699ba3437beb"),
    "series sec_q --order 24 --format json": (0, "2eb3a971e0dc1db995ebc0ad4037904ebfe1b7c168987df3262f3d2700533ba3"),
    "series Sec_q --order 24 --format json": (0, "9ec8e4bc19b40f6faaf7b5547a705da89bcb16ff13e6f4727ad03a1f5c278fb5"),
}

MUTATED_GOLDEN = {
    "table2": (1, "2af392444225105593cb038af7b33ad58607d882c6a71608efc5c54a0067ee74"),
    "table3": (1, "a8ffd177c5f5c118118d4c8686addbc238d6a2afca8574575ee854e50487d672"),
    "10.2": (1, "6ad573bb3e4896a9425c924a7f9944670fd790e4172dc9aeac2bbe960e803c7b"),
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_command(argv, capsys):
    code = cli.main(list(argv))
    return code, _digest(capsys.readouterr().out)


def run_mutation(key, cell, check_id, capsys, monkeypatch):
    fixtures = dict(verify.DEFAULT_FIXTURES)
    table = dict(fixtures[key])
    value = table[cell]
    table[cell] = (value[0] + 1,) + value[1:]
    fixtures[key] = table
    monkeypatch.setattr(verify, "DEFAULT_FIXTURES", fixtures)
    return run_command(("verify", check_id), capsys)


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_golden(argv, capsys):
    assert run_command(argv, capsys) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("argv", [c for c in COMMANDS if c[0] == "table"], ids=" ".join)
def test_cached_stdout_matches_golden(argv, capsys, tmp_path):
    cached = tuple(argv) + ("--cache-dir", str(tmp_path))
    assert run_command(cached, capsys) == GOLDEN[" ".join(argv)]
    assert cli.cache_load(str(tmp_path), argv[1], 6, argv[-1]) is not None
    assert run_command(cached, capsys) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("key,cell,check_id", MUTATIONS, ids=lambda v: str(v))
def test_mutated_fixture_report(key, cell, check_id, capsys, monkeypatch):
    result = run_mutation(key, cell, check_id, capsys, monkeypatch)
    assert result == MUTATED_GOLDEN[check_id]
