"""The synth and experiment outputs stay byte-identical on seeded fixtures.

Each synth case writes a fixture with `idtree synth` and compares the
sha256 of every file it wrote with a pinned value.  Each experiment case
synthesizes a fixture, runs `idtree metrics`, `idtree stats`, `idtree eval-z`
(fractional and absolute gain) and `idtree eval-tot` on it under one tie
policy, and does the same, for the `corpus.cache` each run writes too.
The random fixture has depth ties, so the two tie policies differ there;
one more eval-z run on it pins z scores that differ between them.
A change that moves any of these bytes has to say why and re-pin them.
"""

import csv
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from idtree.cli import CACHE_NAME, main
from idtree.corpus import CACHE_FORMAT, load_cache
from test_metrics import _same_year_corpus

# fixture -> (synth flags, eval-z flags, eval-tot flags)
FIXTURES = {
    "toy": (["--kind", "toy"], ["--years", "2000:2000", "--t1", "1", "--t2", "3"], ["--t2", "4"]),
    "planted-z": (["--kind", "planted-z"], [], ["--pct", "0.25"]),
    "planted-tot": (["--kind", "planted-tot"], [], []),
    "random": (
        ["--kind", "random", "--n-papers", "2500", "--years", "1985:2005", "--mean-refs", "6", "--followup", "1",
         "--seed", "3"],
        ["--years", "1990:2001", "--t1", "3", "--t2", "7"],
        ["--pct", "0.25", "--t2", "8"],
    ),
}

# synth case -> flags
SYNTH = {
    "toy": ["--kind", "toy"],
    "planted-z": ["--kind", "planted-z"],
    "planted-tot": ["--kind", "planted-tot"],
    "random": ["--kind", "random", "--n-papers", "500", "--years", "1990:2000", "--followup", "0.5", "--seed", "3"],
    # preferential attachment (bias > 0) draws from the weighted pool; demo 03's flags
    "random-bias": ["--kind", "random", "--n-papers", "20000", "--years", "1970:2010", "--mean-refs", "4",
                    "--bias", "0.8", "--followup", "0.4", "--seed", "42"],
    **{f"{kind}-{n}": ["--kind", kind, "--n", n]
       for kind in ("star", "chain", "broom", "ideal") for n in ("1", "3", "9", "16")},
    **{f"broom-{n}-k3": ["--kind", "broom", "--n", n, "--k", "3"] for n in ("9", "16")},
    "broom-9-k0": ["--kind", "broom", "--n", "9", "--k", "0"],
    "broom-16-k15": ["--kind", "broom", "--n", "16", "--k", "15"],
}

SYNTH_FILES = ("edges.tsv", "meta.jsonl", "tree.json", "awardees.csv")

# sha256 of each file a synth case writes
SYNTH_PINNED = {
    "broom-1": {
        "edges.tsv": "4c4d730d02b6593dfc75263ddd5b9b1bac2c22272f650d31736c3f579ea194e9",
        "meta.jsonl": "158730b38d01cc7d058a9ba23215e738c74c8076ba6776187f69a5bc2664c1f4",
        "tree.json": "1c3e1e1b7f95b7093877a762245aed7247be55aafbae393dde6f1c969ddc3308",
    },
    "broom-16": {
        "edges.tsv": "5d9751ff2e3475b635c11893cc5bc9d331224c11a9f12903e75c3e14a680fa15",
        "meta.jsonl": "af7b50e93e5eabab5a3eb97d8cf128b81d184b0673d7aea358932b24c62f40aa",
        "tree.json": "4a80074ce764750183710b9949901f7baee97d1c5adc9a7c66b658d263928e7b",
    },
    "broom-16-k15": {
        "edges.tsv": "158bdab566a61d48c19e1cbab65ed7dd5ed8f31df6e75b6377294944bba3eab4",
        "meta.jsonl": "6c1a687275389b6afb2f505f842d37a20e10d54dbcde195c719ea5a84a7fe904",
        "tree.json": "abd1a243a436c8c6bd82e61d4e38f12b0247e63b9338019435669c3234787141",
    },
    "broom-16-k3": {
        "edges.tsv": "24e45c77e08edb91722c15a429b1b5dc96ee0563dd52efda454b5972c710b6f4",
        "meta.jsonl": "a503e6a4c010e34e554c65196f4960f9271d34bebb55c99a710d2b1815d4e390",
        "tree.json": "6ff47c2b62b3afc75b65a27327f48ee9f01124fff32849a16735c94cedd6d052",
    },
    "broom-3": {
        "edges.tsv": "815ca614bd7ed026d7d911c3093b80326ec87a14dcdfef77982e8e256463ae6f",
        "meta.jsonl": "bbe15aeda576aac70eee07ecbb9e171bc04d4040565ce273e256fab6dc4c0251",
        "tree.json": "e0b9073ce18f0c6096cd49c655b24f442dd5b54259492e1d295f4a5ddae9c35b",
    },
    "broom-9": {
        "edges.tsv": "87e9f981367f0c6df719662be1902af96007c1ef1c104b78fe88bb8eb74e2e69",
        "meta.jsonl": "638abea585111face180374c4da373d25d48dc765cd5e8c1d530252ec6e25ba2",
        "tree.json": "4d527a60e3c5704fe40dfb27da6fd9a064de7ac0f5c6b4532d0550cf35003d46",
    },
    "broom-9-k0": {
        "edges.tsv": "e1e9f918c01288a5f3fdcb2bee54df316fc186d18ed250a6ebbf7708b50bf692",
        "meta.jsonl": "4bd3f04cf953d2f7b4aeb8bb825ce41b9cd14e6ec676e0a5e1bb1efa8d38809d",
        "tree.json": "642636fa41d303910a44a60f4be628ce3f251b237902d6208c203242c36d1eb9",
    },
    "broom-9-k3": {
        "edges.tsv": "6583b3159e2dc812eb75c33c4864f6bebb3d4211724205599413b92110e6a64a",
        "meta.jsonl": "3cf15bd874458d073ae13f756006c38d77d7e90c02c5fdca925e40141af38b08",
        "tree.json": "e0679f439938370a2ccadc3f8afec114a2d56ad7f84b2022bbb9287247393385",
    },
    "chain-1": {
        "edges.tsv": "4c4d730d02b6593dfc75263ddd5b9b1bac2c22272f650d31736c3f579ea194e9",
        "meta.jsonl": "158730b38d01cc7d058a9ba23215e738c74c8076ba6776187f69a5bc2664c1f4",
        "tree.json": "1c3e1e1b7f95b7093877a762245aed7247be55aafbae393dde6f1c969ddc3308",
    },
    "chain-16": {
        "edges.tsv": "158bdab566a61d48c19e1cbab65ed7dd5ed8f31df6e75b6377294944bba3eab4",
        "meta.jsonl": "6c1a687275389b6afb2f505f842d37a20e10d54dbcde195c719ea5a84a7fe904",
        "tree.json": "abd1a243a436c8c6bd82e61d4e38f12b0247e63b9338019435669c3234787141",
    },
    "chain-3": {
        "edges.tsv": "69eceb066f0732ecd46fe34d9834e747541b591930be9ad4cf1916c76581dcb9",
        "meta.jsonl": "f0edb974f828edac96371555241d7230430a4b01a28e296e04322cc9f7ed21a5",
        "tree.json": "2db0361bfbb33aaa708a02b8d319fd3aabbe182494bb300d2609d56949506e1c",
    },
    "chain-9": {
        "edges.tsv": "e2c6ede627c7e0d24127c4098ecd8f5b48bc93be27e5a2bdcb93a17fb29e1e56",
        "meta.jsonl": "a5f61ffd14cd7bda5d192b2fb37789a8539f9c445087938abfbcaf62288fd623",
        "tree.json": "98e60e4c1edaf9f8e361a868192826a989de34a17ac2853d16cc82c40548112a",
    },
    "ideal-1": {
        "edges.tsv": "4c4d730d02b6593dfc75263ddd5b9b1bac2c22272f650d31736c3f579ea194e9",
        "meta.jsonl": "158730b38d01cc7d058a9ba23215e738c74c8076ba6776187f69a5bc2664c1f4",
        "tree.json": "1c3e1e1b7f95b7093877a762245aed7247be55aafbae393dde6f1c969ddc3308",
    },
    "ideal-16": {
        "edges.tsv": "e5c9da88a3a8889de2f3fc631a997bb78e10fd1753da813e6da203f20f59f551",
        "meta.jsonl": "f9c724f8784866e017388c6d5ac754fa436778e5955b3ffae41af77d839d5a65",
        "tree.json": "2f42df74fa280f2b8dca8259eebf265e1873a8ebde3bb2690581aaae56cf67d1",
    },
    "ideal-3": {
        "edges.tsv": "ae629e194833ae0fa4ac764b04c6b035800962bca5bb16da38f192dcc9bc4514",
        "meta.jsonl": "d32b64070bc8eaea74278363c380d2d6abff446ea86d018507b4fe3b74f41846",
        "tree.json": "8dde93de47f4c5742254fbc1248072ebc8fe0d6443c0e9143fbd0bdaea226395",
    },
    "ideal-9": {
        "edges.tsv": "34c16aac626c5b378415b24011022e1f496b412b1c95227dd54cd397f5e06196",
        "meta.jsonl": "bc20ae435a042660f8541fe3581aafb47d263f4c258d5d56db4f4a8c49dd30a3",
        "tree.json": "49708401d2fffaf10899ee9e801a24a703d68a7ee356f85c8b7ca93a6cb7e055",
    },
    "planted-tot": {
        "edges.tsv": "26161cc1199dcb80ddb2a5beaf834aa493fd64eb13216381504718909fc2a6f0",
        "meta.jsonl": "66d9ef53ab384d04e15586fca5d4624c7e53f991d891fc17bb84408ca5920a0f",
        "awardees.csv": "caa8b18f9e7d49e6b59f48860ea61f9ba5bd58a358773f4dae2170b548ebb5f5",
    },
    "planted-z": {
        "edges.tsv": "c208e441a58ccfb51dc37b1ca2af90a264194da6982d5a6e17557a7579182492",
        "meta.jsonl": "e65355294b06ced8cc7fa18d0649fa1eb543b943df167b3adc4754e335fd7c13",
    },
    "random": {
        "edges.tsv": "194c1442b9a097fd6203be0f00c933ad17dc41f6f1407e12bad2ff8ca9c1eabe",
        "meta.jsonl": "1d2045764bda8cd544c49ff9e6efffc71a0f7cc09c29cfc2709a4f42a607701c",
    },
    "random-bias": {
        "edges.tsv": "55fd7550989061dee18243610077c0b41ff33b8d019b141333ce6e83cc201bf3",
        "meta.jsonl": "c2675d7b48ff74c37f9b88cf60389f74c978b828c397038af0e97f88fd4661e8",
    },
    "star-1": {
        "edges.tsv": "4c4d730d02b6593dfc75263ddd5b9b1bac2c22272f650d31736c3f579ea194e9",
        "meta.jsonl": "158730b38d01cc7d058a9ba23215e738c74c8076ba6776187f69a5bc2664c1f4",
        "tree.json": "1c3e1e1b7f95b7093877a762245aed7247be55aafbae393dde6f1c969ddc3308",
    },
    "star-16": {
        "edges.tsv": "2321b65b5e0b1b1393a91aa8498ebc4109fd9eeb8713ea1f82ca9ab6f5b4ff96",
        "meta.jsonl": "2e23854b2114ac40c4e913ea0443f284b2d70971c4b884e8822b8e35015eef8b",
        "tree.json": "ebea7040a79e9f24673b1e485263b2a2b337e96a81331c0de0bb27890abd33bb",
    },
    "star-3": {
        "edges.tsv": "385a9c727d167c716f1e7ab7bd29b973b30fe2e24c88ff1c79cca1ff0432b5d0",
        "meta.jsonl": "1dac8b143efd477b29f20f6f25fea39b068c8f4513a6497781d9814f68f87a4f",
        "tree.json": "9768b08799cc09dde5c88dd31c36c265cf0e5f5dcdc49dd52c187f7bc1a2db1c",
    },
    "star-9": {
        "edges.tsv": "e1e9f918c01288a5f3fdcb2bee54df316fc186d18ed250a6ebbf7708b50bf692",
        "meta.jsonl": "4bd3f04cf953d2f7b4aeb8bb825ce41b9cd14e6ec676e0a5e1bb1efa8d38809d",
        "tree.json": "642636fa41d303910a44a60f4be628ce3f251b237902d6208c203242c36d1eb9",
    },
    "toy": {
        "edges.tsv": "17ff46a4c1185ad64c763d0dbc5972a83c60cfeacc8e37469ae426cdcdd65286",
        "meta.jsonl": "3b5ffc1044e82cd642c787251026fc9d0e4cdd4afca896c32bc313334ee23c86",
    },
}

RUNS = {
    "metrics": ("metrics.csv",),
    "stats": ("depth_hist.csv", "breadth_hist.csv", "scatter.csv", "stats_summary.json"),
    "eval-z": ("venues.csv", "z_summary.json"),
    "eval-z-absolute": ("venues.csv", "z_summary.json"),
    "eval-tot": ("tot_cases.csv", "tot_summary.json"),
}

# sha256 of each output file, and the exit code of each run
PINNED = {
    ("planted-tot", "min-id"): {
        "metrics": 0,
        "metrics/metrics.csv": "9d3f79b4fa6884b896898628beb48086b9ae1cc6d1258a647fb5293b1b16b5bf",
        "stats": 0,
        "stats/depth_hist.csv": "9d27a7366f3dd431a6841abb968ced2a4c7394fac0d81cb917e09c7a900bc3ab",
        "stats/breadth_hist.csv": "e955b74e1062d1b0ca2ddddd86c4affedbf59d1f0b525688e4b89127d225f8b1",
        "stats/scatter.csv": "7d0d33f2d9774aed307b78ac866e8bbba8c5e89e1e91d70da51e8f8759842d4d",
        "stats/stats_summary.json": "8576179b8d474da0683884d0ddd74c231147f8cfe0c3cd732f4459c9c28f1bc7",
        "eval-z": 0,
        "eval-z/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z-absolute/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "0c48d24ab1d81ecfd5671e44bdb25bcd579b00e7e55244efcf4171a0e76d67f8",
        "eval-tot/tot_summary.json": "97c5e37cd0676cfc35731642dc9ed75aa9603dbc9750a611fb3bf4132326be3e",
    },
    ("planted-tot", "random"): {
        "metrics": 0,
        "metrics/metrics.csv": "9d3f79b4fa6884b896898628beb48086b9ae1cc6d1258a647fb5293b1b16b5bf",
        "stats": 0,
        "stats/depth_hist.csv": "9d27a7366f3dd431a6841abb968ced2a4c7394fac0d81cb917e09c7a900bc3ab",
        "stats/breadth_hist.csv": "e955b74e1062d1b0ca2ddddd86c4affedbf59d1f0b525688e4b89127d225f8b1",
        "stats/scatter.csv": "7d0d33f2d9774aed307b78ac866e8bbba8c5e89e1e91d70da51e8f8759842d4d",
        "stats/stats_summary.json": "8576179b8d474da0683884d0ddd74c231147f8cfe0c3cd732f4459c9c28f1bc7",
        "eval-z": 0,
        "eval-z/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "53cbdad9f95e0549cb64a21c5a6dd57f91a0a51ac24515697ea76d5decf42f46",
        "eval-z-absolute/z_summary.json": "73250a41ac25c5c9f42a441739fd247ceea405b1883d649e6411893184d631f2",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "0c48d24ab1d81ecfd5671e44bdb25bcd579b00e7e55244efcf4171a0e76d67f8",
        "eval-tot/tot_summary.json": "97c5e37cd0676cfc35731642dc9ed75aa9603dbc9750a611fb3bf4132326be3e",
    },
    ("planted-z", "min-id"): {
        "metrics": 0,
        "metrics/metrics.csv": "91119f9cae2589cc3719ad4f8849ee283663e636ebab1b3d529b3c48401ba6e3",
        "stats": 0,
        "stats/depth_hist.csv": "83cfca545dc0484b2325a97541d576caffead5e8b862ce8ac974b4b1f99d50cb",
        "stats/breadth_hist.csv": "20e807ec0b604445190de50bdfc53f9536c06c53b21bde935247efac4347238c",
        "stats/scatter.csv": "137586af2983532199c8238156364125aabbf05ffb6d78a8772f5a4b1a4c3943",
        "stats/stats_summary.json": "a451d16cdb950d7c1272bba23f577096d575064a64a5a9d0d0d7ecaf45bf8149",
        "eval-z": 0,
        "eval-z/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z-absolute/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "8a63972adc3c8c821e6e1f04e3ea6b9d34d298c4dceeb50228f8a6a6951341c3",
        "eval-tot/tot_summary.json": "6b7cff0348f43a125707ae4b1ab9639f4da04879a2d896c9314fa4095e1b0188",
    },
    ("planted-z", "random"): {
        "metrics": 0,
        "metrics/metrics.csv": "91119f9cae2589cc3719ad4f8849ee283663e636ebab1b3d529b3c48401ba6e3",
        "stats": 0,
        "stats/depth_hist.csv": "83cfca545dc0484b2325a97541d576caffead5e8b862ce8ac974b4b1f99d50cb",
        "stats/breadth_hist.csv": "20e807ec0b604445190de50bdfc53f9536c06c53b21bde935247efac4347238c",
        "stats/scatter.csv": "137586af2983532199c8238156364125aabbf05ffb6d78a8772f5a4b1a4c3943",
        "stats/stats_summary.json": "a451d16cdb950d7c1272bba23f577096d575064a64a5a9d0d0d7ecaf45bf8149",
        "eval-z": 0,
        "eval-z/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "81991655b979678669b889ce5e2fa222b57b4c969cfc65e1029599af863dab69",
        "eval-z-absolute/z_summary.json": "a0594cf5c9a7b3957d72d27561642032145166f6d76d3281f46ef6adecfbf1b5",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "8a63972adc3c8c821e6e1f04e3ea6b9d34d298c4dceeb50228f8a6a6951341c3",
        "eval-tot/tot_summary.json": "6b7cff0348f43a125707ae4b1ab9639f4da04879a2d896c9314fa4095e1b0188",
    },
    ("random", "min-id"): {
        "metrics": 0,
        "metrics/metrics.csv": "3205450d01d4d70a9acd259cf1793797f00295bfd4f5a7c2660f8d826688a702",
        "stats": 0,
        "stats/depth_hist.csv": "c17f73b616fe3e4f87878886726eecbdbd5c0b6ee3f9579a6a0eb2f6d685eed8",
        "stats/breadth_hist.csv": "88213dad453d9ad0a5b681d971da0f5c09e371c201226efaa9a5172ba7ff033c",
        "stats/scatter.csv": "096c888d1891f5a979ddc14ad3395157916c9b087248c9db34fe8ed7dd084e83",
        "stats/stats_summary.json": "e9de443c3f8e9baf7fd67faf00d6fefdac8da764e816172728df1a43892409ce",
        "eval-z": 0,
        "eval-z/venues.csv": "9da270a0bf9714f3c2eaf310c563248a3cece9e24ae373a2ce58e28af1653cc7",
        "eval-z/z_summary.json": "be97a3a057c7b3a69c332210426b23643ca09ffad1fa5d8c0842a4be3a31d055",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "a3c8616c357ef4d278af82d5d1a1e7586f53789f321fb2bcd453e38341afdad6",
        "eval-z-absolute/z_summary.json": "66bac61cf7c279bd9e2b7fba619f2fe135ec8e0347c1d273af8ecefce0137707",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "a4240947d9b33068775b96e212d2eb2e663579bc7a238e4f33d2a5fc6ae78d5f",
        "eval-tot/tot_summary.json": "c161d53b67632ccf47e108bc17c946beba914decc4b205537ab02d55ae67a950",
    },
    ("random", "random"): {
        "metrics": 0,
        "metrics/metrics.csv": "1ca61eb4140eac34aa6338381906f60239241296170540db91e98b73c70d9a5b",
        "stats": 0,
        "stats/depth_hist.csv": "c17f73b616fe3e4f87878886726eecbdbd5c0b6ee3f9579a6a0eb2f6d685eed8",
        "stats/breadth_hist.csv": "88213dad453d9ad0a5b681d971da0f5c09e371c201226efaa9a5172ba7ff033c",
        "stats/scatter.csv": "9612a19e80b7572923a070cb3d918aad7b004f189d91581c51f383054da986ea",
        "stats/stats_summary.json": "e9de443c3f8e9baf7fd67faf00d6fefdac8da764e816172728df1a43892409ce",
        "eval-z": 0,
        "eval-z/venues.csv": "9da270a0bf9714f3c2eaf310c563248a3cece9e24ae373a2ce58e28af1653cc7",
        "eval-z/z_summary.json": "be97a3a057c7b3a69c332210426b23643ca09ffad1fa5d8c0842a4be3a31d055",
        "eval-z-absolute": 0,
        "eval-z-absolute/venues.csv": "a3c8616c357ef4d278af82d5d1a1e7586f53789f321fb2bcd453e38341afdad6",
        "eval-z-absolute/z_summary.json": "66bac61cf7c279bd9e2b7fba619f2fe135ec8e0347c1d273af8ecefce0137707",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "c265730bc72e09def3a39da655c58d46cdb488031ee0a9ab039c7d9460dc1e05",
        "eval-tot/tot_summary.json": "bcdae2adc0dd685108b2156dbb3bbf0061aecfdbdfa3326d9b03049be4808216",
    },
    ("toy", "min-id"): {
        "metrics": 0,
        "metrics/metrics.csv": "3c6b6f9b3012059f779a0c969d8a6ed3870d8f328066fecff374ca5c07d12ddc",
        "stats": 0,
        "stats/depth_hist.csv": "6f220570205475a19a5ac04d727f87a767ead93831bcc5e062f6a7e1c806bdb4",
        "stats/breadth_hist.csv": "d72e7946e21678a6d0d3ee0208e99d36403867558dd3e9d9319d2e2ae42453ab",
        "stats/scatter.csv": "4487f3f40dea5858e18beb95ee749e9cd4eacf3946bc1eb6f28a0c68631774ee",
        "stats/stats_summary.json": "9db07c8374e366425afa8f9b9f735355b2f9d877fb8e021a9c2fb2198b36d454",
        "eval-z": 2,
        "eval-z/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-z-absolute": 2,
        "eval-z-absolute/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z-absolute/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "747d38ff117ac2b22ea5cf1e5ce82c27571942f133dc37fe8765de119c9bc45e",
        "eval-tot/tot_summary.json": "9e829205754faf062867b32f05a6f533e812314f2aa70f18c1c231cd907184b9",
    },
    ("toy", "random"): {
        "metrics": 0,
        "metrics/metrics.csv": "78f39ff1482347d04d67bf35439406f1382197db41c43d336a42035b145207a3",
        "stats": 0,
        "stats/depth_hist.csv": "6f220570205475a19a5ac04d727f87a767ead93831bcc5e062f6a7e1c806bdb4",
        "stats/breadth_hist.csv": "d72e7946e21678a6d0d3ee0208e99d36403867558dd3e9d9319d2e2ae42453ab",
        "stats/scatter.csv": "6d331bb3cdbcdc8b9eb647e921b2d628dcab27082eda9d71e750474c7ca6bb1b",
        "stats/stats_summary.json": "9db07c8374e366425afa8f9b9f735355b2f9d877fb8e021a9c2fb2198b36d454",
        "eval-z": 2,
        "eval-z/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-z-absolute": 2,
        "eval-z-absolute/venues.csv": "e31f5a98fde29b0c1913e65d91e49e7d0fc40e5a2928dadaf3b68c1465a638cb",
        "eval-z-absolute/z_summary.json": "b81591a743528528410cdf0300e6ed7032c9503fb8caed28c44b464bafd3dc3d",
        "eval-tot": 0,
        "eval-tot/tot_cases.csv": "747d38ff117ac2b22ea5cf1e5ce82c27571942f133dc37fe8765de119c9bc45e",
        "eval-tot/tot_summary.json": "9e829205754faf062867b32f05a6f533e812314f2aa70f18c1c231cd907184b9",
    },
}


# sha256 of the cache that every run on a fixture writes: only the input files
# key it, so it is the same for each run and tie policy.  The pins were taken
# from caches of format CACHE_PINNED_FORMAT; a new cache format or input digest
# retakes them all.
CACHE_PINNED_FORMAT = 7
CACHE_PINNED = {
    "planted-tot": "9204fd3cd3df3fb911d09c9a6d1d18cd4777cd29b9fcab0e01d799ddcd1b5a62",
    "planted-z": "93b4e0455a31e585b97fd65303e9078ddb118ca989536d463648b9cc530e7080",
    "random": "4d73fd9291c7c72aa7abaf8b593124fa4fb190f223eb91148944c34a3ffd1d71",
    "toy": "f7eb7c2dca3fc344e4df77f694bfbfc22abb9ea89847981e99df8e057eb9552e",
}


def _write_awardees(fixture) -> None:
    """Each venue edition's most cited paper (smallest id on ties), and one unknown venue."""
    with open(fixture / "edges.tsv", encoding="utf-8") as fh:
        cites = Counter(line.rstrip("\n").split("\t")[1] for line in fh)
    best = {}
    with open(fixture / "meta.jsonl", encoding="utf-8") as fh:
        for rec in map(json.loads, fh):
            if "venue" in rec:
                key = (rec["venue"], rec["year"])
                score = (-cites[rec["id"]], rec["id"])
                best[key] = min(best.get(key, score), score)
    with open(fixture / "awardees.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("paper_id", "venue", "year"))
        writer.writerows((pid, venue, year) for (venue, year), (_, pid) in sorted(best.items()))
        writer.writerow(("nobody", "NOWHERE-1999", 1999))


def _corpus_flags(root, fixture_name: str, tie: str) -> list[str]:
    """The input and tie flags of a run on the fixture, synthesized on first use."""
    fixture = root / fixture_name
    if not (fixture / "edges.tsv").exists():
        assert main(["synth", *FIXTURES[fixture_name][0], "--out", str(fixture)]) == 0
        if fixture_name != "planted-tot":
            _write_awardees(fixture)
    return ["--edges", str(fixture / "edges.tsv"), "--meta", str(fixture / "meta.jsonl"), "--tie", tie, "--seed", "5"]


def output_digests(root, fixture_name: str, tie: str) -> dict:
    """{run/file: sha256} plus {run: exit code} for one fixture under one tie policy."""
    _, z_flags, tot_flags = FIXTURES[fixture_name]
    fixture = root / fixture_name
    corpus = _corpus_flags(root, fixture_name, tie)
    argv = {
        "metrics": ["metrics", *corpus],
        "stats": ["stats", *corpus],
        "eval-z": ["eval-z", *corpus, *z_flags],
        "eval-z-absolute": ["eval-z", *corpus, *z_flags, "--gain", "absolute"],
        "eval-tot": ["eval-tot", *corpus, *tot_flags, "--awardees", str(fixture / "awardees.csv")],
    }
    digests = {}
    for run, files in RUNS.items():
        out = root / f"{fixture_name}-{tie}-{run}"
        digests[run] = main([*argv[run], "--out", str(out)])
        for name in files:
            digests[f"{run}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("tie", ["min-id", "random"])
@pytest.mark.parametrize("fixture_name", sorted(FIXTURES))
def test_outputs_match_pinned_digests(root, fixture_name, tie):
    assert output_digests(root, fixture_name, tie) == PINNED[fixture_name, tie]
    for run in RUNS:
        cache = root / f"{fixture_name}-{tie}-{run}" / CACHE_NAME
        assert json.loads(np.load(cache).tobytes())["format"] == CACHE_FORMAT == CACHE_PINNED_FORMAT, (
            f"caches are now format {CACHE_FORMAT}: retake every CACHE_PINNED entry ({', '.join(sorted(CACHE_PINNED))})"
            " and set CACHE_PINNED_FORMAT")
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == CACHE_PINNED[fixture_name], run
        assert load_cache(cache) is not None, run


@pytest.mark.parametrize("case", sorted(SYNTH))
def test_synth_outputs_match_pinned_digests(tmp_path, case):
    assert main(["synth", *SYNTH[case], "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SYNTH_FILES if (tmp_path / name).exists()}
    assert digests == SYNTH_PINNED[case]


# eval-z on the random fixture over all its years writes different z scores
# under the two tie policies (the other eval-z runs do not): sha256 of its
# files under each policy
TIE_Z_FLAGS = ["--years", "1985:2005", "--t1", "3", "--t2", "7"]
TIE_Z_PINNED = {
    "min-id": {
        "venues.csv": "a5445d2a886c0c2fca75abb21d22f2e35baebd5f6eee9626e3bfb591a503e3e3",
        "z_summary.json": "2ffd23e75bbe9d6d14af37bd625be67ee8d3b026b5c715c987e0a45abb274abd",
    },
    "random": {
        "venues.csv": "9228bc517c9a17f5144f1a56d848bb3ab430c48c986ac1224ecc30a29b0e6e23",
        "z_summary.json": "c875271b5d09abe4de767e48a944419f2ee398c3f063d3958bfacd5373aea623",
    },
}


@pytest.mark.parametrize("tie", sorted(TIE_Z_PINNED))
def test_tie_sensitive_eval_z_matches_pinned_digests(root, tie):
    assert TIE_Z_PINNED["min-id"]["venues.csv"] != TIE_Z_PINNED["random"]["venues.csv"]
    out = root / f"random-{tie}-eval-z-ties"
    assert main(["eval-z", *_corpus_flags(root, "random", tie), *TIE_Z_FLAGS, "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in RUNS["eval-z"]} == TIE_Z_PINNED[tie]


# sha256 of the metrics.csv that `idtree metrics --tie random --seed 1` writes
# for a corpus whose citers cite each other within a year: its random ties are
# drawn in attach order, where a citer waits for every citer it cites
SAME_YEAR_RANDOM_PINNED = "74872e569b559e64d508cede837d8b1884da0bdb70429891fe29232e77f56836"


def test_same_year_random_ties_match_pinned_digest(tmp_path, corpus_files):
    edges, meta = corpus_files(_same_year_corpus(120, 2, 0.2, 0))
    out = tmp_path / "out"
    assert main(["metrics", "--edges", str(edges), "--meta", str(meta), "--tie", "random", "--seed", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == SAME_YEAR_RANDOM_PINNED
