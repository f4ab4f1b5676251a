package main

// References recorded when the benchmark was added. The default seeds are
// the repository's smoke seeds (fuzz 7, serve 42); 1001 and 4242 are held
// out, so a claim made while tuning on the defaults must also hold there.
// Other seeds are checked for consistency within the run only.

// fuzzDigests maps a campaign seed to the CaseDigest of a fuzzCount-case
// campaign.
var fuzzDigests = map[uint64]string{
	7:    "4a3f91c9bbf7eaf409b820335a7ec1a6db1625e43034cfca183a3aaff619891b",
	1001: "7ef97ab99d1016843787e580a1210ed2b65927aff7b1da9433acba2a71c8c486",
}

// serveDigests maps a serve seed to the stream digests of the closed-loop
// (closedN) and open-loop (openN) request counts.
var serveDigests = map[uint64][2]string{
	42:   {"31ac15d362d957a8c929295b33463903d7b4195b696a3f6b2149c93d8d234d1a", "904bb316150894b1b88012ed26ac14f8463a544181366d08a8ab1545bd8b8635"},
	4242: {"0738f3639e9b53ddad9a85a3bf7ebd75a184289f5c6f3eb544f3c107c5929cec", "47e07bc3ac5b3e67e1ac405e11189126cba4b65d7254b43c3dfa266efbf6a49d"},
}

// specRets maps each SPEC2006-like program to its native return value.
var specRets = map[string]uint64{
	"400.perlbench":  799980000,
	"403.gcc":        97992,
	"429.mcf":        206475804326,
	"447.dealII":     0,
	"458.sjeng":      0,
	"462.libquantum": 84,
	"470.lbm":        0,
	"471.omnetpp":    28649860,
}

// serveOutcomes maps a serve seed to each class's outcomes over the closed
// loop's closedN requests, in the spec's client order.
var serveOutcomes = map[uint64][]outcome{
	42:   {{Runs: 15371, Checks: 1305584}, {Runs: 10229, Checks: 390966}},
	4242: {{Runs: 15318, Checks: 1047560}, {Runs: 10282, Checks: 370114}},
}
