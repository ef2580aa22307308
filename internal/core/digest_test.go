package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// analysisDigests pins the SHA-256 of WriteAnalysis for every workload at
// 6000 µops, stream seed 42, SegmentLength 2000 and otherwise default
// options. Any change to the reduction kernel that is not bit-exact shows
// up here as a digest mismatch.
var analysisDigests = map[string]string{
	"400.perlbench":  "23bee47394815004184a15c66a9c3bf3faf08ea539140b7ee1b19f91b5f1464e",
	"401.bzip2":      "bcc3b0a3327c745183629745a23b970329568d5e4379a4bffb02c061cd3cbe87",
	"403.gcc":        "ba2ea739edcd0f331998580c4f9b418076fac48844cd5b6d663013ea320be82f",
	"410.bwaves":     "c4a641159457e7d7fda761f249f8d0aa9091e483f5f7a7bb698cf15081c441bc",
	"416.gamess":     "c11dceacc72f15f6d135e5addd46d1725da33b4378d2e57e2efe41288bc071ea",
	"429.mcf":        "51dadc18e04ae4ed6d89722dff17e0d7db99c82f17f8c76840639fa94f29c02e",
	"433.milc":       "22ae5f5cbfdd696e0c2133306b85c0a5dea3722c302e621fc6722cc60797d51e",
	"437.leslie3d":   "cd45d30428675a7d617b8341f304f0053a24417aeab9180b4073287ceebe99d9",
	"444.namd":       "f38677a2996ab4a1a79ed5f808a9eaf2f78fe5bd56c9c73f29e0e8fafdbf50ba",
	"450.soplex":     "cde97f459ebf1de61376f7b01f224c86ee5efe3e5cb005e1398329ac71357c80",
	"453.povray":     "52c1a382ac1beff7a54c4e29b83fd9a4a207cca5f2ffeb77a4fefd75013b92c2",
	"456.hmmer":      "106741826dacadea187488419cd702e9386f0f199e1fd5dcf00df29731371749",
	"458.sjeng":      "6d2d7c321645aeb86c2fc356778cadf31dff489f92752443a93daa8d51cf0c2a",
	"462.libquantum": "2d8defd4668e184556f8a6df9a2543f97ba34d3f981d4085885557c027f11fdd",
	"470.lbm":        "b8cd41be7681ab9df9d6eb9aade9473c6ad87b401ec0cd37962a444f2fa8a133",
	"471.omnetpp":    "e4938054e2e576c366df10457bdf222f6c41b37d66be336541b810fb1425c24d",
	"483.xalancbmk":  "9e4dfce639c502df5e863e6a12387d0cfb773d74d9daedd56840db6494d54892",
}

// inSample reports whether the heavy whole-workload tests check workload i:
// all of them normally, every n-th under -short or the race detector, which
// slows the analyzer about twentyfold.
func inSample(i, n int) bool {
	return !(testing.Short() || raceEnabled) || i%n == 0
}

func TestAnalysisDigestsPinned(t *testing.T) {
	cfg := config.Baseline()
	opts := DefaultOptions()
	opts.SegmentLength = 2000
	names := workload.Names()
	if len(names) != len(analysisDigests) {
		t.Errorf("%d workloads, %d pinned digests", len(names), len(analysisDigests))
	}
	for i, name := range names {
		if !inSample(i, 4) {
			continue
		}
		prof, _ := workload.ByName(name)
		tr := simTrace(t, cfg, workload.Stream(prof, 42, 6000))
		a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := WriteAnalysis(h, a); err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := analysisDigests[name]; got != want {
			t.Errorf("%s: analysis digest %s, want %s", name, got, want)
		}
	}
}
