package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/isa"
)

// streamDigests pins, per profile at seed 42, the SHA-256 over every field
// of the first 30k µops (one Take) followed by 5k more from Next. Any
// change to the generator's RNG draw order, its register allocation or its
// µop layout shows up here as a mismatch — the stream is the input of
// every trace, analysis and served workload.
var streamDigests = map[string]string{
	"400.perlbench":  "5649937fab3995e28a9aa8de065cdfb3d0c1a4c88180d15e5af177f114bc724c",
	"401.bzip2":      "dae5ba59af343d946c8584dee70ee2b78c3e702f67fd584b471711f2aa5facc8",
	"403.gcc":        "c2f0693904ab9de17237a607c00c6af9daf5f6830377fb533cdf21dff8dc5bfb",
	"410.bwaves":     "ba3fb14fb24a53ac69c8656956ca6595400bb200caf804cb015545e2564b0990",
	"416.gamess":     "455af48cea8355eda960409a15a00efc6a96c67793e616985987abea92f806d5",
	"429.mcf":        "cea6e6745f78dc3b3333cc28bd11ffc24b86ca3c0b8ae1d928c66de39270efd0",
	"433.milc":       "41e9ab80ae88015a7c28ec97ac22b544164f89f20a83c9e244d24419dbc198a2",
	"437.leslie3d":   "f48bd6d07850407a713955ed87e2d062591ebd881071bfcbcf0c58f295cf76d3",
	"444.namd":       "95ca05ad6f252e84f8cd7a04b94105c0532d13a548921315d9c8162b814f658f",
	"450.soplex":     "1bd85f60b26770f0643fa197c997f753ea6d7d966ce898f3175b01b1ea01e5f4",
	"453.povray":     "f55061a2d73e162284fa9ae4356ab0434667afc492a021219ab0389827998108",
	"456.hmmer":      "3267ddaeb559a5f1e835a56f28d60785f239ead76c629543f1736baaae37deac",
	"458.sjeng":      "8c8541f9700aa4ecefae656b03fe87138aa1b6a56302bf3e92eda0328e66cda6",
	"462.libquantum": "a8a0d7395910c37d33fb1cf542033157e15fd8385338fc546a4c542d907842a7",
	"470.lbm":        "8ca05a75c70c82ac0a09dd973cded32dc6bfae8aa6ecf651bf09ccd8dd874330",
	"471.omnetpp":    "0575637c037901cb86e5a22afba4cdd742bcd0c3c3fb52392ca2c016f3a637b1",
	"483.xalancbmk":  "e1bda558563b33c90a00b9accb4b4572184342fda2b222ea523b3b598aacc450",
}

// hashMicroOp appends every field of u to h in a fixed layout.
func hashMicroOp(h hash.Hash, u *isa.MicroOp) {
	var b [8*8 + 4]byte
	put := func(i int, v uint64) { binary.LittleEndian.PutUint64(b[i*8:], v) }
	put(0, u.Seq)
	put(1, u.MacroSeq)
	put(2, u.PC)
	put(3, uint64(int64(u.Dest)))
	put(4, uint64(int64(u.Src1)))
	put(5, uint64(int64(u.Src2)))
	put(6, u.Addr)
	put(7, u.Target)
	flag := func(on bool) byte {
		if on {
			return 1
		}
		return 0
	}
	b[64], b[65], b[66], b[67] = byte(u.Class), flag(u.SoM), flag(u.EoM), flag(u.Taken)
	h.Write(b[:])
}

func TestStreamPinned(t *testing.T) {
	profs := Profiles()
	if len(profs) != len(streamDigests) {
		t.Errorf("%d profiles, %d pinned stream digests", len(profs), len(streamDigests))
	}
	for _, p := range profs {
		g := NewGenerator(p, 42)
		h := sha256.New()
		uops := g.Take(30000)
		for i := range uops {
			hashMicroOp(h, &uops[i])
		}
		for i := 0; i < 5000; i++ {
			u := g.Next()
			hashMicroOp(h, &u)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := streamDigests[p.Name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", p.Name, got, want)
		}
	}
}
