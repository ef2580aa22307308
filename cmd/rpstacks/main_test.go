package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stacks"
)

func TestParseSet(t *testing.T) {
	base := config.Baseline().Lat
	l, err := parseSet(base, "L1D=2, FpAdd=3")
	if err != nil {
		t.Fatal(err)
	}
	if l[stacks.L1D] != 2 || l[stacks.FpAdd] != 3 {
		t.Fatalf("parsed %v", l)
	}
	if l[stacks.MemD] != base[stacks.MemD] {
		t.Fatal("untouched events must keep baseline values")
	}
	if _, err := parseSet(base, "NoSuch=2"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := parseSet(base, "L1D"); err == nil {
		t.Fatal("missing value accepted")
	}
	if _, err := parseSet(base, "L1D=x"); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := parseSet(base, "Base=3"); err == nil {
		t.Fatal("changing Base must fail validation")
	}
	for _, spec := range []string{"L1D=NaN", "L1D=Inf", "DTLB=-Inf"} {
		if _, err := parseSet(base, spec); err == nil {
			t.Fatalf("non-finite latency %q accepted", spec)
		}
	}
	same, err := parseSet(base, "")
	if err != nil || same != base {
		t.Fatal("empty spec must be the baseline")
	}
}
