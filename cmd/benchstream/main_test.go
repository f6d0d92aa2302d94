package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, variants []Variant) string {
	t.Helper()
	enc, err := json.Marshal(Baseline{Variants: variants})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckAgainst(t *testing.T) {
	base := writeBaseline(t, []Variant{
		{Circuit: "C432", Model: "zero", BytesPerOp: 2000},
		{Circuit: "C3540", Model: "fanout", BytesPerOp: 60000},
	})

	// Within budget: identical, +25% on the small one (inside the
	// absolute 4 KiB jitter floor), and a brand-new variant.
	ok := []Variant{
		{Circuit: "C432", Model: "zero", BytesPerOp: 2500},
		{Circuit: "C3540", Model: "fanout", BytesPerOp: 60000},
		{Circuit: "C880", Model: "zero", BytesPerOp: 1 << 30},
	}
	if err := checkAgainst(base, ok); err != nil {
		t.Fatalf("in-budget variants rejected: %v", err)
	}

	// A real regression: >25% growth and past the absolute floor.
	bad := []Variant{{Circuit: "C3540", Model: "fanout", BytesPerOp: 90000}}
	err := checkAgainst(base, bad)
	if err == nil {
		t.Fatal("90000 vs 60000 B/run accepted")
	}
	if !strings.Contains(err.Error(), "C3540/fanout") {
		t.Fatalf("regression error does not name the variant: %v", err)
	}

	// Small-magnitude growth stays under the jitter floor even when the
	// ratio is large.
	tiny := []Variant{{Circuit: "C432", Model: "zero", BytesPerOp: 6000}}
	if err := checkAgainst(base, tiny); err != nil {
		t.Fatalf("sub-floor growth rejected: %v", err)
	}

	// A baseline variant of a measured circuit with no measured
	// counterpart is lost coverage, not a pass; baseline variants of
	// circuits this run did not measure are skipped.
	dropped := []Variant{{Circuit: "C3540", Model: "zero", BytesPerOp: 1000}}
	err = checkAgainst(base, dropped)
	if err == nil {
		t.Fatal("baseline variant C3540/fanout missing from the run accepted")
	}
	if !strings.Contains(err.Error(), "C3540/fanout") || strings.Contains(err.Error(), "C432") {
		t.Fatalf("missing-variant error names the wrong variants: %v", err)
	}

	if err := checkAgainst(filepath.Join(t.TempDir(), "missing.json"), ok); err == nil {
		t.Fatal("missing baseline accepted")
	}
}
